"""Dense complex Hermitian linear algebra used by every other module.

Matrices are plain ``numpy`` arrays of ``complex128``.  The functions here
validate the structural invariants (hermiticity, unit trace, positivity)
and provide the spectral primitives: eigendecomposition, matrix functions
of a Hermitian argument, norms, and positivity tests.

Each check decomposes its input once and reads ||H|| in the hermiticity
tolerance rtol*(1+||H||) off that spectrum, so no validator runs an SVD.
:func:`validate_density` returns a :class:`State` that keeps its ``eigh``,
and :func:`checked_hermitian` a :class:`Hermitian` that keeps its
eigenvalues; passed back in place of the matrix, either is used as it is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ValidationError

RANK_TOL = 1e-12

HERMITIAN_RTOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10


class Spectrum(NamedTuple):
    """Eigendecomposition H = U diag(eigenvalues) U^dag, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class State:
    """A validated density matrix with its eigendecomposition, eigenvalues ascending.

    The arrays are shared, not copied: modifying them invalidates the State.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    full_rank: bool


@dataclass(frozen=True)
class Hermitian:
    """A matrix that passed the hermiticity check, with its ascending eigenvalues.

    The arrays are shared, not copied: modifying them invalidates the check.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    return a


def _checked_spectrum(m, vectors: bool = False):
    """(matrix, ascending eigenvalues, eigenvectors or None) after checking H = H^dag."""
    if isinstance(m, State):
        return m.matrix, m.eigenvalues, m.eigenvectors
    if isinstance(m, Hermitian):
        return (m.matrix, *np.linalg.eigh(m.matrix)) if vectors else (m.matrix, m.eigenvalues, None)
    a = as_matrix(m)
    lam, u = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    if a.size:
        dev = np.max(np.abs(a - a.conj().T))
        if dev > HERMITIAN_RTOL * (1.0 + max(-lam[0], lam[-1])):
            raise ValidationError(f"matrix is not Hermitian: deviation {dev:.3e}")
    return a, lam, u


def validate_hermitian(m) -> np.ndarray:
    """Return ``m`` as an array after checking H = H^dag up to rtol*(1+||H||)."""
    return _checked_spectrum(m)[0]


def checked_hermitian(m) -> Hermitian:
    """Check H = H^dag once; every later check of the result costs no decomposition."""
    if isinstance(m, Hermitian):
        return m
    a, lam, _ = _checked_spectrum(m)
    return Hermitian(a, lam)


def validate_density(m) -> State:
    """Validate a density matrix with one eigendecomposition; a State passes unchanged."""
    if isinstance(m, State):
        return m
    a, lam, u = _checked_spectrum(m, vectors=True)
    tr = np.trace(a).real
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValidationError(f"trace {tr} is not 1")
    if lam[0] < -DENSITY_EIG_TOL:
        raise ValidationError(f"not positive semi-definite: min eigenvalue {lam[0]:.3e}")
    return State(a, lam, u, bool(lam[0] >= RANK_TOL))


def eigh(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    _, lam, u = _checked_spectrum(m, vectors=True)
    return Spectrum(lam, u)


def matrix_function(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues within ``RANK_TOL`` of zero are evaluated at exactly zero, so
    e.g. ``sqrt`` is safe on a numerically PSD input while ``log`` raises a
    :class:`DomainError` on a singular one.
    """
    lam, u = eigh(m)
    lam = np.where(np.abs(lam) <= RANK_TOL, 0.0, lam)
    with np.errstate(all="ignore"):
        flam = np.asarray(f(lam), dtype=float)
    if not np.all(np.isfinite(flam)):
        raise DomainError("scalar function undefined at an eigenvalue of the input")
    return (u * flam) @ u.conj().T


def operator_norm(m) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    a = as_matrix(m)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def norms(m) -> tuple[float, float, float]:
    """(operator norm, trace norm, Frobenius norm) of a Hermitian matrix."""
    lam = _checked_spectrum(m)[1]
    return float(np.max(np.abs(lam))), float(np.sum(np.abs(lam))), float(np.sqrt(np.sum(lam**2)))


def is_psd(m, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -tol."""
    return bool(_checked_spectrum(m)[1][0] >= -tol)


def matrix_to_json(m) -> dict:
    """Encode a square complex matrix as {"dim": d, "entries": [[re, im], ...]} row-major."""
    a = as_matrix(m)
    return {"dim": a.shape[0], "entries": np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != d * d:
        raise ValidationError(f"matrix JSON: expected {d * d} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_matrix(flat.reshape(d, d))


def load_json(path, parse):
    """Read a JSON file and ``parse`` it; a missing or mistyped field is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc
