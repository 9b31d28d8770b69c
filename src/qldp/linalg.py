"""Dense complex Hermitian linear algebra used by every other module.

Matrices are plain ``numpy`` arrays of ``complex128``.  The functions here
validate the structural invariants (hermiticity, unit trace, positivity)
and provide the spectral primitives: eigendecomposition, matrix functions
of a Hermitian argument, norms, and positivity tests.

Each check decomposes its input once and reads ||H|| in the hermiticity
tolerance rtol*(1+||H||) off that spectrum, so no validator runs an SVD.
:func:`validate_density` returns a :class:`State` that keeps its ``eigh``;
passed back in place of the matrix, a State is used as it is.
"""

from __future__ import annotations

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


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError("matrix has non-finite entries")
    return a


def _checked_spectrum(m, vectors: bool = False):
    """(matrix, ascending eigenvalues, eigenvectors or None) after checking H = H^dag."""
    if isinstance(m, State):
        return m.matrix, m.eigenvalues, m.eigenvectors
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


def matrix_function(m, f: Callable[[np.ndarray], np.ndarray], rank_tol: float = RANK_TOL) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues within ``rank_tol`` of zero are evaluated at exactly zero, so
    e.g. ``sqrt`` is safe on a numerically PSD input while ``log`` raises a
    :class:`DomainError` on a singular one.
    """
    lam, u = eigh(m)
    lam = np.where(np.abs(lam) <= rank_tol, 0.0, lam)
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
    d = a.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"dim": d, "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != d * d:
        raise ValidationError(f"matrix JSON: expected {d * d} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_matrix(flat.reshape(d, d))
