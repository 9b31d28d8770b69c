"""Dense complex Hermitian linear algebra used by every other module.

Matrices are plain ``numpy`` arrays of ``complex128``.  The functions here
validate the structural invariants (hermiticity, unit trace, positivity)
and provide the spectral primitives: eigendecomposition, matrix functions
of a Hermitian argument, norms, and positivity tests.

Each check decomposes its input once and reads ||H|| in the hermiticity
tolerance rtol*(1+||H||) off that spectrum, so no validator runs an SVD.
A family is checked as one stack of one shape, whose checks raise the
first fault they find, member by member; a member of another shape than
the first is a fault, raised once the members before it pass.  A raw
member comes back as its row of the stack that was checked, a copy the
caller does not hold.  A :class:`State` keeps its ``eigh``; passed back for
its matrix, it is used as is.
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


@dataclass(frozen=True, eq=False)
class State:
    """A validated density matrix with its eigendecomposition, eigenvalues ascending.

    The matrix is a copy of the one validated, so the caller's array is not held.  Modifying the arrays
    invalidates the State; a mechanism marks those of its members read-only.  States compare by identity.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    full_rank: bool


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def _checked_spectra(ms, vectors: bool = False, density: bool = False) -> list:
    """(matrix, ascending eigenvalues, eigenvectors or None) for each of ``ms``, after checking H = H^dag and, for
    ``density``, unit trace and positivity.

    The members are coerced in order, and one whose shape differs from member 0's is a fault.  The members that are
    not a State share one stacked decomposition, whose checks run in order and raise the first fault they find; a
    State is used as it is, and any other member comes back as its row of that stack.  When member k cannot be
    coerced or has another shape, the members before it are checked first, so that a fault among them is the
    one raised.
    """
    if not np.iterable(ms):
        raise ValidationError("expected a sequence of matrices")
    out, raw = [], []  # raw: the index of each member that is not a State
    for k, m in enumerate(ms):
        try:
            a = m.matrix if isinstance(m, State) else as_matrix(m)
            if out and a.shape != out[0][0].shape:
                raise ValidationError(f"matrix {k} has shape {a.shape}, matrix 0 has {out[0][0].shape}")
        except (ValueError, TypeError):
            _checked_spectra([out[j][0] for j in raw], vectors, density)  # the members before k come first
            raise
        if isinstance(m, State):
            out.append((a, m.eigenvalues, m.eigenvectors))
        else:
            out.append((a, None, None))
            raw.append(k)
    if raw:
        stack = np.array([out[k][0] for k in raw])
        skew = stack.conj()
        skew -= stack.swapaxes(1, 2)  # conj(H) - H^T, entry by entry the conjugate of H - H^dag
        dev = np.abs(skew).max(axis=(1, 2), initial=0.0).tolist()
        lam, u = np.linalg.eigh(stack) if vectors else (np.linalg.eigvalsh(stack), None)
        lo, hi = lam[:, 0].tolist(), lam[:, -1].tolist()
        traces = stack.trace(axis1=1, axis2=2).real.tolist() if density else None
        for j, k in enumerate(raw):
            if dev[j] > HERMITIAN_RTOL * (1.0 + max(-lo[j], hi[j])):
                raise ValidationError(f"matrix is not Hermitian: deviation {dev[j]:.3e}")
            if density and abs(traces[j] - 1.0) > DENSITY_TRACE_TOL:
                raise ValidationError(f"trace {traces[j]} is not 1")
            if density and lo[j] < -DENSITY_EIG_TOL:
                raise ValidationError(f"not positive semi-definite: min eigenvalue {lo[j]:.3e}")
            out[k] = (stack[j], lam[j], None if u is None else u[j])
    return out


def validate_hermitians(ms) -> list[np.ndarray]:
    """Each of ``ms`` as an array of one shape, a copy but for a State's, after checking H = H^dag in one stack."""
    return [a for a, _, _ in _checked_spectra(ms)]


def validate_hermitian(m) -> np.ndarray:
    """Return ``m`` as a copy after checking H = H^dag up to rtol*(1+||H||)."""
    return validate_hermitians((m,))[0]


def validate_densities(ms) -> tuple[State, ...]:
    """Validate density matrices of one shape with one stacked eigendecomposition; a State passes unchanged."""
    ms = tuple(ms) if np.iterable(ms) else ms  # _checked_spectra rejects what is not a sequence
    return tuple(
        m if isinstance(m, State) else State(a, lam, u, bool(lam[0] >= RANK_TOL))
        for m, (a, lam, u) in zip(ms, _checked_spectra(ms, vectors=True, density=True))
    )


def validate_density(m) -> State:
    """Validate a density matrix with one eigendecomposition; a State passes unchanged."""
    return validate_densities((m,))[0]


def eigh(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    _, lam, u = _checked_spectra((m,), vectors=True)[0]
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
    return float(np.linalg.norm(as_matrix(m), 2))


def norms(m) -> tuple[float, float, float]:
    """(operator norm, trace norm, Frobenius norm) of a Hermitian matrix."""
    lam = _checked_spectra((m,))[0][1]
    return float(np.max(np.abs(lam))), float(np.sum(np.abs(lam))), float(np.sqrt(np.sum(lam**2)))


def min_eigenvalues(ms) -> list[float]:
    """The smallest eigenvalue of each of ``ms``, after checking one shape and H = H^dag with one stacked eigvalsh."""
    return [float(lam[0]) for _, lam, _ in _checked_spectra(ms)]


def is_psd(m, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -tol."""
    return min_eigenvalues((m,))[0] >= -tol


def matrix_to_json(m) -> dict:
    """Encode a square complex matrix as {"dim": d, "entries": [[re, im], ...]} row-major."""
    a = as_matrix(m)
    return {"dim": a.shape[0], "entries": np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = obj["dim"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValidationError(f"matrix JSON: dim {d!r} is not an integer")
    if d < 0:
        raise ValidationError(f"matrix JSON: dim {d} is negative")
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
