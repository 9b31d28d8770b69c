"""Equi-isoclinic tight fusion frames in the half-dimension regime d = 2r.

A fusion frame here is a family of n rank-r orthogonal projections on C^d
summing to (nr/d) I.  The family is equi-chordal when Tr P_i P_j = r*c for
all i != j and equi-isoclinic when additionally P_j P_i P_j = c P_j, with
the common constant forced to c = (nr - d) / (d (n - 1)).

The constructive route: take n unit vectors v_1..v_n in R^{n-1} forming a
regular simplex (pairwise inner product -1/(n-1), zero sum) and n - 1
pairwise anticommuting Hermitian unitaries G_1..G_{n-1} on C^{2^{a+1}}
from the Jordan-Wigner chain.  Then A_i = sum_k v_i(k) G_k satisfies
A_i^2 = I and {A_i, A_j} = 2 <v_i, v_j> I, so P_i = (I + A_i)/2 are rank-r
projections with P_j P_i P_j = ((1 + <v_i, v_j>)/2) P_j = ((n-2)/(2n-2)) P_j
and sum_i P_i = (n/2) I.  Such families exist in dimension d = 2r, r = 2^a,
exactly when n <= 2a + 4 (Radon-Hurwitz bound).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ExistenceError, ValidationError
from .linalg import as_matrix, eigh, matrix_from_json, matrix_to_json, operator_norm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# What a frame file declares beside its projections; FusionFrame derives each from them.
FRAME_FIELDS = ("d", "r", "n", "c")


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """n rank-r orthogonal projections on C^d; d, n, r and the constant c = frame_constant(d, r, n)
    are all read off ``projections`` (r is the rounded trace of the first).  Frames compare by identity."""

    projections: tuple
    d: int = field(init=False)
    r: int = field(init=False)
    n: int = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        n = len(self.projections)
        d = self.projections[0].shape[0] if n else 0
        if n < 2 or d < 1:
            raise ValidationError(f"a frame needs n >= 2 and d >= 1, got n={n}, d={d}")
        if any(p.shape[0] != d for p in self.projections):
            raise ValidationError("projections have mixed dimensions")
        r = int(round(np.trace(self.projections[0]).real))
        if r < 1:
            raise ValidationError(f"a frame needs projections of rank r >= 1, got r={r}")
        for key, value in (("d", d), ("r", r), ("n", n), ("c", frame_constant(d, r, n))):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class FrameCertificate:
    """``c_observed`` is the constant (nr - d)/(d(n - 1)) of the inferred rank r that the
    residuals are measured against, not a value estimated from the input."""

    is_tight: bool
    is_ectff: bool
    is_eitff: bool
    c_observed: float
    max_residual: float


def frame_constant(d: int, r: int, n: int) -> float:
    """c = (nr - d) / (d (n - 1)); int true division rounds the exact quotient once."""
    return (n * r - d) / (d * (n - 1))


def radon_hurwitz(r: int) -> int:
    """2a + 2, where 2^a is the largest power of two dividing r."""
    if r < 1:
        raise ValidationError("rank must be a positive integer")
    return 2 * (r & -r).bit_length()  # r & -r = 2^a


def clifford_generators(m: int) -> list[np.ndarray]:
    """2m + 1 pairwise anticommuting Hermitian unitaries on C^{2^m}.

    Jordan-Wigner chain, qubit by qubit: X(1), Y(1), Z(1)X(2), Z(1)Y(2), ...,
    Z(1)...Z(m).  Each generator squares to the identity and is traceless.
    """
    if m < 1:
        raise ValidationError("need at least one qubit")
    gens = []
    for site in range(m):
        prefix = np.eye(1, dtype=complex)
        for _ in range(site):
            prefix = np.kron(prefix, PAULI_Z)
        tail = np.eye(2 ** (m - site - 1), dtype=complex)
        gens.append(np.kron(np.kron(prefix, PAULI_X), tail))
        gens.append(np.kron(np.kron(prefix, PAULI_Y), tail))
    z_all = np.eye(1, dtype=complex)
    for _ in range(m):
        z_all = np.kron(z_all, PAULI_Z)
    gens.append(z_all)
    return gens


def simplex_vectors(n: int) -> np.ndarray:
    """n unit vectors in R^{n-1} with pairwise inner product -1/(n-1) and zero sum.

    Rows of the returned (n, n-1) array.  Built as a square root of the
    simplex Gram matrix (n I - J) / (n - 1) restricted to the complement of
    the all-ones direction, so the construction is deterministic.
    """
    if n < 2:
        raise ValidationError("need at least two vectors")
    gram = (n * np.eye(n) - np.ones((n, n))) / (n - 1)
    lam, vecs = np.linalg.eigh(gram)
    keep = lam > 1e-9
    return vecs[:, keep] * np.sqrt(lam[keep])


def build_eitff(n: int, a: int | None = None) -> FusionFrame:
    """Equi-isoclinic tight fusion frame with d = 2^{a+1}, r = 2^a.

    ``a`` defaults to the minimal admissible value max(0, ceil(n/2) - 2).
    Raises :class:`ExistenceError` when n > 2a + 4.  Cached per (n, a) once the
    default is resolved, so ``build_eitff(3)`` and ``build_eitff(3, 0)`` return one
    frame; its projections are shared and read-only: copy one before editing it.
    """
    return _cached_eitff(n, max(0, -(-n // 2) - 2) if a is None else a)


@functools.cache
def _cached_eitff(n: int, a: int) -> FusionFrame:
    if n < 2:
        raise ValidationError("need at least two projections")
    if a < 0:
        raise ValidationError("a must be non-negative")
    if a > 5:  # d = 2^(a + 1) > 64, refused before a power of two is formed
        raise ValidationError(f"dimension 2^{a + 1} exceeds the supported dense-matrix range (<= 64)")
    bound = radon_hurwitz(2**a) + 2
    if n > bound:
        raise ExistenceError(f"no equi-isoclinic family with n={n} at rank 2^{a}: need n <= {bound}")
    m = a + 1
    d = 2**m
    gens = clifford_generators(m)[: n - 1]
    vs = simplex_vectors(n)
    eye = np.eye(d, dtype=complex)
    projections = tuple(0.5 * (eye + sum(vs[i, k] * gens[k] for k in range(n - 1))) for i in range(n))
    for p in projections:
        p.setflags(write=False)
    return FusionFrame(projections)


def verify_eitff(projections, tol: float = 1e-10) -> FrameCertificate:
    """Certify tightness, equi-chordality, and equi-isoclinicity of a projection family.

    d, n, r and c are those :class:`FusionFrame` reads off the family;
    tolerance violations show up as certificate failures rather than
    exceptions.  Mixed dimensions or inputs far from projections (||P^2 - P||
    > 100 tol, read as max |lambda^2 - lambda| off each projection's
    spectrum) are rejected.  The residuals are those of :func:`_residuals`.
    """
    frame = FusionFrame(tuple(as_matrix(p) for p in projections))
    tight_res, chordal_res, isoclinic_res = _residuals(frame, tol)
    is_tight = bool(tight_res <= tol)
    is_ectff = bool(is_tight and chordal_res <= tol)
    is_eitff = bool(is_ectff and isoclinic_res <= tol)
    return FrameCertificate(is_tight, is_ectff, is_eitff, frame.c, max(tight_res, chordal_res, isoclinic_res))


def _residuals(frame: FusionFrame, tol: float) -> tuple[float, float, float]:
    """(tight, chordal, isoclinic) residuals of a frame from one ``eigh`` per projection.

    tight = ||sum P_i - (nr/d) I||, and chordal = max_{i != j} |Tr P_i P_j - rc| with every trace
    read off one product of the flattened projections.  The isoclinic residual is an upper bound
    on max_{i != j} ||P_j P_i P_j - c P_j|| that forms no d x d product.

    ``eigh`` decomposes H_i, the Hermitian matrix whose lower triangle is that of P_i; the columns
    of V_i are its eigenvectors of eigenvalue > 1/2 and Q_i = V_i V_i^dag.  The nonzero spectrum
    of Q_j Q_i Q_j is sigma^2 over the singular values sigma of V_j^dag V_i, the cosines of the
    principal angles between the two ranges (Bjorck and Golub, Math. Comp. 27, 1973), so
    ||Q_j Q_i Q_j - c Q_j|| <= s = max |sigma^2 - c|.  Zero columns pad every V_i to the largest
    rank; the sigma = 0 they add covers the |c| that a rank gap adds to the left side.  With
    delta = max |lambda^2 - lambda| and e = max min(|lambda|, |lambda - 1|) over every spectrum,
    and a = max ||P_i - P_i^dag||_F / sqrt(2) >= ||P_i - H_i||:
    - H_j (H_i - Q_i) H_j has norm <= (1 + e)^2 e.
    - In blocks of Q_j, with A = H_j Q_j and D = Q_j Q_i Q_j - c Q_j, H_j Q_i H_j - c H_j has the
      diagonal blocks c (A^2 - A) + A D A, of norm <= |c| delta + (1 + e)^2 s, and
      G Q_i G - c G with G = H_j (I - Q_j), of norm <= e^2 + |c| e; its off-diagonal block
      A Q_i G has norm <= (1 + e) e / 2, since ||Q_j Q_i (I - Q_j)||^2 = max sigma^2 (1 - sigma^2).
    - Putting each P back for its H adds <= a ((1 + e + a)^2 + (1 + e)(1 + e + a) + (1 + e)^2 + |c|).
    For delta, a <= 0.01 (the projection check admits delta <= 100 tol, and the hermiticity check
    keeps a near d 1e-12) every eigenvalue has e_lambda = |lambda^2 - lambda| / max(|lambda|,
    |lambda - 1|) <= 1.0104 |lambda^2 - lambda|, so e <= 0.0102 and the sum is at most the residual
    returned, (1 + 2.1 delta) s + (1.6 + 1.1 |c|) delta + (3.1 + |c|) a, up to the rounding of the spectra.
    """
    ps, d, r, n, c = frame.projections, frame.d, frame.r, frame.n, frame.c
    spectra = [eigh(p) for p in ps]
    lam = np.array([spectrum.eigenvalues for spectrum in spectra])
    delta = float(np.max(np.abs(lam**2 - lam)))
    if delta > 100 * tol:
        raise ValidationError("input is not close to an orthogonal projection")
    skew = max(float(np.linalg.norm(p - p.conj().T)) for p in ps) * 0.5**0.5

    tight_res = operator_norm(sum(ps) - (n * r / d) * np.eye(d))
    stack = np.array(ps)
    traces = stack.reshape(n, -1) @ stack.swapaxes(1, 2).reshape(n, -1).T
    chordal_res = float(np.max(np.abs(traces.real - r * c)[~np.eye(n, dtype=bool)]))
    above = lam > 0.5
    rank = int(above.sum(axis=1).max())
    bases = np.array([(spectrum.eigenvectors * up)[:, d - rank :] for spectrum, up in zip(spectra, above)])
    s = 0.0
    for i in range(n - 1):  # V_j^dag V_i and V_i^dag V_j have the same singular values
        sigma = np.linalg.svd(bases[i + 1 :].conj().swapaxes(1, 2) @ bases[i], compute_uv=False)
        s = max(s, float(np.max(np.abs(sigma**2 - c), initial=0.0)))
    isoclinic_res = (1 + 2.1 * delta) * s + (1.6 + 1.1 * abs(c)) * delta + (3.1 + abs(c)) * skew
    return tight_res, chordal_res, isoclinic_res


def frame_to_json(frame: FusionFrame) -> dict:
    declared = {key: getattr(frame, key) for key in FRAME_FIELDS}
    return {**declared, "projections": [matrix_to_json(p) for p in frame.projections]}


def frame_from_json(obj: dict) -> FusionFrame:
    """Parse a frame and check that the d, r, n and c it declares are the ones it holds."""
    if obj["n"] < 2 or obj["d"] < 1:
        raise ValidationError(f"frame JSON needs n >= 2 and d >= 1, got n={obj['n']}, d={obj['d']}")
    frame = FusionFrame(tuple(matrix_from_json(p) for p in obj["projections"]))
    for key in FRAME_FIELDS:
        if obj[key] != getattr(frame, key):
            raise ValidationError(f"frame JSON declares {key}={obj[key]} but holds {key}={getattr(frame, key)}")
    return frame
