"""LDP and QLDP mechanisms: constructors, exact privacy audits, mixing.

A classical mechanism is a column-stochastic matrix q(y|x); it is eps-LDP
when q(y|x') <= e^eps q(y|x) for all y, x, x'.  A quantum mechanism is a
tuple of full-rank density matrices; it is eps-QLDP when
rho_{x'} <= e^eps rho_x (PSD order) for every ordered pair.

Isoclinic mechanisms mix each frame projection with white noise,
sigma_x = (mu/d) I + ((1-mu)/r) P_x.  For a frame with constant c the
mechanism is eps-QLDP exactly when the noise weight mu lies in the interval
given by :func:`admissible_mu_interval`; the default weight sits on the
low-noise endpoint, so the audited privacy level equals eps exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrivacyViolationError, SupportMismatchError, ValidationError
from .frames import FusionFrame, build_eitff
from .linalg import (
    as_matrix,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    validate_density,
    validate_hermitian,
)

COLUMN_SUM_TOL = 1e-12
AUDIT_TOL = 1e-10
POVM_TOL = 1e-9


def require_epsilon(epsilon: float) -> None:
    """Reject a privacy level that is not finite and positive (NaN included)."""
    if not 0.0 < epsilon < math.inf:
        raise ValidationError(f"privacy level must be finite and positive, got {epsilon}")


@dataclass(frozen=True)
class LdpMechanism:
    """Column-stochastic matrix of shape (n_outputs, n_inputs) with a declared level."""

    q: np.ndarray
    epsilon: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] < 2 or q.shape[1] < 2:
            raise ValidationError("mechanism needs at least 2 outputs and 2 inputs")
        if not np.all(np.isfinite(q)):
            raise ValidationError("non-finite conditional probability")
        if np.any(q < 0):
            raise ValidationError("negative conditional probability")
        if np.max(np.abs(q.sum(axis=0) - 1.0)) > COLUMN_SUM_TOL:
            raise ValidationError("columns must sum to 1")
        object.__setattr__(self, "q", q)

    @property
    def n_inputs(self) -> int:
        return self.q.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.q.shape[0]

    def column(self, x: int) -> np.ndarray:
        return self.q[:, x]


@dataclass(frozen=True)
class QldpMechanism:
    """Tuple of same-dimension full-rank density matrices with a declared level.

    ``validated`` holds them as :class:`~qldp.linalg.State` objects with their spectra.
    """

    states: tuple
    epsilon: float
    validated: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validated = tuple(validate_density(s) for s in self.states)
        if len(validated) < 2:
            raise ValidationError("mechanism needs at least 2 states")
        if any(s.matrix.shape != validated[0].matrix.shape for s in validated):
            raise ValidationError("states have mixed dimensions")
        if not all(s.full_rank for s in validated):
            raise SupportMismatchError("mechanism states must be full rank")
        object.__setattr__(self, "states", tuple(s.matrix for s in validated))
        object.__setattr__(self, "validated", validated)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def average(self) -> np.ndarray:
        return sum(self.states) / self.n


def qldp_level(states) -> float:
    """Smallest eps such that rho_{x'} <= e^eps rho_x holds for all ordered pairs.

    Computed as the max over pairs of ln lambda_max(rho_x^{-1/2} rho_{x'} rho_x^{-1/2}).
    Raises :class:`SupportMismatchError` on rank-deficient states.
    """
    valid = states.validated if isinstance(states, QldpMechanism) else [validate_density(s) for s in states]
    if not all(s.full_rank for s in valid):
        raise SupportMismatchError("state is rank deficient; privacy level undefined")
    inv_sqrts = [(s.eigenvectors * s.eigenvalues**-0.5) @ s.eigenvectors.conj().T for s in valid]
    level = 0.0
    for x, x2 in itertools.permutations(range(len(valid)), 2):
        sim = inv_sqrts[x] @ valid[x2].matrix @ inv_sqrts[x]
        lam_max = np.linalg.eigvalsh(0.5 * (sim + sim.conj().T))[-1]
        level = max(level, math.log(lam_max))
    return level


def ldp_level(q) -> float:
    """Smallest eps such that q(y|x') <= e^eps q(y|x) for all y, x, x'."""
    mat = q.q if isinstance(q, LdpMechanism) else np.asarray(q, dtype=float)
    level = 0.0
    for row in mat:
        top, bot = row.max(), row.min()
        if top <= 0.0:
            continue
        if bot <= 0.0:
            raise SupportMismatchError("zero entry in a row with positive entries")
        level = max(level, math.log(top / bot))
    return level


def audit_qldp(states, epsilon: float, tol: float = AUDIT_TOL) -> bool:
    """True iff min eig(e^eps rho_x - rho_{x'}) >= -tol for every ordered pair."""
    require_epsilon(epsilon)
    mats = [as_matrix(s) for s in (states.states if isinstance(states, QldpMechanism) else states)]
    grow = math.exp(epsilon)
    for x, x2 in itertools.permutations(range(len(mats)), 2):
        # Written so that a NaN eigenvalue counts as a failure.
        if not np.linalg.eigvalsh(grow * mats[x] - mats[x2])[0] >= -tol:
            return False
    return True


def audit_ldp(q, epsilon: float, tol: float = AUDIT_TOL) -> bool:
    """True iff all entry ratios within a row are <= e^eps (1 + tol)."""
    require_epsilon(epsilon)
    try:
        return ldp_level(q) <= epsilon + math.log1p(tol)
    except SupportMismatchError:
        return False


def admissible_mu_interval(frame: FusionFrame, epsilon: float) -> tuple[float, float]:
    """Exact noise-weight interval on which the isoclinic family is eps-QLDP.

    With h_pm = (d/2r) (1 pm sqrt(1 + (1-c)/sinh^2(eps/2))), the family is
    eps-QLDP iff 1/(1-h_+) <= 1-mu <= 1/(1-h_-).  The returned pair is
    (mu_lo, mu_hi); mu_lo is the low-noise endpoint used by default.
    """
    half = frame.d / (2 * frame.r)
    root = math.sqrt(1.0 + (1.0 - frame.c) / math.sinh(epsilon / 2) ** 2)
    h_plus = half * (1.0 + root)
    h_minus = half * (1.0 - root)
    mu_lo = 1.0 - 1.0 / (1.0 - h_minus)
    mu_hi = 1.0 - 1.0 / (1.0 - h_plus)
    return mu_lo, mu_hi


def isoclinic_mechanism(frame: FusionFrame, epsilon: float, mu: float | None = None) -> QldpMechanism:
    """States (mu/d) I + ((1-mu)/r) P_x from a fusion frame, declared eps-QLDP.

    When ``mu`` is omitted it is set to the low-noise endpoint of the
    admissible interval, saturating the privacy constraint.  An explicit
    ``mu`` outside the interval raises :class:`PrivacyViolationError`.
    """
    require_epsilon(epsilon)
    mu_lo, mu_hi = admissible_mu_interval(frame, epsilon)
    if mu is None:
        mu = mu_lo
    elif not (mu_lo - 1e-12 <= mu <= mu_hi + 1e-12):
        raise PrivacyViolationError(
            f"mu={mu} is outside the admissible interval [{mu_lo}, {mu_hi}] at eps={epsilon}"
        )
    eye = np.eye(frame.d, dtype=complex)
    states = tuple((mu / frame.d) * eye + ((1.0 - mu) / frame.r) * p for p in frame.projections)
    return QldpMechanism(states=states, epsilon=epsilon)


def sigma_star(n: int, epsilon: float) -> QldpMechanism:
    """Isoclinic mechanism on the minimal half-dimension frame, 1 - mu = (1 + (1-c)/sinh^2(eps/2))^{-1/2}."""
    return isoclinic_mechanism(build_eitff(n), epsilon)


def jordan_eigenvalues(p_i, p_j, epsilon: float, c: float | None = None) -> tuple[float, float]:
    """Extreme eigenvalues of e^eps P_i - P_j for an equi-isoclinic pair.

    Closed form e^{eps/2} (sinh(eps/2) pm sqrt(sinh^2(eps/2) + 1 - c)); the
    two projections decompose into identical 2x2 blocks of overlap c, so the
    pair spectrum is determined by c alone.  ``c`` is inferred from
    Tr P_i P_j / r when omitted.
    """
    a = validate_hermitian(p_i)
    b = validate_hermitian(p_j)
    if a.shape != b.shape:
        raise ValidationError("projections have mixed dimensions")
    if c is None:
        r = int(round(np.trace(a).real))
        c = float(np.trace(a @ b).real / r)
    sh = math.sinh(epsilon / 2)
    root = math.sqrt(sh * sh + 1.0 - c)
    scale = math.exp(epsilon / 2)
    return scale * (sh + root), scale * (sh - root)


def binary_mechanism(n: int, epsilon: float, split=None) -> LdpMechanism:
    """Two-output mechanism b(y|x) = (1 + (e^eps - 1) 1[x in A_y]) / (e^eps + 1).

    ``split`` lists the inputs of the first block (1-based); it defaults to
    {1, ..., floor(n/2)}.
    """
    if n < 2:
        raise ValidationError("need at least two inputs")
    require_epsilon(epsilon)
    block = set(range(1, n // 2 + 1)) if split is None else set(split)
    if not block.issubset(range(1, n + 1)):
        raise ValidationError("split must be a subset of the input alphabet")
    grow = math.exp(epsilon)
    q = np.empty((2, n))
    for x in range(1, n + 1):
        hit = x in block
        q[0, x - 1] = (grow if hit else 1.0) / (grow + 1.0)
        q[1, x - 1] = (1.0 if hit else grow) / (grow + 1.0)
    return LdpMechanism(q=q, epsilon=epsilon)


def subset_mechanism(n: int, k: int, epsilon: float) -> LdpMechanism:
    """Mechanism whose outputs are the k-subsets of the input alphabet.

    q(S|x) = e^eps / Z if x in S else 1 / Z with
    Z = C(n-1, k-1) e^eps + C(n-1, k); subsets are enumerated in
    lexicographic order for reproducible indexing.
    """
    if not 1 <= k <= n - 1:
        raise ValidationError(f"subset size must lie in [1, {n - 1}]")
    require_epsilon(epsilon)
    grow = math.exp(epsilon)
    z = math.comb(n - 1, k - 1) * grow + math.comb(n - 1, k)
    subsets = list(itertools.combinations(range(1, n + 1), k))
    q = np.empty((len(subsets), n))
    for row, subset in enumerate(subsets):
        for x in range(1, n + 1):
            q[row, x - 1] = (grow if x in subset else 1.0) / z
    return LdpMechanism(q=q, epsilon=epsilon)


def tilde_family(mech, eta: float):
    """Mix each state (or column) toward the family average with weight 1 - eta.

    Returns the same-shaped mechanism with rho_k replaced by
    eta rho_k + (1 - eta) rho_avg; the declared level is re-derived by audit.
    """
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must lie in (0, 1]")
    if isinstance(mech, QldpMechanism):
        avg = mech.average
        states = tuple(validate_density(eta * s + (1.0 - eta) * avg) for s in mech.states)
        return QldpMechanism(states=states, epsilon=qldp_level(states))
    if isinstance(mech, LdpMechanism):
        avg = mech.q.mean(axis=1, keepdims=True)
        q = eta * mech.q + (1.0 - eta) * avg
        return LdpMechanism(q=q, epsilon=ldp_level(q))
    raise ValidationError("expected an LdpMechanism or QldpMechanism")


def induced_mechanism(mech: QldpMechanism, povm) -> LdpMechanism:
    """Classical mechanism q(y|x) = Tr rho_x M_y obtained by measuring every state.

    Elements must be PSD within ``POVM_TOL``; the clip below only removes rounding.
    """
    elements = [as_matrix(m) for m in povm]
    if not all(is_psd(m, POVM_TOL) for m in elements):
        raise ValidationError("measurement elements must be positive semi-definite")
    d = mech.dim
    if any(m.shape[0] != d for m in elements):
        raise ValidationError("measurement dimension mismatch")
    if np.max(np.abs(sum(elements) - np.eye(d))) > POVM_TOL:
        raise ValidationError("measurement elements must sum to the identity")
    q = np.array([[float(np.trace(s @ m).real) for s in mech.states] for m in elements])
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=0, keepdims=True)
    return LdpMechanism(q=q, epsilon=mech.epsilon)


def mechanism_to_json(mech) -> dict:
    if isinstance(mech, QldpMechanism):
        return {
            "kind": "qldp",
            "n": mech.n,
            "dim": mech.dim,
            "epsilon": mech.epsilon,
            "states": [matrix_to_json(s) for s in mech.states],
        }
    if isinstance(mech, LdpMechanism):
        return {
            "kind": "ldp",
            "n": mech.n_inputs,
            "outputs": mech.n_outputs,
            "epsilon": mech.epsilon,
            "q": [[float(v) for v in mech.q[:, x]] for x in range(mech.n_inputs)],
        }
    raise ValidationError("expected an LdpMechanism or QldpMechanism")


def mechanism_from_json(obj: dict):
    """Parse a mechanism and re-audit it against its declared level."""
    kind = obj.get("kind")
    epsilon = float(obj["epsilon"])
    require_epsilon(epsilon)
    if kind == "qldp":
        states = tuple(matrix_from_json(s) for s in obj["states"])
        mech = QldpMechanism(states=states, epsilon=epsilon)
        if not audit_qldp(mech.states, epsilon):
            raise PrivacyViolationError("deserialized mechanism fails its declared QLDP audit")
        return mech
    if kind == "ldp":
        q = np.array(obj["q"], dtype=float).T
        mech = LdpMechanism(q=q, epsilon=epsilon)
        if not audit_ldp(mech, epsilon):
            raise PrivacyViolationError("deserialized mechanism fails its declared LDP audit")
        return mech
    raise ValidationError(f"unknown mechanism kind {kind!r}")


def save_mechanism(mech, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mechanism_to_json(mech), fh, indent=1)


def load_mechanism(path):
    with open(path, encoding="utf-8") as fh:
        return mechanism_from_json(json.load(fh))
