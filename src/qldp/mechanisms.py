"""LDP and QLDP mechanisms: constructors, exact privacy audits, mixing.

A classical mechanism is a column-stochastic matrix q(y|x); it is eps-LDP
when q(y|x') <= e^eps q(y|x) for all y, x, x'.  A quantum mechanism is a
tuple of full-rank density matrices; it is eps-QLDP when
rho_{x'} <= e^eps rho_x (PSD order) for every ordered pair.  LDP is the
commuting case: both classes give their ``kind``, ``sizes``, audited ``level``,
``members``, ``average`` and pairwise ``chernoff`` and ``divergence``, so other
modules never ask which class they hold.

Isoclinic mechanisms mix each frame projection with white noise,
sigma_x = (mu/d) I + ((1-mu)/r) P_x.  For a frame with constant c the
mechanism is eps-QLDP exactly when the noise weight mu lies in the interval
given by :func:`admissible_mu_interval`; the default weight sits on the
low-noise endpoint, so the audited privacy level equals eps exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (  # MAX_EPSILON is re-exported for callers that import it from here
    MAX_EPSILON,
    PrivacyViolationError,
    SupportMismatchError,
    ValidationError,
    require_epsilon,
    require_eta,
    require_inputs,
)
from .exponents import boundary_root
from .frames import FusionFrame, build_eitff
from .linalg import (
    State,
    as_matrix,
    is_psd,
    load_json,
    matrix_from_json,
    matrix_to_json,
    validate_densities,
    validate_density,
    validate_hermitian,
    validate_hermitians,
)
from .metrics import chernoff_information, classical_chernoff, classical_relative_entropy, relative_entropy

COLUMN_SUM_TOL = 1e-12
AUDIT_TOL = 1e-10
POVM_TOL = 1e-9


def _column_stochastic(q) -> np.ndarray:
    """q as a float array, checked to be finite and column-stochastic with at least 2 outputs and 2 inputs."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] < 2 or q.shape[1] < 2:
        raise ValidationError("mechanism needs at least 2 outputs and 2 inputs")
    if not np.all(np.isfinite(q)):
        raise ValidationError("non-finite conditional probability")
    if np.any(q < 0):
        raise ValidationError("negative conditional probability")
    if np.max(np.abs(q.sum(axis=0) - 1.0)) > COLUMN_SUM_TOL:
        raise ValidationError("columns must sum to 1")
    return q


def _qldp_members(states) -> tuple:
    """The states as :class:`~qldp.linalg.State` objects from one stacked eigh: at least 2, all full rank."""
    members = validate_densities(states)
    if len(members) < 2:
        raise ValidationError("mechanism needs at least 2 states")
    if not all(s.full_rank for s in members):
        raise SupportMismatchError("mechanism states must be full rank")
    return members


@dataclass(frozen=True)
class LdpMechanism:
    """Column-stochastic matrix of shape (n_outputs, n_inputs) with a declared level."""

    q: np.ndarray
    epsilon: float

    kind = "ldp"
    # Looked up at call time, so a wrapper installed on the metric's name sees these calls too.
    chernoff = staticmethod(lambda a, b: classical_chernoff(a, b))
    divergence = staticmethod(lambda a, b: classical_relative_entropy(a, b))

    def __post_init__(self):
        require_epsilon(self.epsilon)
        object.__setattr__(self, "q", _column_stochastic(self.q))

    @property
    def n_inputs(self) -> int:
        return self.q.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.q.shape[0]

    @property
    def sizes(self) -> dict:
        return {"n": self.n_inputs, "outputs": self.n_outputs}

    @functools.cached_property
    def level(self) -> float:
        return ldp_level(self)

    @property
    def members(self) -> np.ndarray:
        """The columns q(.|x), one row per input."""
        return self.q.T

    @property
    def average(self) -> np.ndarray:
        return self.q.mean(axis=1)


@dataclass(frozen=True)
class QldpMechanism:
    """Tuple of same-dimension full-rank density matrices with a declared level.

    ``members`` holds them as :class:`~qldp.linalg.State` objects with their spectra,
    and ``average`` is their mean as a State too.
    """

    states: tuple
    epsilon: float
    members: tuple = field(init=False, repr=False, compare=False)

    kind = "qldp"
    # Looked up at call time, so a wrapper installed on the metric's name sees these calls too.
    chernoff = staticmethod(lambda a, b: chernoff_information(a, b))
    divergence = staticmethod(lambda a, b: relative_entropy(a, b))

    def __post_init__(self):
        require_epsilon(self.epsilon)
        members = _qldp_members(self.states)
        object.__setattr__(self, "states", tuple(s.matrix for s in members))
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def sizes(self) -> dict:
        return {"n": self.n, "dim": self.dim}

    @functools.cached_property
    def level(self) -> float:
        return qldp_level(self)

    @functools.cached_property
    def average(self) -> State:
        return validate_density(sum(self.states) / self.n)


def qldp_level(states) -> float:
    """Smallest eps such that rho_{x'} <= e^eps rho_x holds for all ordered pairs.

    The max over pairs of log1p(lambda_max(L^{-1} (rho_{x'} - rho_x) L^{-dag})), rho_x = L L^dag: the spectrum of
    rho_x^{-1/2} (rho_{x'} - rho_x) rho_x^{-1/2}, with relative accuracy as eps -> 0 and exactly 0 for identical
    states. L is factored in np.longdouble (a 64-bit significand on x86-64) and rounded once; a double factor, or
    rho^{-1/2} from eigh, loses relative accuracy like u * cond(rho_x). Raw states are checked as QldpMechanism
    checks them.
    """
    valid = states.members if isinstance(states, QldpMechanism) else _qldp_members(states)
    mats = np.array([s.matrix for s in valid])
    factor = mats.astype(np.clongdouble)  # overwritten by L, one column at a time
    for j in range(factor.shape[-1]):
        row = factor[:, j, :j]
        factor[:, j, j] = np.sqrt(factor[:, j, j].real - np.sum(row * row.conj(), axis=-1).real)
        factor[:, j + 1 :, j] -= (factor[:, j + 1 :, :j] @ row.conj()[..., None])[..., 0]
        factor[:, j + 1 :, j] /= factor[:, j, j, None]
        factor[:, j, j + 1 :] = 0.0
    level = 0.0
    for x, inv in enumerate(np.linalg.inv(factor.astype(complex))):
        # every x' != x in one stack
        sims = inv @ (np.delete(mats, x, 0) - mats[x]) @ inv.conj().T
        lam_max = np.linalg.eigvalsh(0.5 * (sims + sims.conj().swapaxes(1, 2)))[:, -1]
        level = max(level, float(np.log1p(lam_max).max()))
    return level


def ldp_level(q) -> float:
    """Smallest eps such that q(y|x') <= e^eps q(y|x) for all y, x, x'; a raw q is checked as LdpMechanism checks it."""
    mat = q.q if isinstance(q, LdpMechanism) else _column_stochastic(q)
    level = 0.0
    for row in mat:
        top, bot = float(row.max()), float(row.min())
        if top <= 0.0:
            continue
        if bot <= 0.0:
            raise SupportMismatchError("zero entry in a row with positive entries")
        # log1p of the excess is exactly 0 for a constant row. The excess overflows only when bot is
        # subnormal, and the log difference is then exact enough.
        excess = (top - bot) / bot
        level = max(level, math.log1p(excess) if excess < math.inf else math.log(top) - math.log(bot))
    return level


def audit_qldp(states, epsilon: float) -> bool:
    """True iff min eig(e^eps rho_x - rho_{x'}) >= -AUDIT_TOL for every ordered pair.

    One ``eigvalsh`` per x takes every x' != x as a stack, written into one buffer that every x reuses.  Raw
    states are checked Hermitian first, since ``eigvalsh`` reads one triangle only.
    """
    require_epsilon(epsilon)
    mats = states.states if isinstance(states, QldpMechanism) else validate_hermitians(states)
    if len(mats) < 2:
        raise ValidationError("mechanism needs at least 2 states")
    grow = math.exp(epsilon)
    diffs = np.empty((len(mats) - 1, *mats[0].shape), dtype=complex)
    for x, rho in enumerate(mats):
        scaled = grow * rho
        for j, other in enumerate(mats[:x] + mats[x + 1 :]):
            np.subtract(scaled, other, out=diffs[j])
        # Written so that a NaN eigenvalue counts as a failure.
        if not np.all(np.linalg.eigvalsh(diffs)[..., 0] >= -AUDIT_TOL):
            return False
    return True


def audit_ldp(q, epsilon: float) -> bool:
    """True iff all entry ratios within a row are <= e^eps (1 + AUDIT_TOL)."""
    require_epsilon(epsilon)
    try:
        return ldp_level(q) <= epsilon + math.log1p(AUDIT_TOL)
    except SupportMismatchError:
        return False


def admissible_mu_interval(frame: FusionFrame, epsilon: float) -> tuple[float, float]:
    """Exact noise-weight interval on which the isoclinic family is eps-QLDP.

    With h_pm = (d/2r) (1 pm sqrt(1 + (1-c)/sinh^2(eps/2))), the family is
    eps-QLDP iff 1/(1-h_+) <= 1-mu <= 1/(1-h_-).  The returned pair is
    (mu_lo, mu_hi); mu_lo is the low-noise endpoint used by default.
    """
    half = frame.d / (2 * frame.r)
    root = boundary_root(frame.c, epsilon)
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


def jordan_eigenvalues(p_i, p_j, epsilon: float) -> tuple[float, float]:
    """Extreme eigenvalues of e^eps P_i - P_j for an equi-isoclinic pair.

    Closed form e^{eps/2} (sinh(eps/2) pm sqrt(sinh^2(eps/2) + 1 - c)); the
    two projections decompose into identical 2x2 blocks of overlap c, so the
    pair spectrum is determined by c = Tr P_i P_j / r alone.
    """
    pair = FusionFrame((validate_hermitian(p_i), validate_hermitian(p_j)))
    a, b = pair.projections
    c = float(np.trace(a @ b).real / pair.r)
    sh = math.sinh(epsilon / 2)
    root = math.sqrt(sh * sh + 1.0 - c)
    scale = math.exp(epsilon / 2)
    return scale * (sh + root), scale * (sh - root)


def _block_mechanism(member: np.ndarray, epsilon: float) -> LdpMechanism:
    """q(y|x) = (e^eps if x in block y else 1) / Z from a boolean (outputs, inputs) membership
    matrix; every input lies in the same number h of blocks, so Z = h e^eps + (outputs - h).

    Where Z overflows (h >= 2 and eps near MAX_EPSILON), both are divided by e^eps:
    q(y|x) = (1 if x in block y else e^-eps) / (h + (outputs - h) e^-eps).
    """
    require_epsilon(epsilon)
    grow = math.exp(epsilon)
    hits = int(member[:, 0].sum())
    z = hits * grow + (len(member) - hits)
    if math.isinf(z):
        low = math.exp(-epsilon)
        return LdpMechanism(q=np.where(member, 1.0, low) / (hits + (len(member) - hits) * low), epsilon=epsilon)
    return LdpMechanism(q=np.where(member, grow, 1.0) / z, epsilon=epsilon)


def binary_mechanism(n: int, epsilon: float, split=None) -> LdpMechanism:
    """Two-output mechanism b(y|x) = (1 + (e^eps - 1) 1[x in A_y]) / (e^eps + 1).

    ``split`` lists the inputs of the first block (1-based); it defaults to
    {1, ..., floor(n/2)}.
    """
    require_inputs(n)
    block = set(range(1, n // 2 + 1)) if split is None else set(split)
    if not block.issubset(range(1, n + 1)):
        raise ValidationError("split must be a subset of the input alphabet")
    hit = np.array([x in block for x in range(1, n + 1)])
    return _block_mechanism(np.array([hit, ~hit]), epsilon)


def subset_mechanism(n: int, k: int, epsilon: float) -> LdpMechanism:
    """Mechanism whose outputs are the k-subsets of the input alphabet.

    q(S|x) = e^eps / Z if x in S else 1 / Z with
    Z = C(n-1, k-1) e^eps + C(n-1, k); subsets are enumerated in
    lexicographic order for reproducible indexing.
    """
    if not 1 <= k <= n - 1:
        raise ValidationError(f"subset size must lie in [1, {n - 1}]")
    member = np.array([[x in subset for x in range(n)] for subset in itertools.combinations(range(n), k)])
    return _block_mechanism(member, epsilon)


def tilde_family(mech, eta: float):
    """Mix each state (or column) toward the family average with weight 1 - eta.

    Returns the same-shaped mechanism with rho_k replaced by
    eta rho_k + (1 - eta) rho_avg and the same declared level, which mixing
    cannot raise: rho~_{x'} <= eta e^eps rho_x + (1 - eta) rho_avg <= e^eps rho~_x.
    Its audited level is the ``level`` of the result.
    """
    require_eta(eta)
    if isinstance(mech, QldpMechanism):
        avg = sum(mech.states) / mech.n
        states = tuple(eta * s + (1.0 - eta) * avg for s in mech.states)
        return QldpMechanism(states=states, epsilon=mech.epsilon)
    if isinstance(mech, LdpMechanism):
        q = eta * mech.q + (1.0 - eta) * mech.average[:, None]
        return LdpMechanism(q=q, epsilon=mech.epsilon)
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
    stack = np.array(mech.states)
    product = np.empty_like(stack)  # rho_x M_y for every x, one y at a time: no (outputs, n, d, d) temporary
    q = np.array([np.trace(np.matmul(stack, m, out=product), axis1=1, axis2=2).real for m in elements])
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=0, keepdims=True)
    return LdpMechanism(q=q, epsilon=mech.epsilon)


def mechanism_to_json(mech) -> dict:
    if isinstance(mech, QldpMechanism):
        payload = {"states": [matrix_to_json(s) for s in mech.states]}
    elif isinstance(mech, LdpMechanism):
        payload = {"q": [[float(v) for v in column] for column in mech.members]}
    else:
        raise ValidationError("expected an LdpMechanism or QldpMechanism")
    return {"kind": mech.kind, **mech.sizes, "epsilon": mech.epsilon, **payload}


def mechanism_from_json(obj: dict):
    """Parse a mechanism, check the size fields it declares, and re-audit it against its declared level."""
    kind = obj.get("kind")
    epsilon = float(obj["epsilon"])
    if kind == "qldp":
        mech = QldpMechanism(states=tuple(matrix_from_json(s) for s in obj["states"]), epsilon=epsilon)
        audit = audit_qldp
    elif kind == "ldp":
        mech = LdpMechanism(q=np.array(obj["q"], dtype=float).T, epsilon=epsilon)
        audit = audit_ldp
    else:
        raise ValidationError(f"unknown mechanism kind {kind!r}")
    for key, held in mech.sizes.items():
        if obj[key] != held:
            raise ValidationError(f"mechanism JSON declares {key}={obj[key]} but holds {key}={held}")
    if not audit(mech, epsilon):
        raise PrivacyViolationError(f"deserialized mechanism fails its declared {kind.upper()} audit")
    return mech


def save_mechanism(mech, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mechanism_to_json(mech), fh, indent=1)


def load_mechanism(path):
    return load_json(path, mechanism_from_json)
