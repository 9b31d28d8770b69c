"""Quantum and classical information quantities.

Monotone metrics: for a full-rank state rho_0 with spectrum {lambda_i} and an
operator monotone kernel function f (normalized so f(1) = 1 where noted),

    J[X, Y] = sum_{ij} <j|X|i><i|Y|j> / (lambda_j f(lambda_i / lambda_j)).

F-divergences: for an operator convex F,

    D_F(rho_1 || rho_2) = sum_{ij} lambda_{2j} F(lambda_{1i}/lambda_{2j}) |<u_i|v_j>|^2,

which reduces to sum_j q_j F(p_j / q_j) for commuting (classical) inputs and
to the Umegaki relative entropy for F(t) = t ln t.  Chernoff information is
-ln min_{s in [0,1]} Tr A^s B^{1-s}.  With both spectra cached the overlap is
f(s) = sum_k c_k exp(s delta_k) with delta = ln a_i - ln b_j (ln p_j - ln q_j
classically), convex in s; f' and f'' are the same sums weighted by delta_k
and delta_k^2, so one kernel minimizes it for quantum and classical inputs by
Newton's method on f' inside a bisection bracket (Audenaert et al., PRL 98,
160501, 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportMismatchError, ValidationError
from .linalg import validate_density, validate_hermitian

DEGENERACY_RTOL = 1e-12
CHERNOFF_TOL = 1e-12
CHERNOFF_MAX_ITER = 100


@dataclass(frozen=True)
class MetricKind:
    """Kernel family tag: one of sld, rld, bkm, or wyd with a parameter s in (0, 1)."""

    tag: str
    s: float | None = None

    def __post_init__(self):
        if self.tag not in ("sld", "rld", "bkm", "wyd"):
            raise ValidationError(f"unknown metric kind {self.tag!r}")
        if self.tag == "wyd":
            if self.s is None or not 0.0 < self.s < 1.0:
                raise ValidationError("wyd needs a parameter s in (0, 1)")
        elif self.s is not None:
            raise ValidationError(f"{self.tag} takes no parameter")


SLD = MetricKind("sld")
RLD = MetricKind("rld")
BKM = MetricKind("bkm")


def wyd(s: float) -> MetricKind:
    return MetricKind("wyd", s)


def _divided_difference(lam: np.ndarray, curvature: float, off_diagonal) -> np.ndarray:
    """K[i, j] = off_diagonal(lambda_i, lambda_j), and its limit curvature / lambda_i where
    |lambda_i - lambda_j| <= DEGENERACY_RTOL lambda_max (lam ascending); the formula sees 1.0 there."""
    li = lam[:, None]
    lj = lam[None, :]
    near = np.abs(li - lj) <= DEGENERACY_RTOL * lam[-1]
    with np.errstate(all="ignore"):
        k = off_diagonal(np.where(near, 1.0, li), np.where(near, 1.0, lj))
    return np.where(near, curvature / li, k)


def _metric_kernel(kind: MetricKind, lam: np.ndarray) -> np.ndarray:
    """Matrix K[i, j] = 1 / (lambda_j f(lambda_i / lambda_j)) on the spectrum grid."""
    li = lam[:, None]
    lj = lam[None, :]
    if kind.tag == "sld":
        return 2.0 / (li + lj)
    if kind.tag == "rld":
        return (li + lj) / (2.0 * li * lj)
    if kind.tag == "bkm":
        return _divided_difference(lam, 1.0, lambda a, b: (np.log(a) - np.log(b)) / (a - b))
    s = kind.s
    return _divided_difference(
        lam, 1.0, lambda a, b: (a**s - b**s) * (a ** (1 - s) - b ** (1 - s)) / (s * (1 - s) * (a - b) ** 2)
    )


def _spectral_form(rho0, x, y, kernel) -> float:
    """sum_ij K[i, j] <j|X|i><i|Y|j> with K = kernel(spectrum) at a full-rank state."""
    state = validate_density(rho0)
    if not state.full_rank:
        raise DomainError("metric undefined at a rank-deficient state")
    xm = validate_hermitian(x)
    ym = xm if y is x else validate_hermitian(y)
    if xm.shape != state.matrix.shape or ym.shape != state.matrix.shape:
        raise ValidationError("dimension mismatch")
    u = state.eigenvectors
    xb = u.conj().T @ xm @ u
    yb = xb if y is x else u.conj().T @ ym @ u
    value = np.sum(kernel(state.eigenvalues) * xb.T * yb)
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise ValidationError(f"metric value has a large imaginary part {value.imag:.3e}")
    return float(value.real)


def petz_metric(rho0, x, y, kind: MetricKind) -> float:
    """Monotone metric J[X, Y] of two Hermitian directions at a full-rank state."""
    return _spectral_form(rho0, x, y, lambda lam: _metric_kernel(kind, lam))


@dataclass(frozen=True)
class OperatorConvexF:
    """Operator convex scalar function tag: kl, square, squared_diff, or neg_ratio(s)."""

    tag: str
    s: float | None = None

    def __post_init__(self):
        if self.tag not in ("kl", "square", "squared_diff", "neg_ratio"):
            raise ValidationError(f"unknown F tag {self.tag!r}")
        if self.tag == "neg_ratio":
            if self.s is None or self.s < 0:
                raise ValidationError("neg_ratio needs a parameter s >= 0")
        elif self.s is not None:
            raise ValidationError(f"{self.tag} takes no parameter")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.tag == "kl":
            return t * np.log(t)
        if self.tag == "square":
            return t * t
        if self.tag == "squared_diff":
            return (t - 1.0) ** 2
        return -t / (t + self.s)

    def second_derivative_at_one(self) -> float:
        if self.tag == "kl":
            return 1.0
        if self.tag in ("square", "squared_diff"):
            return 2.0
        return 2.0 * self.s / (1.0 + self.s) ** 3

    def induced_kernel(self, lam: np.ndarray) -> np.ndarray:
        """Metric kernel of the induced f(t) = (t-1)^2 / (F(t) + t F(1/t)).

        K[i, j] = (lambda_j F(lambda_i/lambda_j) + lambda_i F(lambda_j/lambda_i))
        / (lambda_i - lambda_j)^2, with limit F''(1)/lambda on the diagonal.
        """
        return _divided_difference(
            lam, self.second_derivative_at_one(), lambda a, b: (b * self(a / b) + a * self(b / a)) / (a - b) ** 2
        )


KL = OperatorConvexF("kl")
SQUARE = OperatorConvexF("square")
SQUARED_DIFF = OperatorConvexF("squared_diff")


def neg_ratio(s: float) -> OperatorConvexF:
    return OperatorConvexF("neg_ratio", s)


def induced_metric(rho0, x, y, f: OperatorConvexF) -> float:
    """Metric with the kernel induced by an operator convex F (not normalized)."""
    return _spectral_form(rho0, x, y, f.induced_kernel)


def _overlap_weights(rho1, rho2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectra (a, b) of both states and W[i, j] = |<u_i|v_j>|^2."""
    s1, s2 = validate_density(rho1), validate_density(rho2)
    if not (s1.full_rank and s2.full_rank):
        raise SupportMismatchError("state is rank deficient")
    if s1.matrix.shape != s2.matrix.shape:
        raise ValidationError("dimension mismatch")
    w = np.abs(s1.eigenvectors.conj().T @ s2.eigenvectors) ** 2
    return s1.eigenvalues, s2.eigenvalues, w


def petz_f_divergence(rho1, rho2, f: OperatorConvexF) -> float:
    """Spectral double sum sum_{ij} b_j F(a_i / b_j) |<u_i|v_j>|^2."""
    a, b, w = _overlap_weights(rho1, rho2)
    return float(np.sum(b[None, :] * f(a[:, None] / b[None, :]) * w))


def relative_entropy(rho1, rho2) -> float:
    """Umegaki relative entropy Tr rho_1 (ln rho_1 - ln rho_2) for full-rank states."""
    a, b, w = _overlap_weights(rho1, rho2)
    return float(np.sum(a * np.log(a)) - np.sum((a[:, None] * np.log(b)[None, :]) * w))


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho over every eigenvalue > 0 (the eigenvalues <= 0 that validation admits add nothing); no small
    eigenvalue is dropped, since one dropped from a state but kept in its mixture can make Holevo information < 0."""
    lam = validate_density(rho).eigenvalues
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam)))


def holevo_information(prior, states) -> float:
    """H(sum_x p(x) rho_x) - sum_x p(x) H(rho_x) for a prior over the states."""
    p = np.asarray(prior, dtype=float)
    valid = [validate_density(s) for s in states]
    if len(valid) != p.size:
        raise ValidationError("prior length must match the number of states")
    if abs(p.sum() - 1.0) > 1e-10 or np.any(p < 0):
        raise ValidationError("prior must be a probability vector")
    if any(s.matrix.shape != valid[0].matrix.shape for s in valid):
        raise ValidationError("dimension mismatch")
    barycenter = sum(w * s.matrix for w, s in zip(p, valid))
    value = float(von_neumann_entropy(barycenter) - sum(w * von_neumann_entropy(s) for w, s in zip(p, valid)))
    if value < -1e-10:
        raise ValidationError(f"negative information {value:.3e}")
    return value


def overlap(rho1, rho2, s: float) -> float:
    """Tr rho_1^s rho_2^{1-s} for full-rank states and s in [0, 1]."""
    a, b, w = _overlap_weights(rho1, rho2)
    return float(a**s @ w @ b ** (1.0 - s))


def chernoff_information(rho1, rho2) -> float:
    """-ln min_{s in [0,1]} Tr rho_1^s rho_2^{1-s}.

    Both eigendecompositions are computed once; the overlap is then
    sum_ij W_ij a_i^s b_j^{1-s}, minimized by ``_chernoff``.  The columns of W
    sum to 1 in exact arithmetic and are rescaled to do so, which removes the
    eigensolver's rounding from the overlap at s = 0 (it dominates the error
    when C is small).
    """
    a, b, w = _overlap_weights(rho1, rho2)
    w = w / w.sum(axis=0)
    return _chernoff((w * b).ravel(), (w * a[:, None]).ravel(), (np.log(a)[:, None] - np.log(b)).ravel())


def _chernoff(at0: np.ndarray, at1: np.ndarray, delta: np.ndarray) -> float:
    """-ln min_{s in [0,1]} f(s) for the convex overlap f(s) = sum_k at0_k exp(s delta_k).

    ``at0`` and ``at1`` are the terms at s = 0 and s = 1, delta = ln(at1 / at0);
    terms with at0_k = 0 are dropped.  Each term is evaluated from the end
    where it is larger, at0_k e^{s delta_k} or at1_k e^{(s-1) delta_k}, so no
    exponent is positive and nothing overflows at large eps; f, f' and f''
    share the exponentials.  Newton on f' starts at the secant root between
    s = 0 and 1 and stays inside a bracket [lo, hi] with f'(lo) < 0 <= f'(hi):
    a step that leaves it is replaced by bisection, unless it is already
    within CHERNOFF_TOL.  The search stops after a step of at most
    CHERNOFF_TOL or after CHERNOFF_MAX_ITER steps; f(0), f(1) and every
    iterate count toward the minimum.
    """
    keep = at0 > 0.0
    delta = delta[keep]
    up = delta > 0.0
    base = np.where(up, at1[keep], at0[keep])
    shift = np.where(up, -delta, 0.0)
    delta2 = delta * delta

    def at(s: float) -> tuple[float, float, float]:
        e = base * np.exp(s * delta + shift)
        return float(e.sum()), float(e @ delta), float(e @ delta2)

    f0, g0, _ = at(0.0)
    f1, g1, _ = at(1.0)
    best = min(f0, f1)
    if g0 < 0.0 < g1:
        lo, hi = 0.0, 1.0
        s = g0 / (g0 - g1)
        for _ in range(CHERNOFF_MAX_ITER):
            f, g, h = at(s)
            best = min(best, f)
            if g < 0.0:
                lo = s
            else:
                hi = s
            nxt = s - g / h if h > 0.0 else math.nan
            if not (lo < nxt < hi or abs(nxt - s) <= CHERNOFF_TOL):
                nxt = 0.5 * (lo + hi)
            if abs(nxt - s) <= CHERNOFF_TOL:
                break
            s = nxt
    return -math.log(best) if best < 1.0 else 0.0


def depolarize(rho, t: float) -> np.ndarray:
    """Depolarizing channel t (Tr rho) I/d + (1 - t) rho."""
    mat = validate_hermitian(rho)
    d = mat.shape[0]
    return t * np.trace(mat) / d * np.eye(d, dtype=complex) + (1.0 - t) * mat


# Classical counterparts.  Each has a direct scalar implementation; applying
# the quantum operation to diag(p) must agree within 1e-10.


def _positive_vector(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if np.any(v <= 0):
        raise SupportMismatchError("distribution has a zero or negative entry")
    return v


def classical_relative_entropy(p, q) -> float:
    pv, qv = _positive_vector(p), _positive_vector(q)
    return float(np.sum(pv * (np.log(pv) - np.log(qv))))


def classical_f_divergence(p, q, f: OperatorConvexF) -> float | np.ndarray:
    """sum_j q_j F(p_j / q_j) over the last axis: a float for vectors, one value per row for a stack."""
    pv, qv = _positive_vector(p), _positive_vector(q)
    value = np.sum(qv * f(pv / qv), axis=-1)
    return float(value) if value.ndim == 0 else value


def classical_chernoff(p, q) -> float:
    """-ln min_{s in [0,1]} sum_j p_j^s q_j^{1-s}: the commuting case of the quantum kernel."""
    pv, qv = _positive_vector(p), _positive_vector(q)
    return _chernoff(qv, pv, np.log(pv) - np.log(qv))


def classical_metric(p0, x, y, kind: MetricKind) -> float:
    """Fisher-type form sum_i x_i y_i / p_i via the diagonal kernel."""
    pv = _positive_vector(p0)
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    kernel = _metric_kernel(kind, pv)
    return float(np.sum(np.diag(kernel) * xv * yv))
