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

The spectral kernels work on stacks of states of one shape, each validated
by one call into ``linalg``: the metric kernels broadcast over leading axes
of the spectra, and the sums reduce over the last two axes.
:func:`petz_metrics` evaluates several metrics of a stack with each
direction rotated once, and :func:`pair_divergences` several divergences of
a stack of pairs from one W per pair; the Chernoff search runs pair by pair.
Each scalar function is the same kernel on a stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportMismatchError, ValidationError
from .linalg import validate_densities, validate_density, validate_hermitians

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
    |lambda_i - lambda_j| <= DEGENERACY_RTOL lambda_max (lam ascending); the formula sees 1.0 there.
    Leading axes of ``lam`` are a stack of spectra."""
    li = lam[..., :, None]
    lj = lam[..., None, :]
    near = np.abs(li - lj) <= DEGENERACY_RTOL * lam[..., -1, None, None]
    with np.errstate(all="ignore"):
        k = off_diagonal(np.where(near, 1.0, li), np.where(near, 1.0, lj))
    return np.where(near, curvature / li, k)


def _metric_kernel(kind: MetricKind, lam: np.ndarray) -> np.ndarray:
    """Matrix K[i, j] = 1 / (lambda_j f(lambda_i / lambda_j)) on the spectrum grid, one per spectrum of a stack."""
    li = lam[..., :, None]
    lj = lam[..., None, :]
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


def _spectral_forms(rho0s, xs, ys, kernels) -> np.ndarray:
    """values[k, m] = sum_ij K[i, j] <j|X_k|i><i|Y_k|j> with K = kernels[m](spectrum of rho0_k), at full-rank
    states of one shape; ``ys`` None means Y = X.  Each direction is rotated into its state's eigenbasis once."""
    if not kernels:
        raise ValidationError("no metric kind given")
    states = validate_densities(rho0s)
    if not all(s.full_rank for s in states):
        raise DomainError("metric undefined at a rank-deficient state")
    xm = validate_hermitians(xs)
    ym = xm if ys is None else validate_hermitians(ys)
    if {len(xm), len(ym)} != {len(states)} or (states and not xm[0].shape == ym[0].shape == states[0].matrix.shape):
        raise ValidationError("dimension mismatch")
    if not states:
        return np.empty((0, len(kernels)))
    u = np.array([s.eigenvectors for s in states])
    lam = np.array([s.eigenvalues for s in states])
    uh = u.conj().swapaxes(-2, -1)
    xb = uh @ np.array(xm) @ u
    yb = xb if ys is None else uh @ np.array(ym) @ u
    xt = xb.swapaxes(-2, -1)
    values = np.stack([np.sum(kernel(lam) * xt * yb, axis=(-2, -1)) for kernel in kernels], axis=-1)
    large = np.abs(values.imag) > 1e-10 * (1.0 + np.abs(values.real))
    if large.any():
        raise ValidationError(f"metric value has a large imaginary part {values.imag[large][0]:.3e}")
    return values.real


def petz_metrics(rho0s, xs, kinds) -> np.ndarray:
    """J_kind[X_k, X_k] at rho0_k, one row per k and one column per kind, for states and directions of one shape."""
    return _spectral_forms(rho0s, xs, None, [functools.partial(_metric_kernel, kind) for kind in kinds])


def _spectral_form(rho0, x, y, kernel) -> float:
    """The one value of :func:`_spectral_forms` for a single state, X and Y."""
    return float(_spectral_forms((rho0,), (x,), None if y is x else (y,), (kernel,))[0, 0])


def petz_metric(rho0, x, y, kind: MetricKind) -> float:
    """Monotone metric J[X, Y] of two Hermitian directions at a full-rank state."""
    return _spectral_form(rho0, x, y, functools.partial(_metric_kernel, kind))


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


def _overlap_weights(rho1s, rho2s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectra a[k], b[k] of each pair (rho1_k, rho2_k) of full-rank states of one shape and W[k, i, j] =
    |<u_ki|v_kj>|^2; both sides are validated in one call."""
    rho1s, rho2s = tuple(rho1s), tuple(rho2s)
    if len(rho1s) != len(rho2s):
        raise ValidationError("dimension mismatch")
    states = validate_densities(rho1s + rho2s)
    if not all(s.full_rank for s in states):
        raise SupportMismatchError("state is rank deficient")
    if not states:
        return np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0, 0))
    firsts, seconds = states[: len(rho1s)], states[len(rho1s) :]
    u, v = (np.array([s.eigenvectors for s in side]) for side in (firsts, seconds))
    w = np.abs(u.conj().swapaxes(-2, -1) @ v) ** 2
    return np.array([s.eigenvalues for s in firsts]), np.array([s.eigenvalues for s in seconds]), w


def _f_divergence(a, b, w, f: OperatorConvexF) -> np.ndarray:
    """sum_ij b_j F(a_i / b_j) W[i, j] for each pair of a stack."""
    return np.sum(b[..., None, :] * f(a[..., :, None] / b[..., None, :]) * w, axis=(-2, -1))


def _relative_entropy(a, b, w) -> np.ndarray:
    """sum_i a_i ln a_i - sum_ij a_i ln b_j W[i, j] for each pair of a stack."""
    return np.sum(a * np.log(a), axis=-1) - np.sum((a[..., :, None] * np.log(b)[..., None, :]) * w, axis=(-2, -1))


def _chernoff_pair(a, b, w) -> float:
    """Chernoff information of one pair from its spectra and W; see :func:`chernoff_information`."""
    w = w / w.sum(axis=0)
    return _chernoff((w * b).ravel(), (w * a[:, None]).ravel(), (np.log(a)[:, None] - np.log(b)).ravel())


def pair_divergences(rho1s, rho2s, fs) -> np.ndarray:
    """One row per pair (rho1_k, rho2_k) of full-rank states of one shape: the relative entropy, the Chernoff
    information, then the Petz f-divergence for each F in ``fs``, all from one W per pair."""
    a, b, w = _overlap_weights(rho1s, rho2s)
    chernoff = [_chernoff_pair(*pair) for pair in zip(a, b, w)]
    return np.stack([_relative_entropy(a, b, w), chernoff, *(_f_divergence(a, b, w, f) for f in fs)], axis=-1)


def petz_f_divergence(rho1, rho2, f: OperatorConvexF) -> float:
    """Spectral double sum sum_{ij} b_j F(a_i / b_j) |<u_i|v_j>|^2."""
    return float(_f_divergence(*_overlap_weights((rho1,), (rho2,)), f)[0])


def relative_entropy(rho1, rho2) -> float:
    """Umegaki relative entropy Tr rho_1 (ln rho_1 - ln rho_2) for full-rank states."""
    return float(_relative_entropy(*_overlap_weights((rho1,), (rho2,)))[0])


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho over every eigenvalue > 0 (the eigenvalues <= 0 that validation admits add nothing); no small
    eigenvalue is dropped, since one dropped from a state but kept in its mixture can make Holevo information < 0.
    A pure state reads +0.0."""
    lam = validate_density(rho).eigenvalues
    lam = lam[lam > 0]
    return float(0.0 - np.sum(lam * np.log(lam)))


def holevo_information(prior, states) -> float:
    """H(sum_x p(x) rho_x) - sum_x p(x) H(rho_x) for a prior over the states."""
    p = np.asarray(prior, dtype=float)
    valid = validate_densities(states)
    if len(valid) != p.size:
        raise ValidationError("prior length must match the number of states")
    if not np.isfinite(p).all() or abs(p.sum() - 1.0) > 1e-10 or np.any(p < 0):
        raise ValidationError("prior must be a probability vector")
    barycenter = sum(w * s.matrix for w, s in zip(p, valid))
    value = float(von_neumann_entropy(barycenter) - sum(w * von_neumann_entropy(s) for w, s in zip(p, valid)))
    if value < -1e-10:
        raise ValidationError(f"negative information {value:.3e}")
    return value


def overlap(rho1, rho2, s: float) -> float:
    """Tr rho_1^s rho_2^{1-s} for full-rank states and s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"overlap needs s in [0, 1], got {s}")
    a, b, w = _overlap_weights((rho1,), (rho2,))
    return float(a[0] ** s @ w[0] @ b[0] ** (1.0 - s))


def chernoff_information(rho1, rho2) -> float:
    """-ln min_{s in [0,1]} Tr rho_1^s rho_2^{1-s}.

    Both eigendecompositions are computed once; the overlap is then
    sum_ij W_ij a_i^s b_j^{1-s}, minimized by ``_chernoff``.  The columns of W
    sum to 1 in exact arithmetic and are rescaled to do so, which removes the
    eigensolver's rounding from the overlap at s = 0 (it dominates the error
    when C is small).
    """
    return _chernoff_pair(*(array[0] for array in _overlap_weights((rho1,), (rho2,))))


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
    return depolarize_each((rho,), t)[0]


def depolarize_each(rhos, t: float) -> np.ndarray:
    """The depolarizing channel t applied to each of ``rhos`` (Hermitian, of one shape), as one stack."""
    mats = np.array(validate_hermitians(rhos))
    if not len(mats):
        return np.empty((0, 0, 0), dtype=complex)
    d = mats.shape[-1]
    return t * np.trace(mats, axis1=1, axis2=2)[:, None, None] / d * np.eye(d, dtype=complex) + (1.0 - t) * mats


# Classical counterparts.  Each has a direct scalar implementation; applying
# the quantum operation to diag(p) must agree within 1e-10.


def _positive_vector(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if not np.isfinite(v).all():
        raise ValidationError("distribution has a non-finite entry")
    if np.any(v <= 0):
        raise SupportMismatchError("distribution has a zero or negative entry")
    return v


def _one_length(*vs: np.ndarray, rows: bool = False) -> tuple[np.ndarray, ...]:
    """``vs`` unchanged after checking that their last axes have one length and, unless ``rows``, that they are 1-D."""
    if len({v.shape[-1:] for v in vs}) > 1:
        raise ValidationError(f"last axes differ in length: shapes {', '.join(str(v.shape) for v in vs)}")
    if not rows and any(v.ndim != 1 for v in vs):
        raise ValidationError(f"expected 1-D vectors, got shapes {', '.join(str(v.shape) for v in vs)}")
    return vs


def classical_relative_entropy(p, q) -> float:
    pv, qv = _one_length(_positive_vector(p), _positive_vector(q))
    return float(np.sum(pv * (np.log(pv) - np.log(qv))))


def classical_f_divergence(p, q, f: OperatorConvexF) -> float | np.ndarray:
    """sum_j q_j F(p_j / q_j) over the last axis: a float for vectors, one value per row for a stack."""
    pv, qv = _one_length(_positive_vector(p), _positive_vector(q), rows=True)
    value = np.sum(qv * f(pv / qv), axis=-1)
    return float(value) if value.ndim == 0 else value


def classical_chernoff(p, q) -> float:
    """-ln min_{s in [0,1]} sum_j p_j^s q_j^{1-s}: the commuting case of the quantum kernel."""
    pv, qv = _one_length(_positive_vector(p), _positive_vector(q))
    return _chernoff(qv, pv, np.log(pv) - np.log(qv))
