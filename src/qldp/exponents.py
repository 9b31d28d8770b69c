"""Hypothesis-testing error exponents and privacy-utility trade-off curves.

Symmetric testing of the n tilted priors p_k = eta e_k + (1-eta)/n has error
exponent min_{i != j} C(rho~_i, rho~_j) over the eta-mixed family; asymmetric
testing against the uniform prior has exponent min_x D(rho~_x || rho_avg).

For an isoclinic mechanism with rank ratio u = r/d and constant
c = (nu - 1)/(n - 1), both exponents have closed forms in the mixed noise
weight t = eta mu + 1 - eta:

    sym  = -ln[ 1 - (1-c) (sqrt(ut + 1 - t) - sqrt(ut))^2 ]
    asym = u L(t + (1-t)/u) + (1-u) L(t),      L(t) = t ln t.

The exact classical optima over eps-LDP mechanisms are maxima over an
integer split size k of scalar expressions; the k-subset mechanism attains
the symmetric optimum term by term, which the tests exploit as an
independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, ValidationError, require_epsilon, require_eta, require_inputs

# Points in the rank-ratio grid that isoclinic_bound scans before refining.
U_GRID_SIZE = 2048
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class ExponentPair(NamedTuple):
    sym: float
    asym: float


class IsoclinicBound(NamedTuple):
    sym: float
    asym: float
    u_sym: float
    u_asym: float


@dataclass(frozen=True)
class SweepRecord:
    """One row of an (n, epsilon, eta) trade-off evaluation, CSV-ready."""

    n: int
    epsilon: float
    eta: float
    s_classical: float
    a_classical: float
    s_qstar: float
    a_qstar: float
    s_ratio: float | None
    a_ratio: float | None
    s_qalt: float | None = None
    a_qalt: float | None = None


def sym_exponent(mech, eta: float = 1.0) -> float:
    """min over pairs of the Chernoff information of the eta-mixed family."""
    from .mechanisms import tilde_family  # here, so that the scalar closed forms load without numpy

    fam = tilde_family(mech, eta)
    return min(fam.chernoff(a, b) for a, b in itertools.combinations(fam.members, 2))


def asym_exponent(mech, eta: float = 1.0) -> float:
    """min over inputs of the relative entropy of a mixed state vs the family average."""
    from .mechanisms import tilde_family

    fam = tilde_family(mech, eta)
    avg = fam.average
    return min(fam.divergence(m, avg) for m in fam.members)


# Closed forms for isoclinic mechanisms.


def xlogx(t: float) -> float:
    """L(t) = t ln t, extended by continuity to L(0) = 0."""
    return t * math.log(t) if t > 0.0 else 0.0


def isoclinic_constant(n: int, u: float) -> float:
    """c = (nu - 1)/(n - 1) for rank ratio u in [1/n, 1/2]."""
    if not (1.0 / n - 1e-12 <= u <= 0.5 + 1e-12):
        raise DomainError(f"rank ratio u={u} outside [1/{n}, 1/2]")
    return (n * u - 1.0) / (n - 1.0)


def boundary_root(c: float, epsilon: float) -> float:
    """sqrt(1 + (1-c)/sinh^2(eps/2)), the root in both ends of the admissible noise interval.

    Below eps ~ 3e-154 sinh^2(eps/2) underflows to 0; the root is then its
    eps -> 0 limit, +inf, which puts both ends at mu = 1 (white noise).
    """
    sinh2 = math.sinh(epsilon / 2.0) ** 2
    return math.sqrt(1.0 + (1.0 - c) / sinh2) if sinh2 > 0.0 else math.inf


def boundary_mu(u: float, c: float, epsilon: float) -> float:
    """Low-noise endpoint: (1-mu)^{-1} = 1 - 1/(2u) + (1/(2u)) sqrt(1 + (1-c)/sinh^2(eps/2))."""
    root = boundary_root(c, epsilon)
    return 1.0 - 1.0 / (1.0 - 0.5 / u + 0.5 / u * root)


def sym_overlap(t: float, u: float, c: float) -> float:
    """Minimum pairwise Chernoff overlap of an isoclinic family at noise weight t.

    At u = 1/2 the square collapses to the simpler 1 - (1-c)(1 - sqrt(t(2-t))).
    """
    if u == 0.5:
        return 1.0 - (1.0 - c) * (1.0 - math.sqrt(t * (2.0 - t)))
    return 1.0 - (1.0 - c) * (math.sqrt(u * t + 1.0 - t) - math.sqrt(u * t)) ** 2


def asym_divergence(t: float, u: float) -> float:
    """Relative entropy of one isoclinic state vs the flat state at noise weight t.

    At u = 1/2 this is (L(2-t) + L(t))/2 with L(t) = t ln t.
    """
    if u == 0.5:
        return 0.5 * (xlogx(2.0 - t) + xlogx(t))
    return u * xlogx(t + (1.0 - t) / u) + (1.0 - u) * xlogx(t)


def closed_form_exponents(n: int, u: float, epsilon: float, eta: float = 1.0, mu: float | None = None) -> ExponentPair:
    """Exponent pair of an isoclinic mechanism from scalars alone (no matrices).

    ``mu`` defaults to the low-noise boundary weight for the given epsilon.
    The mixed weight t = eta mu + 1 - eta must keep the states positive,
    i.e. lie in (0, 1/(1-u)).
    """
    require_eta(eta)
    c = isoclinic_constant(n, u)
    if mu is None:
        require_epsilon(epsilon)
        mu = boundary_mu(u, c, epsilon)
    t = eta * mu + 1.0 - eta
    if not 0.0 < t < 1.0 / (1.0 - u):
        raise DomainError(f"n={n}, u={u}, eps={epsilon}, eta={eta}: mixed noise weight {t} leaves the state space")
    return ExponentPair(sym=0.0 - math.log(sym_overlap(t, u, c)), asym=asym_divergence(t, u))


# Exact classical optima over eps-LDP mechanisms.


def stretch_factor(n: int, k: int, epsilon: float) -> float:
    """f(n, k, eps) = (k e^eps + n - k)/n, the mass inflation of a k-block output."""
    return (k * math.exp(epsilon) + n - k) / n


def classical_sym_term(n: int, k: int, epsilon: float) -> float:
    """Symmetric exponent attained by the k-subset mechanism (eta = 1)."""
    require_inputs(n)
    require_epsilon(epsilon)
    if not 0 <= k <= n:
        raise ValidationError("split size out of range")
    xi = math.exp(epsilon / 2.0)
    inner = 1.0 - (xi - 1.0) ** 2 * k * (n - k) / ((n - 1.0) * (k * xi * xi + n - k))
    if not 0.0 < inner < math.inf:
        raise ValidationError(f"symmetric exponent underflows at eps={epsilon}: 1 - overlap rounds to {inner}")
    return 0.0 - math.log(inner)


def classical_opt_sym(n: int, epsilon: float) -> float:
    """Exact optimum of the symmetric exponent over eps-LDP mechanisms."""
    require_inputs(n)
    require_epsilon(epsilon)
    return max(classical_sym_term(n, k, epsilon) for k in range(n + 1))


def classical_opt_sym_bound(n: int, epsilon: float, eta: float) -> float:
    """Upper bound on the symmetric optimum for eta-tilted priors; tight at eta = 1."""
    require_inputs(n)
    require_eta(eta)
    require_epsilon(epsilon)
    xi = math.exp(epsilon / 2.0)
    best = max(k * (n - k) / stretch_factor(n, k, epsilon) for k in range(n + 1))
    return 0.0 - math.log(1.0 - (n + eta * eta - 1.0) * (xi - 1.0) ** 2 / (n * n * (n - 1.0)) * best)


def classical_asym_term(n: int, k: int, epsilon: float, eta: float = 1.0) -> float:
    """Asymmetric exponent of the optimal k-block split under an eta-tilted prior."""
    require_inputs(n)
    require_eta(eta)
    require_epsilon(epsilon)
    if not 0 <= k <= n:
        raise ValidationError("split size out of range")
    f = stretch_factor(n, k, epsilon)
    term = _split_term(n, k, f, eta * math.exp(epsilon) + (1.0 - eta) * f, eta + (1.0 - eta) * f)
    if math.isfinite(term):
        return term
    # Above eps ~ 703.2, L(e^eps) = eps e^eps overflows. k d1 + (n - k) d2 = n f, so the
    # eps-linear parts of L cancel and the term is unchanged when f, d1 and d2 are divided by e^eps.
    low = math.exp(-epsilon)
    f = k / n + (1.0 - k / n) * low
    return _split_term(n, k, f, eta + (1.0 - eta) * f, eta * low + (1.0 - eta) * f)


def _split_term(n: int, k: int, f: float, d1: float, d2: float) -> float:
    """[k L(d1) + (n - k) L(d2) - n L(f)] / (n f), the asymmetric exponent of a k-block split."""
    return (k * xlogx(d1) + (n - k) * xlogx(d2) - n * xlogx(f)) / (n * f)


def classical_opt_asym(n: int, epsilon: float, eta: float = 1.0) -> float:
    """Exact optimum of the asymmetric exponent over eps-LDP mechanisms."""
    require_inputs(n)
    require_eta(eta)
    require_epsilon(epsilon)
    return max(classical_asym_term(n, k, epsilon, eta) for k in range(n + 1))


# Small-eps asymptotics.


def limit_ratio(n: int) -> float:
    """n (n-1) / (2 floor(n/2) ceil(n/2)), the eps -> 0 limit of the quantum/classical exponent ratio."""
    halves = (n // 2) * ((n + 1) // 2)
    return n * (n - 1) / (2.0 * halves)


def asymptotic_prediction(n: int, beta0: float) -> tuple[float, float, float]:
    """Leading quadratic coefficients of the classical and quantum optima and their limit ratio.

    Returns (floor(n/2) ceil(n/2) beta0 / (2 (n-1)), beta0 n / 4,
    :func:`limit_ratio` (n)) for a utility with curvature beta0; the ratio
    applies when phi(1) = 0 and n >= 3.
    """
    if beta0 <= 0:
        raise ValidationError("beta0 must be positive")
    classical = (n // 2) * ((n + 1) // 2) * beta0 / (2.0 * (n - 1))
    return classical, beta0 * n / 4.0, limit_ratio(n)


# Advantage thresholds and crossover search.


def advantage_threshold_sym(n: int) -> float:
    """Privacy levels eps below this value give a strict quantum advantage (symmetric)."""
    if n < 3:
        raise ValidationError("thresholds are degenerate below n = 3")
    root_c = math.sqrt((n - 2.0) / (2.0 * n - 2.0))
    root3 = math.sqrt(3.0)
    return 2.0 * math.log((root3 + root_c) / (root3 - root_c))


def advantage_threshold_asym(n: int) -> float:
    """Privacy levels eps below this value give a strict quantum advantage (asymmetric)."""
    if n < 3:
        raise ValidationError("thresholds are degenerate below n = 3")
    return math.log((math.sqrt(3.0 * (n - 1.0) ** 2 + 1.0) - 1.0) / (n - 1.0))


def quantum_classical_gap(n: int, epsilon: float, mode: str) -> float:
    """Half-dimension isoclinic exponent minus the exact classical optimum."""
    pair = closed_form_exponents(n, 0.5, epsilon)
    if mode == "sym":
        return pair.sym - classical_opt_sym(n, epsilon)
    if mode == "asym":
        return pair.asym - classical_opt_asym(n, epsilon)
    raise ValidationError("mode must be 'sym' or 'asym'")


def advantage_crossover(n: int, mode: str) -> float:
    """Smallest eps past the threshold where the quantum-classical gap changes sign.

    Bisection, to 1e-10, on the first sign change found on (threshold, 10];
    returns +inf when the gap stays positive on the whole range.
    """
    thr = advantage_threshold_sym(n) if mode == "sym" else advantage_threshold_asym(n)
    grid = 400
    lo = thr
    g_lo = quantum_classical_gap(n, lo, mode)
    step = (10.0 - thr) / grid
    hi = None
    for i in range(1, grid + 1):
        x = thr + i * step
        g = quantum_classical_gap(n, x, mode)
        if g <= 0.0 < g_lo:
            hi = x
            break
        lo, g_lo = x, g
    if hi is None:
        return math.inf
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if quantum_classical_gap(n, mid, mode) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def isoclinic_bound(n: int, epsilon: float, eta: float = 1.0) -> IsoclinicBound:
    """Best exponents over the rank-ratio family u in [1/n, 1/2].

    One scan of a fixed U_GRID_SIZE-point grid, then golden-section
    refinement of each exponent around its best cell (the curves are smooth
    but not proven unimodal); refinement tolerance 1e-10 in u.
    """
    lo, hi = 1.0 / n, 0.5

    def pair_at(u: float) -> ExponentPair:
        return closed_form_exponents(n, u, epsilon, eta)

    us = [lo + (hi - lo) * i / (U_GRID_SIZE - 1) for i in range(U_GRID_SIZE)]
    pairs = [pair_at(u) for u in us]
    u_s, s_val = _refine_max(lambda u: pair_at(u).sym, us, [p.sym for p in pairs])
    u_a, a_val = _refine_max(lambda u: pair_at(u).asym, us, [p.asym for p in pairs])
    return IsoclinicBound(sym=s_val, asym=a_val, u_sym=u_s, u_asym=u_a)


def golden_min(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function; returns (argmin, min)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    s = 0.5 * (a + b)
    return s, fn(s)


def _refine_max(fn, grid: list[float], values: list[float]) -> tuple[float, float]:
    best = max(range(len(grid)), key=values.__getitem__)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    u, neg_fu = golden_min(lambda v: -fn(v), lo, hi, 1e-10)
    if values[best] >= -neg_fu:
        return grid[best], values[best]
    return u, -neg_fu


def ratio_sweep(n: int, eps_grid, eta: float = 1.0, alt_u: float | None = None) -> list[SweepRecord]:
    """Per-epsilon classical optima, isoclinic closed forms, and their ratios.

    ``s_classical`` is exact at eta = 1 and the tilted upper bound otherwise.
    ``alt_u`` adds a second isoclinic mechanism (e.g. u = 0.4) in the
    ``*_qalt`` columns.
    """
    records = []
    for epsilon in eps_grid:
        require_epsilon(epsilon)
        s_c = classical_opt_sym(n, epsilon) if eta == 1.0 else classical_opt_sym_bound(n, epsilon, eta)
        a_c = classical_opt_asym(n, epsilon, eta)
        star = closed_form_exponents(n, 0.5, epsilon, eta)
        alt = closed_form_exponents(n, alt_u, epsilon, eta) if alt_u is not None else None
        records.append(
            SweepRecord(
                n=n,
                epsilon=float(epsilon),
                eta=eta,
                s_classical=s_c,
                a_classical=a_c,
                s_qstar=star.sym,
                a_qstar=star.asym,
                s_ratio=_ratio(star.sym, s_c),
                a_ratio=_ratio(star.asym, a_c),
                s_qalt=None if alt is None else alt.sym,
                a_qalt=None if alt is None else alt.asym,
            )
        )
    return records


def _ratio(num: float, den: float) -> float | None:
    if den == 0.0:
        return None if num == 0.0 else math.inf
    return num / den
