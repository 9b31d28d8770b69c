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

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .linalg import validate_density
from .mechanisms import QldpMechanism, require_epsilon, tilde_family
from .metrics import (
    chernoff_information,
    classical_chernoff,
    classical_relative_entropy,
    golden_min,
    relative_entropy,
    xlogx,
)


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
    fam = tilde_family(mech, eta)
    if isinstance(fam, QldpMechanism):
        items = fam.validated
        pairwise = chernoff_information
    else:
        items = [fam.column(x) for x in range(fam.n_inputs)]
        pairwise = classical_chernoff
    return min(pairwise(items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items)))


def asym_exponent(mech, eta: float = 1.0) -> float:
    """min over inputs of the relative entropy of a mixed state vs the family average."""
    fam = tilde_family(mech, eta)
    if isinstance(fam, QldpMechanism):
        avg = validate_density(fam.average)
        return min(relative_entropy(s, avg) for s in fam.validated)
    avg = fam.q.mean(axis=1)
    return min(classical_relative_entropy(fam.column(x), avg) for x in range(fam.n_inputs))


# Closed forms for isoclinic mechanisms.


def isoclinic_constant(n: int, u: float) -> float:
    """c = (nu - 1)/(n - 1) for rank ratio u in [1/n, 1/2]."""
    if not (1.0 / n - 1e-12 <= u <= 0.5 + 1e-12):
        raise DomainError(f"rank ratio u={u} outside [1/{n}, 1/2]")
    return (n * u - 1.0) / (n - 1.0)


def boundary_mu(u: float, c: float, epsilon: float) -> float:
    """Low-noise endpoint: (1-mu)^{-1} = 1 - 1/(2u) + (1/(2u)) sqrt(1 + (1-c)/sinh^2(eps/2))."""
    root = math.sqrt(1.0 + (1.0 - c) / math.sinh(epsilon / 2.0) ** 2)
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
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must lie in (0, 1]")
    c = isoclinic_constant(n, u)
    if mu is None:
        require_epsilon(epsilon)
        mu = boundary_mu(u, c, epsilon)
    t = eta * mu + 1.0 - eta
    if not 0.0 < t < 1.0 / (1.0 - u):
        raise DomainError(f"mixed noise weight {t} leaves the state space")
    return ExponentPair(sym=-math.log(sym_overlap(t, u, c)), asym=asym_divergence(t, u))


# Exact classical optima over eps-LDP mechanisms.


def stretch_factor(n: int, k: int, epsilon: float) -> float:
    """f(n, k, eps) = (k e^eps + n - k)/n, the mass inflation of a k-block output."""
    return (k * math.exp(epsilon) + n - k) / n


def classical_sym_term(n: int, k: int, epsilon: float) -> float:
    """Symmetric exponent attained by the k-subset mechanism (eta = 1)."""
    if not 0 <= k <= n:
        raise ValidationError("split size out of range")
    xi = math.exp(epsilon / 2.0)
    inner = 1.0 - (xi - 1.0) ** 2 * k * (n - k) / ((n - 1.0) * (k * xi * xi + n - k))
    return -math.log(inner)


def classical_opt_sym(n: int, epsilon: float) -> float:
    """Exact optimum of the symmetric exponent over eps-LDP mechanisms."""
    require_epsilon(epsilon)
    return max(classical_sym_term(n, k, epsilon) for k in range(n + 1))


def classical_sym_argmax(n: int, epsilon: float) -> int:
    return max(range(n + 1), key=lambda k: classical_sym_term(n, k, epsilon))


def classical_opt_sym_bound(n: int, epsilon: float, eta: float) -> float:
    """Upper bound on the symmetric optimum for eta-tilted priors; tight at eta = 1."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must lie in (0, 1]")
    require_epsilon(epsilon)
    xi = math.exp(epsilon / 2.0)
    best = max(k * (n - k) / stretch_factor(n, k, epsilon) for k in range(n + 1))
    return -math.log(1.0 - (n + eta * eta - 1.0) * (xi - 1.0) ** 2 / (n * n * (n - 1.0)) * best)


def classical_asym_term(n: int, k: int, epsilon: float, eta: float = 1.0) -> float:
    """Asymmetric exponent of the optimal k-block split under an eta-tilted prior."""
    if not 0 <= k <= n:
        raise ValidationError("split size out of range")
    f = stretch_factor(n, k, epsilon)
    d1 = eta * math.exp(epsilon) + (1.0 - eta) * f
    d2 = eta + (1.0 - eta) * f
    big_f = k * xlogx(d1) + (n - k) * xlogx(d2) - n * xlogx(f)
    return big_f / (n * f)


def classical_opt_asym(n: int, epsilon: float, eta: float = 1.0) -> float:
    """Exact optimum of the asymmetric exponent over eps-LDP mechanisms."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must lie in (0, 1]")
    require_epsilon(epsilon)
    return max(classical_asym_term(n, k, epsilon, eta) for k in range(n + 1))


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


def advantage_crossover(n: int, mode: str, search_hi: float = 10.0, tol: float = 1e-10) -> float:
    """Smallest eps past the threshold where the quantum-classical gap changes sign.

    Bisection on the first sign change found on (threshold, search_hi];
    returns +inf when the gap stays positive on the whole range.
    """
    thr = advantage_threshold_sym(n) if mode == "sym" else advantage_threshold_asym(n)
    grid = 400
    lo = thr
    g_lo = quantum_classical_gap(n, lo, mode)
    step = (search_hi - thr) / grid
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if quantum_classical_gap(n, mid, mode) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def isoclinic_bound(n: int, epsilon: float, eta: float = 1.0, u_grid_size: int = 2048) -> IsoclinicBound:
    """Best exponents over the rank-ratio family u in [1/n, 1/2].

    Grid scan followed by golden-section refinement around the best cell
    (the curves are smooth but not proven unimodal); refinement tolerance
    1e-10 in u.
    """
    if u_grid_size < 2:
        raise ValidationError("grid needs at least two points")
    lo, hi = 1.0 / n, 0.5

    def sym_at(u: float) -> float:
        return closed_form_exponents(n, u, epsilon, eta).sym

    def asym_at(u: float) -> float:
        return closed_form_exponents(n, u, epsilon, eta).asym

    if hi - lo < 1e-15:
        return IsoclinicBound(sym=sym_at(lo), asym=asym_at(lo), u_sym=lo, u_asym=lo)
    us = [lo + (hi - lo) * i / (u_grid_size - 1) for i in range(u_grid_size)]
    u_s, s_val = _refine_max(sym_at, us)
    u_a, a_val = _refine_max(asym_at, us)
    return IsoclinicBound(sym=s_val, asym=a_val, u_sym=u_s, u_asym=u_a)


def _refine_max(fn, grid: list[float], tol: float = 1e-10) -> tuple[float, float]:
    values = [fn(u) for u in grid]
    best = max(range(len(grid)), key=values.__getitem__)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    u, neg_fu = golden_min(lambda v: -fn(v), lo, hi, tol)
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
