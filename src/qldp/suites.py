"""Randomized property suites and scalar self-tests: metric ordering, data
processing, measurement reduction, mixing-level bounds, and the scalar
inequalities behind the advantage thresholds.

Each check turns its instances (seeded draws or a fixed grid) into a list of
margins, positive when the property held with room to spare, and
:meth:`SuiteResult.tally` counts the violations and keeps the worst margin.
:func:`sandwich_suite` and :func:`dpi_suite` draw every input of a call
first, in the order a loop over the instances would, then evaluate the
instances of each dimension as one stack (one stacked ``eigh`` of its
states) and write the margins back in instance order.
:func:`measurement_suite` draws every POVM first, in instance order, then
checks the elements of all instances of one dimension with one stacked
``eigvalsh``: it calls the stack behind
:func:`~qldp.mechanisms.induced_mechanism` directly, which raises the first
fault it finds, as every stacked check does.
:func:`eta_mixing_suite` mixes the raw states of each sigma_star in draw
order, without building sigma_star as a mechanism, and audits the mixed
families with one :func:`~qldp.mechanisms.qldp_levels` call: each family is
validated once (one ``eigh``), the states of each dimension are factored in
one stack, and the levels are bit-identical to one ``qldp_level`` call per
family.
:func:`expansion_suite` runs the finite-difference checks of
:mod:`qldp.expansions` on seeded instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expansions import (
    check_chernoff_expansion,
    check_entropy_expansion,
    check_fdiv_expansion,
    check_overlap_expansion,
    check_quadratic_assumption,
)
from .exponents import xlogx
from .frames import build_eitff
from .linalg import validate_densities, validate_density
from .mechanisms import (
    QldpMechanism,
    _induced_stack,
    _isoclinic_states,
    _mixed_states,
    isoclinic_mechanism,
    qldp_levels,
    sigma_star,
)
from .metrics import (
    KL,
    RLD,
    SLD,
    SQUARE,
    SQUARED_DIFF,
    BKM,
    classical_f_divergence,
    depolarize_each,
    holevo_information,
    neg_ratio,
    overlap,
    pair_divergences,
    petz_metrics,
    wyd,
)
from .optimal import mutual_information_utility, pairwise_sqrt_utility
from .sampling import (
    random_density,
    random_hermitian,
    random_mean_zero_directions,
    random_povm,
    random_traceless_hermitian,
)

DIMS = (2, 3, 4)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @classmethod
    def tally(cls, name: str, margins, strict: bool = False) -> SuiteResult:
        """One instance per margin; a negative or NaN margin is a violation, and so
        is a zero one when ``strict``.  The worst margin is NaN if any margin is."""
        margins = [float(m) for m in margins]
        holds = (lambda m: m > 0) if strict else (lambda m: m >= 0)
        violations = sum(not holds(m) for m in margins)
        return cls(name, len(margins), violations, _worst(margins))


def _worst(margins) -> float:
    """The smallest margin, or NaN if any margin is NaN (``min`` alone can skip one)."""
    return math.nan if any(map(math.isnan, margins)) else min(margins, default=math.inf)


def _dims(count: int) -> list[int]:
    """The dimension of each instance: DIMS in turn."""
    return [DIMS[i % len(DIMS)] for i in range(count)]


def _dimension_groups(count: int) -> list[np.ndarray]:
    """The indices of the instances of each dimension, in instance order."""
    return [np.arange(j, count, len(DIMS)) for j in range(min(count, len(DIMS)))]


def sandwich_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """J_sld[X,X] <= J_f[X,X] <= J_rld[X,X] for every normalized kernel."""
    kinds = [BKM, wyd(0.3), wyd(0.5), wyd(0.7)]
    draws = [(random_density(rng, d), random_hermitian(rng, d)) for d in _dims(count)]
    margins = np.empty((count, len(kinds)))
    for group in _dimension_groups(count):
        rhos, xs = zip(*(draws[i] for i in group))
        values = petz_metrics(rhos, xs, [SLD, RLD, *kinds])
        lo, hi, mid = values[:, :1], values[:, 1:2], values[:, 2:]
        slack = 1e-9 * (1.0 + np.abs(hi))
        margins[group] = np.minimum(mid - lo + slack, hi - mid + slack)
    return SuiteResult.tally("monotone_metric_sandwich", margins.ravel())


def dpi_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Divergences do not increase under the depolarizing channel."""
    fs = [KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)]
    ts = (0.1, 0.5)
    draws = [(random_density(rng, d), random_density(rng, d)) for d in _dims(count)]
    margins = np.empty((count, len(ts), 2 + len(fs)))
    for group in _dimension_groups(count):
        n = len(group)
        # blocks of 2n states, the drawn pairs and then each t: the first states of the n pairs, then the second
        states = validate_densities([draws[i][side] for side in (0, 1) for i in group])
        states += validate_densities([m for t in ts for m in depolarize_each(states, t)])
        blocks = [states[start : start + 2 * n] for start in range(0, len(states), 2 * n)]
        values = pair_divergences([s for b in blocks for s in b[:n]], [s for b in blocks for s in b[n:]], fs)
        values = values.reshape(len(blocks), n, -1)
        margins[group] = values[0, :, None] - values[1:].swapaxes(0, 1) + 1e-9
    return SuiteResult.tally("data_processing", margins.ravel())


@functools.cache
def _measured_pool() -> tuple[QldpMechanism, ...]:
    """Five fixed mechanisms, built once, each keeping its audited level (a mechanism's arrays are read-only)."""
    return (
        sigma_star(2, 0.8),
        sigma_star(3, 1.0),
        sigma_star(4, 0.5),
        isoclinic_mechanism(build_eitff(3), 2.0),
        isoclinic_mechanism(build_eitff(5), 1.0),
    )


def measurement_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Measuring an eps-QLDP mechanism never induces a worse classical level."""
    pool = _measured_pool()
    mechs = [pool[i % len(pool)] for i in range(count)]
    povms = [random_povm(rng, mech.dim, 2 + (i % 3)) for i, mech in enumerate(mechs)]
    margins = [mech.level + 1e-9 - induced.level for mech, induced in zip(mechs, _induced_stack(mechs, povms))]
    return SuiteResult.tally("measurement_reduction", margins)


def eta_mixing_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Mixing toward the average shrinks the level to at most eta eps (1 + sqrt(eps)).

    Each instance mixes the raw states of sigma_star(n, eps), which are never audited themselves, so the mixed
    family is the only one validated.
    """
    ns = (2, 3, 4, 6)
    families, bounds = [], []
    for i in range(count):
        n = ns[i % len(ns)]
        epsilon = float(rng.uniform(0.01, 0.25))
        eta = float(rng.uniform(0.05, 1.0))
        families.append(_mixed_states(_isoclinic_states(build_eitff(n), epsilon), eta))
        bounds.append(eta * epsilon * (1.0 + math.sqrt(epsilon)))
    margins = [bound + 1e-9 - level for bound, level in zip(bounds, qldp_levels(families))]
    return SuiteResult.tally("eta_mixing_level", margins)


def scalar_selftests() -> tuple[SuiteResult, ...]:
    """Grid checks of the scalar inequalities and the posterior ordering.

    1. L(1+t) + L(1-t) > t^2 on 0 < |t| < 1.
    2. T - 1 - ln T < t^2 / 8 with T = L(t+1)/t, for t > 0.
    3. For the binary channel with input weights (1-u, u), u <= 1/2, the
       posterior seen from the heavy output majorizes: D_F(P_{X|Y=1} || P_X)
       >= D_F(P_{X|Y=0} || P_X) for operator convex F.

    The first two inequalities are strict, so a zero margin violates them.
    """
    ts = [sign * i / 1000.0 for i in range(1, 1000) for sign in (1, -1)]
    quadratic_lower = [xlogx(1.0 + t) + xlogx(1.0 - t) - t * t for t in ts]

    eighth_upper = []
    for t in [10.0 ** (k / 100.0) for k in range(-300, 201)]:  # 1e-3 .. 1e2
        big_t = xlogx(t + 1.0) / t
        eighth_upper.append(t * t / 8.0 - (big_t - 1.0 - math.log(big_t)))

    fs = [KL, SQUARE, neg_ratio(0.5), neg_ratio(1.0), neg_ratio(2.0), neg_ratio(5.0)]
    # One row per (u, eps), u = 1/200 .. 1/2 outer and eps = 0.1 .. 2 inner.
    u = np.repeat(np.arange(1, 101) / 200.0, 20)
    grow = np.tile([math.exp(eps10 / 10.0) for eps10 in range(1, 21)], 100)
    prior = np.stack([1.0 - u, u], axis=-1)
    post0 = np.stack([(1.0 - u) * grow, u], axis=-1) / ((1.0 - u) * (grow - 1.0) + 1.0)[:, None]
    post1 = np.stack([1.0 - u, u * grow], axis=-1) / (u * (grow - 1.0) + 1.0)[:, None]
    posterior_order = np.stack(
        [classical_f_divergence(post1, prior, f) - classical_f_divergence(post0, prior, f) + 1e-12 for f in fs],
        axis=-1,
    ).ravel()

    return (
        SuiteResult.tally("xlogx_quadratic_lower", quadratic_lower, strict=True),
        SuiteResult.tally("xlogx_eighth_upper", eighth_upper, strict=True),
        SuiteResult.tally("posterior_divergence_order", posterior_order),
    )


def scalar_suite() -> SuiteResult:
    checks = scalar_selftests()
    return SuiteResult(
        "scalar_selftests",
        sum(c.instances for c in checks),
        sum(c.violations for c in checks),
        _worst([c.worst_margin for c in checks]),
    )


def expansion_suite(seed: int) -> list:
    """Seeded instances for every expansion check, one report per check.

    Base states are kept well conditioned (mix 0.3) and directions modest so
    the last decade of the grid sits in the asymptotic regime of the
    remainder; see the fitted-order note in :mod:`qldp.expansions`.
    """
    rng = np.random.default_rng(seed)
    rho0 = validate_density(random_density(rng, 3, mix=0.3))
    x1 = random_traceless_hermitian(rng, 3, 0.5)
    x2 = random_traceless_hermitian(rng, 3, 0.5)
    reports = [
        check_fdiv_expansion(rho0, x1, x2, KL),
        check_fdiv_expansion(rho0, x1, x2, SQUARED_DIFF),
        check_entropy_expansion(rho0, x1),
        check_chernoff_expansion(rho0, x1, x2),
        check_overlap_expansion(rho0, x1, x2, 0.3),
        check_overlap_expansion(rho0, x1, x2, 0.7),
    ]

    n = 3
    center = random_density(rng, 2, mix=0.3)
    directions = random_mean_zero_directions(rng, 2, n, 0.3)
    prior = np.full(n, 1.0 / n)

    def holevo_eval(states):
        return holevo_information(prior, states)

    def pairwise_eval(states):
        total = sum(overlap(states[i], states[j], 0.5) for i in range(n) for j in range(n) if i != j)
        return -total / (n * (n - 1))

    cases = ((holevo_eval, BKM, mutual_information_utility(n)), (pairwise_eval, wyd(0.5), pairwise_sqrt_utility(n)))
    reports += [check_quadratic_assumption(f, center, directions, k, u.beta0, u.value_at_ones) for f, k, u in cases]
    return reports


def run_all_suites(seed: int, count: int = 1000) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    return [
        sandwich_suite(rng, count),
        dpi_suite(rng, count),
        measurement_suite(rng, count),
        eta_mixing_suite(rng, count),
        scalar_suite(),
    ]
