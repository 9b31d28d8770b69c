"""Randomized property suites and scalar self-tests: metric ordering, data
processing, measurement reduction, mixing-level bounds, and the scalar
inequalities behind the advantage thresholds.

Each check turns its instances (seeded draws or a fixed grid) into a list of
margins, positive when the property held with room to spare, and
:meth:`SuiteResult.tally` counts the violations and keeps the worst margin.
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
from .linalg import checked_hermitian, validate_density
from .mechanisms import QldpMechanism, induced_mechanism, isoclinic_mechanism, sigma_star, tilde_family
from .metrics import (
    KL,
    RLD,
    SLD,
    SQUARE,
    SQUARED_DIFF,
    BKM,
    chernoff_information,
    classical_f_divergence,
    depolarize,
    holevo_information,
    neg_ratio,
    overlap,
    petz_f_divergence,
    petz_metric,
    relative_entropy,
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


def sandwich_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """J_sld[X,X] <= J_f[X,X] <= J_rld[X,X] for every normalized kernel."""
    kinds = [BKM, wyd(0.3), wyd(0.5), wyd(0.7)]
    margins = []
    for i in range(count):
        d = DIMS[i % len(DIMS)]
        rho0 = validate_density(random_density(rng, d))
        x = checked_hermitian(random_hermitian(rng, d))
        lo = petz_metric(rho0, x, x, SLD)
        hi = petz_metric(rho0, x, x, RLD)
        slack = 1e-9 * (1.0 + abs(hi))
        for kind in kinds:
            mid = petz_metric(rho0, x, x, kind)
            margins.append(min(mid - lo + slack, hi - mid + slack))
    return SuiteResult.tally("monotone_metric_sandwich", margins)


def dpi_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Divergences do not increase under the depolarizing channel."""
    fs = [KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)]

    def divergences(a, b) -> list[float]:
        return [relative_entropy(a, b), chernoff_information(a, b)] + [petz_f_divergence(a, b, f) for f in fs]

    margins = []
    for i in range(count):
        d = DIMS[i % len(DIMS)]
        rho1 = validate_density(random_density(rng, d))
        rho2 = validate_density(random_density(rng, d))
        before = divergences(rho1, rho2)
        for t in (0.1, 0.5):
            out1, out2 = (validate_density(depolarize(r, t)) for r in (rho1, rho2))
            margins += [b - a + 1e-9 for b, a in zip(before, divergences(out1, out2))]
    return SuiteResult.tally("data_processing", margins)


@functools.cache
def _measured_pool() -> tuple[QldpMechanism, ...]:
    """Five fixed mechanisms, built once, each keeping its audited level; every state array is read-only."""
    pool = (
        sigma_star(2, 0.8),
        sigma_star(3, 1.0),
        sigma_star(4, 0.5),
        isoclinic_mechanism(build_eitff(3), 2.0),
        isoclinic_mechanism(build_eitff(5), 1.0),
    )
    for array in (a for mech in pool for s in mech.members for a in (s.matrix, s.eigenvalues, s.eigenvectors)):
        array.setflags(write=False)
    return pool


def measurement_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Measuring an eps-QLDP mechanism never induces a worse classical level."""
    pool = _measured_pool()
    margins = []
    for i in range(count):
        mech = pool[i % len(pool)]
        outcomes = 2 + (i % 3)
        povm = random_povm(rng, mech.dim, outcomes)
        margins.append(mech.level + 1e-9 - induced_mechanism(mech, povm).level)
    return SuiteResult.tally("measurement_reduction", margins)


def eta_mixing_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Mixing toward the average shrinks the level to at most eta eps (1 + sqrt(eps))."""
    ns = (2, 3, 4, 6)
    margins = []
    for i in range(count):
        n = ns[i % len(ns)]
        epsilon = float(rng.uniform(0.01, 0.25))
        eta = float(rng.uniform(0.05, 1.0))
        level = tilde_family(sigma_star(n, epsilon), eta).level
        bound = eta * epsilon * (1.0 + math.sqrt(epsilon))
        margins.append(bound + 1e-9 - level)
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
