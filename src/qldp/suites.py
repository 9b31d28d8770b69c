"""Randomized property suites: metric ordering, data processing, measurement
reduction, and mixing-level bounds.

Each suite draws its instances from a seeded generator and reports the number
of violations together with the worst margin observed (positive margins mean
the property held with room to spare).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansions import ScalarSelftestReport, scalar_selftests
from .frames import build_eitff
from .linalg import validate_density
from .mechanisms import (
    QldpMechanism,
    induced_mechanism,
    isoclinic_mechanism,
    ldp_level,
    qldp_level,
    sigma_star,
    tilde_family,
)
from .metrics import (
    KL,
    RLD,
    SLD,
    SQUARE,
    SQUARED_DIFF,
    BKM,
    chernoff_information,
    depolarize,
    neg_ratio,
    petz_f_divergence,
    petz_metric,
    relative_entropy,
    wyd,
)
from .sampling import random_density, random_hermitian, random_povm

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


def sandwich_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """J_sld[X,X] <= J_f[X,X] <= J_rld[X,X] for every normalized kernel."""
    kinds = [BKM, wyd(0.3), wyd(0.5), wyd(0.7)]
    violations, worst = 0, math.inf
    for i in range(count):
        d = DIMS[i % len(DIMS)]
        rho0 = validate_density(random_density(rng, d))
        x = random_hermitian(rng, d)
        lo = petz_metric(rho0, x, x, SLD)
        hi = petz_metric(rho0, x, x, RLD)
        slack = 1e-9 * (1.0 + abs(hi))
        for kind in kinds:
            mid = petz_metric(rho0, x, x, kind)
            margin = min(mid - lo + slack, hi - mid + slack)
            worst = min(worst, margin)
            if margin < 0:
                violations += 1
    return SuiteResult("monotone_metric_sandwich", count * len(kinds), violations, worst)


def dpi_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Divergences do not increase under the depolarizing channel."""
    fs = [KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)]
    violations, worst = 0, math.inf
    checked = 0
    for i in range(count):
        d = DIMS[i % len(DIMS)]
        rho1 = validate_density(random_density(rng, d))
        rho2 = validate_density(random_density(rng, d))
        for t in (0.1, 0.5):
            out1, out2 = (validate_density(depolarize(r, t)) for r in (rho1, rho2))
            before_after = [
                (relative_entropy(rho1, rho2), relative_entropy(out1, out2)),
                (chernoff_information(rho1, rho2), chernoff_information(out1, out2)),
            ]
            before_after += [
                (petz_f_divergence(rho1, rho2, f), petz_f_divergence(out1, out2, f)) for f in fs
            ]
            for before, after in before_after:
                margin = before - after + 1e-9
                checked += 1
                worst = min(worst, margin)
                if margin < 0:
                    violations += 1
    return SuiteResult("data_processing", checked, violations, worst)


def _mechanism_pool() -> list[QldpMechanism]:
    pool = [
        sigma_star(2, 0.8),
        sigma_star(3, 1.0),
        sigma_star(4, 0.5),
        isoclinic_mechanism(build_eitff(3), 2.0),
        isoclinic_mechanism(build_eitff(5), 1.0),
    ]
    return pool


def measurement_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Measuring an eps-QLDP mechanism never induces a worse classical level."""
    pool = [(m, qldp_level(m)) for m in _mechanism_pool()]
    violations, worst = 0, math.inf
    for i in range(count):
        mech, level = pool[i % len(pool)]
        outcomes = 2 + (i % 3)
        povm = random_povm(rng, mech.dim, outcomes)
        induced = induced_mechanism(mech, povm)
        margin = level + 1e-9 - ldp_level(induced)
        worst = min(worst, margin)
        if margin < 0:
            violations += 1
    return SuiteResult("measurement_reduction", count, violations, worst)


def eta_mixing_suite(rng: np.random.Generator, count: int = 1000) -> SuiteResult:
    """Mixing toward the average shrinks the level to at most eta eps (1 + sqrt(eps))."""
    ns = (2, 3, 4, 6)
    violations, worst = 0, math.inf
    for i in range(count):
        n = ns[i % len(ns)]
        epsilon = float(rng.uniform(0.01, 0.25))
        eta = float(rng.uniform(0.05, 1.0))
        mech = sigma_star(n, epsilon)
        # tilde_family declares the audited level of the mixed family.
        mixed = tilde_family(mech, eta)
        bound = eta * epsilon * (1.0 + math.sqrt(epsilon))
        margin = bound + 1e-9 - mixed.epsilon
        worst = min(worst, margin)
        if margin < 0:
            violations += 1
    return SuiteResult("eta_mixing_level", count, violations, worst)


def scalar_suite() -> SuiteResult:
    report: ScalarSelftestReport = scalar_selftests()
    worst = min(c.worst_margin for c in report.checks)
    violations = sum(c.violations for c in report.checks)
    return SuiteResult("scalar_selftests", report.total_instances, violations, worst)


def expansion_suite(seed: int) -> list:
    """Seeded instances for every expansion check, one report per check.

    Base states are kept well conditioned (mix 0.3) and directions modest so
    the last decade of the grid sits in the asymptotic regime of the
    remainder; see the fitted-order note in :mod:`qldp.expansions`.
    """
    from .expansions import (
        check_chernoff_expansion,
        check_entropy_expansion,
        check_fdiv_expansion,
        check_overlap_expansion,
        check_quadratic_assumption,
    )
    from .metrics import holevo_information, overlap
    from .sampling import random_mean_zero_directions, random_traceless_hermitian

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

    reports.append(
        check_quadratic_assumption(holevo_eval, center, directions, BKM, (n - 1) / n**2, 0.0)
    )
    reports.append(
        check_quadratic_assumption(pairwise_eval, center, directions, wyd(0.5), 1.0 / (2 * n), -1.0)
    )
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
