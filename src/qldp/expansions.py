"""Finite-difference verification of second-order expansions.

Each check evaluates an information quantity along a shrinking perturbation
grid t and compares it with the quadratic form that is supposed to carry its
second-order behaviour.  Because the remainders are one order higher, the
ratio observed/predicted must approach 1 roughly linearly in t; the fitted
slope of log|ratio - 1| against log t is reported and must stay >= 0.9.

Below t = 1e-3 double-precision cancellation degrades the ratio, so the
default grid stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import matrix_function, validate_density, validate_hermitian
from .metrics import (
    BKM,
    OperatorConvexF,
    chernoff_information,
    classical_f_divergence,
    induced_metric,
    overlap,
    petz_f_divergence,
    petz_metric,
    von_neumann_entropy,
    wyd,
    xlogx,
)

DEFAULT_T_GRID = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
NOISE_FLOOR = 1e-11


@dataclass(frozen=True)
class ExpansionReport:
    """Observed vs predicted quadratic term along a decreasing t grid."""

    name: str
    t_grid: tuple
    predicted: tuple
    observed: tuple
    ratio_errors: tuple
    fitted_order: float

    def ratio_error_at(self, t: float) -> float:
        for ti, err in zip(self.t_grid, self.ratio_errors):
            if abs(ti - t) <= 1e-15:
                return err
        raise ValidationError(f"t={t} is not on the grid")

    def passes(self, order_min: float = 0.9, ratio_tol: float = 0.02, at_t: float | None = None) -> bool:
        err = self.ratio_error_at(at_t) if at_t is not None else self.ratio_errors[-1]
        return self.fitted_order >= order_min and err <= ratio_tol


def _fitted_order(t_grid, ratio_errors) -> float:
    # Fit over the three smallest usable points: remainder sign changes can
    # carve a dip into the coarse end of the curve, but a well-conditioned
    # instance has settled into its asymptotic slope by the last decade.
    usable = [(t, e) for t, e in zip(t_grid, ratio_errors) if e >= NOISE_FLOOR]
    usable = usable[-3:]
    if len(usable) < 2:
        return math.inf
    xs = np.log([t for t, _ in usable])
    ys = np.log([e for _, e in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def _make_report(name, t_grid, quad, observed) -> ExpansionReport:
    predicted = [quad * t * t for t in t_grid]
    ratio_errors = []
    for p, o in zip(predicted, observed):
        # Degenerate zero-prediction directions fall back to the absolute error.
        ratio_errors.append(abs(o / p - 1.0) if p != 0.0 else abs(o))
    return ExpansionReport(
        name=name,
        t_grid=tuple(t_grid),
        predicted=tuple(predicted),
        observed=tuple(observed),
        ratio_errors=tuple(ratio_errors),
        fitted_order=_fitted_order(t_grid, ratio_errors),
    )


def _check_grid(t_grid) -> tuple:
    ts = tuple(float(t) for t in t_grid)
    if not ts or any(t <= 0 for t in ts) or any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValidationError("t grid must be positive and strictly decreasing")
    return ts


def _check_direction(r0, x, t_max: float) -> np.ndarray:
    xm = validate_hermitian(x)
    if abs(np.trace(xm)) > 1e-10:
        raise ValidationError("perturbation direction must be traceless")
    lam = np.linalg.eigvalsh(r0.matrix + t_max * xm)
    if lam[0] <= 1e-12:
        raise DomainError("grid point leaves the state space")
    return xm


def _perturbed_pair(rho0, x1, x2, t_grid):
    """Grid, base State and both checked directions of a two-state expansion check."""
    ts = _check_grid(t_grid)
    r0 = validate_density(rho0)
    return ts, r0, _check_direction(r0, x1, ts[0]), _check_direction(r0, x2, ts[0])


def check_fdiv_expansion(rho0, x1, x2, f: OperatorConvexF, t_grid=DEFAULT_T_GRID) -> ExpansionReport:
    """F-divergence of two perturbed states vs half the induced metric form."""
    if abs(float(f(np.array(1.0)))) > 1e-12:
        raise ValidationError("the expansion needs F(1) = 0")
    ts, r0, d1, d2 = _perturbed_pair(rho0, x1, x2, t_grid)
    dx = d1 - d2
    quad = 0.5 * induced_metric(r0, dx, dx, f)
    observed = [petz_f_divergence(r0.matrix + t * d1, r0.matrix + t * d2, f) for t in ts]
    return _make_report(f"fdiv_{f.tag}", ts, quad, observed)


def check_entropy_expansion(rho0, x, t_grid=DEFAULT_T_GRID) -> ExpansionReport:
    """Negentropy increment minus its linear term vs half the BKM form."""
    ts = _check_grid(t_grid)
    r0 = validate_density(rho0)
    xm = _check_direction(r0, x, ts[0])
    log_r0 = matrix_function(r0, np.log)
    linear = float(np.trace(log_r0 @ xm).real)
    h0 = von_neumann_entropy(r0)
    quad = 0.5 * petz_metric(r0, xm, xm, BKM)
    observed = [h0 - von_neumann_entropy(r0.matrix + t * xm) - t * linear for t in ts]
    return _make_report("entropy", ts, quad, observed)


def check_chernoff_expansion(rho0, x1, x2, t_grid=DEFAULT_T_GRID) -> ExpansionReport:
    """Chernoff information of two perturbed states vs one eighth of the wyd(1/2) form."""
    ts, r0, d1, d2 = _perturbed_pair(rho0, x1, x2, t_grid)
    dx = d1 - d2
    quad = petz_metric(r0, dx, dx, wyd(0.5)) / 8.0
    observed = [chernoff_information(r0.matrix + t * d1, r0.matrix + t * d2) for t in ts]
    return _make_report("chernoff", ts, quad, observed)


def check_overlap_expansion(rho0, x1, x2, s: float, t_grid=DEFAULT_T_GRID) -> ExpansionReport:
    """Overlap deficit 1 - Tr rho_1^s rho_2^{1-s} vs (s(1-s)/2) times the wyd(s) form."""
    if not 0.0 < s < 1.0:
        raise ValidationError("s must lie in (0, 1)")
    ts, r0, d1, d2 = _perturbed_pair(rho0, x1, x2, t_grid)
    dx = d1 - d2
    quad = 0.5 * s * (1.0 - s) * petz_metric(r0, dx, dx, wyd(s))
    observed = [1.0 - overlap(r0.matrix + t * d1, r0.matrix + t * d2, s) for t in ts]
    return _make_report(f"overlap_s{s:g}", ts, quad, observed)


def check_quadratic_assumption(
    evaluator,
    rho_avg,
    directions,
    kind,
    beta0: float,
    phi_at_ones: float = 0.0,
    t_grid=DEFAULT_T_GRID,
) -> ExpansionReport:
    """Utility increment of a perturbed family vs the metric quadratic form.

    The family rho_avg + t delta_i must keep rho_avg as its average, so the
    directions have to sum to zero; the predicted quadratic term is
    (beta0 n / (2 (n-1))) sum_i J[t delta_i, t delta_i].
    """
    ts = _check_grid(t_grid)
    r0 = validate_density(rho_avg)
    dirs = [_check_direction(r0, x, ts[0]) for x in directions]
    n = len(dirs)
    if n < 2:
        raise ValidationError("need at least two directions")
    mean_norm = np.max(np.abs(sum(dirs)))
    if mean_norm > 1e-10:
        raise ValidationError("directions must have zero mean")
    j_sum = sum(petz_metric(r0, x, x, kind) for x in dirs)
    quad = beta0 * n / (2.0 * (n - 1.0)) * j_sum
    observed = [evaluator([r0.matrix + t * x for x in dirs]) - phi_at_ones for t in ts]
    return _make_report("quadratic_assumption", ts, quad, observed)


# Scalar self-tests: the elementary inequalities behind the threshold analysis
# and the posterior-divergence ordering behind the split-size reduction.


@dataclass(frozen=True)
class ScalarCheck:
    name: str
    instances: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class ScalarSelftestReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_instances(self) -> int:
        return sum(c.instances for c in self.checks)


def scalar_selftests() -> ScalarSelftestReport:
    """Grid checks of the scalar inequalities and the posterior ordering.

    1. L(1+t) + L(1-t) > t^2 on 0 < |t| < 1.
    2. T - 1 - ln T < t^2 / 8 with T = L(t+1)/t, for t > 0.
    3. For the binary channel with input weights (1-u, u), u <= 1/2, the
       posterior seen from the heavy output majorizes: D_F(P_{X|Y=1} || P_X)
       >= D_F(P_{X|Y=0} || P_X) for operator convex F.
    """
    checks = []

    count, bad, worst = 0, 0, math.inf
    for i in range(1, 1000):
        t = i / 1000.0
        for tt in (t, -t):
            margin = xlogx(1.0 + tt) + xlogx(1.0 - tt) - tt * tt
            count += 1
            worst = min(worst, margin)
            if margin <= 0:
                bad += 1
    checks.append(ScalarCheck("xlogx_quadratic_lower", count, bad, worst))

    count, bad, worst = 0, 0, math.inf
    grid = [10.0 ** (k / 100.0) for k in range(-300, 201)]  # 1e-3 .. 1e2
    for t in grid:
        big_t = xlogx(t + 1.0) / t
        margin = t * t / 8.0 - (big_t - 1.0 - math.log(big_t))
        count += 1
        worst = min(worst, margin)
        if margin <= 0:
            bad += 1
    checks.append(ScalarCheck("xlogx_eighth_upper", count, bad, worst))

    from .metrics import KL, SQUARE, neg_ratio

    fs = [KL, SQUARE, neg_ratio(0.5), neg_ratio(1.0), neg_ratio(2.0), neg_ratio(5.0)]
    count, bad, worst = 0, 0, math.inf
    for iu in range(1, 101):
        u = iu / 200.0  # (0, 1/2]
        for eps10 in range(1, 21):
            epsilon = eps10 / 10.0
            grow = math.exp(epsilon)
            prior = np.array([1.0 - u, u])
            z0 = (1.0 - u) * (grow - 1.0) + 1.0
            z1 = u * (grow - 1.0) + 1.0
            post0 = np.array([(1.0 - u) * grow, u]) / z0
            post1 = np.array([1.0 - u, u * grow]) / z1
            for f in fs:
                margin = classical_f_divergence(post1, prior, f) - classical_f_divergence(post0, prior, f) + 1e-12
                count += 1
                worst = min(worst, margin)
                if margin < 0:
                    bad += 1
    checks.append(ScalarCheck("posterior_divergence_order", count, bad, worst))

    return ScalarSelftestReport(checks=tuple(checks))
