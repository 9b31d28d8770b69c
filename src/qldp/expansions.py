"""Finite-difference verification of second-order expansions.

Each check evaluates an information quantity along a shrinking perturbation
grid t and compares it with the quadratic form that is supposed to carry its
second-order behaviour.  Because the remainders are one order higher, the
ratio observed/predicted must approach 1 roughly linearly in t; the fitted
slope of log|ratio - 1| against log t is reported and must stay >= 0.9, and
the ratio error at the smallest t must stay <= 2% (:meth:`ExpansionReport.passes`).

Every check runs on the fixed grid DEFAULT_T_GRID, 1e-1 down to 1e-3: below
t = 1e-3 double-precision cancellation degrades the ratio.
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
    induced_metric,
    overlap,
    petz_f_divergence,
    petz_metric,
    von_neumann_entropy,
    wyd,
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

    def passes(self) -> bool:
        """Fitted order at least 0.9 and ratio error at most 2% at the smallest t."""
        return bool(self.fitted_order >= 0.9 and self.ratio_errors[-1] <= 0.02)


def _fitted_order(ratio_errors) -> float:
    # Fit over the three smallest usable points: remainder sign changes can
    # carve a dip into the coarse end of the curve, but a well-conditioned
    # instance has settled into its asymptotic slope by the last decade.
    usable = [(t, e) for t, e in zip(DEFAULT_T_GRID, ratio_errors) if e >= NOISE_FLOOR]
    usable = usable[-3:]
    if len(usable) < 2:
        return math.inf
    xs = np.log([t for t, _ in usable])
    ys = np.log([e for _, e in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def _make_report(name, quad, observed) -> ExpansionReport:
    predicted = [quad * t * t for t in DEFAULT_T_GRID]
    ratio_errors = []
    for p, o in zip(predicted, observed):
        # Degenerate zero-prediction directions fall back to the absolute error.
        ratio_errors.append(abs(o / p - 1.0) if p != 0.0 else abs(o))
    return ExpansionReport(
        name=name,
        t_grid=DEFAULT_T_GRID,
        predicted=tuple(predicted),
        observed=tuple(observed),
        ratio_errors=tuple(ratio_errors),
        fitted_order=_fitted_order(ratio_errors),
    )


def _check_direction(r0, x) -> np.ndarray:
    xm = validate_hermitian(x)
    if abs(np.trace(xm)) > 1e-10:
        raise ValidationError("perturbation direction must be traceless")
    lam = np.linalg.eigvalsh(r0.matrix + DEFAULT_T_GRID[0] * xm)
    if lam[0] <= 1e-12:
        raise DomainError("grid point leaves the state space")
    return xm


def _perturbed_pair(rho0, x1, x2):
    """Base State and both checked directions of a two-state expansion check."""
    r0 = validate_density(rho0)
    return r0, _check_direction(r0, x1), _check_direction(r0, x2)


def check_fdiv_expansion(rho0, x1, x2, f: OperatorConvexF) -> ExpansionReport:
    """F-divergence of two perturbed states vs half the induced metric form."""
    if abs(float(f(np.array(1.0)))) > 1e-12:
        raise ValidationError("the expansion needs F(1) = 0")
    r0, d1, d2 = _perturbed_pair(rho0, x1, x2)
    dx = d1 - d2
    quad = 0.5 * induced_metric(r0, dx, dx, f)
    observed = [petz_f_divergence(r0.matrix + t * d1, r0.matrix + t * d2, f) for t in DEFAULT_T_GRID]
    return _make_report(f"fdiv_{f.tag}", quad, observed)


def check_entropy_expansion(rho0, x) -> ExpansionReport:
    """Negentropy increment minus its linear term vs half the BKM form."""
    r0 = validate_density(rho0)
    xm = _check_direction(r0, x)
    log_r0 = matrix_function(r0, np.log)
    linear = float(np.trace(log_r0 @ xm).real)
    h0 = von_neumann_entropy(r0)
    quad = 0.5 * petz_metric(r0, xm, xm, BKM)
    observed = [h0 - von_neumann_entropy(r0.matrix + t * xm) - t * linear for t in DEFAULT_T_GRID]
    return _make_report("entropy", quad, observed)


def check_chernoff_expansion(rho0, x1, x2) -> ExpansionReport:
    """Chernoff information of two perturbed states vs one eighth of the wyd(1/2) form."""
    r0, d1, d2 = _perturbed_pair(rho0, x1, x2)
    dx = d1 - d2
    quad = petz_metric(r0, dx, dx, wyd(0.5)) / 8.0
    observed = [chernoff_information(r0.matrix + t * d1, r0.matrix + t * d2) for t in DEFAULT_T_GRID]
    return _make_report("chernoff", quad, observed)


def check_overlap_expansion(rho0, x1, x2, s: float) -> ExpansionReport:
    """Overlap deficit 1 - Tr rho_1^s rho_2^{1-s} vs (s(1-s)/2) times the wyd(s) form."""
    if not 0.0 < s < 1.0:
        raise ValidationError("s must lie in (0, 1)")
    r0, d1, d2 = _perturbed_pair(rho0, x1, x2)
    dx = d1 - d2
    quad = 0.5 * s * (1.0 - s) * petz_metric(r0, dx, dx, wyd(s))
    observed = [1.0 - overlap(r0.matrix + t * d1, r0.matrix + t * d2, s) for t in DEFAULT_T_GRID]
    return _make_report(f"overlap_s{s:g}", quad, observed)


def check_quadratic_assumption(
    evaluator,
    rho_avg,
    directions,
    kind,
    beta0: float,
    phi_at_ones: float = 0.0,
) -> ExpansionReport:
    """Utility increment of a perturbed family vs the metric quadratic form.

    The family rho_avg + t delta_i must keep rho_avg as its average, so the
    directions have to sum to zero; the predicted quadratic term is
    (beta0 n / (2 (n-1))) sum_i J[t delta_i, t delta_i].
    """
    r0 = validate_density(rho_avg)
    dirs = [_check_direction(r0, x) for x in directions]
    n = len(dirs)
    if n < 2:
        raise ValidationError("need at least two directions")
    mean_norm = np.max(np.abs(sum(dirs)))
    if mean_norm > 1e-10:
        raise ValidationError("directions must have zero mean")
    j_sum = sum(petz_metric(r0, x, x, kind) for x in dirs)
    quad = beta0 * n / (2.0 * (n - 1.0)) * j_sum
    observed = [evaluator([r0.matrix + t * x for x in dirs]) - phi_at_ones for t in DEFAULT_T_GRID]
    return _make_report("quadratic_assumption", quad, observed)
