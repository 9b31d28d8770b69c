"""Finite-difference verification of second-order expansions.

Each check evaluates an information quantity along the fixed grid
DEFAULT_T_GRID, 1e-1 down to 1e-3 (below t = 1e-3 double-precision
cancellation degrades the ratio), and compares it with the quadratic form
that is supposed to carry its second-order behaviour.  An
:class:`ExpansionReport` keeps only what was measured: the name, the
coefficient quad of the predicted term quad t^2, and the observed values.
The predicted values, the ratio errors and the fitted order are derived
from these on access.  Because the remainders are one order higher, the
ratio observed/predicted must approach 1 roughly linearly in t; the fitted
slope of log|ratio - 1| against log t must stay >= 0.9, and the ratio error
at the smallest t must stay <= 2% (:meth:`ExpansionReport.passes`).
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
    """Observed values along DEFAULT_T_GRID and the coefficient quad of their predicted term quad t^2."""

    name: str
    quad: float
    observed: tuple

    @property
    def predicted(self) -> tuple:
        return tuple(self.quad * t * t for t in DEFAULT_T_GRID)

    @property
    def ratio_errors(self) -> tuple:
        # Degenerate zero-prediction directions fall back to the absolute error.
        return tuple(abs(o / p - 1.0) if p != 0.0 else abs(o) for p, o in zip(self.predicted, self.observed))

    @property
    def fitted_order(self) -> float:
        # Fit over the three smallest usable points: remainder sign changes can
        # carve a dip into the coarse end of the curve, but a well-conditioned
        # instance has settled into its asymptotic slope by the last decade.
        usable = [(t, e) for t, e in zip(DEFAULT_T_GRID, self.ratio_errors) if e >= NOISE_FLOOR][-3:]
        if len(usable) < 2:
            return math.inf
        xs, ys = np.log(usable).T
        return float(np.polyfit(xs, ys, 1)[0])

    def ratio_error_at(self, t: float) -> float:
        for ti, err in zip(DEFAULT_T_GRID, self.ratio_errors):
            if abs(ti - t) <= 1e-15:
                return err
        raise ValidationError(f"t={t} is not on the grid")

    def passes(self) -> bool:
        """Fitted order at least 0.9 and ratio error at most 2% at the smallest t."""
        return bool(self.fitted_order >= 0.9 and self.ratio_errors[-1] <= 0.02)


def _check_direction(r0, x) -> np.ndarray:
    xm = validate_hermitian(x)
    if abs(np.trace(xm)) > 1e-10:
        raise ValidationError("perturbation direction must be traceless")
    lam = np.linalg.eigvalsh(r0.matrix + DEFAULT_T_GRID[0] * xm)
    if lam[0] <= 1e-12:
        raise DomainError("grid point leaves the state space")
    return xm


def _two_state_report(name, rho0, x1, x2, quad_of, divergence) -> ExpansionReport:
    """``divergence`` of rho0 + t x1 and rho0 + t x2 along the grid, predicted by quad_of(rho0, x1 - x2)."""
    r0 = validate_density(rho0)
    d1, d2 = _check_direction(r0, x1), _check_direction(r0, x2)
    quad = quad_of(r0, d1 - d2)
    observed = tuple(divergence(r0.matrix + t * d1, r0.matrix + t * d2) for t in DEFAULT_T_GRID)
    return ExpansionReport(name, quad, observed)


def check_fdiv_expansion(rho0, x1, x2, f: OperatorConvexF) -> ExpansionReport:
    """F-divergence of two perturbed states vs half the induced metric form."""
    if abs(float(f(np.array(1.0)))) > 1e-12:
        raise ValidationError("the expansion needs F(1) = 0")
    return _two_state_report(
        f"fdiv_{f.tag}",
        rho0,
        x1,
        x2,
        lambda r0, dx: 0.5 * induced_metric(r0, dx, dx, f),
        lambda a, b: petz_f_divergence(a, b, f),
    )


def check_entropy_expansion(rho0, x) -> ExpansionReport:
    """Negentropy increment minus its linear term vs half the BKM form."""
    r0 = validate_density(rho0)
    xm = _check_direction(r0, x)
    log_r0 = matrix_function(r0, np.log)
    linear = float(np.trace(log_r0 @ xm).real)
    h0 = von_neumann_entropy(r0)
    quad = 0.5 * petz_metric(r0, xm, xm, BKM)
    observed = tuple(h0 - von_neumann_entropy(r0.matrix + t * xm) - t * linear for t in DEFAULT_T_GRID)
    return ExpansionReport("entropy", quad, observed)


def check_chernoff_expansion(rho0, x1, x2) -> ExpansionReport:
    """Chernoff information of two perturbed states vs one eighth of the wyd(1/2) form."""
    return _two_state_report(
        "chernoff", rho0, x1, x2, lambda r0, dx: petz_metric(r0, dx, dx, wyd(0.5)) / 8.0, chernoff_information
    )


def check_overlap_expansion(rho0, x1, x2, s: float) -> ExpansionReport:
    """Overlap deficit 1 - Tr rho_1^s rho_2^{1-s} vs (s(1-s)/2) times the wyd(s) form."""
    if not 0.0 < s < 1.0:
        raise ValidationError("s must lie in (0, 1)")
    return _two_state_report(
        f"overlap_s{s:g}",
        rho0,
        x1,
        x2,
        lambda r0, dx: 0.5 * s * (1.0 - s) * petz_metric(r0, dx, dx, wyd(s)),
        lambda a, b: 1.0 - overlap(a, b, s),
    )


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
    observed = tuple(evaluator([r0.matrix + t * x for x in dirs]) - phi_at_ones for t in DEFAULT_T_GRID)
    return ExpansionReport("quadratic_assumption", quad, observed)
