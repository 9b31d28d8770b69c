"""Sum-of-sublinear utilities and the exact classical optimum via linear programming.

A utility Phi(q) = sum_y phi(q(y|1), ..., q(y|n)) with phi positively
homogeneous and subadditive attains its optimum over eps-LDP mechanisms on
staircase mechanisms, reducing the optimization to an LP over the 2^n
binary patterns z:

    maximize   sum_z phi(1 + (e^eps - 1) z) alpha_z
    subject to sum_z alpha_z (1 + (e^eps - 1) z) = 1,   alpha >= 0.

For symmetric phi the LP collapses further to a maximum over the pattern
weight k of phi_k / w_k with w_k = 1 + (e^eps - 1) k / n.

A kernel's ``evaluate`` is batched: it takes an array whose last axis has
length n and returns phi of each row, so every LP here makes one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .mechanisms import LdpMechanism, require_epsilon


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: it is most of ``import qldp``'s cost."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


@dataclass(frozen=True)
class SublinearUtility:
    """Symmetric positively homogeneous utility kernel with curvature metadata.

    ``evaluate`` takes an array of shape ``(..., n)`` and returns phi of each
    row, shape ``(...)``; a single vector gives a 0-d value. ``beta0`` is
    the second partial derivative of ``evaluate`` at the all-ones vector;
    when not supplied analytically it is estimated by a central second
    difference with step 1e-4.
    """

    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    symmetric: bool
    value_at_ones: float
    beta0: float
    name: str = "custom"


def estimate_beta0(evaluate, n: int, step: float = 1e-4) -> float:
    """Central second difference of the utility kernel along the first coordinate."""
    points = np.ones((3, n))
    points[:, 0] += (step, 0.0, -step)
    up, mid, down = evaluate(points)
    return float((up - 2.0 * mid + down) / step**2)


def mutual_information_utility(n: int) -> SublinearUtility:
    """phi(z) = -L(mean z) + mean L(z); summed over outputs this is the mutual
    information of the uniform-prior joint distribution."""
    if n < 2:
        raise ValidationError("need at least two inputs")

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        m = z.mean(axis=-1)
        return -m * np.log(m) + np.mean(z * np.log(z), axis=-1)

    return SublinearUtility(
        n=n,
        evaluate=evaluate,
        symmetric=True,
        value_at_ones=0.0,
        beta0=(n - 1) / n**2,
        name="mi",
    )


def pairwise_sqrt_utility(n: int) -> SublinearUtility:
    """phi(z) = -(1/(n(n-1))) sum_{i != j} sqrt(z_i z_j); the negated mean
    pairwise Bhattacharyya affinity."""
    if n < 2:
        raise ValidationError("need at least two inputs")

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return -(np.sqrt(z).sum(axis=-1) ** 2 - z.sum(axis=-1)) / (n * (n - 1))

    return SublinearUtility(
        n=n,
        evaluate=evaluate,
        symmetric=True,
        value_at_ones=-1.0,
        beta0=1.0 / (2 * n),
        name="pairwise_sqrt",
    )


BUILTIN_UTILITIES = {
    "mi": mutual_information_utility,
    "pairwise_sqrt": pairwise_sqrt_utility,
}


@dataclass(frozen=True)
class LpSolution:
    value: float
    weights: dict = field(default_factory=dict)
    status: str = "optimal"


def utility_of_mechanism(mech: LdpMechanism, utility: SublinearUtility) -> float:
    """Sum of the utility kernel over outputs whose rows are entrywise positive."""
    if utility.n != mech.n_inputs:
        raise ValidationError("utility arity does not match the mechanism input size")
    rows = mech.q[np.all(mech.q > 0, axis=1)]
    return float(np.sum(utility.evaluate(rows)))


def kairouz_lp(n: int, epsilon: float, utility: SublinearUtility) -> LpSolution:
    """Exact classical optimum via the staircase-pattern LP (2^n variables)."""
    if utility.n != n:
        raise ValidationError("utility arity mismatch")
    require_epsilon(epsilon)
    if n > 14:
        raise ValidationError("LP limited to n <= 14 (2^n variables)")
    theta = math.exp(epsilon) - 1.0
    # Row i is the binary expansion of i, first coordinate most significant:
    # the order of itertools.product((0, 1), repeat=n).
    patterns = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = 1.0 + theta * patterns
    coeffs = utility.evaluate(rows)
    columns = rows.T
    res = linprog(
        c=-coeffs,
        A_eq=columns,
        b_eq=np.ones(n),
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        # The uniform weight on z = 0 is always feasible, so failure is internal.
        return LpSolution(value=math.nan, weights={}, status="infeasible")
    alpha = np.clip(res.x, 0.0, None)
    residual = np.max(np.abs(columns @ alpha - 1.0))
    if residual > 1e-9:
        raise ValidationError(f"LP constraint residual {residual:.3e} too large")
    weights = {tuple(patterns[i].tolist()): float(alpha[i]) for i in np.nonzero(alpha > 1e-12)[0]}
    return LpSolution(value=float(coeffs @ alpha), weights=weights, status="optimal")


def kairouz_lp_symmetric(n: int, epsilon: float, utility: SublinearUtility) -> float:
    """Closed-form reduction of the staircase LP for symmetric utilities.

    Averaging any feasible weight vector over coordinate permutations fixes
    the objective and the constraint, so an optimum lives on uniform weight
    classes; a linear objective over the resulting simplex is maximized by a
    single class k, giving max_k phi_k / w_k.
    """
    if not utility.symmetric:
        raise ValidationError("the symmetric reduction needs a symmetric utility")
    if utility.n != n:
        raise ValidationError("utility arity mismatch")
    require_epsilon(epsilon)
    theta = math.exp(epsilon) - 1.0
    k = np.arange(n + 1)
    vertices = 1.0 + theta * (np.arange(n) < k[:, None])
    return float(np.max(utility.evaluate(vertices) / (1.0 + theta * k / n)))


def asymptotic_prediction(n: int, phi_at_ones: float, beta0: float) -> tuple[float, float, float]:
    """Leading quadratic coefficients of the classical and quantum optima and their limit ratio.

    Returns (floor(n/2) ceil(n/2) beta0 / (2 (n-1)), beta0 n / 4,
    n (n-1) / (2 floor(n/2) ceil(n/2))); the ratio applies when
    phi_at_ones = 0 and n >= 3.
    """
    if beta0 <= 0:
        raise ValidationError("beta0 must be positive")
    halves = (n // 2) * ((n + 1) // 2)
    classical = halves * beta0 / (2.0 * (n - 1))
    quantum = beta0 * n / 4.0
    ratio = n * (n - 1) / (2.0 * halves)
    return classical, quantum, ratio
