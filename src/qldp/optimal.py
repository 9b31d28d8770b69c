"""Sum-of-sublinear utilities and the exact classical optimum via linear programming.

A utility Phi(q) = sum_y phi(q(y|1), ..., q(y|n)) with phi positively
homogeneous and subadditive attains its optimum over eps-LDP mechanisms on
staircase mechanisms, reducing the optimization to an LP over the 2^n
binary patterns z:

    maximize   sum_z phi(1 + (e^eps - 1) z) alpha_z
    subject to sum_z alpha_z (1 + (e^eps - 1) z) = 1,   alpha >= 0.

The LP has n equality rows, so an optimal vertex uses at most n patterns.
``kairouz_lp`` finds one with a dense revised simplex, written in numpy, on
n x n bases that prices all 2^n patterns with rows @ y at every pivot. It
starts at n cyclic shifts of a pattern of the weight class with the best
phi_k / w_k (below), a vertex that is optimal when phi is symmetric. The
certificate of optimality recomputes rows @ y over every pattern from the
duals the simplex returns. Every phi here is symmetric, so the LP also
collapses to a maximum over the pattern weight k of phi_k / w_k with
w_k = 1 + (e^eps - 1) k / n.

A kernel's ``evaluate`` is batched: it takes an array whose last axis has
length n and returns phi of each row, so every LP here makes one call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import SupportMismatchError, ValidationError, require_epsilon, require_inputs
from .exponents import asymptotic_prediction  # re-exported: part of this module's API

if TYPE_CHECKING:  # the LP never builds a mechanism, so it does not load that layer
    from .mechanisms import LdpMechanism


@dataclass(frozen=True)
class SublinearUtility:
    """Positively homogeneous utility kernel with its curvature at the all-ones point.

    ``evaluate`` must be symmetric under permutations of its n arguments;
    the symmetric LP reduction relies on that. It takes an array of shape
    ``(..., n)`` and returns phi of each row, shape ``(...)``; a single vector
    gives a 0-d value. ``beta0`` is the second partial derivative of
    ``evaluate`` at the all-ones vector. :attr:`value_at_ones` is read off
    ``evaluate``.
    """

    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    beta0: float

    def __post_init__(self):
        require_inputs(self.n)

    @property
    def value_at_ones(self) -> float:
        """phi(1, ..., 1), the utility of a mechanism that reveals nothing."""
        return float(self.evaluate(np.ones(self.n)))


def mutual_information_utility(n: int) -> SublinearUtility:
    """phi(z) = -L(mean z) + mean L(z); summed over outputs this is the mutual
    information of the uniform-prior joint distribution."""
    require_inputs(n)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        m = z.mean(axis=-1)
        return -m * np.log(m) + np.mean(z * np.log(z), axis=-1)

    return SublinearUtility(n=n, evaluate=evaluate, beta0=(n - 1) / n**2)


def pairwise_sqrt_utility(n: int) -> SublinearUtility:
    """phi(z) = -(1/(n(n-1))) sum_{i != j} sqrt(z_i z_j); the negated mean
    pairwise Bhattacharyya affinity."""
    require_inputs(n)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return -(np.sqrt(z).sum(axis=-1) ** 2 - z.sum(axis=-1)) / (n * (n - 1))

    return SublinearUtility(n=n, evaluate=evaluate, beta0=1.0 / (2 * n))


BUILTIN_UTILITIES = {
    "mi": mutual_information_utility,
    "pairwise_sqrt": pairwise_sqrt_utility,
}


# A solution is accepted when its weights meet the rows to RESIDUAL_TOL and
# its duals prove it within CERTIFICATE_TOL of the optimum, a tenth of the
# 1e-9 at which the full LP is compared with the symmetric reduction.
RESIDUAL_TOL = 1e-9
CERTIFICATE_TOL = 1e-10
# Patterns whose reduced cost is at most this do not enter the basis: n times
# it is far below CERTIFICATE_TOL, and rounding noise stays below it.
PRICE_TOL = 1e-14
# The ratio test ignores pivots below this fraction of the largest one: with
# an absolute threshold of 1e-12, n = 12 pairwise_sqrt at eps = 1e-4 pivots
# on rounding noise and reaches a singular basis.
PIVOT_RTOL = 1e-9
# Ratios within this of the smallest count as tied, and the largest pivot
# among them leaves the basis.
RATIO_TOL = 1e-12
# Of the LPs on the grid n = 2..14 x both utilities x 21 eps geomspaced over
# [1e-5, MAX_EPSILON], only 27 at n = 4 and 8 take any pivot from the start
# of linprog, at most 18; one stopped at this limit is left for the
# certificate to reject.
MAX_PIVOTS = 1000


@dataclass(frozen=True)
class LpSolution:
    """Optimum of the staircase LP with its certificate.

    ``residual`` is the largest violation of the equality rows by the
    weights, ``gap`` the distance between the primal value and the dual
    value sum(y), and ``reduced_cost`` the largest phi_z - row_z . y over
    all 2^n patterns (rows scaled to entries in {e^-eps, 1}). ``pivots``
    counts the simplex pivots. A status other than "optimal" names the
    bound that failed; the value is then NaN.
    """

    value: float
    weights: dict = field(default_factory=dict)
    status: str = "optimal"
    residual: float = math.nan
    gap: float = math.nan
    reduced_cost: float = math.nan
    pivots: int = 0


def utility_of_mechanism(mech: LdpMechanism, utility: SublinearUtility) -> float:
    """Sum of the utility kernel over the outputs; an all-zero row adds phi(0) = 0 and is skipped."""
    if utility.n != mech.n_inputs:
        raise ValidationError("utility arity does not match the mechanism input size")
    positive = mech.q > 0
    if np.any(positive.any(axis=1) & ~positive.all(axis=1)):
        raise SupportMismatchError("zero entry in a row with positive entries")
    return float(np.sum(utility.evaluate(mech.q[positive.all(axis=1)])))


class Vertex(NamedTuple):
    """Where the simplex stopped: weights over every pattern, the duals, and the pivot count."""

    alpha: np.ndarray
    y: np.ndarray
    nit: int


@functools.cache
def _cyclic_generator(n: int, k: int) -> tuple[int, ...]:
    """The lexicographically first k-subset G of Z_n with 0 in G whose 0/1 circulant is nonsingular; () if none.

    Row s of the circulant is the indicator of G + s (mod n). Its determinant
    is an integer; for n <= 14 a singular one computes to at most 1.5e-12,
    and no G exists only at (n, k) = (4, 2), (8, 2) and (8, 6).
    """
    shifts = np.arange(n)[:, None]
    for rest in itertools.combinations(range(1, n), k - 1):
        circulant = np.zeros((n, n))
        circulant[shifts, (shifts + (0, *rest)) % n] = 1.0
        if abs(np.linalg.det(circulant)) > 0.5:
            return (0, *rest)
    return ()


def linprog(coeffs: np.ndarray, rows: np.ndarray) -> Vertex:
    """Maximize coeffs . alpha subject to rows.T @ alpha = 1, alpha >= 0, by the revised primal simplex.

    ``rows`` holds the (2^n, n) scaled patterns of :func:`kairouz_lp`. The
    first basis is the weight class k whose row with k leading ones has the
    largest coeffs / mean(row), the phi_k / w_k of :func:`kairouz_lp_symmetric`:
    the patterns with ones at G + s (mod n), s < n, G from :func:`_cyclic_generator`
    (weight one where it has none). Their block is e^-eps J + (1 - e^-eps) C,
    C the circulant of G, so each basic weight is 1 / (n e^-eps + k (1 - e^-eps)),
    positive, and the vertex is optimal when phi is symmetric. Each pivot solves
    the n x n systems for the basic weights and the duals y from the exact
    rows, prices every pattern with rows @ y into one buffer kept for the
    whole solve, and brings in the largest reduced cost above PRICE_TOL.
    The leaving pattern has the largest pivot among the near-smallest ratios.
    After MAX_PIVOTS pivots the current vertex is returned as it is.
    """
    n = rows.shape[1]
    ks = np.arange(1, n)
    representatives = ((1 << ks) - 1) << (n - ks)
    k = 1 + int(np.argmax(coeffs[representatives] / rows[representatives].mean(axis=1)))
    ones_at = (np.arange(n)[:, None] + (_cyclic_generator(n, k) or (0,))) % n
    basis = np.sum(1 << (n - 1 - ones_at), axis=1)
    ones = np.ones(n)
    reduced = np.empty(len(rows))
    for nit in range(MAX_PIVOTS + 1):
        block = rows[basis]
        x = np.linalg.solve(block.T, ones)
        y = np.linalg.solve(block, coeffs[basis])
        np.subtract(coeffs, np.matmul(rows, y, out=reduced), out=reduced)
        reduced[basis] = -np.inf
        enter = int(np.argmax(reduced))
        if reduced[enter] <= PRICE_TOL or nit == MAX_PIVOTS:
            break
        d = np.linalg.solve(block.T, rows[enter])
        rising = np.flatnonzero(d > PIVOT_RTOL * np.max(np.abs(d)))
        ratio = np.maximum(x[rising], 0.0) / d[rising]
        tied = rising[ratio <= ratio.min() + RATIO_TOL]
        basis[tied[np.argmax(d[tied])]] = enter
    alpha = reduced  # the pricing buffer, spent
    alpha.fill(0.0)
    alpha[basis] = np.clip(x, 0.0, None)
    return Vertex(alpha, y, nit)


def kairouz_lp(n: int, epsilon: float, utility: SublinearUtility) -> LpSolution:
    """Exact classical optimum of the staircase-pattern LP, with a certificate over all 2^n patterns.

    Each pattern's column 1 + (e^eps - 1) z is divided by e^eps when z != 0;
    phi is positively homogeneous, so the optimum is unchanged and every
    entry lies in {e^-eps, 1}. :func:`linprog` solves the scaled LP.

    Every scaled column has an entry equal to 1, so any feasible weights sum
    to at most n and the optimum is at most sum(y) + n max(reduced cost, 0).
    The solution is accepted only if that bound lies within CERTIFICATE_TOL
    of its value and its weights meet the rows within RESIDUAL_TOL.
    ``weights`` maps each support pattern to alpha_z of the unscaled LP.
    """
    if utility.n != n:
        raise ValidationError("utility arity mismatch")
    require_epsilon(epsilon)
    if n > 14:
        raise ValidationError("LP limited to n <= 14 (2^n variables)")
    low = math.exp(-epsilon)
    # Row i is the binary expansion of i, first coordinate most significant:
    # the order of itertools.product((0, 1), repeat=n). The bits are the last
    # n of the 16 in i as a big-endian uint16.
    bits = np.unpackbits(np.arange(2**n, dtype=">u2").view(np.uint8).reshape(-1, 2), axis=1)[:, 16 - n :]
    rows = np.where(bits.view(bool), 1.0, low)
    rows[0] = 1.0
    coeffs = utility.evaluate(rows)
    # While 1 - e^-eps <= n 2^-52 the first basis e^-eps J + (1 - e^-eps) C is singular to
    # working precision; the all-ones pattern alone is then optimal far within CERTIFICATE_TOL.
    fallback = 1.0 - low <= n * np.finfo(float).eps
    alpha, y, pivots = (np.eye(1, len(rows))[0], np.full(n, coeffs[0] / n), 0) if fallback else linprog(coeffs, rows)
    value = float(coeffs @ alpha)
    residual = float(np.max(np.abs(rows.T @ alpha - 1.0)))
    gap = abs(value - float(y.sum()))
    # Recomputed from the returned duals, so that the certificate does not trust linprog's pricing.
    reduced_cost = float((coeffs - rows @ y).max())
    bound = gap + n * max(reduced_cost, 0.0)
    if residual > RESIDUAL_TOL:
        status = f"primal residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"
    elif bound > CERTIFICATE_TOL:
        status = f"duality gap + n * reduced cost {bound:.3e} exceeds {CERTIFICATE_TOL:g}"
    else:
        # Support by scaled mass: the unscaled alpha_z = e^-eps alpha'_z can be ~1e-217.
        support = np.flatnonzero(alpha > 1e-12)
        weights = {tuple(bits[i].tolist()): float(alpha[i] * (low if i else 1.0)) for i in support}
        return LpSolution(value, weights, "optimal", residual, gap, reduced_cost, pivots)
    return LpSolution(math.nan, {}, status, residual, gap, reduced_cost, pivots)


def kairouz_lp_symmetric(n: int, epsilon: float, utility: SublinearUtility) -> float:
    """Closed-form reduction of the staircase LP, valid for every utility since each is symmetric.

    Averaging any feasible weight vector over coordinate permutations fixes
    the objective and the constraint, so an optimum lives on uniform weight
    classes; a linear objective over the resulting simplex is maximized by a
    single class k, giving max_k phi_k / w_k. As in ``kairouz_lp`` each
    vertex with k >= 1 is divided by e^eps, so w_k is the mean of its entries.
    """
    if utility.n != n:
        raise ValidationError("utility arity mismatch")
    require_epsilon(epsilon)
    vertices = np.where(np.arange(n) < np.arange(n + 1)[:, None], 1.0, math.exp(-epsilon))
    vertices[0] = 1.0
    return float(np.max(utility.evaluate(vertices) / vertices.mean(axis=1)))
