"""
Exact classical optima via the staircase LP
===========================================

For utilities written as a sum of a sublinear kernel over outputs, the
optimum over eps-LDP mechanisms is attained on staircase mechanisms and
reduces to a small LP over binary patterns; for symmetric kernels it
collapses to a maximum over the pattern weight.
"""

import math

from qldp import (
    asymptotic_prediction,
    binary_mechanism,
    kairouz_lp,
    kairouz_lp_symmetric,
    mutual_information_utility,
    pairwise_sqrt_utility,
    utility_of_mechanism,
)

# Three independent routes to the same number: the 2^n-variable LP, its
# symmetric reduction, and (for mutual information) the split-size formula.
# The LP is solved by an in-package simplex; its certificate bounds how far the
# value can lie below the optimum: gap + n * max(reduced cost, 0).
n, eps = 4, 0.8
utility = mutual_information_utility(n)
solution = kairouz_lp(n, eps, utility)
print(f"mutual information, n={n}, eps={eps}:")
print(f"  full LP           : {solution.value:.12f} (support {len(solution.weights)} patterns)")
print(f"  symmetric reduction: {kairouz_lp_symmetric(n, eps, utility):.12f}")
print(f"  certificate       : residual {solution.residual:.1e}, gap {solution.gap:.1e}, reduced cost {solution.reduced_cost:.1e}")

# The optimal weights live on one pattern-weight class (at most n patterns:
# the LP has n equality rows).
for pattern, weight in sorted(solution.weights.items()):
    print(f"    pattern {pattern} weight {weight:.6f}")

# The two-output split mechanism is optimal to second order in eps.
print("\ngap to the half-split binary mechanism (per eps^2):")
for eps in (0.5, 0.1, 0.01):
    lp = kairouz_lp(n, eps, utility).value
    direct = utility_of_mechanism(binary_mechanism(n, eps), utility)
    print(f"  eps={eps:5.2f}: (LP - binary)/eps^2 = {(lp - direct) / eps**2:.6f}")

# High-privacy predictions: quadratic coefficients and the limit ratio.
for n in (3, 4, 8):
    utility = mutual_information_utility(n)
    classical, quantum, ratio = asymptotic_prediction(n, utility.beta0)
    print(f"n={n}: classical coeff {classical:.6f}, quantum coeff {quantum:.6f}, limit ratio {ratio:.4f}")

# Any symmetric sublinear kernel works; here the negated pairwise affinity.
utility = pairwise_sqrt_utility(3)
print(f"\npairwise-affinity utility at n=3, eps=ln 2: {kairouz_lp(3, math.log(2.0), utility).value:.9f}")
