"""
Finite-difference verification of second-order behaviour
========================================================

Every divergence here carries a quadratic approximation driven by a
monotone-metric kernel.  These checks evaluate the exact quantity along a
shrinking perturbation grid and confirm that the ratio to the predicted
quadratic term converges to one at the expected rate.
"""

import numpy as np

from qldp.expansions import (
    DEFAULT_T_GRID,
    check_chernoff_expansion,
    check_entropy_expansion,
    check_fdiv_expansion,
)
from qldp.metrics import KL
from qldp.sampling import random_density, random_traceless_hermitian
from qldp.suites import expansion_suite, scalar_selftests

rng = np.random.default_rng(7)
rho0 = random_density(rng, 3, mix=0.3)
x1 = random_traceless_hermitian(rng, 3, 0.5)
x2 = random_traceless_hermitian(rng, 3, 0.5)

report = check_fdiv_expansion(rho0, x1, x2, KL)
print("KL divergence vs half the induced metric form:")
print("      t      predicted      observed    |ratio - 1|")
for t, p, o, e in zip(DEFAULT_T_GRID, report.predicted, report.observed, report.ratio_errors):
    print(f"  {t:7.0e}  {p:12.5e}  {o:12.5e}  {e:10.3e}")
print(f"fitted decay order of the error: {report.fitted_order:.3f}")

print(f"\nentropy check   : order {check_entropy_expansion(rho0, x1).fitted_order:.3f}")
print(f"chernoff check  : order {check_chernoff_expansion(rho0, x1, x2).fitted_order:.3f}")

# The full seeded suite covers the divergence, entropy, Chernoff, overlap,
# and utility-curvature checks in one call.
print("\nfull expansion suite (seed 42):")
for rep in expansion_suite(42):
    print(f"  {rep.name:24s} order {rep.fitted_order:6.3f}  err@min_t {rep.ratio_errors[-1]:.2e}")

# Scalar inequalities behind the threshold analysis.
print("\nscalar self-tests:")
for check in scalar_selftests():
    print(f"  {check.name:28s} instances {check.instances:6d}  violations {check.violations}")
