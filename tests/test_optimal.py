import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from qldp import optimal
from qldp.errors import MAX_EPSILON, SupportMismatchError, ValidationError
from qldp.exponents import classical_opt_asym
from qldp.mechanisms import LdpMechanism, binary_mechanism, sigma_star
from qldp.metrics import holevo_information
from qldp.optimal import (
    SublinearUtility,
    asymptotic_prediction,
    kairouz_lp,
    kairouz_lp_symmetric,
    mutual_information_utility,
    pairwise_sqrt_utility,
    utility_of_mechanism,
)

import oracles


def per_pattern_lp(n, epsilon, utility):
    """The staircase LP built one pattern at a time and handed to HiGHS whole:
    the oracle for the in-package simplex over the batched build."""
    theta = math.exp(epsilon) - 1.0
    patterns = list(itertools.product((0, 1), repeat=n))
    coeffs = np.array([utility.evaluate(1.0 + theta * np.array(z, dtype=float)) for z in patterns])
    columns = np.array([1.0 + theta * np.array(z, dtype=float) for z in patterns]).T
    res = linprog(c=-coeffs, A_eq=columns, b_eq=np.ones(n), bounds=(0.0, None), method="highs")
    if not res.success:
        return "infeasible", math.nan, {}
    alpha = np.clip(res.x, 0.0, None)
    weights = {patterns[i]: float(alpha[i]) for i in np.nonzero(alpha > 1e-12)[0]}
    return "optimal", float(coeffs @ alpha), weights


def assert_certified(sol, n, epsilon, utility):
    """The unscaled weights meet the rows and give the value, and the certificate holds."""
    theta = math.exp(epsilon) - 1.0
    columns = np.array([1.0 + theta * np.array(z, dtype=float) for z in sol.weights])
    alpha = np.array(list(sol.weights.values()))
    np.testing.assert_allclose(alpha @ columns, 1.0, rtol=0.0, atol=1e-9)
    assert float(utility.evaluate(columns) @ alpha) == pytest.approx(sol.value, abs=1e-12)
    assert sol.residual <= 1e-9
    assert sol.gap + n * max(sol.reduced_cost, 0.0) <= 1e-10


def product_rows(n, epsilon):
    """The scaled pattern rows built from itertools.product, row 0 all ones: the order kairouz_lp promises."""
    patterns = np.array(list(itertools.product((0, 1), repeat=n)))
    rows = np.where(patterns == 1, 1.0, math.exp(-epsilon))
    rows[0] = 1.0
    return rows


def tilted(utility, weight):
    """``utility`` plus ``weight`` times its first argument: still sublinear, no longer symmetric."""
    return SublinearUtility(utility.n, lambda z: utility.evaluate(z) + weight * np.asarray(z)[..., 0], utility.beta0)


def counting(utility):
    """``utility`` with an ``evaluate`` that records how often it is called."""
    calls = []

    def evaluate(z):
        calls.append(np.shape(z))
        return utility.evaluate(z)

    return dataclasses.replace(utility, evaluate=evaluate), calls


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_utility_kernel_invariants(factory):
    rng = np.random.default_rng(0)
    for n in (2, 4):
        utility = factory(n)
        for _ in range(50):
            z = rng.uniform(0.1, 3.0, size=n)
            alpha = float(rng.uniform(0.1, 5.0))
            value = utility.evaluate(z)
            assert utility.evaluate(alpha * z) == pytest.approx(alpha * value, abs=1e-8 * (1 + abs(value)))
            z2 = rng.uniform(0.1, 3.0, size=n)
            assert utility.evaluate(z + z2) <= utility.evaluate(z) + utility.evaluate(z2) + 1e-8
            perm = rng.permutation(n)
            assert utility.evaluate(z[perm]) == pytest.approx(value, abs=1e-10)
        assert utility.evaluate(np.ones(n)) == pytest.approx(utility.value_at_ones, abs=1e-12)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
@pytest.mark.parametrize("n", [2, 5, 14])
def test_batched_evaluate_matches_row_by_row(factory, n):
    utility = factory(n)
    rng = np.random.default_rng(n)
    for m in (1, 7, 64):
        stack = rng.uniform(0.05, 4.0, size=(m, n))
        batched = utility.evaluate(stack)
        assert batched.shape == (m,)
        rows = np.array([utility.evaluate(row) for row in stack])
        assert np.ndim(utility.evaluate(stack[0])) == 0
        np.testing.assert_allclose(batched, rows, rtol=1e-15, atol=0.0)
    cube = rng.uniform(0.05, 4.0, size=(3, 4, n))
    assert utility.evaluate(cube).shape == (3, 4)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_beta0_matches_finite_difference(factory):
    for n in (2, 3, 6):
        utility = factory(n)
        numeric = oracles.second_difference(utility.evaluate, n)
        assert numeric == pytest.approx(utility.beta0, rel=1e-6)


def test_utility_is_its_kernel_and_beta0():
    assert tuple(f.name for f in dataclasses.fields(SublinearUtility)) == ("n", "evaluate", "beta0")
    for n in range(2, 15):
        assert float.hex(mutual_information_utility(n).value_at_ones) == float.hex(0.0)
        assert float.hex(pairwise_sqrt_utility(n).value_at_ones) == float.hex(-1.0)


def test_constant_column_mechanism_gives_value_at_ones():
    q = np.array([[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]])
    mech = LdpMechanism(q=q, epsilon=1.0)
    assert utility_of_mechanism(mech, mutual_information_utility(3)) == pytest.approx(0.0, abs=1e-12)
    assert utility_of_mechanism(mech, pairwise_sqrt_utility(3)) == pytest.approx(-1.0, abs=1e-12)


def test_mi_of_randomized_response():
    mech = binary_mechanism(2, math.log(3.0))
    expected = math.log(2.0) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert utility_of_mechanism(mech, mutual_information_utility(2)) == pytest.approx(expected, abs=1e-12)


def test_mi_utility_equals_holevo_of_diagonal_embedding():
    rng = np.random.default_rng(1)
    for n, outputs in [(2, 3), (3, 4)]:
        q = rng.uniform(0.1, 1.0, size=(outputs, n))
        q /= q.sum(axis=0, keepdims=True)
        mech = LdpMechanism(q=q, epsilon=10.0)
        states = [np.diag(column.astype(complex)) for column in mech.members]
        chi = holevo_information(np.full(n, 1.0 / n), states)
        assert utility_of_mechanism(mech, mutual_information_utility(n)) == pytest.approx(chi, abs=1e-10)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_a_zero_beside_a_positive_entry_is_rejected(factory):
    # the whole row was dropped: this q's mutual information read 0.04247, though with a uniform prior it is 0.21576
    mech = LdpMechanism(q=[[1.0, 0.5], [0.0, 0.5]], epsilon=1.0)
    with pytest.raises(SupportMismatchError, match="zero entry in a row with positive entries"):
        utility_of_mechanism(mech, factory(2))


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_an_all_zero_row_adds_nothing(factory):
    mech = binary_mechanism(3, 0.5)
    padded = LdpMechanism(q=np.insert(mech.q, 1, 0.0, axis=0), epsilon=0.5)
    assert utility_of_mechanism(padded, factory(3)) == utility_of_mechanism(mech, factory(3))


def test_lp_two_inputs_reference_value():
    utility = mutual_information_utility(2)
    sol = kairouz_lp(2, math.log(2.0), utility)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0566330122, abs=1e-9)
    assert sol.value == pytest.approx(kairouz_lp_symmetric(2, math.log(2.0), utility), abs=1e-9)
    assert sol.value == pytest.approx(classical_opt_asym(2, math.log(2.0)), abs=1e-9)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_lp_matches_per_pattern_oracle(factory):
    # the first basis is read off the symmetric weight classes; a tilted
    # utility starts off its optimum and pivots to it (up to 18 pivots here)
    for n, weight in itertools.product(range(2, 9), (0.0, 0.05, -0.2)):
        utility = tilted(factory(n), weight)
        for epsilon in (0.05, 0.4, 1.1, 2.0, 3.5):
            status, value, weights = per_pattern_lp(n, epsilon, utility)
            sol = kairouz_lp(n, epsilon, utility)
            assert sol.status == status
            assert_certified(sol, n, epsilon, utility)
            assert all(type(z) is tuple and all(type(b) is int for b in z) for z in sol.weights)
            assert sol.value == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_lp_certifies_at_every_epsilon(factory, n):
    # eps = 21 and 25: e^-eps is below the 1e-9 at which HiGHS drops matrix entries
    utility = factory(n)
    for epsilon in (1e-3, 0.01, 0.5, 2.0, 20.0, 21.0, 25.0, 100.0, 500.0, MAX_EPSILON):
        sol = kairouz_lp(n, epsilon, utility)
        assert sol.status == "optimal", (epsilon, sol.status)
        assert sol.residual <= 1e-9
        assert sol.gap + n * max(sol.reduced_cost, 0.0) <= 1e-10
        assert 1 <= len(sol.weights) <= n
        assert sol.value == pytest.approx(kairouz_lp_symmetric(n, epsilon, utility), abs=1e-9)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
@pytest.mark.parametrize("n", [2, 5, 14])
@pytest.mark.parametrize("epsilon", [1e-17, 1e-300, 5e-324])
def test_lp_where_e_to_the_minus_eps_rounds_to_one(factory, n, epsilon):
    # every scaled row is all ones there, and the simplex's first basis raised LinAlgError
    utility = factory(n)
    sol = kairouz_lp(n, epsilon, utility)
    assert sol.status == "optimal"
    assert sol.value == kairouz_lp_symmetric(n, epsilon, utility) == utility.value_at_ones
    assert sol.weights == {(0,) * n: 1.0}
    assert sol.pivots == 0


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_lp_certifies_where_one_minus_e_to_the_minus_eps_is_a_few_ulps(factory):
    # a first basis e^-eps J + (1 - e^-eps) C singular to working precision made
    # n = 5..12 fail up to eps ~ 2.7e-16 and n = 14 up to 1.15e-15, with primal
    # residuals up to 6; every failure had 1 - e^-eps <= 0.36 n 2^-52
    for n in range(2, 15):
        utility = factory(n)
        for epsilon in [*np.geomspace(1e-17, 1e-12, 21), 1e-300, 5e-324]:
            sol = kairouz_lp(n, float(epsilon), utility)
            assert sol.status == "optimal", (n, epsilon, sol.status)
            assert sol.value == pytest.approx(kairouz_lp_symmetric(n, float(epsilon), utility), abs=1e-12)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_symmetric_value_is_certified_by_a_uniform_dual(factory):
    # y = (v/n) 1 is dual feasible for every pattern, so v bounds the full LP
    # without solving it; columns are scaled by their largest entry
    for n in (2, 3, 5, 8, 11, 14):
        utility = factory(n)
        patterns = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        for epsilon in (0.05, 0.5, 1.2, 3.0):
            columns = 1.0 + (math.exp(epsilon) - 1.0) * patterns
            rows = columns / columns.max(axis=1, keepdims=True)
            v = kairouz_lp_symmetric(n, epsilon, utility)
            reduced = utility.evaluate(rows) - rows @ np.full(n, v / n)
            assert reduced.max() <= 1e-12, (n, epsilon)


def test_each_lp_evaluates_the_utility_once():
    n, epsilon = 6, 0.7
    utility, calls = counting(mutual_information_utility(n))
    kairouz_lp(n, epsilon, utility)
    assert calls == [(2**n, n)]
    calls.clear()
    assert isinstance(kairouz_lp_symmetric(n, epsilon, utility), float)
    assert calls == [(n + 1, n)]
    calls.clear()
    assert isinstance(utility_of_mechanism(binary_mechanism(n, epsilon), utility), float)
    assert len(calls) == 1


def scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_importing_the_package_leaves_scipy_unloaded():
    # start-up (every CLI call) loads no scipy
    assert scipy_modules_after("import sys, qldp, qldp.cli") == "[]"


@pytest.mark.parametrize(
    "code",
    [
        "import sys\nfrom qldp.optimal import kairouz_lp, pairwise_sqrt_utility\n"
        "assert kairouz_lp(14, 0.5, pairwise_sqrt_utility(14)).status == 'optimal'",
        "import sys\nfrom qldp.cli import main\n"
        "assert main(['opt', 'lp', '--n', '10', '--eps', '0.7', '--full']) == 0",
    ],
    ids=["kairouz_lp", "opt_lp_full"],
)
def test_solving_the_lp_leaves_scipy_unloaded(code):
    assert scipy_modules_after(code) == "[]"


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
@pytest.mark.parametrize("n", [2, 5, 9, 12, 14])
def test_lp_certifies_at_edge_epsilons(factory, n):
    # n = 12 pairwise_sqrt at eps = 1e-5 and 1e-4 reached a singular basis when
    # the ratio test took pivots above an absolute threshold (d > 0, or d > 1e-12);
    # every solve here starts at its optimal weight class and takes no pivot
    utility = factory(n)
    for epsilon in (1e-5, 1e-4, 1e-3, 0.5, 2.0, 21.0, 40.0, MAX_EPSILON):
        sol = kairouz_lp(n, epsilon, utility)
        assert sol.status == "optimal", (epsilon, sol.status)
        assert sol.residual <= 1e-9
        assert sol.gap + n * max(sol.reduced_cost, 0.0) <= 1e-10
        assert sol.value == pytest.approx(kairouz_lp_symmetric(n, epsilon, utility), abs=1e-9)
        assert type(sol.pivots) is int and sol.pivots == 0, (epsilon, sol.pivots)


def test_pivot_limit_leaves_the_certificate_to_fail(monkeypatch):
    # a symmetric utility starts at its optimum; this tilted one needs 17 pivots
    n, epsilon = 8, 0.5
    utility = tilted(mutual_information_utility(n), 0.05)
    monkeypatch.setattr(optimal, "MAX_PIVOTS", 1)
    sol = kairouz_lp(n, epsilon, utility)
    assert sol.status != "optimal" and math.isnan(sol.value)
    assert "reduced cost" in sol.status
    assert sol.reduced_cost > optimal.CERTIFICATE_TOL
    assert sol.pivots == 1


def test_pricing_that_finds_nothing_leaves_the_certificate_to_fail(monkeypatch):
    # no reduced cost clears an infinite threshold, so the simplex stops at its
    # first basis, and only the rows @ y that kairouz_lp recomputes from the
    # returned duals can reject it; the utility is tilted so that the first
    # basis is not optimal
    n, epsilon = 8, 0.5
    monkeypatch.setattr(optimal, "PRICE_TOL", math.inf)
    sol = kairouz_lp(n, epsilon, tilted(mutual_information_utility(n), 0.05))
    assert sol.pivots == 0
    assert sol.status != "optimal" and math.isnan(sol.value)
    assert "reduced cost" in sol.status
    assert sol.reduced_cost > optimal.CERTIFICATE_TOL


@pytest.mark.parametrize("n", range(2, 15))
def test_cyclic_generator_gives_a_nonsingular_circulant(n):
    fallbacks = []
    for k in range(1, n):
        generator = optimal._cyclic_generator(n, k)
        if not generator:
            fallbacks.append(k)
            continue
        assert len(generator) == k and len(set(generator)) == k and 0 in generator
        assert all(0 <= g < n for g in generator)
        circulant = np.array([[float((j - s) % n in generator) for j in range(n)] for s in range(n)])
        assert abs(np.linalg.det(circulant)) >= 1.0 - 1e-9, k
    assert fallbacks == {4: [2], 8: [2, 6]}.get(n, [])


@pytest.mark.parametrize("n", range(2, 15))
def test_first_basis_is_one_weight_class_with_equal_weights(monkeypatch, n):
    # with coefficients that rank class k first, the vertex before any pivot holds n
    # patterns of weight k (weight one where k has no cyclic basis), each with
    # weight 1 / (n e^-eps + k (1 - e^-eps))
    monkeypatch.setattr(optimal, "MAX_PIVOTS", 0)
    epsilon = 0.7
    low = math.exp(-epsilon)
    rows = product_rows(n, epsilon)
    for k in range(1, n):
        coeffs = np.zeros(len(rows))
        coeffs[((1 << k) - 1) << (n - k)] = 1.0
        vertex = optimal.linprog(coeffs, rows)
        assert vertex.nit == 0
        support = np.flatnonzero(vertex.alpha)
        weight = k if optimal._cyclic_generator(n, k) else 1
        assert len(support) == n
        assert all(bin(i).count("1") == weight for i in support), (k, support)
        expected = 1.0 / (n * low + weight * (1.0 - low))
        np.testing.assert_allclose(vertex.alpha[support], expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rows.T @ vertex.alpha, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_rows_follow_the_itertools_product_order(monkeypatch, n):
    epsilon = 0.7
    seen = []

    def recording(coeffs, rows):
        seen.append(rows.copy())
        return real(coeffs, rows)

    real = optimal.linprog
    monkeypatch.setattr(optimal, "linprog", recording)
    sol = kairouz_lp(n, epsilon, mutual_information_utility(n))
    (rows,) = seen
    expected = product_rows(n, epsilon)
    assert rows.dtype == expected.dtype and rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
    assert all(type(z) is tuple and len(z) == n and all(type(b) is int for b in z) for z in sol.weights)


def traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_one_solve_stays_within_its_memory(factory):
    # An n = 14 solve peaks below 2.5 times its float rows, which an int64
    # pattern matrix breaks; the simplex alone stays below 1.5 pricing
    # buffers, which a second 2^n array at any pivot breaks.
    n, epsilon = 14, 0.5
    utility = factory(n)
    kairouz_lp(n, epsilon, utility)
    sol, peak = traced_peak(lambda: kairouz_lp(n, epsilon, utility))
    assert sol.status == "optimal"
    assert peak <= 2.5 * 2**n * n * 8, peak
    rows = product_rows(n, epsilon)
    coeffs = utility.evaluate(rows)
    vertex, peak = traced_peak(lambda: optimal.linprog(coeffs, rows))
    assert vertex.nit == sol.pivots
    assert peak <= 1.5 * 2**n * 8, peak


def test_lp_weights_are_feasible():
    utility = mutual_information_utility(3)
    sol = kairouz_lp(3, 0.8, utility)
    theta = math.exp(0.8) - 1.0
    total = np.zeros(3)
    for z, alpha in sol.weights.items():
        assert alpha >= -1e-10
        total += alpha * (1.0 + theta * np.array(z))
    assert np.allclose(total, 1.0, atol=1e-9)


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_lp_dominates_binary_mechanism(factory):
    for n in (2, 3, 4):
        utility = factory(n)
        for epsilon in (0.3, 1.0):
            mech = binary_mechanism(n, epsilon)
            assert kairouz_lp(n, epsilon, utility).value >= utility_of_mechanism(mech, utility) - 1e-9


def test_symmetric_reduction_matches_full_lp():
    for factory in (mutual_information_utility, pairwise_sqrt_utility):
        for n in (2, 3, 4, 5):
            utility = factory(n)
            for epsilon in (0.1, 0.5, 1.0):
                full = kairouz_lp(n, epsilon, utility).value
                reduced = kairouz_lp_symmetric(n, epsilon, utility)
                assert full == pytest.approx(reduced, abs=1e-9)


def test_symmetric_reduction_equals_asym_optimum_for_mi():
    for n in (2, 3, 5, 8):
        for epsilon in (0.2, 0.9, 2.0):
            assert kairouz_lp_symmetric(n, epsilon, mutual_information_utility(n)) == pytest.approx(
                classical_opt_asym(n, epsilon), abs=1e-12
            )


@pytest.mark.parametrize("epsilon", [700.0, 705.0, MAX_EPSILON])
def test_lp_matches_asym_optimum_where_eps_e_eps_overflows(epsilon):
    # above eps ~ 703.2 the closed form used to return NaN (n = 2, eps = 705)
    for n in range(2, 11):
        lp = kairouz_lp(n, epsilon, mutual_information_utility(n)).value
        assert abs(lp - classical_opt_asym(n, epsilon)) <= 1e-9, n


def test_symmetric_reduction_covers_flat_pattern():
    # the all-zeros pattern contributes phi(1)/1, so the optimum never falls below it
    for factory in (mutual_information_utility, pairwise_sqrt_utility):
        utility = factory(3)
        assert kairouz_lp_symmetric(3, 0.4, utility) >= utility.value_at_ones - 1e-12


def test_lp_small_eps_coefficient():
    epsilon = 1e-2
    for n in (2, 3, 4):
        value = kairouz_lp(n, epsilon, mutual_information_utility(n)).value
        coeff = (n // 2) * ((n + 1) // 2) / (2.0 * n * n)
        assert value / epsilon**2 == pytest.approx(coeff, rel=0.02)


def test_lp_nondecreasing_in_eps():
    utility = mutual_information_utility(3)
    values = [kairouz_lp(3, e, utility).value for e in np.linspace(0.1, 2.0, 12)]
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_quantum_dominance():
    for n in (3, 4, 5, 6):
        utility = mutual_information_utility(n)
        for epsilon in (0.1, 0.3, 0.5):
            mech = sigma_star(n, epsilon)
            chi = holevo_information(np.full(n, 1.0 / n), mech.states)
            assert chi >= kairouz_lp(n, epsilon, utility).value - 1e-9


def test_binary_gap_vanishes_faster_than_quadratic():
    epsilon = 1e-2
    for n in (2, 3, 4, 5):
        utility = mutual_information_utility(n)
        gap = kairouz_lp(n, epsilon, utility).value - utility_of_mechanism(binary_mechanism(n, epsilon), utility)
        assert gap >= -1e-12
        assert gap / epsilon**2 < 0.02


def test_asymptotic_prediction_values():
    classical, quantum, ratio = asymptotic_prediction(3, 1.0)
    assert ratio == pytest.approx(1.5)
    assert asymptotic_prediction(4, 1.0)[2] == pytest.approx(1.5)
    assert asymptotic_prediction(2, 1.0)[2] == pytest.approx(1.0)
    mi4 = mutual_information_utility(4)
    classical, quantum, _ = asymptotic_prediction(4, mi4.beta0)
    assert classical == pytest.approx(1.0 / 8.0)
    assert quantum == pytest.approx(3.0 / 16.0)
    with pytest.raises(ValidationError):
        asymptotic_prediction(3, -1.0)


def test_lp_rejects_mismatched_arity():
    with pytest.raises(ValidationError):
        kairouz_lp(3, 0.5, mutual_information_utility(4))
    with pytest.raises(ValidationError):
        kairouz_lp_symmetric(3, 0.5, mutual_information_utility(4))
    with pytest.raises(ValidationError, match="arity"):
        utility_of_mechanism(binary_mechanism(3, 0.5), mutual_information_utility(4))


@pytest.mark.parametrize("factory", [mutual_information_utility, pairwise_sqrt_utility])
def test_utilities_need_two_inputs(factory):
    with pytest.raises(ValidationError, match="at least two inputs"):
        factory(1)
    # a custom kernel reached numpy's argmax of an empty sequence in kairouz_lp
    with pytest.raises(ValidationError, match="at least two inputs"):
        SublinearUtility(1, factory(2).evaluate, 0.0)
    with pytest.raises(ValidationError, match="at least two inputs"):
        dataclasses.replace(factory(2), n=1)


def test_full_lp_vertex_structure():
    # at the optimum the mass sits on a single weight class plus possibly the
    # flat pattern; verify the support patterns share one weight k > 0
    sol = kairouz_lp(4, 0.7, mutual_information_utility(4))
    weights = {sum(z) for z, a in sol.weights.items() if a > 1e-8 and sum(z) > 0}
    assert len(weights) == 1


def test_brute_force_lp_on_coarse_grid():
    # tiny n: compare the LP against direct enumeration of feasible two-class
    # combinations on a fine weight grid
    n, epsilon = 2, 0.6
    theta = math.exp(epsilon) - 1.0
    utility = mutual_information_utility(n)
    patterns = list(itertools.product((0, 1), repeat=n))
    values = [utility.evaluate(1.0 + theta * np.array(z)) for z in patterns]
    best = 0.0
    # all pairs of patterns (i, j): solve the 2x2 feasibility exactly by symmetry
    for i, zi in enumerate(patterns):
        for j, zj in enumerate(patterns):
            a = np.array([1.0 + theta * np.array(zi), 1.0 + theta * np.array(zj)]).T
            try:
                alpha = np.linalg.solve(a, np.ones(n))
            except np.linalg.LinAlgError:
                continue
            if np.all(alpha >= -1e-12):
                best = max(best, float(alpha[0] * values[i] + alpha[1] * values[j]))
    assert kairouz_lp(n, epsilon, utility).value == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan, 800.0])
def test_lp_rejects_bad_epsilon(epsilon):
    # eps = -1 used to return a positive optimum and eps = 800 an OverflowError
    utility = mutual_information_utility(3)
    with pytest.raises(ValidationError):
        kairouz_lp(3, epsilon, utility)
    with pytest.raises(ValidationError):
        kairouz_lp_symmetric(3, epsilon, utility)
