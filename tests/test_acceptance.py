"""Acceptance gate: one test per criterion, each printing a pass line, and the
paper's headline ratio measured on matrices beside criterion 4.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import csv
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qldp.cli import main as cli_main
from qldp.exponents import (
    advantage_threshold_asym,
    advantage_threshold_sym,
    asym_exponent,
    asymptotic_prediction,
    classical_opt_asym,
    classical_opt_sym,
    classical_sym_term,
    closed_form_exponents,
    limit_ratio,
    quantum_classical_gap,
    sym_exponent,
)
from qldp.frames import build_eitff, verify_eitff
from qldp.mechanisms import (
    admissible_mu_interval,
    audit_qldp,
    isoclinic_mechanism,
    qldp_level,
    sigma_star,
    subset_mechanism,
)
from qldp.metrics import holevo_information, overlap
from qldp.optimal import kairouz_lp, kairouz_lp_symmetric, mutual_information_utility, pairwise_sqrt_utility
from qldp.suites import expansion_suite, run_all_suites

EPS_GRID = (0.1, 0.5, 1.0, 2.0)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_criterion_01_frame_certification():
    start = time.perf_counter()
    for n in range(2, 11):
        frame = build_eitff(n)
        cert = verify_eitff(frame.projections, tol=1e-10)
        assert cert.is_eitff
        assert cert.max_residual <= 1e-10
        assert frame.c == float(Fraction(n - 2, 2 * n - 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"frames n=2..10 certified, c exact, {elapsed:.2f}s")


def test_criterion_02_privacy_exactness():
    worst = 0.0
    for n in range(2, 11):
        frame = build_eitff(n)
        for epsilon in EPS_GRID:
            worst = max(worst, abs(qldp_level(sigma_star(n, epsilon).states) - epsilon))
            lo, hi = admissible_mu_interval(frame, epsilon)
            for mu in (lo, 0.5 * (lo + hi), hi):
                mech = isoclinic_mechanism(frame, epsilon, mu=mu)
                assert audit_qldp(mech.states, epsilon)
            eye = np.eye(frame.d)
            for mu_bad in (lo - 1e-4, hi + 1e-4):
                states = [
                    (mu_bad / frame.d) * eye + ((1.0 - mu_bad) / frame.r) * p
                    for p in frame.projections
                ]
                assert not audit_qldp(states, epsilon)
    assert worst <= 1e-9
    _report(2, f"sigma* level equals eps (worst |dev| {worst:.2e}); interval audits pass/fail as required")


def test_criterion_03_closed_form_equivalence():
    worst = 0.0
    for n in range(2, 11):
        for epsilon in EPS_GRID:
            mech = sigma_star(n, epsilon)
            for eta in (0.25, 1.0):
                pair = closed_form_exponents(n, 0.5, epsilon, eta)
                worst = max(worst, abs(sym_exponent(mech, eta) - pair.sym))
                worst = max(worst, abs(asym_exponent(mech, eta) - pair.asym))
    assert worst <= 1e-8
    _report(3, f"matrix exponents match closed forms (worst |dev| {worst:.2e})")


def test_criterion_04_small_eps_asymptotics():
    epsilon = 1e-3
    for n in range(2, 9):
        halves = (n // 2) * ((n + 1) // 2)
        pair = closed_form_exponents(n, 0.5, epsilon)
        s_c = classical_opt_sym(n, epsilon)
        a_c = classical_opt_asym(n, epsilon)
        assert pair.sym / epsilon**2 == pytest.approx(1.0 / 8.0, rel=0.01)
        assert pair.asym / epsilon**2 == pytest.approx((n - 1) / (4.0 * n), rel=0.01)
        assert s_c / epsilon**2 == pytest.approx(halves / (4.0 * n * (n - 1)), rel=0.01)
        assert a_c / epsilon**2 == pytest.approx(halves / (2.0 * n * n), rel=0.01)
        limit = n * (n - 1) / (2.0 * halves)
        assert pair.sym / s_c == pytest.approx(limit, rel=0.01)
        assert pair.asym / a_c == pytest.approx(limit, rel=0.01)
        if n in (3, 4):
            assert limit == pytest.approx(1.5)
    _report(4, "eps->0 coefficients and ratios within 1% for n=2..8")


HEADLINE_EPS = (0.04, 0.02, 0.01, 0.005)


@pytest.mark.parametrize("n", range(3, 13))
def test_matrix_utilities_reach_the_limit_ratio(n):
    # Q from the states of sigma_star(n, eps), C from the classical optimum, for four utilities: the Holevo
    # information over the LP's mutual information; 1 - mean pairwise Tr rho^1/2 sigma^1/2 over the LP's
    # pairwise_sqrt value less its phi(1); and both exponents over their classical optima.  A cubic through
    # the four eps gives Q/C at eps = 0, and for the two LP utilities Q/eps^2 and (C - phi(1))/eps^2 there.
    mi, sqrt_utility = mutual_information_utility(n), pairwise_sqrt_utility(n)
    quantum, classical = [], []
    for epsilon in HEADLINE_EPS:
        mech = sigma_star(n, epsilon)
        affinity = np.mean([overlap(a, b, 0.5) for a, b in itertools.combinations(mech.members, 2)])
        quantum.append(
            (holevo_information(np.full(n, 1.0 / n), mech.members), 1.0 - affinity, sym_exponent(mech),
             asym_exponent(mech))
        )
        classical.append(
            (kairouz_lp_symmetric(n, epsilon, mi),
             kairouz_lp_symmetric(n, epsilon, sqrt_utility) - sqrt_utility.value_at_ones,
             classical_opt_sym(n, epsilon), classical_opt_asym(n, epsilon))
        )
    quantum, classical = np.array(quantum), np.array(classical)
    vandermonde = np.vander(HEADLINE_EPS, 4, increasing=True)

    def at_zero(values):
        return np.linalg.solve(vandermonde, values)[0]

    assert at_zero(quantum / classical) == pytest.approx([limit_ratio(n)] * 4, rel=0.0, abs=1e-7)
    squares = np.square(HEADLINE_EPS)
    for k, utility in enumerate((mi, sqrt_utility)):
        classical_coeff, quantum_coeff, _ = asymptotic_prediction(n, utility.beta0)
        assert at_zero(quantum[:, k] / squares) == pytest.approx(quantum_coeff, rel=1e-7, abs=0.0)
        assert at_zero(classical[:, k] / squares) == pytest.approx(classical_coeff, rel=1e-7, abs=0.0)


def test_criterion_05_advantage_thresholds():
    assert advantage_threshold_sym(3) == pytest.approx(1.1885, abs=1e-4)
    assert advantage_threshold_asym(3) == pytest.approx(0.2645, abs=1e-4)
    assert advantage_threshold_sym(3) == pytest.approx(
        2.0 * math.log((2.0 * math.sqrt(3.0) + 1.0) / (2.0 * math.sqrt(3.0) - 1.0)), abs=1e-12
    )
    assert advantage_threshold_asym(3) == pytest.approx(math.log((math.sqrt(13.0) - 1.0) / 2.0), abs=1e-12)
    assert advantage_threshold_sym(10**6) == pytest.approx(1.7340, abs=1e-3)
    assert advantage_threshold_asym(10**6) == pytest.approx(0.5493, abs=1e-3)
    for n in range(3, 11):
        assert quantum_classical_gap(n, advantage_threshold_sym(n), "sym") > 0.0
        assert quantum_classical_gap(n, advantage_threshold_asym(n), "asym") > 0.0
    _report(5, "threshold values and strict advantage at the bound eps, n=3..10")


def test_criterion_06_figure_reproduction(tmp_path):
    start = time.perf_counter()
    fig1 = tmp_path / "fig1.csv"
    fig2 = tmp_path / "fig2.csv"
    assert cli_main(["reproduce", "fig1", "--out", str(fig1)]) == 0
    assert cli_main(["reproduce", "fig2", "--out", str(fig2)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    with open(fig1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["n"] for row in rows} == {"3", "6", "10"}
    for row in rows:
        epsilon = float(row["epsilon"])
        if epsilon <= 1.0 + 1e-12:
            assert float(row["s_ratio"]) > 1.0
            assert float(row["a_ratio"]) > 1.0
        if row["n"] in ("6", "10") and epsilon <= 2.0 + 1e-12:
            assert float(row["s_ratio"]) > 1.0

    with open(fig2, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["n"] == "10" for row in rows)
    for row in rows:
        epsilon = float(row["epsilon"])
        if epsilon >= 1.5 - 1e-12:
            assert float(row["s_qalt"]) > float(row["s_qstar"])
            assert float(row["a_qalt"]) > float(row["a_qstar"])
        if epsilon <= 1.0 + 1e-12:
            assert float(row["s_qalt"]) < float(row["s_qstar"])
            assert float(row["a_qalt"]) < float(row["a_qstar"])
    _report(6, f"fig1/fig2 ratio and crossover sign checks, {elapsed:.1f}s")


def test_criterion_07_lp_cross_checks():
    for n in range(2, 7):
        utility = mutual_information_utility(n)
        for epsilon in (0.1, 0.5, 1.0):
            full = kairouz_lp(n, epsilon, utility)
            assert full.status == "optimal"
            reduced = kairouz_lp_symmetric(n, epsilon, utility)
            assert abs(full.value - reduced) <= 1e-9
            assert abs(full.value - classical_opt_asym(n, epsilon)) <= 1e-9
    epsilon = 1e-2
    for n in range(2, 7):
        value = kairouz_lp(n, epsilon, mutual_information_utility(n)).value
        halves = (n // 2) * ((n + 1) // 2)
        assert value / epsilon**2 == pytest.approx(halves / (2.0 * n * n), rel=0.02)
    _report(7, "full LP = symmetric reduction = asym optimum; small-eps coefficient within 2%")


def test_criterion_08_subset_mechanism_identity():
    worst = 0.0
    for n in range(2, 8):
        for k in range(1, n):
            for epsilon in (0.5, 1.0):
                direct = sym_exponent(subset_mechanism(n, k, epsilon), 1.0)
                worst = max(worst, abs(direct - classical_sym_term(n, k, epsilon)))
    assert worst <= 1e-10
    _report(8, f"k-subset exponents equal the split-term formula (worst |dev| {worst:.2e})")


def test_criterion_09_expansion_suite():
    for seed in (0, 7, 42):
        for report in expansion_suite(seed):
            assert report.fitted_order >= 0.9, (seed, report.name, report.fitted_order)
            assert report.ratio_error_at(1e-2) <= 0.02, (seed, report.name)
    _report(9, "all expansion reports reach order >= 0.9 and <= 2% error at t=1e-2 for seeds 0/7/42")


def test_criterion_10_property_suites():
    results = run_all_suites(seed=7, count=1000)
    for result in results:
        assert result.instances >= 1000, result
        assert result.violations == 0, result
    names = {r.name for r in results}
    assert names == {
        "monotone_metric_sandwich",
        "data_processing",
        "measurement_reduction",
        "eta_mixing_level",
        "scalar_selftests",
    }
    _report(10, "five property suites clean over >= 1000 instances each")
