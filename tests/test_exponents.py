import math

import numpy as np
import pytest

from qldp import mechanisms
from qldp.errors import DomainError, ValidationError
from qldp.exponents import (
    advantage_crossover,
    advantage_threshold_asym,
    advantage_threshold_sym,
    asym_exponent,
    boundary_mu,
    classical_asym_term,
    classical_opt_asym,
    classical_opt_sym,
    classical_opt_sym_bound,
    classical_sym_argmax,
    classical_sym_term,
    closed_form_exponents,
    isoclinic_bound,
    isoclinic_constant,
    quantum_classical_gap,
    ratio_sweep,
    sym_exponent,
)
from qldp.frames import build_eitff
from qldp.mechanisms import (
    MAX_EPSILON,
    QldpMechanism,
    admissible_mu_interval,
    binary_mechanism,
    isoclinic_mechanism,
    sigma_star,
    subset_mechanism,
)
from qldp.metrics import classical_chernoff

import oracles


def test_exponents_vanish_for_identical_states():
    flat = np.eye(2) / 2
    mech = QldpMechanism(states=(flat, flat, flat), epsilon=1.0)
    assert sym_exponent(mech) == pytest.approx(0.0, abs=1e-12)
    assert asym_exponent(mech) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_matches_direct_evaluation():
    for n, epsilon, eta in [(3, 1.0, 1.0), (3, 0.5, 0.25), (5, 2.0, 1.0), (10, 0.5, 0.25)]:
        mech = sigma_star(n, epsilon)
        pair = closed_form_exponents(n, 0.5, epsilon, eta)
        assert sym_exponent(mech, eta) == pytest.approx(pair.sym, abs=1e-8)
        assert asym_exponent(mech, eta) == pytest.approx(pair.asym, abs=1e-8)


def test_closed_form_across_admissible_interval():
    for n, epsilon in [(2, 0.5), (4, 1.0), (6, 2.0)]:
        frame = build_eitff(n)
        lo, hi = admissible_mu_interval(frame, epsilon)
        for mu in (lo, 0.5 * (lo + 1.0), 1.0 - 1e-6, 0.5 * (1.0 + hi), hi - 1e-9):
            mech = isoclinic_mechanism(frame, epsilon, mu=mu)
            for eta in (0.25, 1.0):
                pair = closed_form_exponents(n, 0.5, epsilon, eta, mu=mu)
                assert sym_exponent(mech, eta) == pytest.approx(pair.sym, abs=1e-8)
                assert asym_exponent(mech, eta) == pytest.approx(pair.asym, abs=1e-8)


def test_closed_form_trivial_weight():
    pair = closed_form_exponents(4, 0.5, 1.0, mu=1.0)
    assert pair.sym == pytest.approx(0.0, abs=1e-12)
    assert pair.asym == pytest.approx(0.0, abs=1e-12)


def test_closed_form_rejects_bad_weight():
    with pytest.raises(DomainError):
        closed_form_exponents(4, 0.5, 1.0, mu=2.1)  # beyond 1/(1-u) = 2
    with pytest.raises(DomainError):
        closed_form_exponents(4, 0.7, 1.0)  # u beyond 1/2


def test_isoclinic_constant_values():
    assert isoclinic_constant(3, 0.5) == pytest.approx(0.25)
    assert isoclinic_constant(10, 0.4) == pytest.approx(1.0 / 3.0)
    assert isoclinic_constant(4, 0.25) == pytest.approx(0.0)


def test_half_rank_forms_match_general_expression():
    # the u = 1/2 shortcuts agree with the general formulas evaluated just off 1/2
    from qldp.exponents import asym_divergence, sym_overlap

    for t in (0.1, 0.42702, 0.9, 1.3):
        for c in (0.0, 0.25, 4.0 / 9.0):
            general = 1.0 - (1.0 - c) * (math.sqrt(0.5 * t + 1.0 - t) - math.sqrt(0.5 * t)) ** 2
            assert sym_overlap(t, 0.5, c) == pytest.approx(general, abs=1e-14)
        general = 0.5 * (oracles.xlogx(t + 2.0 * (1.0 - t)) + oracles.xlogx(t))
        assert asym_divergence(t, 0.5) == pytest.approx(general, abs=1e-14)


def test_classical_sym_equals_randomized_response_chernoff():
    for epsilon in (0.3, 0.7, 1.5):
        grow = math.exp(epsilon)
        rr = np.array([grow, 1.0]) / (grow + 1.0)
        expected = classical_chernoff(rr, rr[::-1])
        assert classical_opt_sym(2, epsilon) == pytest.approx(expected, abs=1e-12)


def test_classical_sym_equals_subset_mechanism():
    value = classical_opt_sym(3, 1.0)
    k = classical_sym_argmax(3, 1.0)
    assert k == 1
    assert value == pytest.approx(sym_exponent(subset_mechanism(3, 1, 1.0)), abs=1e-10)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_subset_terms_match_mechanism(n, epsilon):
    for k in range(1, n):
        direct = sym_exponent(subset_mechanism(n, k, epsilon))
        assert direct == pytest.approx(classical_sym_term(n, k, epsilon), abs=1e-10)


def test_sym_bound_tight_at_eta_one():
    for n in (2, 4, 7):
        for epsilon in (0.2, 1.0):
            assert classical_opt_sym_bound(n, epsilon, 1.0) == pytest.approx(
                classical_opt_sym(n, epsilon), abs=1e-12
            )


def test_classical_asym_hand_value():
    # n = 2, eps = ln 2: best split k = 1 gives (L(2) - 2 L(3/2)) / 3
    expected = (oracles.xlogx(2.0) - 2.0 * oracles.xlogx(1.5)) / 3.0
    assert classical_opt_asym(2, math.log(2.0)) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.0566330122, abs=1e-9)


def test_classical_asym_small_eps_coefficient():
    epsilon = 1e-4
    for n in (2, 3, 5):
        for eta in (1.0, 0.5):
            coeff = (n // 2) * ((n + 1) // 2) / (2.0 * n * n)
            assert classical_opt_asym(n, epsilon, eta) / epsilon**2 == pytest.approx(
                coeff * eta * eta, rel=0.01
            )


def test_binary_mechanism_exponents():
    # the half-split two-output mechanism makes two inputs share a column for
    # n >= 3, so the symmetric exponent collapses to zero
    assert sym_exponent(binary_mechanism(3, 1.0)) == pytest.approx(0.0, abs=1e-12)
    # its asymmetric exponent at n = 2 is the optimal classical value
    assert asym_exponent(binary_mechanism(2, 0.8)) == pytest.approx(
        classical_asym_term(2, 1, 0.8), abs=1e-10
    )


def test_advantage_thresholds_reference_values():
    assert advantage_threshold_sym(3) == pytest.approx(2.0 * math.log((2.0 * math.sqrt(3.0) + 1.0) / (2.0 * math.sqrt(3.0) - 1.0)), abs=1e-14)
    assert advantage_threshold_sym(3) == pytest.approx(1.1885, abs=1e-4)
    assert advantage_threshold_asym(3) == pytest.approx(math.log((math.sqrt(13.0) - 1.0) / 2.0), abs=1e-14)
    assert advantage_threshold_asym(3) == pytest.approx(0.2645, abs=1e-4)


def test_advantage_thresholds_limits():
    assert advantage_threshold_sym(10**6) == pytest.approx(1.7340, abs=1e-3)
    assert advantage_threshold_asym(10**6) == pytest.approx(0.5493, abs=1e-3)


def test_advantage_thresholds_increase():
    for fn in (advantage_threshold_sym, advantage_threshold_asym):
        values = [fn(n) for n in range(3, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_gap_positive_at_threshold():
    for n in (3, 5, 8):
        assert quantum_classical_gap(n, advantage_threshold_sym(n), "sym") > 0
        assert quantum_classical_gap(n, advantage_threshold_asym(n), "asym") > 0


def test_crossover_beyond_threshold():
    for n in (3, 4):
        sym_cross = advantage_crossover(n, "sym")
        asym_cross = advantage_crossover(n, "asym")
        assert sym_cross > advantage_threshold_sym(n)
        assert asym_cross > advantage_threshold_asym(n)
    # asymmetric crossover at n = 3 is finite and past the threshold
    value = advantage_crossover(3, "asym")
    assert math.isfinite(value) and value > 0.2645
    assert abs(quantum_classical_gap(3, value, "asym")) <= 1e-8


def test_sym_gap_positive_through_two_for_n_four():
    for epsilon in np.linspace(0.1, 2.0, 20):
        assert quantum_classical_gap(4, float(epsilon), "sym") > 0
    assert advantage_crossover(4, "sym") > 2.0


def test_small_eps_asymptotics():
    epsilon = 1e-3
    for n in range(2, 9):
        pair = closed_form_exponents(n, 0.5, epsilon)
        assert pair.sym / epsilon**2 == pytest.approx(0.125, rel=0.01)
        assert pair.asym / epsilon**2 == pytest.approx((n - 1) / (4 * n), rel=0.01)
        halves = (n // 2) * ((n + 1) // 2)
        assert classical_opt_sym(n, epsilon) / epsilon**2 == pytest.approx(
            halves / (4.0 * n * (n - 1)), rel=0.01
        )
        assert classical_opt_asym(n, epsilon) / epsilon**2 == pytest.approx(
            halves / (2.0 * n * n), rel=0.01
        )


def test_eta_scaling_at_small_eps():
    epsilon, eta = 1e-3, 0.5
    for n in (2, 3, 5):
        full = closed_form_exponents(n, 0.5, epsilon, 1.0)
        half = closed_form_exponents(n, 0.5, epsilon, eta)
        assert half.sym == pytest.approx(eta**2 * full.sym, rel=0.015)
        assert half.asym == pytest.approx(eta**2 * full.asym, rel=0.015)
        assert classical_opt_asym(n, epsilon, eta) == pytest.approx(
            eta**2 * classical_opt_asym(n, epsilon, 1.0), rel=0.015
        )
    # direct mixed evaluation of the best split mechanism scales the same way
    k = classical_sym_argmax(4, epsilon)
    mech = subset_mechanism(4, k, epsilon)
    assert sym_exponent(mech, eta) == pytest.approx(eta**2 * sym_exponent(mech, 1.0), rel=0.015)


def test_classical_optima_nondecreasing_in_eps():
    grid = np.linspace(0.05, 3.0, 60)
    for n in (2, 3, 6):
        sym = [classical_opt_sym(n, float(e)) for e in grid]
        asym = [classical_opt_asym(n, float(e)) for e in grid]
        assert all(b >= a - 1e-12 for a, b in zip(sym, sym[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(asym, asym[1:]))


def test_isoclinic_bound_dominates_members_and_classical():
    for n in (3, 6, 10):
        for epsilon in (0.25, 0.5, 1.0, 2.0):
            bound = isoclinic_bound(n, epsilon)
            star = closed_form_exponents(n, 0.5, epsilon)
            assert bound.sym >= star.sym - 1e-12
            assert bound.asym >= star.asym - 1e-12
            assert bound.sym >= classical_opt_sym(n, epsilon) - 1e-9
            assert bound.asym >= classical_opt_asym(n, epsilon) - 1e-9


def test_isoclinic_bound_interior_argmax_at_large_eps():
    bound = isoclinic_bound(10, 2.0)
    assert bound.u_sym < 0.5 - 1e-3


def test_isoclinic_bound_degenerate_n_two():
    # u ranges over [1/2, 1/2]: the bound is the half-rank mechanism itself
    for epsilon in (1e-3, 1.0, 20.0):
        for eta in (1.0, 0.5, 0.05):
            bound = isoclinic_bound(2, epsilon, eta)
            star = closed_form_exponents(2, 0.5, epsilon, eta)
            assert (bound.sym, bound.asym) == pytest.approx((star.sym, star.asym), abs=1e-12)
            assert bound.u_sym == bound.u_asym == 0.5


def test_ratio_sweep_contents():
    records = ratio_sweep(3, [0.25, 0.5, 1.0], 1.0)
    assert [r.epsilon for r in records] == [0.25, 0.5, 1.0]
    for r in records:
        assert r.s_ratio > 1.0 and r.a_ratio > 1.0
        assert r.s_qalt is None and r.a_qalt is None


def test_ratio_sweep_alt_mechanism_crossover():
    low = ratio_sweep(10, [0.5], 1.0, alt_u=0.4)[0]
    high = ratio_sweep(10, [2.0], 1.0, alt_u=0.4)[0]
    assert low.s_qalt < low.s_qstar
    assert high.s_qalt > high.s_qstar


def test_ratio_sweep_small_eps_limit():
    for n in (3, 6, 10):
        record = ratio_sweep(n, [1e-3], 1.0)[0]
        limit = n * (n - 1) / (2.0 * (n // 2) * ((n + 1) // 2))
        assert record.s_ratio == pytest.approx(limit, rel=0.01)
        assert record.a_ratio == pytest.approx(limit, rel=0.01)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classical_opt_sym(1, 0.5),
        lambda: classical_opt_sym(0, 0.5),
        lambda: classical_opt_sym_bound(1, 0.5, 0.5),
        lambda: classical_opt_asym(0, 0.5),
        lambda: classical_opt_asym(1, 0.5),
        lambda: classical_sym_argmax(1, 0.5),
        lambda: classical_sym_term(1, 0, 0.5),
        lambda: classical_asym_term(1, 1, 0.5),
    ],
    ids=["sym-1", "sym-0", "sym-bound-1", "asym-0", "asym-1", "argmax-1", "sym-term-1", "asym-term-1"],
)
def test_classical_optima_need_two_inputs(call):
    with pytest.raises(ValidationError, match="n >= 2"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: classical_sym_term(3, -1, 0.5), "split size out of range"),
        (lambda: classical_sym_term(3, 4, 0.5), "split size out of range"),
        (lambda: classical_asym_term(3, -1, 0.5), "split size out of range"),
        (lambda: classical_asym_term(3, 4, 0.5), "split size out of range"),
        (lambda: advantage_threshold_sym(2), "degenerate below n = 3"),
        (lambda: advantage_threshold_asym(2), "degenerate below n = 3"),
        (lambda: quantum_classical_gap(3, 0.5, "both"), "mode must be"),
        (lambda: classical_asym_term(3, 1, -1.0), "privacy level must be positive"),
        (lambda: classical_asym_term(3, 1, 0.5, eta=2.0), "eta must lie in"),
        (lambda: classical_sym_argmax(3, -1.0), "privacy level must be positive"),
        (lambda: classical_sym_term(3, 1, math.nan), "privacy level must be positive"),
    ],
    ids=[
        "sym-term-low",
        "sym-term-high",
        "asym-term-low",
        "asym-term-high",
        "sym-thr-2",
        "asym-thr-2",
        "gap-mode",
        "asym-term-eps",
        "asym-term-eta",
        "argmax-eps",
        "sym-term-nan",
    ],
)
def test_scalar_forms_reject_arguments_outside_their_domain(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_ratio_sweep_validation():
    with pytest.raises(ValidationError):
        ratio_sweep(3, [0.0, 0.5])
    for n in (1, 0, -2):
        with pytest.raises(ValidationError, match="n >= 2"):
            ratio_sweep(n, [0.5])
    with pytest.raises(ValidationError):
        closed_form_exponents(3, 0.5, 1.0, eta=0.0)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan, 800.0])
def test_exponents_reject_bad_epsilon(epsilon):
    for call in (
        lambda: closed_form_exponents(4, 0.5, epsilon),
        lambda: classical_opt_sym(4, epsilon),
        lambda: classical_opt_sym_bound(4, epsilon, 0.5),
        lambda: classical_opt_asym(4, epsilon),
        lambda: ratio_sweep(4, [0.5, epsilon]),
    ):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_exponents_reject_bad_eta(eta):
    for call in (
        lambda: mechanisms.tilde_family(binary_mechanism(3, 1.0), eta),
        lambda: closed_form_exponents(4, 0.5, 1.0, eta),
        lambda: classical_opt_sym_bound(4, 1.0, eta),
        lambda: classical_opt_asym(4, 1.0, eta),
        lambda: ratio_sweep(4, [0.5], eta),
    ):
        with pytest.raises(ValidationError, match=r"^eta must lie in \(0, 1\]$"):
            call()


def test_exponents_run_no_privacy_audit(monkeypatch):
    # Mixing cannot raise a level, so neither exponent needs the mixed family's audited one.
    mechs = (sigma_star(4, 0.5), binary_mechanism(3, 1.0))
    calls = []
    for name in ("qldp_level", "ldp_level", "audit_qldp", "audit_ldp"):
        original = getattr(mechanisms, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mechanisms, name, counted)
    for mech in mechs:
        for eta in (1.0, 0.6):
            sym_exponent(mech, eta)
            asym_exponent(mech, eta)
    assert calls == []


def test_sym_exponent_of_a_mechanism_with_equal_columns_is_positive_zero():
    # inputs 1 and 2 of the 3-input binary mechanism share a column
    value = sym_exponent(binary_mechanism(3, 1.0))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("epsilon", [1e-300, 5e-324])
def test_closed_forms_below_sinh_underflow_take_the_eps_to_zero_limit(epsilon):
    # sinh(eps/2)^2 underflows to 0 below eps ~ 3e-154: the weight is white noise and both exponents vanish,
    # as they do just above the underflow
    assert boundary_mu(0.5, 0.0, epsilon) == 1.0
    assert closed_form_exponents(3, 0.5, epsilon) == (0.0, 0.0)
    assert closed_form_exponents(3, 0.5, epsilon) == closed_form_exponents(3, 0.5, 1e-150)
    (record,) = ratio_sweep(3, [epsilon])
    assert (record.s_qstar, record.a_qstar, record.s_ratio, record.a_ratio) == (0.0, 0.0, None, None)
    # an overlap of exactly 1 gives +0.0, not -ln 1 = -0.0, which `exp sweep` would write as "-0"
    for value in (
        classical_sym_term(3, 1, epsilon),
        classical_opt_sym(3, epsilon),
        classical_opt_sym_bound(3, epsilon, 0.5),
        closed_form_exponents(3, 0.5, epsilon).sym,
    ):
        assert math.copysign(1.0, value) == 1.0


# The scalar closed forms against oracles.py on a quarter-decade grid of eps over [1e-8, MAX_EPSILON],
# n = 2..10.  Each form holds 1e-12 relative on the part of the grid named beside it and loses digits
# outside it, like u/eps^2 as eps -> 0 and to cancellation against e^eps at large eps.
SCALAR_GRID = [10.0 ** (e / 4) for e in range(-32, 12)] + [MAX_EPSILON]
SCALAR_DOMAINS = [
    # worst inside 7.3e-13 at 0.0316; 6.4e-12 at 0.01 and 2.5e-11 at 31.6; raises from about 74
    pytest.param(classical_opt_sym, oracles.classical_opt_sym, 0.0316, 17.8, id="opt-sym"),
    # worst inside 5.6e-13 at 0.0562; 1.0e-12 at 0.0316; 2.0e-16 at MAX_EPSILON, past the overflow of eps e^eps
    pytest.param(classical_opt_asym, oracles.classical_opt_asym, 0.0562, MAX_EPSILON, id="opt-asym"),
    # worst inside 4.7e-13 at 0.0316; 3.3e-12 at 0.01 and 1.6e-10 at 17.8
    pytest.param(
        lambda n, eps: closed_form_exponents(n, 0.5, eps).sym,
        lambda n, eps: oracles.isoclinic_pair(n, eps)[0],
        0.0316,
        10.0,
        id="isoclinic-sym",
    ),
    # worst inside 9.7e-13 at 5.62e-4; 1.5e-12 at 3.16e-4; DomainError (noise weight 0) above about 37
    pytest.param(
        lambda n, eps: closed_form_exponents(n, 0.5, eps).asym,
        lambda n, eps: oracles.isoclinic_pair(n, eps)[1],
        5.6e-4,
        31.7,
        id="isoclinic-asym",
    ),
]


@pytest.mark.parametrize("form,oracle,lo,hi", SCALAR_DOMAINS)
def test_scalar_closed_forms_hold_1e_12_on_their_domain(form, oracle, lo, hi):
    for epsilon in (e for e in SCALAR_GRID if lo <= e <= hi):
        for n in range(2, 11):
            exact = oracle(n, epsilon)
            assert abs(form(n, epsilon) - exact) <= 1e-12 * exact, (n, epsilon, exact)


# The numeric exponents lose relative accuracy like u/eps^2 as eps -> 0: 1 - overlap and the relative
# entropy are O(eps^2) sums of O(1) terms.  This pins that floor; the largest K measured is 78
# (sigma_star asym, n = 8, eps = 1e-2).
FLOOR_K = 200.0


@pytest.mark.parametrize("n", range(3, 11))
def test_matrix_exponents_hold_the_u_over_eps_squared_floor(n):
    k = n // 2
    for epsilon in (1e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
        bound = FLOOR_K * 2.0**-53 / epsilon**2
        cases = {
            "sigma_star": (sigma_star(n, epsilon), oracles.isoclinic_pair(n, epsilon)),
            "subset": (
                subset_mechanism(n, k, epsilon),
                (oracles.classical_sym_term(n, k, epsilon), oracles.classical_asym_term(n, k, epsilon)),
            ),
        }
        for name, (mech, (sym, asym)) in cases.items():
            assert abs(sym_exponent(mech) - sym) <= bound * sym, (name, epsilon)
            assert abs(asym_exponent(mech) - asym) <= bound * asym, (name, epsilon)
