import math

import numpy as np
import pytest

from qldp.errors import DomainError, SupportMismatchError, ValidationError
from qldp.linalg import validate_density
from qldp.metrics import (
    BKM,
    KL,
    RLD,
    SLD,
    SQUARE,
    SQUARED_DIFF,
    MetricKind,
    OperatorConvexF,
    chernoff_information,
    classical_chernoff,
    classical_f_divergence,
    classical_metric,
    classical_relative_entropy,
    depolarize,
    depolarize_each,
    holevo_information,
    induced_metric,
    neg_ratio,
    overlap,
    pair_divergences,
    petz_f_divergence,
    petz_metric,
    petz_metrics,
    relative_entropy,
    von_neumann_entropy,
    wyd,
)
from qldp.sampling import random_density, random_hermitian, random_unitary
from qldp.suites import dpi_suite, sandwich_suite

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
ALL_KINDS = [SLD, RLD, BKM, wyd(0.3), wyd(0.5), wyd(0.7)]


def test_metric_kind_validation():
    with pytest.raises(ValidationError):
        MetricKind("fisher")
    with pytest.raises(ValidationError):
        wyd(1.5)
    with pytest.raises(ValidationError):
        MetricKind("sld", 0.5)
    with pytest.raises(ValidationError, match="unknown F tag 'cosh'"):
        OperatorConvexF("cosh")
    with pytest.raises(ValidationError, match="neg_ratio needs a parameter"):
        OperatorConvexF("neg_ratio")
    with pytest.raises(ValidationError, match="neg_ratio needs a parameter"):
        neg_ratio(-1.0)
    with pytest.raises(ValidationError, match="kl takes no parameter"):
        OperatorConvexF("kl", 1.0)
    # overlap(rho, rho, 2.0) used to return 1.19 and s = nan nan
    for s in (2.0, -0.1, math.nan):
        with pytest.raises(ValidationError, match=r"overlap needs s in \[0, 1\]"):
            overlap(np.eye(2) / 2, np.diag([0.25, 0.75]), s)


def test_petz_metric_classical_fisher_case():
    # commuting inputs reduce to sum x_i^2 / lambda_i for every normalized kind
    rho0 = np.eye(2) / 2
    x = np.diag([0.5, -0.5]).astype(complex)
    for kind in ALL_KINDS:
        assert petz_metric(rho0, x, x, kind) == pytest.approx(1.0, abs=1e-12)


def test_petz_metric_flat_state_off_diagonal():
    rho0 = np.eye(2) / 2
    x = PAULI_X / 4
    # degenerate spectrum: every kernel entry is 1/lambda = 2, so J = 2 Tr X^2
    assert petz_metric(rho0, x, x, BKM) == pytest.approx(0.25, abs=1e-12)


def test_petz_metric_commuting_reduction():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = rng.uniform(0.2, 1.0, size=3)
        p /= p.sum()
        x = rng.normal(size=3)
        rho0 = np.diag(p).astype(complex)
        xm = np.diag(x).astype(complex)
        reference = float(np.sum(x * x / p))
        for kind in ALL_KINDS:
            assert petz_metric(rho0, xm, xm, kind) == pytest.approx(reference, abs=1e-10)
            assert classical_metric(p, x, x, kind) == pytest.approx(reference, abs=1e-10)


def test_metric_sandwich_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho0 = random_density(rng, 3)
        x = random_hermitian(rng, 3)
        lo = petz_metric(rho0, x, x, SLD)
        hi = petz_metric(rho0, x, x, RLD)
        for kind in (BKM, wyd(0.3), wyd(0.5), wyd(0.7)):
            mid = petz_metric(rho0, x, x, kind)
            assert lo <= mid + 1e-9 * (1 + abs(mid))
            assert mid <= hi + 1e-9 * (1 + abs(hi))


def test_petz_metric_rejects_singular_state():
    with pytest.raises(DomainError):
        petz_metric(np.diag([1.0, 0.0]), PAULI_X, PAULI_X, BKM)
    # a direction within the Hermitian tolerance (deviation 2e-13) at a nearly
    # singular state: the kernel's 1e6 lifts its imaginary part to 1e-7
    with pytest.raises(ValidationError, match="large imaginary part"):
        petz_metric(np.diag([1.0 - 1e-6, 1e-6]), np.eye(2), np.diag([0.0, 1e-13j]), SLD)


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: petz_metric(a, b, b, BKM),
        lambda a, b: induced_metric(a, b, b, KL),
        lambda a, b: relative_entropy(a, b),
        lambda a, b: holevo_information([0.5, 0.5], [a, b]),
    ],
    ids=["petz_metric", "induced_metric", "relative_entropy", "holevo"],
)
def test_dimension_mismatch_is_a_validation_error(fn):
    with pytest.raises(ValidationError):
        fn(np.eye(2) / 2, np.eye(3) / 3)


def _count_spectral_calls(monkeypatch) -> dict:
    counts = {"eigh": 0, "eigvalsh": 0, "norm": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("fn", [relative_entropy, chernoff_information])
def test_divergence_decomposes_each_state_once(monkeypatch, fn):
    rng = np.random.default_rng(40)
    a, b = random_density(rng, 3), random_density(rng, 3)
    counts = _count_spectral_calls(monkeypatch)
    fn(a, b)
    # both states of the pair are validated as one stack
    assert counts == {"eigh": 1, "eigvalsh": 0, "norm": 0}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.tag}{k.s or ''}")
def test_metric_reuses_the_state_spectrum(monkeypatch, kind):
    rng = np.random.default_rng(41)
    state = validate_density(random_density(rng, 3))
    x = random_hermitian(rng, 3)
    expected = petz_metric(state.matrix, x, x, kind)
    counts = _count_spectral_calls(monkeypatch)
    assert petz_metric(state, x, x, kind) == expected
    # One eigvalsh scales the hermiticity check of x; the state is not decomposed.
    assert counts == {"eigh": 0, "eigvalsh": 1, "norm": 0}


def test_sandwich_suite_decomposes_each_instance_once(monkeypatch):
    # per dimension group, one stacked eigh of the states and one eigvalsh of the directions, for all six metrics
    counts = _count_spectral_calls(monkeypatch)
    assert sandwich_suite(np.random.default_rng(3), 9).passed
    assert counts == {"eigh": 3, "eigvalsh": 3, "norm": 0}


def test_stacked_metrics_equal_the_scalar_calls():
    rng = np.random.default_rng(50)
    rhos = [random_density(rng, 3) for _ in range(6)]
    xs = [random_hermitian(rng, 3) for _ in range(6)]
    others = [random_density(rng, 3) for _ in range(6)]
    fs = [KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)]
    assert petz_metrics(rhos, xs, ALL_KINDS).tolist() == [
        [petz_metric(rho, x, x, kind) for kind in ALL_KINDS] for rho, x in zip(rhos, xs)
    ]
    assert pair_divergences(rhos, others, fs).tolist() == [
        [relative_entropy(a, b), chernoff_information(a, b), *(petz_f_divergence(a, b, f) for f in fs)]
        for a, b in zip(rhos, others)
    ]
    assert np.array_equal(depolarize_each(rhos, 0.3), [depolarize(rho, 0.3) for rho in rhos])
    with pytest.raises(ValidationError, match="dimension mismatch"):
        petz_metrics(rhos, xs[:-1], ALL_KINDS)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        pair_divergences(rhos, others[:-1], fs)


def test_empty_stacks_give_empty_results():
    fs = [KL, SQUARE, SQUARED_DIFF]
    assert petz_metrics([], [], ALL_KINDS).shape == (0, len(ALL_KINDS))
    assert pair_divergences([], [], fs).shape == (0, 2 + len(fs))
    assert depolarize_each([], 0.3).shape == (0, 0, 0)
    rng = np.random.default_rng(51)
    with pytest.raises(ValidationError, match="no metric kind"):
        petz_metrics([random_density(rng, 2)], [random_hermitian(rng, 2)], [])


def test_stacks_of_mixed_shapes_are_validation_errors():
    rng = np.random.default_rng(52)
    rhos = [random_density(rng, 2), random_density(rng, 3)]
    xs = [random_hermitian(rng, 2), random_hermitian(rng, 3)]
    with pytest.raises(ValidationError, match=r"matrix 1 has shape \(3, 3\), matrix 0 has \(2, 2\)"):
        depolarize_each([np.eye(2), np.eye(3)], 0.3)
    with pytest.raises(ValidationError, match=r"matrix 1 has shape \(3, 3\), matrix 0 has \(2, 2\)"):
        petz_metrics(rhos, xs, ALL_KINDS)


def test_dpi_suite_decomposes_each_state_once(monkeypatch):
    # per dimension group, one stacked eigh of the drawn states and one of their depolarized images
    counts = _count_spectral_calls(monkeypatch)
    assert dpi_suite(np.random.default_rng(3), 9).passed
    assert counts == {"eigh": 6, "eigvalsh": 0, "norm": 0}


def test_fdiv_equal_states_kl_zero():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3)
    assert petz_f_divergence(rho, rho, KL) == pytest.approx(0.0, abs=1e-12)


def test_fdiv_commuting_kl_matches_scalar():
    p = np.diag([0.75, 0.25]).astype(complex)
    q = np.diag([0.5, 0.5]).astype(complex)
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert petz_f_divergence(p, q, KL) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.130812035, abs=1e-9)


def test_fdiv_equal_states_value_is_f_at_one():
    # D_F(rho || rho) = F(1) Tr rho for every tag
    rng = np.random.default_rng(30)
    rho = random_density(rng, 4)
    for f, f_at_one in [
        (KL, 0.0),
        (SQUARE, 1.0),
        (SQUARED_DIFF, 0.0),
        (neg_ratio(1.0), -0.5),
        (neg_ratio(3.0), -0.25),
    ]:
        assert petz_f_divergence(rho, rho, f) == pytest.approx(f_at_one, abs=1e-10)


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
def test_induced_metric_neg_ratio_at_flat_state(s):
    # every eigenvalue of I/2 is 1/2, so the induced kernel is F''(1) / (1/2)
    # everywhere, with F''(1) = 2s/(1+s)^3 for F(t) = -t/(t+s)
    x = random_hermitian(np.random.default_rng(8), 2)
    second = 2.0 * s / (1.0 + s) ** 3
    expected = 2.0 * second * np.linalg.norm(x) ** 2
    assert induced_metric(np.eye(2) / 2, x, x, neg_ratio(s)) == pytest.approx(expected, rel=1e-12)


def test_fdiv_square_equal_states():
    # D_{t^2}(rho || rho) = F(1) Tr rho = 1, and in general the square
    # divergence equals the trace form Tr rho1^2 rho2^{-1}
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    assert petz_f_divergence(rho, rho, SQUARE) == pytest.approx(1.0, abs=1e-10)
    rho2 = random_density(rng, 3)
    direct = float(np.trace(rho @ rho @ np.linalg.inv(rho2)).real)
    assert petz_f_divergence(rho, rho2, SQUARE) == pytest.approx(direct, abs=1e-10)


def test_relative_entropy_matches_fdiv_kl():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        assert relative_entropy(a, b) == pytest.approx(petz_f_divergence(a, b, KL), abs=1e-10)


def test_relative_entropy_basics():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(math.log(4.0), abs=1e-12)
    with pytest.raises(SupportMismatchError):
        relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2)


def test_holevo_equal_states_zero():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 3)
    assert holevo_information([0.3, 0.7], [rho, rho]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("pure", [np.eye(1), np.diag([1.0, 0.0])], ids=["1x1", "diag10"])
def test_a_pure_state_has_plus_zero_entropy(pure):
    # -sum(L(lambda)) read -0.0 for every pure state, and so did the Holevo information of identical ones
    assert math.copysign(1.0, von_neumann_entropy(pure)) == 1.0
    assert math.copysign(1.0, holevo_information([0.5, 0.5], [pure, pure])) == 1.0


def test_holevo_randomized_response_binary_mi():
    # diagonal embedding of randomized response with e^eps = 3 gives the
    # binary mutual information ln 2 - H_b(1/4)
    states = [np.diag([0.75, 0.25]).astype(complex), np.diag([0.25, 0.75]).astype(complex)]
    expected = math.log(2.0) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert holevo_information([0.5, 0.5], states) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.130812035, abs=1e-9)


def test_holevo_sigma_star_small_eps_coefficient():
    from qldp.mechanisms import sigma_star

    epsilon = 1e-3
    for n in (3, 5):
        mech = sigma_star(n, epsilon)
        chi = holevo_information(np.full(n, 1.0 / n), mech.states)
        assert chi / epsilon**2 == pytest.approx((n - 1) / (4 * n), rel=0.01)


def test_holevo_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValidationError):
        holevo_information([0.6, 0.6], [rho, rho])
    with pytest.raises(ValidationError):
        holevo_information([0.5, 0.5], [rho, np.eye(3) / 3])
    with pytest.raises(ValidationError, match="prior length"):
        holevo_information([0.5, 0.25, 0.25], [rho, rho])


@pytest.mark.parametrize(
    "prior", [[math.nan, 1.0], [math.inf, 0.0], [math.inf, -math.inf], [-math.inf, 1.0]], ids=str
)
def test_holevo_rejects_a_non_finite_prior(prior):
    # a NaN prior used to reach the barycentre, and inf - inf a RuntimeWarning, an error under the test filter
    rho = np.eye(2) / 2
    with pytest.raises(ValidationError, match="prior must be a probability vector"):
        holevo_information(prior, [rho, rho])


def test_chernoff_equal_states():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 3)
    assert chernoff_information(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_chernoff_search_evaluation_budget(monkeypatch):
    # each overlap evaluation is one np.exp; a Newton step that lands on the
    # bracket end it converged to must not trigger a run of bisections
    calls = []

    def counting_exp(x, *args, **kwargs):
        calls[-1] += 1
        return real_exp(x, *args, **kwargs)

    real_exp = np.exp
    monkeypatch.setattr(np, "exp", counting_exp)
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        a = random_density(rng, d)
        for b in (random_density(rng, d), depolarize(a, 0.3)):
            calls.append(0)
            chernoff_information(a, b)
    # f(0), f(1) and at least one iterate: the counter sees every evaluation
    assert 3 <= min(calls) and max(calls) <= 10 and sorted(calls)[len(calls) // 2] <= 6


def test_chernoff_commuting_value():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    # symmetric pair: minimum at s = 1/2 with value 2 sqrt(3)/4
    expected = -math.log(2.0 * math.sqrt(3.0) / 4.0)
    assert chernoff_information(a, b) == pytest.approx(expected, abs=1e-11)
    assert expected == pytest.approx(math.log(2.0 / math.sqrt(3.0)), abs=1e-15)


def test_chernoff_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        assert chernoff_information(a, b) == pytest.approx(chernoff_information(b, a), abs=1e-10)


def test_chernoff_against_dense_grid():
    rng = np.random.default_rng(9)
    a = random_density(rng, 3)
    b = random_density(rng, 3)
    lam_a, u_a = np.linalg.eigh(a)
    lam_b, u_b = np.linalg.eigh(b)
    w = np.abs(u_a.conj().T @ u_b) ** 2
    grid = np.linspace(0.0, 1.0, 20001)
    values = [float(lam_a**s @ w @ lam_b ** (1.0 - s)) for s in grid]
    assert chernoff_information(a, b) == pytest.approx(-math.log(min(values)), abs=1e-9)


def test_classical_quantum_agreement():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = rng.uniform(0.05, 1.0, size=3)
        p /= p.sum()
        q = rng.uniform(0.05, 1.0, size=3)
        q /= q.sum()
        dp, dq = np.diag(p).astype(complex), np.diag(q).astype(complex)
        assert classical_relative_entropy(p, q) == pytest.approx(relative_entropy(dp, dq), abs=1e-10)
        assert classical_chernoff(p, q) == pytest.approx(chernoff_information(dp, dq), abs=1e-10)
        for f in (KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)):
            assert classical_f_divergence(p, q, f) == pytest.approx(petz_f_divergence(dp, dq, f), abs=1e-10)


SCALAR_SUITE_FS = [KL, SQUARE, neg_ratio(0.5), neg_ratio(1.0), neg_ratio(2.0), neg_ratio(5.0)]


@pytest.mark.parametrize("f", SCALAR_SUITE_FS, ids=lambda f: f"{f.tag}{f.s or ''}")
def test_classical_f_divergence_of_a_stack_equals_its_rows(f):
    rng = np.random.default_rng(12)
    p = rng.uniform(0.01, 1.0, size=(50, 2))
    q = rng.uniform(0.01, 1.0, size=(50, 2))
    rows = np.array([classical_f_divergence(a, b, f) for a, b in zip(p, q)])
    assert np.array_equal(classical_f_divergence(p, q, f), rows)


def test_classical_f_divergence_of_a_vector_is_a_float():
    assert type(classical_f_divergence([0.5, 0.5], [0.25, 0.75], KL)) is float


CLASSICAL_PAIR_FUNCTIONS = [classical_chernoff, classical_relative_entropy, lambda p, q: classical_f_divergence(p, q, KL)]


@pytest.mark.parametrize("fn", CLASSICAL_PAIR_FUNCTIONS)
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
def test_classical_distributions_reject_non_finite_entries(fn, bad):
    # classical_chernoff read a NaN entry as 0.0, and the divergences returned nan
    for p, q in (([bad, 1.0], [0.5, 0.5]), ([0.5, 0.5], [1.0, bad])):
        with pytest.raises(ValidationError, match="non-finite"):
            fn(p, q)


@pytest.mark.parametrize(
    "fn",
    CLASSICAL_PAIR_FUNCTIONS
    + [lambda p, q: classical_metric(p, q, p, SLD), lambda p, q: classical_metric(p, p, q, SLD)],
    ids=["chernoff", "relative_entropy", "f_divergence", "metric_x", "metric_y"],
)
@pytest.mark.parametrize(
    "p,q",
    [
        ([0.5, 0.5], [0.2, 0.3, 0.5]),
        ([0.2, 0.3, 0.5], [0.5, 0.5]),
        (np.full((4, 2), 0.5), np.full((4, 3), 1 / 3)),
    ],
    ids=["short-long", "long-short", "stacks"],
)
def test_classical_distributions_of_different_lengths_are_rejected(fn, p, q):
    # numpy raised "operands could not be broadcast together"
    with pytest.raises(ValidationError, match="last axes differ in length: shapes") as info:
        fn(p, q)
    assert str(np.shape(p)) in str(info.value) and str(np.shape(q)) in str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_classical_metric_rejects_non_finite_directions(bad):
    # only p0 was checked: a NaN direction read as nan and an infinite one as inf or nan
    p0 = [0.25, 0.75]
    for x, y in (([bad, 0.5], [0.5, -0.5]), ([0.5, -0.5], [0.5, bad])):
        with pytest.raises(ValidationError, match="non-finite"):
            classical_metric(p0, x, y, SLD)


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_classical_f_divergence_checks_every_entry_of_a_stack(bad):
    p = np.full((40, 2), 0.5)
    q = np.full((40, 2), 0.5)
    for stack in (p, q):
        stack[37, 1] = bad
        with pytest.raises(SupportMismatchError):
            classical_f_divergence(p, q, KL)
        stack[37, 1] = 0.5


def test_classical_chernoff_identical():
    p = np.array([0.4, 0.6])
    assert classical_chernoff(p, p) == pytest.approx(0.0, abs=1e-12)


def test_classical_kl_half_vs_three_quarters():
    value = classical_relative_entropy([0.5, 0.5], [0.75, 0.25])
    assert value == pytest.approx(0.5 * math.log(2.0 / 3.0) + 0.5 * math.log(2.0), abs=1e-12)
    assert value == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)


def test_unitary_invariance():
    rng = np.random.default_rng(11)
    a = random_density(rng, 3)
    b = random_density(rng, 3)
    u = random_unitary(rng, 3)
    ua = u @ a @ u.conj().T
    ub = u @ b @ u.conj().T
    assert relative_entropy(ua, ub) == pytest.approx(relative_entropy(a, b), abs=1e-9)
    assert chernoff_information(ua, ub) == pytest.approx(chernoff_information(a, b), abs=1e-9)
    prior = [0.5, 0.5]
    assert holevo_information(prior, [ua, ub]) == pytest.approx(holevo_information(prior, [a, b]), abs=1e-9)


def test_data_processing_spot_check():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        for t in (0.1, 0.5):
            da, db = depolarize(a, t), depolarize(b, t)
            assert relative_entropy(da, db) <= relative_entropy(a, b) + 1e-9
            assert chernoff_information(da, db) <= chernoff_information(a, b) + 1e-9
            for f in (KL, SQUARE, SQUARED_DIFF, neg_ratio(1.0)):
                assert petz_f_divergence(da, db, f) <= petz_f_divergence(a, b, f) + 1e-9


def test_overlap_at_endpoints_and_equal_states():
    rng = np.random.default_rng(13)
    a = random_density(rng, 3)
    b = random_density(rng, 3)
    assert overlap(a, b, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert overlap(a, b, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert overlap(a, a, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_holevo_keeps_eigenvalues_below_the_rank_tolerance():
    # rho1 has 63 eigenvalues lam = 1.5e-12 above RANK_TOL = 1e-12 and the barycentre 63 of lam / 2 below it;
    # dropping the latter from one entropy only read -1.3e-9 and raised "negative information".
    # Diagonal states: chi = H(bar) - H(rho1) / 2 = x ln 2 - (1 - x) ln(1 - x) + (1 - 2x) ln(1 - 2x) / 2, x = 31.5 lam.
    lam = 1.5e-12
    rho1 = np.diag([1.0 - 63 * lam] + [lam] * 63).astype(complex)
    rho2 = np.zeros((64, 64), dtype=complex)
    rho2[0, 0] = 1.0
    x = 31.5 * lam
    expected = x * math.log(2.0) - (1 - x) * math.log1p(-x) + 0.5 * (1 - 2 * x) * math.log1p(-2 * x)
    assert expected == pytest.approx(3.275e-11, rel=1e-3)
    assert holevo_information([0.5, 0.5], [rho1, rho2]) == pytest.approx(expected, rel=1e-12)
