import math

import numpy as np
import pytest

from qldp.errors import DomainError, ValidationError
from qldp.expansions import (
    DEFAULT_T_GRID,
    check_chernoff_expansion,
    check_entropy_expansion,
    check_fdiv_expansion,
    check_overlap_expansion,
    check_quadratic_assumption,
)
from qldp.metrics import BKM, KL, SQUARE, SQUARED_DIFF, holevo_information, overlap, wyd
from qldp.sampling import random_density, random_mean_zero_directions, random_traceless_hermitian
from qldp.suites import expansion_suite, scalar_selftests

from oracles import xlogx

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
FLAT2 = np.eye(2) / 2


def test_fdiv_flat_center_prediction():
    # at the flat center every kernel entry is 2, so the quadratic term is
    # (t^2/2) * 2 Tr (X/4)^2 = t^2/8
    report = check_fdiv_expansion(FLAT2, PAULI_X / 4, np.zeros((2, 2)), KL)
    for t, predicted in zip(DEFAULT_T_GRID, report.predicted):
        assert predicted == pytest.approx(t * t / 8.0, abs=1e-15)
    assert report.ratio_error_at(1e-2) <= 0.05
    assert report.fitted_order >= 0.9


def test_fdiv_zero_direction():
    x = random_traceless_hermitian(np.random.default_rng(0), 2, 0.4)
    report = check_fdiv_expansion(FLAT2, x, x, KL)
    # identical perturbations: the divergence itself must sit at numerical zero
    assert all(abs(o) <= 1e-12 for o in report.observed)
    # every error is below the noise floor, so there is no slope to fit
    assert report.fitted_order == math.inf
    with pytest.raises(ValidationError, match="not on the grid"):
        report.ratio_error_at(0.5)


def test_fdiv_requires_centered_f():
    with pytest.raises(ValidationError):
        check_fdiv_expansion(FLAT2, PAULI_X / 4, np.zeros((2, 2)), SQUARE)


def test_fdiv_rejects_grid_leaving_state_space():
    # at the largest grid point t = 0.1 the state 1/2 + t 6 X has eigenvalue -0.1
    with pytest.raises(DomainError):
        check_fdiv_expansion(FLAT2, 6 * PAULI_X, np.zeros((2, 2)), KL)


def test_fdiv_rejects_traceful_direction():
    with pytest.raises(ValidationError):
        check_fdiv_expansion(FLAT2, np.eye(2) * 0.1, np.zeros((2, 2)), KL)


def test_entropy_flat_center():
    report = check_entropy_expansion(FLAT2, PAULI_Z / 4)
    for t, predicted in zip(DEFAULT_T_GRID, report.predicted):
        assert predicted == pytest.approx(t * t / 8.0, abs=1e-15)
    # the linear term vanishes at the flat center and the remainder is quartic
    assert report.ratio_errors[-1] <= 1e-5
    assert report.fitted_order >= 0.9


def test_entropy_zero_direction_exact():
    report = check_entropy_expansion(FLAT2, np.zeros((2, 2)))
    assert all(abs(o) <= 1e-14 for o in report.observed)


def test_chernoff_flat_center_opposite_directions():
    x = PAULI_X / 4
    report = check_chernoff_expansion(FLAT2, x, -x)
    # predicted (1/8) J[2tX] = (t^2/2) J[X, X] with J = 2 Tr X^2 = 1/4
    for t, predicted in zip(DEFAULT_T_GRID, report.predicted):
        assert predicted == pytest.approx(t * t / 8.0, abs=1e-15)
    assert report.fitted_order >= 0.9


def test_chernoff_zero_direction():
    x = random_traceless_hermitian(np.random.default_rng(1), 2, 0.4)
    report = check_chernoff_expansion(FLAT2, x, x)
    assert all(abs(o) <= 1e-12 for o in report.observed)


def test_overlap_zero_direction():
    x = random_traceless_hermitian(np.random.default_rng(2), 2, 0.4)
    report = check_overlap_expansion(FLAT2, x, x, 0.5)
    assert all(abs(o) <= 1e-12 for o in report.observed)


def test_overlap_half_matches_chernoff_prediction():
    # for opposite perturbations the overlap minimum sits at s = 1/2, so the
    # two checks share one quadratic form
    rng = np.random.default_rng(3)
    rho0 = random_density(rng, 3, mix=0.3)
    x = random_traceless_hermitian(rng, 3, 0.5)
    chern = check_chernoff_expansion(rho0, x, -x)
    over = check_overlap_expansion(rho0, x, -x, 0.5)
    assert chern.predicted == pytest.approx(over.predicted, rel=1e-12)
    assert chern.fitted_order >= 0.9 and over.fitted_order >= 0.9


def test_overlap_validates_s():
    with pytest.raises(ValidationError):
        check_overlap_expansion(FLAT2, PAULI_X / 4, -PAULI_X / 4, 1.0)


def test_quadratic_assumption_holevo_flat_center():
    rng = np.random.default_rng(4)
    n = 3
    directions = random_mean_zero_directions(rng, 2, n, 0.4)
    prior = np.full(n, 1.0 / n)

    def evaluator(states):
        return holevo_information(prior, states)

    report = check_quadratic_assumption(evaluator, FLAT2, directions, BKM, (n - 1) / n**2, 0.0)
    assert report.fitted_order >= 0.9
    assert report.ratio_errors[-1] <= 0.02


def test_quadratic_assumption_pairwise_affinity():
    rng = np.random.default_rng(5)
    n = 3
    directions = random_mean_zero_directions(rng, 2, n, 0.4)

    def evaluator(states):
        total = sum(overlap(states[i], states[j], 0.5) for i in range(n) for j in range(n) if i != j)
        return -total / (n * (n - 1))

    report = check_quadratic_assumption(evaluator, FLAT2, directions, wyd(0.5), 1.0 / (2 * n), -1.0)
    assert report.fitted_order >= 0.9
    assert report.ratio_errors[-1] <= 0.02


def test_quadratic_assumption_zero_directions():
    prior = np.full(3, 1.0 / 3.0)
    zero = [np.zeros((2, 2))] * 3
    value = holevo_information(prior, [FLAT2 + z for z in zero])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_quadratic_assumption_rejects_biased_directions():
    rng = np.random.default_rng(6)
    x = random_traceless_hermitian(rng, 2, 0.3)
    with pytest.raises(ValidationError):
        check_quadratic_assumption(lambda s: 0.0, FLAT2, [x, x, x], BKM, 0.2, 0.0)
    with pytest.raises(ValidationError, match="at least two directions"):
        check_quadratic_assumption(lambda s: 0.0, FLAT2, [np.zeros((2, 2))], BKM, 0.2, 0.0)


def test_default_grid_is_decreasing():
    assert all(a > b for a, b in zip(DEFAULT_T_GRID, DEFAULT_T_GRID[1:]))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_expansion_suite_passes(seed):
    for report in expansion_suite(seed):
        assert report.fitted_order >= 0.9, report.name
        assert report.ratio_error_at(1e-2) <= 0.02, report.name


def test_scalar_selftests_pass():
    checks = scalar_selftests()
    assert all(c.passed for c in checks)
    assert sum(c.instances for c in checks) >= 3000
    names = {c.name for c in checks}
    assert names == {"xlogx_quadratic_lower", "xlogx_eighth_upper", "posterior_divergence_order"}


def test_scalar_inequality_hand_values():
    # L(1.5) + L(0.5) = 0.2616... > 0.25
    lhs = xlogx(1.5) + xlogx(0.5)
    assert lhs == pytest.approx(0.261624, abs=1e-6)
    assert lhs > 0.25
    # the eighth-power bound at small t: both sides vanish
    t = 1e-6
    big_t = xlogx(t + 1.0) / t
    assert big_t - 1.0 - math.log(big_t) < t * t / 8.0


def test_posterior_ordering_equality_at_half():
    # u = 1/2 makes both outputs symmetric, so the divergences coincide
    from qldp.metrics import classical_f_divergence

    u, epsilon = 0.5, 1.0
    grow = math.exp(epsilon)
    prior = np.array([1.0 - u, u])
    z0 = (1.0 - u) * (grow - 1.0) + 1.0
    z1 = u * (grow - 1.0) + 1.0
    post0 = np.array([(1.0 - u) * grow, u]) / z0
    post1 = np.array([1.0 - u, u * grow]) / z1
    for f in (KL, SQUARE, SQUARED_DIFF):
        assert classical_f_divergence(post1, prior, f) == pytest.approx(
            classical_f_divergence(post0, prior, f), abs=1e-14
        )
