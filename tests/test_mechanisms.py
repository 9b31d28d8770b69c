import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qldp import mechanisms
from qldp.errors import MAX_EPSILON, PrivacyViolationError, SupportMismatchError, ValidationError
from qldp.exponents import boundary_mu
from qldp.frames import FusionFrame, build_eitff
from qldp.linalg import (
    State,
    as_matrix,
    is_psd,
    min_eigenvalues,
    operator_norm,
    validate_densities,
    validate_density,
)
from qldp.mechanisms import (
    AUDIT_TOL,
    LdpMechanism,
    QldpMechanism,
    admissible_mu_interval,
    audit_ldp,
    audit_qldp,
    binary_mechanism,
    POVM_TOL,
    _induced_stack,
    induced_mechanism,
    isoclinic_mechanism,
    ldp_level,
    load_mechanism,
    mechanism_from_json,
    mechanism_to_json,
    qldp_level,
    qldp_levels,
    save_mechanism,
    sigma_star,
    subset_mechanism,
    tilde_family,
)
from qldp.metrics import holevo_information
from qldp.sampling import random_povm

import oracles


def test_isoclinic_reduces_to_randomized_response():
    # two orthogonal projections: the states commute and carry the classical
    # randomized-response distribution (3/4, 1/4) at eps = ln 3
    frame = build_eitff(2)
    epsilon = math.log(3.0)
    mech = isoclinic_mechanism(frame, epsilon)
    grow = 3.0
    for p, sigma in zip(frame.projections, mech.states):
        expected = (np.eye(2) + (grow - 1.0) * p) / (1.0 * grow + 2 - 1)
        assert operator_norm(sigma - expected) <= 1e-12
        assert np.allclose(np.sort(np.linalg.eigvalsh(sigma)), [0.25, 0.75])


def test_sigma_star_two_inputs_mixing_weight():
    # 1 - mu = tanh(eps/2); at eps = ln 3 this is 1/2, matching the classical
    # randomized-response reduction above
    epsilon = math.log(3.0)
    frame = build_eitff(2)
    mu_lo, _ = admissible_mu_interval(frame, epsilon)
    assert 1.0 - mu_lo == pytest.approx(math.tanh(epsilon / 2.0), abs=1e-12)
    assert 1.0 - mu_lo == pytest.approx(0.5, abs=1e-12)


def test_isoclinic_full_noise_gives_flat_states():
    frame = build_eitff(4)
    mech = isoclinic_mechanism(frame, 1.0, mu=1.0)
    for sigma in mech.states:
        assert operator_norm(sigma - np.eye(frame.d) / frame.d) <= 1e-12


def test_default_mu_saturates_privacy():
    frame = build_eitff(3)
    mech = isoclinic_mechanism(frame, 1.0)
    assert qldp_level(mech.states) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_boundary_exactness(n, epsilon):
    mech = sigma_star(n, epsilon)
    assert qldp_level(mech.states) == pytest.approx(epsilon, abs=1e-9)


@pytest.mark.parametrize("n", [3, 8, 12])
@pytest.mark.parametrize("epsilon", [1e-4, 12.0])
def test_boundary_exactness_at_extreme_epsilon(n, epsilon):
    # near-flat states at 1e-4; at 12 the smallest eigenvalue is ~1e-7 (n = 12, d = 32)
    assert qldp_level(sigma_star(n, epsilon)) == pytest.approx(epsilon, rel=1e-10, abs=0.0)


def test_boundary_exactness_spot_value():
    assert qldp_level(sigma_star(4, 0.3).states) == pytest.approx(0.3, abs=1e-9)


def test_sigma_star_uses_half_dimension_frame():
    mech = sigma_star(10, 0.5)
    assert mech.dim == 16
    assert mech.n == 10


def test_qldp_level_examples():
    flat = np.eye(2) / 2
    assert qldp_level([flat, flat]) == pytest.approx(0.0, abs=1e-12)
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    assert qldp_level([a, b]) == pytest.approx(math.log(3.0), abs=1e-12)


def test_qldp_level_rejects_rank_deficiency():
    with pytest.raises(SupportMismatchError, match="mechanism states must be full rank"):
        qldp_level([np.diag([1.0, 0.0]), np.eye(2) / 2])


@pytest.mark.parametrize("n", [3, 5, 7])  # d = 2, 4, 8
@pytest.mark.parametrize("epsilon", [1e-12, 1e-8, 1e-4, 0.1, 1.0, 5.0])
def test_qldp_level_matches_the_oracle_of_the_stored_states(n, epsilon):
    # the ratio form log(lambda_max(...)) kept only absolute accuracy: 2e-3 relative at n = 7, eps = 1e-12
    mech = sigma_star(n, epsilon)
    assert mech.level == pytest.approx(oracles.qldp_level(mech.states), rel=1e-14, abs=0.0)


# sha256 of the lines f"{n} {eps!r} {level.hex()}" of qldp_level(sigma_star(n, eps)) over n = 2..14 and
# LEVEL_GRID_EPS, taken when every stack of the level also held the zero matrix x' = x
LEVEL_GRID_EPS = [1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
LEVEL_GRID_SHA256 = "53da8e5b1ab3ec976829d35bead048dd3b95f8a6469303ce17d86e3b0ead8041"


def test_qldp_level_is_unchanged_without_the_self_pair():
    lines = "".join(
        f"{n} {eps!r} {qldp_level(sigma_star(n, eps)).hex()}\n" for n in range(2, 15) for eps in LEVEL_GRID_EPS
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == LEVEL_GRID_SHA256


@pytest.mark.parametrize("epsilon", [1e-12, 1e-4, 1.0, 5.0, 100.0, MAX_EPSILON])
@pytest.mark.parametrize("build", [lambda e: binary_mechanism(5, e), lambda e: subset_mechanism(5, 2, e)],
                         ids=["binary", "subset"])
def test_ldp_level_matches_the_oracle_of_the_stored_columns(build, epsilon):
    mech = build(epsilon)
    assert mech.level == pytest.approx(oracles.ldp_level(mech.q), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("epsilon", [1e-160, 1e-300, 5e-324])
def test_identical_states_have_level_exactly_zero(epsilon):
    # every state is exactly I/2 here; the ratio form read 2.2e-16
    assert sigma_star(3, epsilon).level == 0.0
    state = np.diag([0.3, 0.7]).astype(complex)
    assert qldp_level([state, state, state]) == 0.0
    assert ldp_level(np.tile([[0.2], [0.3], [0.5]], 4)) == 0.0


def test_ldp_level_examples():
    assert ldp_level(np.full((2, 2), 0.5)) == 0.0
    # an output no input reaches constrains nothing
    assert ldp_level(np.array([[0.0, 0.0], [0.25, 0.75], [0.75, 0.25]])) == pytest.approx(math.log(3.0), abs=1e-15)
    assert ldp_level(binary_mechanism(3, 1.0)) == pytest.approx(1.0, abs=1e-12)
    rr = binary_mechanism(2, math.log(3.0))
    assert ldp_level(rr) == pytest.approx(math.log(3.0), abs=1e-12)


def test_ldp_level_support_mismatch():
    q = np.array([[1.0, 0.5], [0.0, 0.5]])
    with pytest.raises(SupportMismatchError):
        ldp_level(q)
    assert audit_ldp(q, 1.0) is False


@pytest.mark.parametrize(
    "q",
    [np.array([[0.5, math.nan], [0.5, 0.5]]), np.array([0.5, 0.5]), np.array([[1.5, 0.5], [-0.5, 0.5]])],
    ids=["nan", "1-d", "negative"],
)
def test_ldp_level_rejects_what_ldp_mechanism_rejects(q):
    # both used to read as level 0, and the NaN matrix passed audit_ldp at eps = 1
    with pytest.raises(ValidationError):
        LdpMechanism(q=q, epsilon=1.0)
    with pytest.raises(ValidationError):
        ldp_level(q)
    with pytest.raises(ValidationError):
        audit_ldp(q, 1.0)


def test_raw_states_of_mixed_dimensions_are_rejected():
    # these used to reach numpy as a matmul or broadcast error
    states = [np.eye(2) / 2, np.eye(3) / 3]
    with pytest.raises(ValidationError, match=r"matrix 1 has shape \(3, 3\), matrix 0 has \(2, 2\)"):
        qldp_level(states)
    with pytest.raises(ValidationError, match=r"matrix 1 has shape \(3, 3\), matrix 0 has \(2, 2\)"):
        audit_qldp(states, 1.0)


def test_raw_families_of_fewer_than_two_states_are_rejected():
    # qldp_level used to return 0.0 for these and audit_qldp([], eps) True
    for states in ([], [np.eye(2) / 2]):
        with pytest.raises(ValidationError, match="at least 2 states"):
            qldp_level(states)
        with pytest.raises(ValidationError, match="at least 2 states"):
            audit_qldp(states, 1.0)


def _mixed_batch() -> list:
    """sigma_star for n = 2..14 (d = 2 to 64), mixed families of some of them, and raw lists of states."""
    rng = np.random.default_rng(11)
    batch = [sigma_star(n, eps) for n, eps in zip(range(2, 15), itertools.cycle([0.3, 1e-4, 2.0, 0.05]))]
    batch += [tilde_family(batch[k], eta) for k, eta in ((0, 0.4), (3, 0.9), (6, 0.2), (12, 0.7))]
    batch += [list(sigma_star(5, 0.8).states), [np.diag([0.75, 0.25]), np.diag([0.25, 0.75]), np.eye(2) / 2]]
    return [batch[k] for k in rng.permutation(len(batch))]


def _per_x_level(states) -> float:
    """The level as one family was read before levels were stacked: one eigvalsh per x over every x' != x."""
    mats = np.array(states, dtype=complex)
    factor = mats.astype(np.clongdouble)
    for j in range(factor.shape[-1]):
        row = factor[:, j, :j]
        factor[:, j, j] = np.sqrt(factor[:, j, j].real - np.sum(row * row.conj(), axis=-1).real)
        factor[:, j + 1 :, j] -= (factor[:, j + 1 :, :j] @ row.conj()[..., None])[..., 0]
        factor[:, j + 1 :, j] /= factor[:, j, j, None]
        factor[:, j, j + 1 :] = 0.0
    level = 0.0
    for x, inv in enumerate(np.linalg.inv(factor.astype(complex))):
        sims = inv @ (np.delete(mats, x, 0) - mats[x]) @ inv.conj().T
        lam_max = np.linalg.eigvalsh(0.5 * (sims + sims.conj().swapaxes(1, 2)))[:, -1]
        level = max(level, float(np.log1p(lam_max).max()))
    return level


def test_qldp_levels_match_the_level_of_each_family_alone():
    batch = _mixed_batch()
    assert {len(f.states) if isinstance(f, QldpMechanism) else len(f) for f in batch} >= set(range(2, 15))
    alone = [qldp_level(f).hex() for f in batch]
    assert alone == [_per_x_level(f.states if isinstance(f, QldpMechanism) else f).hex() for f in batch]
    assert [v.hex() for v in qldp_levels(batch)] == alone
    assert [v.hex() for v in qldp_levels(batch[::-1])] == alone[::-1]


def test_qldp_levels_do_not_depend_on_where_the_pair_blocks_split(monkeypatch):
    for n in range(2, 15):  # the pair order every block split keeps
        assert mechanisms._ordered_pairs(n).T.tolist() == [list(pair) for pair in itertools.permutations(range(n), 2)]
    batch = _mixed_batch()
    levels = qldp_levels(batch)
    expected = [v.hex() for v in levels]

    def verdicts():
        return [audit_qldp(f, eps) for f, level in zip(batch, levels) for eps in (level, 0.9 * level)]

    audited = verdicts()
    assert True in audited and False in audited
    for entries in (1, 40, 100):  # 1 pair a block, then blocks that split families of d = 2 and 4
        monkeypatch.setattr(mechanisms, "PAIR_BLOCK_ENTRIES", entries)
        assert [v.hex() for v in qldp_levels(batch)] == expected
        assert verdicts() == audited


def test_qldp_levels_raise_what_the_first_bad_family_raises_alone():
    deficient = [np.diag([1.0, 0.0]), np.eye(2) / 2]
    with pytest.raises(SupportMismatchError) as alone:
        qldp_level(deficient)
    with pytest.raises(SupportMismatchError) as batched:
        qldp_levels([sigma_star(3, 1.0), deficient, [np.eye(2) / 2]])
    assert str(batched.value) == str(alone.value)


def test_the_level_stacks_no_more_pairs_than_the_block_budget(monkeypatch):
    # the per-x stack this replaced held n - 1 = 13 pairs at d = 64; audit's peak memory must not grow past it
    mech = sigma_star(14, 0.5)
    shapes = []
    original = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    assert qldp_level(mech) == pytest.approx(0.5, abs=1e-9)
    assert audit_qldp(mech, 0.6)  # passes, so every pair is audited
    assert sum(shape[0] for shape in shapes) == 2 * 14 * 13
    assert all(shape[1:] == (64, 64) and shape[0] <= 13 for shape in shapes)
    assert all(math.prod(shape) <= mechanisms.PAIR_BLOCK_ENTRIES for shape in shapes)


def test_admissible_interval_matches_commuting_formula():
    # with n = d/r the states commute and the interval is
    # n/(n-1+e^eps) <= mu <= n/(n-1+e^-eps)
    frame = build_eitff(2)
    for epsilon in (0.3, 1.0, 2.5):
        lo, hi = admissible_mu_interval(frame, epsilon)
        assert lo == pytest.approx(2.0 / (1.0 + math.exp(epsilon)), rel=1e-12)
        assert hi == pytest.approx(2.0 / (1.0 + math.exp(-epsilon)), rel=1e-12)


def test_mu_one_inside_interval():
    for n in (2, 4, 7):
        frame = build_eitff(n)
        lo, hi = admissible_mu_interval(frame, 0.7)
        assert lo < 1.0 < hi


def test_default_mu_equals_independent_formula():
    # the interval endpoint agrees with the directly coded mixing-weight formula
    frame = build_eitff(3)
    lo, _ = admissible_mu_interval(frame, 1.0)
    assert lo == pytest.approx(boundary_mu(frame.r / frame.d, frame.c, 1.0), abs=1e-12)


def test_interval_audit_pass_inside_fail_outside():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        frame = build_eitff(n)
        for epsilon in (0.5, 1.5):
            lo, hi = admissible_mu_interval(frame, epsilon)
            for _ in range(100):
                mu = float(rng.uniform(lo, hi))
                mech = isoclinic_mechanism(frame, epsilon, mu=mu)
                assert audit_qldp(mech.states, epsilon)
            for mu_bad in (lo - 1e-4, hi + 1e-4):
                states = [
                    (mu_bad / frame.d) * np.eye(frame.d) + ((1 - mu_bad) / frame.r) * p
                    for p in frame.projections
                ]
                assert not audit_qldp(states, epsilon)


def test_isoclinic_rejects_mu_outside_interval():
    frame = build_eitff(3)
    lo, hi = admissible_mu_interval(frame, 1.0)
    with pytest.raises(PrivacyViolationError):
        isoclinic_mechanism(frame, 1.0, mu=lo - 1e-3)
    with pytest.raises(PrivacyViolationError):
        isoclinic_mechanism(frame, 1.0, mu=hi + 1e-3)


def test_jordan_eigenvalues_orthogonal_pair():
    # e^eps P1 - P2 for orthogonal rank-1 projections (c = 0) in dim 2 at eps = ln 3
    # has spectrum {3, -1}
    lam_plus, lam_minus = oracles.isoclinic_pair_spectrum(0.0, math.log(3.0))
    assert lam_plus == pytest.approx(3.0, abs=1e-12)
    assert lam_minus == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6, 10])
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_jordan_eigenvalues_match_dense_extremes(n, epsilon):
    frame = build_eitff(n)
    grow = math.exp(epsilon)
    lam_plus, lam_minus = oracles.isoclinic_pair_spectrum(frame.c, epsilon)
    assert lam_minus < 0.0 < grow - 1.0 < lam_plus
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dense = np.linalg.eigvalsh(grow * frame.projections[i] - frame.projections[j])
            assert lam_plus == pytest.approx(dense[-1], abs=1e-10)
            assert lam_minus == pytest.approx(dense[0], abs=1e-10)


def test_binary_mechanism_columns():
    epsilon = 0.8
    grow = math.exp(epsilon)
    mech = binary_mechanism(3, epsilon)
    assert np.allclose(mech.members[0], [grow / (grow + 1), 1 / (grow + 1)])
    for x in (1, 2):
        assert np.allclose(mech.members[x], [1 / (grow + 1), grow / (grow + 1)])
    assert ldp_level(mech) == pytest.approx(epsilon, abs=1e-12)


def test_binary_mechanism_two_inputs_is_randomized_response():
    mech = binary_mechanism(2, math.log(3.0))
    assert np.allclose(mech.q, [[0.75, 0.25], [0.25, 0.75]])


def test_binary_mechanism_custom_split():
    mech = binary_mechanism(4, 1.0, split=(1, 4))
    grow = math.exp(1.0)
    assert np.allclose(mech.members[3], [grow / (grow + 1), 1 / (grow + 1)])
    with pytest.raises(ValidationError):
        binary_mechanism(4, 1.0, split=(0, 9))


def test_subset_mechanism_examples():
    assert np.allclose(subset_mechanism(2, 1, math.log(3.0)).q, [[0.75, 0.25], [0.25, 0.75]])
    epsilon = 0.9
    grow = math.exp(epsilon)
    mech = subset_mechanism(3, 1, epsilon)
    assert mech.n_outputs == 3
    for x in range(3):
        col = mech.members[x]
        assert col[x] == pytest.approx(grow / (grow + 2.0), rel=1e-12)
        assert col.sum() == pytest.approx(1.0, abs=1e-12)
    assert ldp_level(mech) == pytest.approx(epsilon, abs=1e-12)


@pytest.mark.parametrize("n,k", [(3, 3), (3, 0), (5, 5), (5, 6)])
def test_subset_mechanism_rejects_sizes_outside_one_to_n_minus_one(n, k):
    with pytest.raises(ValidationError, match="subset size must lie in"):
        subset_mechanism(n, k, 1.0)


def test_subset_mechanism_lexicographic_outputs():
    mech = subset_mechanism(4, 2, 1.0)
    assert mech.n_outputs == 6
    grow = math.exp(1.0)
    z = 3 * grow + 3
    # first subset in lexicographic order is {1, 2}
    assert np.allclose(mech.q[0], [grow / z, grow / z, 1 / z, 1 / z])


@pytest.mark.parametrize("n", range(2, 10))
def test_subset_mechanism_where_z_overflows(n):
    # Z = C(n-1, k-1) e^eps + C(n-1, k) is inf here once an input lies in two blocks
    epsilon = 709.7
    for k in range(1, n):
        mech = subset_mechanism(n, k, epsilon)
        assert ldp_level(mech) == epsilon
        assert audit_ldp(mech, epsilon)


@pytest.mark.parametrize("n", range(2, 10))
def test_subset_mechanism_audits_at_max_epsilon(n):
    # at (9, 5) the smallest entry is subnormal and top / bot used to overflow to inf
    for k in range(1, n):
        mech = subset_mechanism(n, k, MAX_EPSILON)
        assert ldp_level(mech) == pytest.approx(MAX_EPSILON, abs=1e-10)
        assert audit_ldp(mech, MAX_EPSILON)


def test_tilde_family_identity_at_eta_one():
    mech = sigma_star(3, 1.0)
    mixed = tilde_family(mech, 1.0)
    for a, b in zip(mech.states, mixed.states):
        assert operator_norm(a - b) <= 1e-14


def test_tilde_family_collapses_at_small_eta():
    mech = sigma_star(3, 1.0)
    mixed = tilde_family(mech, 1e-6)
    assert qldp_level(mixed.states) <= 1e-5
    avg = mech.average.matrix
    for s in mixed.states:
        assert operator_norm(s - avg) <= 1e-5


def test_tilde_family_matches_remixed_weight():
    # mixing sigma* toward its average only moves the noise weight:
    # mu -> eta mu + 1 - eta
    epsilon, eta = 1.2, 0.4
    frame = build_eitff(4)
    mech = isoclinic_mechanism(frame, epsilon)
    mu, _ = admissible_mu_interval(frame, epsilon)
    mixed = tilde_family(mech, eta)
    mu_eta = eta * mu + 1.0 - eta
    for p, s in zip(frame.projections, mixed.states):
        expected = (mu_eta / frame.d) * np.eye(frame.d) + ((1.0 - mu_eta) / frame.r) * p
        assert operator_norm(s - expected) <= 1e-12


def test_tilde_family_classical():
    mech = binary_mechanism(3, 1.0)
    mixed = tilde_family(mech, 0.5)
    avg = mech.q.mean(axis=1, keepdims=True)
    assert np.allclose(mixed.q, 0.5 * mech.q + 0.5 * avg)
    with pytest.raises(ValidationError, match="expected an LdpMechanism or QldpMechanism"):
        tilde_family(mech.q, 0.5)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    epsilon=st.floats(1e-3, 5.0),
    eta=st.floats(0.0, 1.0, exclude_min=True),
)
def test_tilde_family_keeps_the_declared_level(n, epsilon, eta):
    # rho~_{x'} <= eta e^eps rho_x + (1 - eta) rho_avg <= e^eps rho~_x
    for mech, audit in ((sigma_star(n, epsilon), audit_qldp), (binary_mechanism(n, epsilon), audit_ldp)):
        mixed = tilde_family(mech, eta)
        assert mixed.epsilon == mech.epsilon
        assert audit(mixed, mixed.epsilon)


def test_measurement_reduction_inequality():
    rng = np.random.default_rng(6)
    mech = sigma_star(3, 1.0)
    level = qldp_level(mech.states)
    for k in (2, 3, 4):
        induced = induced_mechanism(mech, random_povm(rng, mech.dim, k))
        assert ldp_level(induced) <= level + 1e-9


def test_induced_mechanism_rejects_non_psd_element():
    mech = sigma_star(3, 1.0)  # dim 2
    povm = [np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]  # sums to I
    with pytest.raises(ValidationError):
        induced_mechanism(mech, povm)


def test_induced_mechanism_rejects_a_bad_element_as_a_check_of_it_alone():
    mech = sigma_star(3, 1.0)  # dim 2
    skew = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ValidationError) as alone:
        is_psd(skew)
    with pytest.raises(ValidationError) as stacked:
        induced_mechanism(mech, [np.eye(2) / 2, skew, np.eye(2) / 2 - skew])
    assert str(stacked.value) == str(alone.value) and "not Hermitian" in str(alone.value)
    with pytest.raises(ValidationError, match="measurement elements must be positive semi-definite"):
        induced_mechanism(mech, [np.eye(2) / 2, np.diag([1.0, -0.25]), np.diag([-0.5, 0.75])])


def test_induced_mechanism_rejects_elements_of_different_shapes():
    with pytest.raises(ValidationError, match=r"matrix 1 has shape \(3, 3\), matrix 0 has \(2, 2\)"):
        induced_mechanism(sigma_star(3, 1.0), [np.eye(2) / 2, np.eye(3) / 2])


@pytest.mark.parametrize(
    "povm,message",
    [([np.eye(3) / 2, np.eye(3) / 2], "dimension mismatch"), ([np.eye(2) / 2, np.eye(2) / 4], "sum to the identity")],
    ids=["wrong-dim", "not-identity"],
)
def test_induced_mechanism_rejects_an_incomplete_measurement(povm, message):
    with pytest.raises(ValidationError, match=message):
        induced_mechanism(sigma_star(3, 1.0), povm)  # dim 2


def test_induced_mechanism_rejects_a_classical_mechanism():
    with pytest.raises(ValidationError, match="expected a QldpMechanism"):
        induced_mechanism(binary_mechanism(3, 1.0), [np.eye(2) / 2, np.eye(2) / 2])


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: audit_qldp(binary_mechanism(3, 1.0), 1.0), "expected a QldpMechanism"),
        (lambda: qldp_level(binary_mechanism(3, 1.0)), "expected a QldpMechanism"),
        (lambda: qldp_levels([sigma_star(3, 1.0), binary_mechanism(3, 1.0)]), "expected a QldpMechanism"),
        (lambda: audit_ldp(sigma_star(3, 1.0), 1.0), "expected an LdpMechanism"),
        (lambda: ldp_level(sigma_star(3, 1.0)), "expected an LdpMechanism"),
        (lambda: induced_mechanism(sigma_star(3, 1.0), 3), "expected a measurement: a sequence of matrices"),
    ],
    ids=["audit_qldp", "qldp_level", "qldp_levels", "audit_ldp", "ldp_level", "induced_mechanism"],
)
def test_a_mechanism_or_measurement_of_the_wrong_kind_is_a_validation_error(call, expected):
    with pytest.raises(ValidationError, match=f"^{expected}$"):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: QldpMechanism(states=5, epsilon=1.0), "matrices"),
        (lambda: QldpMechanism(states=sigma_star(3, 1.0), epsilon=1.0), "matrices"),
        (lambda: qldp_level(5), "matrices"),
        (lambda: qldp_levels(5), "families"),
        (lambda: audit_qldp(5, 1.0), "matrices"),
        (lambda: validate_densities(5), "matrices"),
        (lambda: holevo_information([1.0], 5), "matrices"),
    ],
    ids=[
        "QldpMechanism",
        "QldpMechanism-of-a-mechanism",
        "qldp_level",
        "qldp_levels",
        "audit_qldp",
        "validate_densities",
        "holevo_information",
    ],
)
def test_a_family_that_is_not_a_sequence_is_a_validation_error(call, expected):
    # each raised TypeError: object is not iterable
    with pytest.raises(ValidationError, match=f"^expected a sequence of {expected}$"):
        call()


def _induced_alone(mech, povm) -> LdpMechanism:
    """induced_mechanism as it was before the batch: every check, then q, for one measurement."""
    elements = [as_matrix(m) for m in povm]
    if not all(lo >= -POVM_TOL for lo in min_eigenvalues(elements)):
        raise ValidationError("measurement elements must be positive semi-definite")
    d = mech.dim
    if any(m.shape[0] != d for m in elements):
        raise ValidationError("measurement dimension mismatch")
    if np.max(np.abs(sum(elements) - np.eye(d))) > POVM_TOL:
        raise ValidationError("measurement elements must sum to the identity")
    stack = np.array(mech.states)
    q = np.array([np.trace(np.matmul(stack, m), axis1=1, axis2=2).real for m in elements])
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=0, keepdims=True)
    return LdpMechanism(q=q, epsilon=mech.epsilon)


def _measured_batch(seed, size=9):
    """Mechanisms of d = 2 and 4 in turn, each with a seeded POVM of 2-4 outcomes."""
    rng = np.random.default_rng(seed)
    pool = (sigma_star(3, 1.0), sigma_star(6, 0.5), isoclinic_mechanism(build_eitff(5), 1.0), sigma_star(2, 0.8))
    mechs = [pool[i % len(pool)] for i in range(size)]
    return mechs, [random_povm(rng, mech.dim, 2 + (i % 3)) for i, mech in enumerate(mechs)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_induced_mechanisms_equal_one_induced_mechanism_per_pair(seed):
    mechs, povms = _measured_batch(seed)
    assert {mech.dim for mech in mechs} == {2, 4} and {len(p) for p in povms} == {2, 3, 4}
    batch = _induced_stack(mechs, povms)
    assert len(batch) == len(mechs)
    for mech, povm, induced in zip(mechs, povms, batch):
        for alone in (induced_mechanism(mech, povm), _induced_alone(mech, povm)):
            assert np.array_equal(induced.q, alone.q) and induced.epsilon == alone.epsilon == mech.epsilon
    assert _induced_stack([], []) == []


SKEW = np.array([[0.5, 0.1], [0.0, 0.5]])
# One bad (mechanism, POVM) pair per check of induced_mechanism, each a QLDP mechanism of d = 2 but the first.
BAD_PAIRS = {
    "classical": (binary_mechanism(3, 1.0), [np.eye(2) / 2, np.eye(2) / 2]),
    "coercion": (sigma_star(3, 1.0), [np.eye(2) / 2, np.full((2, 2), np.nan)]),
    "shape": (sigma_star(3, 1.0), [np.eye(2) / 2, np.eye(3) / 2]),
    "hermitian": (sigma_star(3, 1.0), [np.eye(2) / 2, SKEW, np.eye(2) / 2 - SKEW]),
    "psd": (sigma_star(3, 1.0), [np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]),
    "dimension": (sigma_star(3, 1.0), [np.eye(3) / 2, np.eye(3) / 2]),
    "sum": (sigma_star(3, 1.0), [np.eye(2) / 2, np.eye(2) / 4]),
    "sum-d4": (sigma_star(6, 0.5), [np.eye(4) / 2, np.eye(4) / 4]),
}


BAD_PAIR_ERRORS = {
    "classical": "expected a QldpMechanism",
    "coercion": "matrix has non-finite entries",
    "shape": "matrix 1 has shape (3, 3), matrix 0 has (2, 2)",
    "hermitian": "matrix is not Hermitian: deviation 1.000e-01",
    "psd": "measurement elements must be positive semi-definite",
    "dimension": "measurement dimension mismatch",
    "sum": "measurement elements must sum to the identity",
    "sum-d4": "measurement elements must sum to the identity",
}


@pytest.mark.parametrize("name, message", list(BAD_PAIR_ERRORS.items()), ids=list(BAD_PAIR_ERRORS))
def test_induced_mechanism_raises_the_fault_of_its_bad_pair(name, message):
    with pytest.raises(ValidationError) as raised:
        induced_mechanism(*BAD_PAIRS[name])
    assert type(raised.value) is ValidationError and str(raised.value) == message


@pytest.mark.parametrize("position", [1, 3], ids=["second", "fourth"])
@pytest.mark.parametrize("name", list(BAD_PAIRS))
def test_a_bad_pair_anywhere_in_the_stack_is_a_validation_error(name, position):
    # the bad pair replaces pair 1 (d = 4) or pair 3 (d = 2) of a batch that passes
    mechs, povms = _measured_batch(4, 5)
    assert len(_induced_stack(mechs, povms)) == 5
    mechs[position], povms[position] = BAD_PAIRS[name]
    with pytest.raises(ValidationError):
        _induced_stack(mechs, povms)


# Where the stack finds each bad pair's fault: 0 in its pair's kind and coercion check, 1 in its dimension's stacked
# eigvalsh (shape, Hermitian), 2 in its pair's positivity, dimension and sum check.  Every row of phase 1 is d = 2,
# and among its d = 2 elements the 3x3 one of "dimension" is a shape fault, as that of "shape" is.
STACK_PHASE = {"classical": 0, "coercion": 0, "shape": 1, "hermitian": 1, "dimension": 1, "psd": 2, "sum": 2, "sum-d4": 2}


@pytest.mark.parametrize("first, second", list(itertools.permutations(BAD_PAIRS, 2)))
def test_a_batch_raises_the_fault_its_stack_finds_first(first, second):
    # phase by phase, then in pair order: the d = 2 elements, the only ones of phase 1, are stacked first
    mechs, povms = _measured_batch(4, 5)
    bad = {1: first, 3: second}
    for position, name in bad.items():
        mechs[position], povms[position] = BAD_PAIRS[name]
    position, name = min(bad.items(), key=lambda item: (STACK_PHASE[item[1]], item[0]))
    message = BAD_PAIR_ERRORS[name]
    if name in ("shape", "dimension"):
        # its first 3x3 element, counted among the d = 2 elements of the batch
        k = sum(len(povms[i]) for i in range(position) if mechs[i].dim == 2)
        k += [np.shape(m) for m in povms[position]].index((3, 3))
        message = f"matrix {k} has shape (3, 3), matrix 0 has (2, 2)"
    with pytest.raises(ValidationError) as raised:
        _induced_stack(mechs, povms)
    assert type(raised.value) is ValidationError and str(raised.value) == message


def test_a_mechanism_keeps_its_arrays_when_the_caller_writes_to_its_own():
    rho, sigma = np.diag([0.6, 0.4]).astype(complex), np.diag([0.4, 0.6]).astype(complex)
    q = np.array([[0.6, 0.4], [0.4, 0.6]])
    quantum, classical = QldpMechanism(states=(rho, sigma), epsilon=1.0), LdpMechanism(q=q, epsilon=1.0)
    levels = (quantum.level, classical.level)
    assert levels == (qldp_level(quantum), ldp_level(classical)) and math.isclose(levels[0], math.log(1.5))
    rho[:] = np.diag([0.99, 0.01])
    q[:] = [[0.99, 0.01], [0.01, 0.99]]
    assert np.array_equal(quantum.states[0], np.diag([0.6, 0.4])) and np.array_equal(quantum.states[1], sigma)
    assert np.array_equal(classical.q, [[0.6, 0.4], [0.4, 0.6]])
    assert (qldp_level(quantum), ldp_level(classical)) == levels
    assert audit_qldp(quantum, 1.0) and audit_ldp(classical, 1.0)
    for write in (
        lambda: quantum.states[0].__setitem__((0, 0), 0.5),
        lambda: quantum.members[0].eigenvalues.__setitem__(0, 0.5),
        lambda: quantum.members[0].eigenvectors.__setitem__((0, 0), 0.5),
        lambda: classical.q.__setitem__((0, 0), 0.5),
    ):
        with pytest.raises(ValueError, match="read-only"):
            write()


def test_a_mechanism_average_is_read_only():
    mech = sigma_star(3, 1.0)
    average = mech.average
    for array in (average.matrix, average.eigenvalues, average.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    assert mech.average is average and np.array_equal(average.matrix, sum(mech.states) / 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sigma_star(3, 1.0),
        lambda: binary_mechanism(3, 1.0),
        lambda: validate_density(np.eye(2) / 2),
        lambda: FusionFrame(build_eitff(3).projections),
    ],
    ids=["QldpMechanism", "LdpMechanism", "State", "FusionFrame"],
)
def test_records_that_hold_arrays_compare_and_hash_by_identity(make):
    # the generated __eq__ compared the arrays: == and `in` raised ValueError, and hash raised TypeError
    a, b = make(), make()
    assert a == a and a != b and (a in [b]) is False and (a in [b, a]) is True
    assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("mech", [sigma_star(3, 1.0), binary_mechanism(3, 1.0)], ids=["qldp", "ldp"])
def test_mechanism_reads_its_kind_sizes_level_and_average(mech):
    obj = mechanism_to_json(mech)
    assert obj["kind"] == mech.kind and {key: obj[key] for key in mech.sizes} == mech.sizes
    level = qldp_level(mech.states) if mech.kind == "qldp" else ldp_level(mech.q)
    assert float.hex(mech.level) == float.hex(level)
    assert mech.level is mech.level  # computed once, then kept
    if mech.kind == "qldp":
        assert isinstance(mech.average, State) and mech.average is mech.average
        assert np.array_equal(mech.average.matrix, sum(mech.states) / mech.n)


def test_mechanism_json_roundtrip_qldp(tmp_path):
    mech = sigma_star(4, 0.7)
    obj = mechanism_to_json(mech)
    assert obj["kind"] == "qldp" and obj["n"] == 4 and obj["dim"] == 2
    back = mechanism_from_json(obj)
    for a, b in zip(mech.states, back.states):
        assert operator_norm(a - b) <= 1e-15
    path = tmp_path / "m.json"
    save_mechanism(mech, path)
    loaded = load_mechanism(path)
    assert loaded.epsilon == mech.epsilon
    assert all(np.array_equal(a, b) for a, b in zip(loaded.states, mech.states))


def test_mechanism_json_roundtrip_ldp():
    mech = subset_mechanism(4, 2, 1.1)
    obj = mechanism_to_json(mech)
    assert obj["kind"] == "ldp" and obj["outputs"] == 6
    assert len(obj["q"]) == 4  # column-major: one list per input
    back = mechanism_from_json(obj)
    assert np.allclose(back.q, mech.q)
    with pytest.raises(ValidationError, match="expected an LdpMechanism or QldpMechanism"):
        mechanism_to_json(mech.q)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["sigma-star", "binary", "subset"]),
    n=st.integers(2, 8),
    epsilon=st.floats(1e-3, 5.0),
    data=st.data(),
)
def test_mechanism_json_roundtrip_random(kind, n, epsilon, data):
    if kind == "sigma-star":
        mech = sigma_star(n, epsilon)
    elif kind == "binary":
        mech = binary_mechanism(n, epsilon)
    else:
        mech = subset_mechanism(n, data.draw(st.integers(1, n - 1)), epsilon)
    obj = mechanism_to_json(mech)
    assert mechanism_to_json(mechanism_from_json(json.loads(json.dumps(obj)))) == obj


def test_deserialization_reaudits():
    mech = sigma_star(3, 0.5)
    obj = mechanism_to_json(mech)
    obj["epsilon"] = 0.4  # tighter claim than the states satisfy
    with pytest.raises(PrivacyViolationError):
        mechanism_from_json(obj)
    bad = json.loads(json.dumps(mechanism_to_json(binary_mechanism(3, 1.0))))
    bad["epsilon"] = 0.9
    with pytest.raises(PrivacyViolationError):
        mechanism_from_json(bad)
    bad["kind"] = "quantum"
    with pytest.raises(ValidationError, match="unknown mechanism kind 'quantum'"):
        mechanism_from_json(bad)


def test_load_mechanism_of_a_malformed_file_is_a_validation_error(tmp_path):
    path = tmp_path / "m.json"
    obj = mechanism_to_json(binary_mechanism(3, 1.0))
    del obj["epsilon"]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="malformed .*epsilon"):
        load_mechanism(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="malformed"):
        load_mechanism(path)


def test_qldp_mechanism_validation():
    with pytest.raises(ValidationError):
        QldpMechanism(states=(np.eye(2) / 2,), epsilon=1.0)
    with pytest.raises(ValidationError):
        QldpMechanism(states=(np.eye(2) / 2, np.eye(3) / 3), epsilon=1.0)
    with pytest.raises(ValidationError):
        LdpMechanism(q=np.array([[0.5, 0.6], [0.5, 0.5]]), epsilon=1.0)
    with pytest.raises(SupportMismatchError):
        QldpMechanism(states=(np.eye(2) / 2, np.diag([1.0, 0.0])), epsilon=1.0)


def test_qldp_mechanism_requires_full_rank_states():
    with pytest.raises(SupportMismatchError):
        sigma_star(3, 30.0)  # smallest eigenvalue ~7e-14 < RANK_TOL
    mech = sigma_star(3, 20.0)  # smallest eigenvalue ~1.5e-9
    assert audit_qldp(mech, 20.0)
    assert qldp_level(mech) == pytest.approx(20.0, rel=1e-9)


BAD_EPSILONS = [0.0, -1.0, math.inf, math.nan, 800.0]  # e^800 overflows a double


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
@pytest.mark.parametrize(
    "build",
    [
        lambda e: isoclinic_mechanism(build_eitff(3), e),
        lambda e: sigma_star(3, e),
        lambda e: binary_mechanism(3, e),
        lambda e: subset_mechanism(3, 1, e),
        lambda e: QldpMechanism(states=sigma_star(3, 1.0).states, epsilon=e),
        lambda e: LdpMechanism(q=np.eye(2), epsilon=e),
    ],
    ids=["isoclinic", "sigma_star", "binary", "subset", "QldpMechanism", "LdpMechanism"],
)
def test_constructors_reject_bad_epsilon(build, epsilon):
    with pytest.raises(ValidationError):
        build(epsilon)


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
@pytest.mark.parametrize("mech", [sigma_star(3, 1.0), binary_mechanism(3, 1.0)], ids=["qldp", "ldp"])
def test_deserialization_rejects_bad_declared_epsilon(mech, epsilon):
    # a declared eps = inf used to pass both audits (inf * 0 is NaN in the QLDP one)
    obj = mechanism_to_json(mech)
    obj["epsilon"] = epsilon
    with pytest.raises(ValidationError):
        mechanism_from_json(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("epsilon", [math.inf, math.nan])
def test_audits_reject_non_finite_epsilon(epsilon):
    # both used to return True: e^inf * 0 is NaN, and ln ratio <= inf always holds
    with pytest.raises(ValidationError):
        audit_qldp(sigma_star(3, 1.0).states, epsilon)
    with pytest.raises(ValidationError):
        audit_ldp(binary_mechanism(3, 1.0), epsilon)


def test_audit_qldp_rejects_non_hermitian_states():
    # eigvalsh reads one triangle, so unchecked this pair audits as 0.1-QLDP
    with pytest.raises(ValidationError):
        audit_qldp([np.array([[0.5, 5.0], [0.0, 0.5]]), np.eye(2) / 2], 0.1)


def test_audit_qldp_counts_a_nan_eigenvalue_as_a_failure(monkeypatch):
    mech = sigma_star(3, 1.0)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([math.nan, 1.0]))
    assert not audit_qldp(mech, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ldp_mechanism_rejects_non_finite_q(bad):
    # NaN passes both q < 0 and the column-sum check, so it needs its own test
    with pytest.raises(ValidationError):
        LdpMechanism(q=np.array([[bad, 0.5], [0.5, 0.5]]), epsilon=1.0)


@pytest.mark.parametrize("epsilon", [1e-300, 5e-324])
def test_isoclinic_weights_below_sinh_underflow_take_the_white_noise_limit(epsilon):
    # sinh(eps/2)^2 underflows to 0 below eps ~ 3e-154; both ends of the interval tend to mu = 1
    frame = build_eitff(3)
    assert admissible_mu_interval(frame, epsilon) == (1.0, 1.0)
    assert boundary_mu(frame.r / frame.d, frame.c, epsilon) == 1.0
    mech = sigma_star(3, epsilon)
    assert mech.epsilon == epsilon
    for state in mech.states:
        np.testing.assert_array_equal(state, np.eye(frame.d) / frame.d)


def _count_eigh(monkeypatch) -> dict:
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("n", [2, 5, 9])
def test_qldp_mechanism_decomposes_its_family_in_one_stack(monkeypatch, n):
    states = sigma_star(n, 1.0).states
    counts = _count_eigh(monkeypatch)
    mech = QldpMechanism(states, 1.0)
    assert counts == {"eigh": 1, "eigvalsh": 0}
    for state, member in zip(states, mech.members):
        lam, u = np.linalg.eigh(state)
        assert np.array_equal(member.eigenvalues, lam) and np.array_equal(member.eigenvectors, u)


def test_tilde_family_decomposes_only_the_mixed_family(monkeypatch):
    mech = sigma_star(4, 0.5)
    counts = _count_eigh(monkeypatch)
    mixed = tilde_family(mech, 0.3)
    assert counts == {"eigh": 1, "eigvalsh": 0}
    for state, raw in zip(mixed.states, mech.states):
        assert np.array_equal(state, 0.3 * raw + 0.7 * mech.average.matrix)


def _audit_pair_by_pair(mats, epsilon) -> bool:
    grow = math.exp(epsilon)
    return all(
        np.linalg.eigvalsh(grow * mats[x] - mats[x2])[0] >= -AUDIT_TOL
        for x, x2 in itertools.permutations(range(len(mats)), 2)
    )


@pytest.mark.parametrize("n", range(2, 15))
def test_audit_qldp_verdicts_match_the_pair_by_pair_audit(n):
    for epsilon in (0.05, 0.5, 2.0, 12.0, 15.0):
        mech = sigma_star(n, epsilon)
        # the level is epsilon, so 0.9 epsilon is mis-declared (at eps = 15 the rounding of e^eps rho_x can
        # exceed the absolute AUDIT_TOL at the true level too; the verdicts must agree either way)
        for declared in (epsilon, 0.9 * epsilon):
            expected = _audit_pair_by_pair(mech.states, declared)
            assert not (expected and declared < epsilon)
            assert audit_qldp(mech, declared) == expected
            assert audit_qldp(list(mech.states), declared) == expected


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_audit_qldp_fails_when_one_state_alone_is_too_small(position):
    # e^eps rho_x - rho_x' fails only for x = the odd state: 0.1 e^eps < 0.5 at eps = 1, but 0.5 e^eps >= 0.9
    states = [np.diag([0.5, 0.5]).astype(complex) for _ in range(3)]
    states[position] = np.diag([0.9, 0.1]).astype(complex)
    for epsilon, expected in ((1.0, False), (math.log(5.0) + 1e-9, True)):
        assert _audit_pair_by_pair(states, epsilon) == expected
        assert audit_qldp(states, epsilon) == expected
        assert audit_qldp(QldpMechanism(tuple(states), epsilon), epsilon) == expected
