import json
import math

import numpy as np
import pytest

from qldp.errors import DomainError, SupportMismatchError, ValidationError
from qldp.linalg import (
    as_matrix,
    eigh,
    is_psd,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    min_eigenvalues,
    operator_norm,
    validate_densities,
    validate_density,
    validate_hermitian,
    validate_hermitians,
)
from qldp.mechanisms import QldpMechanism, audit_qldp
from qldp.metrics import depolarize_each
from qldp.sampling import random_density, random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eigh_identity():
    lam, u = eigh(np.eye(2))
    assert np.allclose(lam, [1.0, 1.0])
    assert operator_norm(u.conj().T @ u - np.eye(2)) <= 1e-11


def test_eigh_diagonal():
    lam, _ = eigh(np.diag([0.25, 0.75]))
    assert np.allclose(lam, [0.25, 0.75])


def test_eigh_pauli_x():
    # characteristic polynomial lambda^2 - 1 = 0 by hand
    lam, _ = eigh(PAULI_X)
    assert np.allclose(lam, [-1.0, 1.0])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_rejects_non_square_and_nonfinite():
    with pytest.raises(ValidationError):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        eigh(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_non_contiguous_input_is_checked_like_its_copy():
    # the finiteness check viewed the array as floats, which raised numpy's "last axis must be
    # contiguous" ValueError for a transpose or a reversed view
    rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    for view in (rho.T, rho[::-1, ::-1]):
        assert np.array_equal(validate_density(view).matrix, np.ascontiguousarray(view))
        assert matrix_to_json(view) == matrix_to_json(np.ascontiguousarray(view))
    with pytest.raises(ValidationError, match="non-finite"):
        eigh(np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex).T)


def test_reconstruction_and_unitarity_bulk():
    rng = np.random.default_rng(0)
    for i in range(1000):
        d = 2 + i % 15
        h = random_hermitian(rng, d)
        lam, u = eigh(h)
        scale = 1.0 + operator_norm(h)
        assert operator_norm((u * lam) @ u.conj().T - h) <= 1e-11 * scale
        assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-11
        assert np.all(np.diff(lam) >= -1e-14 * scale)


def test_matrix_function_identity_and_sqrt():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    assert operator_norm(matrix_function(h, lambda v: v) - h) <= 1e-11 * (1 + operator_norm(h))
    assert np.allclose(matrix_function(np.diag([4.0, 9.0]), np.sqrt), np.diag([2.0, 3.0]))


def test_matrix_function_log_diagonal():
    out = matrix_function(np.diag([0.75, 0.25]), np.log)
    assert np.allclose(out, np.diag([math.log(0.75), math.log(0.25)]))


def test_matrix_function_log_domain_error():
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, 0.0]), np.log)
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, 1e-13]), np.log)  # snapped to 0 within rank_tol


def test_exp_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density(rng, 5)
        back = matrix_function(matrix_function(rho, np.log), np.exp)
        assert operator_norm(back - rho) <= 1e-10
        fwd = matrix_function(matrix_function(rho, np.exp), np.log)
        assert operator_norm(fwd - rho) <= 1e-10


def test_is_psd():
    assert is_psd(np.eye(2), tol=1e-9)
    assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)


def test_growth_difference_is_psd():
    rng = np.random.default_rng(3)
    for epsilon in (0.1, 1.0):
        rho = random_density(rng, 3)
        assert is_psd(math.exp(epsilon) * rho - rho, tol=1e-9)


def test_validate_density():
    assert validate_density(np.eye(2) / 2).full_rank
    assert not validate_density(np.diag([1.0, 0.0])).full_rank
    with pytest.raises(ValidationError):
        validate_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_density_passes_a_state_through():
    state = validate_density(random_density(np.random.default_rng(5), 3))
    assert validate_density(state) is state
    assert validate_hermitian(state) is state.matrix
    lam, u = eigh(state)
    assert lam is state.eigenvalues and u is state.eigenvectors
    assert np.array_equal(lam, np.linalg.eigh(state.matrix)[0])


@pytest.mark.parametrize("scale", [0.01, 100.0])
@pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
def test_hermitian_tolerance_boundary(factor, ok, scale):
    # Tolerance 1e-12 (1 + ||H||).  The skew touches only the upper triangle,
    # which eigh/eigvalsh do not read, so ||H|| is that of the unskewed matrix.
    h = scale * random_hermitian(np.random.default_rng(6), 3)
    h[0, 1] += factor * 1e-12 * (1.0 + operator_norm(h))
    for check in (validate_hermitian, lambda m: validate_hermitians([m]), eigh, is_psd):
        if ok:
            check(h)
        else:
            with pytest.raises(ValidationError):
                check(h)


def test_hermitian_tolerance_scales_with_norm():
    h = 1e6 * np.eye(3, dtype=complex)
    h[0, 1] = 1e-8 + 1e-7j
    h[1, 0] = 1e-8  # asymmetric by ~1e-7, negligible against norm 1e6
    validate_hermitian(h)
    h2 = np.eye(2, dtype=complex)
    h2[0, 1] = 1e-6  # same absolute skew is fatal at norm 1
    with pytest.raises(ValidationError):
        validate_hermitian(h2)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(4)
    m = random_hermitian(rng, 3) + 1j * np.eye(3) * 0  # complex entries
    obj = matrix_to_json(m)
    assert obj["dim"] == 3
    assert len(obj["entries"]) == 9
    back = matrix_from_json(obj)
    assert np.array_equal(back, m)
    with pytest.raises(ValidationError, match="expected 9 entries, got 8"):
        matrix_from_json({"dim": 3, "entries": obj["entries"][:-1]})


@pytest.mark.parametrize("dim,entries", [(-1, [[1.0, 0.0]]), (-2, [[0.5, 0.0]] * 4)])
def test_matrix_json_of_a_negative_dim_is_rejected(dim, entries):
    # numpy's reshape raised "can only specify one unknown dimension" or "negative dimensions"
    with pytest.raises(ValidationError, match=f"dim {dim} is negative"):
        matrix_from_json({"dim": dim, "entries": entries})


@pytest.mark.parametrize(
    "dim, entries",
    [(2.7, [[0.5, 0.0]] * 4), (2.0, [[0.5, 0.0]] * 4), (True, [[1.0, 0.0]]), ("2", [[0.5, 0.0]] * 4)],
    ids=["fractional", "float", "boolean", "string"],
)
def test_matrix_json_of_a_dim_that_is_not_an_integer_is_rejected(dim, entries):
    # 2.7 read as a 2x2 matrix and true as a 1x1 one
    with pytest.raises(ValidationError, match=f"^matrix JSON: dim {dim!r} is not an integer$"):
        matrix_from_json({"dim": dim, "entries": entries})


def test_matrix_json_entries_match_the_elementwise_encoding():
    # the byte-exact reference: one [re, im] pair of Python floats per entry, row-major
    special = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)], [complex(3.0, -0.0), 5e-324 + 1e308j]])
    rng = np.random.default_rng(5)
    for m in (special, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))):
        entries = matrix_to_json(m)["entries"]
        expected = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        assert json.dumps(entries) == json.dumps(expected)
        assert all(type(x) is float for pair in entries for x in pair)


def _non_hermitian(rho):
    bad = rho.copy()
    bad[0, 1] += 1e-3
    return bad


def _nan(rho):
    bad = rho.copy()
    bad[1, 1] = np.nan
    return bad


def _inf(rho):
    bad = rho.copy()
    bad[0, 0] = np.inf
    return bad


BAD_MEMBERS = {
    "non-hermitian": _non_hermitian,
    "trace": lambda rho: 1.2 * rho,
    "negative-eigenvalue": lambda rho: np.diag([1.2, -0.1, -0.1]).astype(complex),
    "nan": _nan,
    "inf": _inf,
    "rank-deficient": lambda rho: np.diag([0.5, 0.5, 0.0]).astype(complex),
    "not-square": lambda rho: rho[:2],
}


def _family(position, bad, mixed=False, size=5):
    rng = np.random.default_rng(31)
    states = [random_density(rng, 2 if mixed and k % 2 else 3) for k in range(size)]
    if bad is not None:
        states[position] = BAD_MEMBERS[bad](random_density(rng, 3))
    return states


def _error(fn, *args):
    """(exception class, message) of what fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


def _one_by_one(check, states):
    """``check`` of each state alone, in order; a state whose shape differs from state 0's fails as it is coerced,
    before its own checks run."""
    results = []
    for k, s in enumerate(states):
        shape, first = as_matrix(s).shape, as_matrix(states[0]).shape
        if shape != first:
            raise ValidationError(f"matrix {k} has shape {shape}, matrix 0 has {first}")
        results.append(check(s))
    return results


def _qldp_family_one_by_one(states):
    """What checking the QLDP family state by state raises: each state, then the ranks."""
    members = _one_by_one(validate_density, states)
    if not all(s.full_rank for s in members):
        raise SupportMismatchError("mechanism states must be full rank")


@pytest.mark.parametrize("mixed", [False, True], ids=["one-shape", "mixed-shapes"])
@pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", list(BAD_MEMBERS))
def test_stacked_validation_raises_what_the_first_bad_member_raises_alone(bad, position, mixed):
    states = _family(position, bad, mixed)
    alone = _error(_one_by_one, validate_density, states)
    if mixed and (position or bad == "rank-deficient"):
        # state 1, the first of another shape, is the first fault: it is reported in place of any after it
        assert alone == (ValidationError, "matrix 1 has shape (2, 2), matrix 0 has (3, 3)")
    else:
        assert (alone is None) == (bad == "rank-deficient")
    assert _error(validate_densities, states) == alone
    assert _error(validate_hermitians, states) == _error(_one_by_one, validate_hermitian, states)
    assert _error(min_eigenvalues, states) == _error(_one_by_one, lambda s: min_eigenvalues([s]), states)
    # the QLDP family check adds the rank check after every state is validated
    expected = _error(_qldp_family_one_by_one, states)
    assert expected is not None
    assert _error(QldpMechanism, states, 1.0) == expected


@pytest.mark.parametrize(
    "first, second", [("non-hermitian", "trace"), ("trace", "nan"), ("nan", "trace"), ("negative-eigenvalue", "inf")]
)
@pytest.mark.parametrize("mixed", [False, True], ids=["one-shape", "mixed-shapes"])
def test_stacked_validation_reports_the_first_of_two_bad_members(first, second, mixed):
    rng = np.random.default_rng(32)
    states = _family(0, None, mixed)
    states[1] = BAD_MEMBERS[first](random_density(rng, 3))
    states[3] = BAD_MEMBERS[second](random_density(rng, 3))
    if mixed:
        states[2] = random_density(rng, 2)  # a member of another shape between the two
    with pytest.raises(ValidationError) as alone:
        validate_density(states[1])
    with pytest.raises(ValidationError) as stacked:
        validate_densities(states)
    assert str(stacked.value) == str(alone.value)
    if mixed:
        # before the first bad member, the member of another shape is the first fault
        with pytest.raises(ValidationError, match=r"^matrix 1 has shape \(2, 2\), matrix 0 has \(3, 3\)$"):
            validate_densities([states[0], states[2], *states[1:]])


@pytest.mark.parametrize("mixed", [False, True], ids=["one-shape", "mixed-shapes"])
def test_stacked_validation_equals_validation_one_by_one(mixed):
    states = _family(0, None, mixed, size=7)
    states[3] = validate_density(states[3])
    if mixed:
        # states 1, 3 and 5 are 2x2 after a 3x3 state 0: the first of them is the one reported
        fault = (ValidationError, "matrix 1 has shape (2, 2), matrix 0 has (3, 3)")
        assert _error(validate_densities, states) == _error(validate_hermitians, states) == fault
        return
    stacked = validate_densities(states)
    assert stacked[3] is states[3]  # a State passes through unchanged
    for k, (state, raw) in enumerate(zip(stacked, states)):
        alone = validate_density(raw)
        assert np.array_equal(state.matrix, alone.matrix) and state.full_rank == alone.full_rank
        assert np.array_equal(state.eigenvalues, alone.eigenvalues)
        assert np.array_equal(state.eigenvectors, alone.eigenvectors)
        # a State built from a raw matrix holds a copy, not the caller's array
        assert k == 3 or not (np.shares_memory(state.matrix, raw) or np.shares_memory(alone.matrix, raw))
    for k, (h, raw) in enumerate(zip(validate_hermitians(states), states)):
        alone = validate_hermitian(raw)
        assert np.array_equal(h, alone) and (k == 3 or not (np.shares_memory(h, raw) or np.shares_memory(alone, raw)))


@pytest.mark.parametrize("mixed", [False, True], ids=["one-shape", "mixed-shapes"])
@pytest.mark.parametrize("position", [1, 3], ids=["second", "fourth"])
@pytest.mark.parametrize("bad", [None, "non-hermitian", "nan", "not-square"])
def test_min_eigenvalues_stops_where_the_first_bad_member_raises(bad, position, mixed):
    states = _family(position, bad, mixed)
    alone = _error(_one_by_one, lambda s: min_eigenvalues([s]), states)
    assert _error(min_eigenvalues, states) == alone
    # the same fault when the members come one at a time and cannot be read twice
    assert _error(min_eigenvalues, iter(states)) == alone
    # the members before the fault, stacked, read the eigenvalue a check of each alone reads
    stop = len(states) if alone is None else 1 if mixed else position
    assert min_eigenvalues(states[:stop]) == [min_eigenvalues([s])[0] for s in states[:stop]]
    if alone is None:
        assert min_eigenvalues(states) == min_eigenvalues(iter(states)) == [min_eigenvalues([s])[0] for s in states]


def test_stacked_validation_of_no_states():
    assert validate_densities([]) == () and validate_hermitians([]) == [] and min_eigenvalues([]) == []


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_matrix(EMPTY),
        lambda: validate_hermitian(EMPTY),
        lambda: validate_density(EMPTY),
        lambda: eigh(EMPTY),
        lambda: is_psd(EMPTY),
        lambda: operator_norm(EMPTY),
        lambda: matrix_from_json({"dim": 0, "entries": []}),
        lambda: audit_qldp([EMPTY, EMPTY], 1.0),
        lambda: depolarize_each([EMPTY], 0.3),
    ],
    ids=["as_matrix", "validate_hermitian", "validate_density", "eigh", "is_psd", "operator_norm",
         "matrix_from_json", "audit_qldp", "depolarize_each"],
)
def test_an_empty_matrix_is_rejected_at_the_boundary(call):
    # a 0x0 matrix used to pass as_matrix and fail in numpy: IndexError, numpy's ValueError or a RuntimeWarning
    with pytest.raises(ValidationError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        call()
