import json
import math

import numpy as np
import pytest

from qldp.errors import DomainError, ValidationError
from qldp.linalg import (
    checked_hermitian,
    eigh,
    is_psd,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    norms,
    operator_norm,
    validate_density,
    validate_hermitian,
)
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


def test_norms_examples():
    assert norms(np.eye(3)) == pytest.approx((1.0, 3.0, math.sqrt(3.0)))
    assert norms(np.diag([1.0, -2.0])) == pytest.approx((2.0, 3.0, math.sqrt(5.0)))
    # Pauli-X/2 has eigenvalues +-1/2
    assert norms(PAULI_X / 2) == pytest.approx((0.5, 1.0, math.sqrt(0.5)))


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


def test_checked_hermitian_passes_through():
    h = random_hermitian(np.random.default_rng(7), 3)
    checked = checked_hermitian(h)
    assert checked_hermitian(checked) is checked
    assert validate_hermitian(checked) is checked.matrix
    assert np.array_equal(checked.eigenvalues, np.linalg.eigvalsh(h))
    assert norms(checked) == norms(h) and is_psd(checked) == is_psd(h)
    lam, u = eigh(checked)
    assert np.allclose((u * lam) @ u.conj().T, h, atol=1e-12)


@pytest.mark.parametrize("scale", [0.01, 100.0])
@pytest.mark.parametrize("factor, ok", [(0.9, True), (1.1, False)])
def test_hermitian_tolerance_boundary(factor, ok, scale):
    # Tolerance 1e-12 (1 + ||H||).  The skew touches only the upper triangle,
    # which eigh/eigvalsh do not read, so ||H|| is that of the unskewed matrix.
    h = scale * random_hermitian(np.random.default_rng(6), 3)
    h[0, 1] += factor * 1e-12 * (1.0 + operator_norm(h))
    for check in (validate_hermitian, checked_hermitian, eigh, norms, is_psd):
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


def test_matrix_json_entries_match_the_elementwise_encoding():
    # the byte-exact reference: one [re, im] pair of Python floats per entry, row-major
    special = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)], [complex(3.0, -0.0), 5e-324 + 1e308j]])
    rng = np.random.default_rng(5)
    for m in (special, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))):
        entries = matrix_to_json(m)["entries"]
        expected = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        assert json.dumps(entries) == json.dumps(expected)
        assert all(type(x) is float for pair in entries for x in pair)
