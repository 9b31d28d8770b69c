import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from qldp import frames
from qldp.errors import ExistenceError, ValidationError
from qldp.frames import (
    FusionFrame,
    _cached_eitff,
    _residuals,
    build_eitff,
    clifford_generators,
    frame_constant,
    frame_from_json,
    frame_to_json,
    radon_hurwitz,
    simplex_vectors,
    verify_eitff,
)
from qldp.linalg import operator_norm
from qldp.mechanisms import isoclinic_mechanism
from qldp.sampling import random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize("r,expected", [(1, 2), (6, 4), (8, 8)])
def test_radon_hurwitz_values(r, expected):
    assert radon_hurwitz(r) == expected


def test_radon_hurwitz_formula():
    for r in range(1, 100):
        a = 0
        rr = r
        while rr % 2 == 0:
            rr //= 2
            a += 1
        assert radon_hurwitz(r) == 2 * a + 2
    with pytest.raises(ValidationError, match="positive integer"):
        radon_hurwitz(0)


def test_clifford_single_qubit_is_pauli_triple():
    gens = clifford_generators(1)
    assert len(gens) == 3
    # direct 2x2 multiplication oracle
    assert np.array_equal(gens[0], PAULI_X)
    assert np.array_equal(gens[1], PAULI_Y)
    assert np.array_equal(gens[2], PAULI_Z)
    for i in range(3):
        for j in range(i + 1, 3):
            assert operator_norm(gens[i] @ gens[j] + gens[j] @ gens[i]) <= 1e-14
    with pytest.raises(ValidationError, match="at least one qubit"):
        clifford_generators(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_clifford_generator_family(m):
    gens = clifford_generators(m)
    d = 2**m
    assert len(gens) == 2 * m + 1
    for k, g in enumerate(gens):
        assert g.shape == (d, d)
        assert operator_norm(g - g.conj().T) <= 1e-14
        assert operator_norm(g @ g - np.eye(d)) <= 1e-13
        assert abs(np.trace(g)) <= 1e-14
        for other in gens[k + 1 :]:
            assert operator_norm(g @ other + other @ g) <= 1e-13


def test_simplex_vectors_two_points():
    vs = simplex_vectors(2)
    assert vs.shape == (2, 1)
    assert sorted(vs[:, 0]) == pytest.approx([-1.0, 1.0])
    with pytest.raises(ValidationError, match="at least two vectors"):
        simplex_vectors(1)


def test_simplex_vectors_triangle():
    vs = simplex_vectors(3)
    gram = vs @ vs.T
    # three planar unit vectors at 120 degrees: cos(120) = -1/2
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_simplex_vectors_general(n):
    vs = simplex_vectors(n)
    assert vs.shape == (n, n - 1)
    gram = vs @ vs.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    assert np.allclose(gram[~np.eye(n, dtype=bool)], -1.0 / (n - 1), atol=1e-12)
    assert np.linalg.norm(vs.sum(axis=0)) <= 1e-12


def test_build_three_frame():
    frame = build_eitff(3)
    assert (frame.d, frame.r, frame.n) == (2, 1, 3)
    assert frame.c == float(Fraction(1, 4))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.trace(frame.projections[i] @ frame.projections[j]).real == pytest.approx(0.25, abs=1e-12)
    total = sum(frame.projections)
    assert operator_norm(total - 1.5 * np.eye(2)) <= 1e-12


def test_build_ten_frame():
    frame = build_eitff(10)
    assert (frame.d, frame.r, frame.n) == (16, 8, 10)
    assert frame.c == float(Fraction(4, 9))
    assert verify_eitff(frame.projections).is_eitff


@pytest.mark.parametrize("n", range(2, 11))
def test_build_and_verify_family(n):
    frame = build_eitff(n)
    cert = verify_eitff(frame.projections, tol=1e-10)
    assert cert.is_tight and cert.is_ectff and cert.is_eitff
    assert cert.max_residual <= 1e-10
    assert cert.c_observed == float(Fraction(n - 2, 2 * n - 2))
    # anchor operators A_i = 2 P_i - I square to the identity and sum to zero
    anchors = [2.0 * p - np.eye(frame.d) for p in frame.projections]
    for a in anchors:
        assert operator_norm(a @ a - np.eye(frame.d)) <= 1e-12
    assert operator_norm(sum(anchors)) <= 1e-11
    # isoclinic relation with the half-dimension constant
    c = (n - 2) / (2 * n - 2)
    for i in range(n):
        for j in range(n):
            if i != j:
                pi, pj = frame.projections[i], frame.projections[j]
                assert operator_norm(pj @ pi @ pj - c * pj) <= 1e-10


def test_certificate_hierarchy():
    frame = build_eitff(5)
    cert = verify_eitff(frame.projections)
    assert cert.is_eitff <= cert.is_ectff <= cert.is_tight


def test_orthogonal_pair_is_eitff_with_zero_constant():
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    cert = verify_eitff([p1, p2])
    assert cert.is_eitff
    assert cert.c_observed == 0.0


def test_incomplete_family_not_tight():
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    cert = verify_eitff([p1, p2])
    assert not cert.is_tight


def test_verify_rejects_bad_inputs():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        verify_eitff([p, np.eye(3)])
    with pytest.raises(ValidationError):
        verify_eitff([p, 0.5 * np.eye(2)])
    for family in ([], [p]):
        with pytest.raises(ValidationError, match="n >= 2 and d >= 1"):
            verify_eitff(family)


def test_existence_violation():
    with pytest.raises(ExistenceError):
        build_eitff(6, a=0)  # n=6 needs n <= 4 at rank 1
    with pytest.raises(ExistenceError):
        build_eitff(5, a=0)


def test_explicit_larger_rank():
    frame = build_eitff(3, a=2)
    assert (frame.d, frame.r) == (8, 4)
    assert verify_eitff(frame.projections).is_eitff


def test_dimension_cap():
    with pytest.raises(ValidationError):
        build_eitff(20)


def test_verify_is_basis_independent():
    # conjugating the whole family by one unitary leaves every certificate
    # condition untouched
    from qldp.sampling import random_unitary

    frame = build_eitff(4)
    u = random_unitary(np.random.default_rng(9), frame.d)
    rotated = [u @ p @ u.conj().T for p in frame.projections]
    cert = verify_eitff(rotated, tol=1e-10)
    assert cert.is_eitff


def test_build_is_bit_reproducible():
    # past the cache, so that two builds are compared and not one frame with itself
    first = _cached_eitff.__wrapped__(6, 1)
    second = _cached_eitff.__wrapped__(6, 1)
    assert all(np.array_equal(a, b) for a, b in zip(first.projections, second.projections))


def test_frame_json_roundtrip(tmp_path):
    frame = build_eitff(4)
    back = frame_from_json(frame_to_json(frame))
    assert back.d == frame.d and back.r == frame.r and back.n == frame.n and back.c == frame.c
    assert all(np.array_equal(a, b) for a, b in zip(back.projections, frame.projections))
    assert verify_eitff(back.projections).is_eitff


def test_build_returns_one_read_only_frame_per_arguments():
    frame = build_eitff(5)
    assert build_eitff(5) is frame
    with pytest.raises(ValueError):
        frame.projections[0][0, 0] = 0.0


def test_a_frame_keeps_read_only_copies_of_its_projections():
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    frame = FusionFrame((p0, p1))
    p0[:] = np.eye(2)
    assert np.array_equal(frame.projections[0], np.diag([1.0, 0.0])) and (frame.r, frame.c) == (1, 0.0)
    assert not any(np.shares_memory(p, mine) for p in (p0, p1) for mine in frame.projections)
    with pytest.raises(ValueError, match="read-only"):
        frame.projections[1][0, 0] = 1.0


def test_a_frame_of_non_square_or_mixed_projections_is_rejected():
    with pytest.raises(ValidationError, match=r"non-empty square matrix, got shape \(2, 3\)"):
        FusionFrame((np.ones((2, 3)),) * 2)
    with pytest.raises(ValidationError, match="projections have mixed dimensions"):
        FusionFrame((np.diag([1.0, 0.0]), np.eye(3) / 3))


def test_default_a_and_explicit_a_share_one_cached_frame():
    frame = build_eitff(3)
    assert build_eitff(3, 0) is frame
    assert build_eitff(3, a=0) is frame


def test_build_failures_are_raised_on_every_call():
    for _ in range(2):
        with pytest.raises(ExistenceError):
            build_eitff(6, a=0)
        with pytest.raises(ValidationError, match="exceeds"):
            build_eitff(16)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cached_frame_gives_the_states_of_a_fresh_build(n):
    frame = build_eitff(n)
    cached = isoclinic_mechanism(frame, 0.7)
    fresh = isoclinic_mechanism(_cached_eitff.__wrapped__(n, frame.r.bit_length() - 1), 0.7)  # r = 2^a
    assert all(np.array_equal(a, b) for a, b in zip(cached.states, fresh.states))


def test_zero_projections_are_not_a_frame():
    # rank r = 0 would give c = -1/2 and a division by r in the Jordan eigenvalues
    with pytest.raises(ValidationError, match="rank r >= 1"):
        verify_eitff([np.zeros((2, 2))] * 3)


def test_frame_constant_is_the_rounded_rational():
    # int true division rounds the exact quotient once, as Fraction.__float__ does; c < 0 when nr < d
    for d in (2, 4, 8, 16, 32, 64, 128):
        for r in range(1, d + 1):
            for n in range(2, 40):
                assert frame_constant(d, r, n) == float(Fraction(n * r - d, d * (n - 1))), (d, r, n)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_verify_decomposes_each_projection_once(monkeypatch, n):
    # one eigh per projection and one operator norm, the tight residual; the pairs cost stacked r x r SVDs only
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def norm(x, ord=None, *args, **kwargs):
        calls["norm2"] += ord == 2
        return numpy_norm(x, ord, *args, **kwargs)

    numpy_norm = np.linalg.norm
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", norm)
    assert verify_eitff(build_eitff(n).projections).is_eitff
    assert (calls["eigh"], calls["eigvalsh"], calls["norm2"]) == (n, 0, 1)
    assert calls["svd"] < n


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("direction", ["scaled", "random"])
def test_projection_check_agrees_with_the_svd_rule(factor, direction):
    # perturb each projection so that ||P^2 - P|| is about factor * 100 tol, then compare the verdict
    # with the SVD rule operator_norm(P @ P - P) <= 100 tol
    tol = 1e-10
    rng = np.random.default_rng(4)
    family = []
    for p in build_eitff(4).projections:
        if direction == "scaled":
            e = p  # (1 + t) P gives ||P^2 - P|| = t (1 + t)
        else:
            g = rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)
            e = (g + g.conj().T) / operator_norm(g + g.conj().T)
        t = factor * 100 * tol / operator_norm(p @ e + e @ p - e)
        family.append(p + t * e)
    svd_accepts = all(operator_norm(q @ q - q) <= 100 * tol for q in family)
    assert svd_accepts == (factor < 1)
    if svd_accepts:
        assert not verify_eitff(family, tol).is_eitff  # residuals of ~1e-8 exceed tol
    else:
        with pytest.raises(ValidationError, match="not close to an orthogonal projection"):
            verify_eitff(family, tol)


# Verdict parity with the residuals verify_eitff formed before principal angles: one operator norm of
# P_j P_i P_j - c P_j per ordered pair.  The isoclinic residual of _residuals bounds that norm from above.


def operator_norm_residuals(projections) -> tuple[float, float, float]:
    frame = FusionFrame(tuple(np.asarray(p, dtype=complex) for p in projections))
    ps, d, r, n, c = frame.projections, frame.d, frame.r, frame.n, frame.c
    tight = operator_norm(sum(ps) - (n * r / d) * np.eye(d))
    chordal = isoclinic = 0.0
    for p_i, p_j in itertools.permutations(ps, 2):
        chordal = max(chordal, abs(np.trace(p_i @ p_j).real - r * c))
        isoclinic = max(isoclinic, operator_norm(p_j @ p_i @ p_j - c * p_j))
    return tight, chordal, isoclinic


def verdicts(residuals, tol: float) -> tuple[bool, bool, bool]:
    tight, chordal, isoclinic = (x <= tol for x in residuals)
    return tight, tight and chordal, tight and chordal and isoclinic


def perturbed(projections, direction: str, factor: float, tol: float, rng) -> list:
    """Each P + t E, with E = P ("scaled") or a random Hermitian direction of unit norm ("random"),
    and t such that the reference max_residual is about factor * tol."""
    directions = list(projections)
    if direction == "random":
        gs = [rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape) for p in projections]
        directions = [(g + g.conj().T) / operator_norm(g + g.conj().T) for g in gs]
    probe = 1e-6
    slope = max(operator_norm_residuals([p + probe * e for p, e in zip(projections, directions)])) / probe
    return [p + (factor * tol / slope) * e for p, e in zip(projections, directions)]


def assert_parity(family, tol: float = 1e-10):
    reference = operator_norm_residuals(family)
    tight, chordal, isoclinic = _residuals(FusionFrame(tuple(np.asarray(p, dtype=complex) for p in family)), tol)
    assert tight == reference[0]
    assert chordal == pytest.approx(reference[1], abs=1e-12)  # traces summed in another order
    assert isoclinic >= reference[2]
    cert = verify_eitff(family, tol)
    assert (cert.is_tight, cert.is_ectff, cert.is_eitff) == verdicts(reference, tol)
    assert cert.max_residual == max(tight, chordal, isoclinic)
    return verdicts(reference, tol)


FRAME_CASES = [(n, None) for n in range(2, 15)] + [(n, a) for n in (2, 3, 4) for a in (1, 2)]


@pytest.mark.parametrize("n,a", FRAME_CASES, ids=[f"n{n}-a{a}" for n, a in FRAME_CASES])
def test_verdicts_match_the_operator_norm_residuals(n, a):
    rng = np.random.default_rng([n, a or 0])
    frame = build_eitff(n, a)
    u = random_unitary(rng, frame.d)
    assert assert_parity(frame.projections) == (True, True, True)
    assert assert_parity([u @ p @ u.conj().T for p in frame.projections]) == (True, True, True)
    for direction in ("scaled", "random"):
        assert assert_parity(perturbed(frame.projections, direction, 0.5, 1e-10, rng)) == (True, True, True)
        assert not assert_parity(perturbed(frame.projections, direction, 2.0, 1e-10, rng))[2]


@pytest.mark.parametrize("n,a", [(3, None), (5, None), (4, 2)])
def test_a_projection_of_higher_rank_is_not_tight(n, a):
    # P + v v^dag, v a unit vector of the kernel of P, has rank r + 1: the trace of the sum is nr + 1
    ps = list(build_eitff(n, a).projections)
    _, u = np.linalg.eigh(ps[-1])
    ps[-1] = ps[-1] + np.outer(u[:, 0], u[:, 0].conj())
    assert assert_parity(ps) == (False, False, False)
    assert np.isfinite(verify_eitff(ps).max_residual)


@pytest.mark.parametrize("n,a", [(3, None), (4, None), (5, None), (3, 2)])  # d = 2, 2, 4, 8
def test_isoclinic_residual_bounds_the_mpmath_residual(n, a):
    # oracles.isoclinic_residual is max ||P_j P_i P_j - c P_j|| of the same float projections at 40 digits
    rng = np.random.default_rng([7, n, a or 0])
    projections = build_eitff(n, a).projections
    u = random_unitary(rng, len(projections[0]))
    families = [[u @ p @ u.conj().T for p in projections]]
    families += [perturbed(projections, direction, 2.0, 1e-10, rng) for direction in ("scaled", "random")]
    # a strictly upper part of 1e-12 passes the hermiticity check and is invisible to eigh, which reads
    # the lower triangle: only the ||P - P^dag|| term of the bound covers it
    families.append([p + 1e-12 * np.triu(np.ones_like(p), 1) for p in projections])
    for family in families:
        bound = _residuals(FusionFrame(tuple(family)), 1e-10)[2]
        assert bound >= oracles.isoclinic_residual(family) - 1e-14
