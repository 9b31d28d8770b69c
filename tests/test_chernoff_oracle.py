"""Chernoff information against the 40-digit mpmath oracle of ``oracles``.

``oracles.chernoff_information`` decomposes the same double-precision
matrices in mpmath, finds the root of the derivative of the overlap with a
bracketing solver and returns -ln of the overlap there.  Every case must
satisfy |C - C*| <= 1e-15 + 1e-12 C*.  mpmath is a test requirement, so
these cases fail rather than skip where it is missing.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from qldp.linalg import RANK_TOL
from qldp.mechanisms import MAX_EPSILON, binary_mechanism, subset_mechanism
from qldp.metrics import chernoff_information, classical_chernoff
from qldp.sampling import random_density, random_traceless_hermitian, random_unitary

import oracles


def _hermitian(m):
    # both triangles equal, so numpy and mpmath decompose the same matrix
    return (m + m.conj().T) / 2


def _random_pairs(rng, count):
    for _ in range(count):
        d = int(rng.integers(2, 9))
        yield random_density(rng, d, 0.1), random_density(rng, d, 0.1)


def _near_identical_pairs(rng, count):
    # C ~ 1e-8: the overlap minimum sits within 1e-8 of 1
    for _ in range(count):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d, 0.3)
        yield rho, rho + 1e-4 * random_traceless_hermitian(rng, d, 1.0)


def _tiny_spectrum(rng, d):
    # one eigenvalue between 1.3 and 100 times RANK_TOL
    tiny = RANK_TOL * 10 ** rng.uniform(0.1, 2.0)
    lam = rng.random(d) + 0.1
    k = rng.integers(d)
    lam[k] = 0.0
    lam *= (1.0 - tiny) / lam.sum()
    lam[k] = tiny
    return lam


def _near_rank_tol_pairs(rng, count):
    # diagonal, so that the eigensolver returns the tiny eigenvalue exactly
    for i in range(count):
        d = int(rng.integers(2, 9))
        a = np.diag(_tiny_spectrum(rng, d)).astype(complex)
        b = np.diag(_tiny_spectrum(rng, d)).astype(complex) if i % 2 else random_density(rng, d, 0.3)
        yield a, b


def _commuting_pairs(rng, count):
    for _ in range(count):
        d = int(rng.integers(2, 9))
        u = random_unitary(rng, d)
        p, q = (0.9 * rng.dirichlet(np.ones(d)) + 0.1 / d for _ in range(2))
        yield u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T


def _quantum_cases():
    rng = np.random.default_rng(20070301)
    families = {
        "random": _random_pairs(rng, 16),
        "near-identical": _near_identical_pairs(rng, 12),
        "near-rank-tol": _near_rank_tol_pairs(rng, 8),
        "commuting": _commuting_pairs(rng, 8),
    }
    return [
        pytest.param(_hermitian(a), _hermitian(b), id=f"{name}-{i}")
        for name, pairs in families.items()
        for i, (a, b) in enumerate(pairs)
    ]


def _assert_close(value, exact):
    assert math.isfinite(value)
    assert abs(value - exact) <= 1e-15 + 1e-12 * exact, (value, exact)


@pytest.mark.parametrize("a,b", _quantum_cases())
def test_chernoff_information_matches_oracle(a, b):
    _assert_close(chernoff_information(a, b), oracles.chernoff_information(a, b))


def test_near_identical_pairs_have_tiny_chernoff_information():
    pairs = list(_near_identical_pairs(np.random.default_rng(20070301), 12))
    values = [chernoff_information(_hermitian(a), _hermitian(b)) for a, b in pairs]
    assert all(1e-9 < v < 1e-7 for v in values)


def _classical_cases():
    rng = np.random.default_rng(160501)
    cases = []
    for i in range(12):
        d = int(rng.integers(2, 9))
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        if i % 3 == 2:  # near-identical
            q = p * (1.0 + 1e-4 * rng.standard_normal(d))
            q /= q.sum()
        cases.append(pytest.param(p, q, id=f"classical-{i}"))
    return cases


@pytest.mark.parametrize("p,q", _classical_cases())
def test_classical_chernoff_matches_oracle(p, q):
    _assert_close(classical_chernoff(p, q), oracles.chernoff_information(p, q))


# classical_chernoff of columns 0 and 1 before the Newton search replaced golden section
EXTREME = [
    pytest.param(lambda: subset_mechanism(9, 5, MAX_EPSILON), 0.6931471805599454, id="subset-9-5-max-eps"),
    pytest.param(lambda: binary_mechanism(3, 700.0), 349.30685281944005, id="binary-3-eps700"),
]


@pytest.mark.parametrize("build,previous", EXTREME)
def test_classical_chernoff_at_extreme_eps(build, previous):
    # columns with entries down to ~1e-310: no exponent may overflow or warn
    columns = build().members
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = itertools.combinations(range(len(columns)), 2)
        values = {(i, j): classical_chernoff(columns[i], columns[j]) for i, j in pairs}
    assert values[0, 1] == pytest.approx(previous, rel=1e-12, abs=0.0)
    for (i, j), value in values.items():
        _assert_close(value, oracles.chernoff_information(columns[i], columns[j]))


def test_classical_chernoff_of_subnormal_entries():
    # ln p - ln q = +-744 here, so e^{s (ln p - ln q)} alone would overflow before s = 1
    p = np.array([1.0, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = classical_chernoff(p, p[::-1])
    assert value == pytest.approx(371.52688878013066, rel=1e-12, abs=0.0)
    _assert_close(value, oracles.chernoff_information(p, p[::-1]))
