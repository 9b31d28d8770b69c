"""Exact references for the tests, evaluated in mpmath.

Every oracle takes the float inputs the code under test takes (the same
double-precision matrices, vectors, n and eps), converts them exactly and
evaluates in mpmath, so a difference from the code measures the code's own
rounding.

Precision rule.  A closed form at privacy level eps runs at
:func:`digits` (eps) = 30 + ceil(eps/2.3) + ceil(2 log10(1/eps)) decimal
digits, the last term only for eps < 1.  e^eps spans eps/2.3 decimal
digits, which the large-eps forms cancel (1 - 1/root with root -> 1), and
the small-eps forms cancel 1 - O(eps^2); a fixed precision loses those
digits at one end or the other.  The Chernoff oracle has no eps and runs at
DIGITS.  :func:`second_difference` alone is not exact: it differentiates a
float utility kernel, which has no mpmath form, numerically.
"""

import itertools
import math

import mpmath as mp

DIGITS = 40


def digits(epsilon: float) -> int:
    """Working decimal digits for a closed form at privacy level epsilon."""
    small = math.ceil(-2.0 * math.log10(epsilon)) if epsilon < 1.0 else 0
    return 30 + math.ceil(epsilon / 2.3) + small


def xlogx(t):
    """L(t) = t ln t, with L(0) = 0, at the working precision."""
    t = mp.mpf(t)
    return t * mp.log(t) if t else t


# Chernoff information (Audenaert et al., PRL 98, 160501 (2007)).


def _terms_of_states(a, b):
    """(W_ij b_j, ln a_i - ln b_j) from an mpmath eigendecomposition of both matrices."""
    (ea, ua), (eb, ub) = (mp.eighe(mp.matrix(m.tolist())) for m in (a, b))
    d = a.shape[0]
    terms = []
    for i, j in itertools.product(range(d), repeat=2):
        w = abs(mp.fsum(mp.conj(ua[k, i]) * ub[k, j] for k in range(d))) ** 2
        terms.append((w * eb[j], mp.log(ea[i]) - mp.log(eb[j])))
    return terms


def chernoff_information(a, b) -> float:
    """-ln min_{s in [0,1]} sum_k c_k e^{s delta_k} at DIGITS digits; vectors are distributions p, q.

    The minimum is the root of the derivative, found by a bracketing solver.
    """
    with mp.workdps(DIGITS):
        if a.ndim == 1:
            terms = [(mp.mpf(q), mp.log(mp.mpf(p)) - mp.log(mp.mpf(q))) for p, q in zip(a.tolist(), b.tolist())]
        else:
            terms = _terms_of_states(a, b)

        def overlap(s):
            return mp.fsum(c * mp.exp(s * dl) for c, dl in terms)

        def slope(s):
            return mp.fsum(c * dl * mp.exp(s * dl) for c, dl in terms)

        if slope(mp.mpf(0)) >= 0:
            best = overlap(mp.mpf(0))
        elif slope(mp.mpf(1)) <= 0:
            best = overlap(mp.mpf(1))
        else:
            best = overlap(mp.findroot(slope, (mp.mpf(0), mp.mpf(1)), solver="anderson"))
        return float(-mp.log(best))


# The scalar closed forms of qldp.exponents, written as their docstrings state them.


def classical_sym_term(n: int, k: int, epsilon: float) -> float:
    """-ln[1 - (xi - 1)^2 k (n-k) / ((n-1)(k xi^2 + n - k))] with xi = e^{eps/2}."""
    with mp.workdps(digits(epsilon)):
        xi = mp.exp(mp.mpf(epsilon) / 2)
        return float(-mp.log(1 - (xi - 1) ** 2 * k * (n - k) / ((n - 1) * (k * xi**2 + n - k))))


def classical_asym_term(n: int, k: int, epsilon: float) -> float:
    """[k L(e^eps) - n L(f)] / (n f) with f = (k e^eps + n - k)/n, at eta = 1."""
    with mp.workdps(digits(epsilon)):
        grow = mp.exp(mp.mpf(epsilon))
        f = (k * grow + n - k) / n
        return float((k * xlogx(grow) - n * xlogx(f)) / (n * f))


def classical_opt_sym(n: int, epsilon: float) -> float:
    return max(classical_sym_term(n, k, epsilon) for k in range(n + 1))


def classical_opt_asym(n: int, epsilon: float) -> float:
    return max(classical_asym_term(n, k, epsilon) for k in range(n + 1))


def isoclinic_pair(n: int, epsilon: float) -> tuple[float, float]:
    """(sym, asym) of the half-rank isoclinic mechanism at its boundary weight, eta = 1.

    c = (n/2 - 1)/(n - 1), t = 1 - 1/sqrt(1 + (1-c)/sinh^2(eps/2)),
    sym = -ln[1 - (1-c)(1 - sqrt(t(2-t)))] and asym = (L(2-t) + L(t))/2.
    """
    with mp.workdps(digits(epsilon)):
        c = (mp.mpf(n) / 2 - 1) / (n - 1)
        t = 1 - 1 / mp.sqrt(1 + (1 - c) / mp.sinh(mp.mpf(epsilon) / 2) ** 2)
        sym = -mp.log(1 - (1 - c) * (1 - mp.sqrt(t * (2 - t))))
        return float(sym), float((xlogx(2 - t) + xlogx(t)) / 2)


def isoclinic_pair_spectrum(c: float, epsilon: float) -> tuple[float, float]:
    """(largest, smallest) eigenvalue of e^eps P_i - P_j for a pair of projections of overlap c.

    e^{eps/2} (sinh(eps/2) pm sqrt(sinh^2(eps/2) + 1 - c)): the pair decomposes into identical 2x2
    blocks of overlap c (Jordan's lemma), so c = Tr P_i P_j / r alone sets the extremes.
    """
    with mp.workdps(digits(epsilon)):
        half = mp.mpf(epsilon) / 2
        sh, root = mp.sinh(half), mp.sqrt(mp.sinh(half) ** 2 + 1 - mp.mpf(c))
        return float(mp.exp(half) * (sh + root)), float(mp.exp(half) * (sh - root))


# Privacy levels of stored states and columns.


def qldp_level(states) -> float:
    """max over ordered pairs (A, B) of ln lambda_max(A^{-1} B) at DIGITS digits; keep d <= 8.

    One decomposition per unordered pair: with A + B = L L^dag, the eigenvalues delta of
    L^{-1} (B - A) L^{-dag} give the generalized eigenvalues (1 + delta) / (1 - delta) of
    (B, A), so the two orders have levels 2 atanh(max delta) and 2 atanh(-min delta). The
    float states are taken exactly, so B - A carries no rounding.
    """
    with mp.workdps(DIGITS):
        best = mp.mpf(0)
        for a, b in itertools.combinations([mp.matrix(s.tolist()) for s in states], 2):
            inv = mp.inverse(mp.cholesky(a + b))
            sim = inv * (b - a) * inv.transpose_conj()
            delta = mp.eighe((sim + sim.transpose_conj()) / 2, eigvals_only=True)
            best = max(best, max(delta), -min(delta))
        return float(2 * mp.atanh(best))


def ldp_level(q) -> float:
    """max over rows of ln(max/min) of a column-stochastic (outputs, inputs) array at DIGITS digits."""
    with mp.workdps(DIGITS):
        return float(max(mp.log(mp.mpf(max(row)) / mp.mpf(min(row))) for row in q.tolist()))


def mutual_information(q) -> float:
    """I(X; Y) at DIGITS digits for a uniform X and a column-stochastic (outputs, inputs) array q(y|x).

    I = sum_y [-L(m_y) + mean_x L(q(y|x))] with m_y = mean_x q(y|x), the entries taken exactly.
    """
    with mp.workdps(DIGITS):
        total = mp.mpf(0)
        for row in q.tolist():
            n = len(row)
            total += -xlogx(mp.fsum(mp.mpf(v) for v in row) / n) + mp.fsum(xlogx(v) for v in row) / n
        return float(total)


# Utility kernels.


def second_difference(evaluate, n: int, step: float = 1e-4) -> float:
    """Central second difference of a batched utility kernel along its first coordinate at the all-ones point.

    (phi(1 + h e_1) - 2 phi(1) + phi(1 - h e_1)) / h^2 in floats, from one call of ``evaluate`` on three rows.
    """
    points = [[1.0] * n for _ in range(3)]
    points[0][0] += step
    points[2][0] -= step
    up, mid, down = evaluate(points)
    return float((up - 2.0 * mid + down) / step**2)


# Fusion frames.


def isoclinic_residual(projections) -> float:
    """max over ordered pairs (i, j) of ||P_j P_i P_j - c P_j|| at DIGITS digits; keep d <= 8.

    c = (nr - d) / (d (n - 1)) is taken exactly, with r the rounded trace of the first projection, and
    the norm is the largest singular value, so projections that are not exactly Hermitian are measured as they are.
    """
    with mp.workdps(DIGITS):
        mats = [mp.matrix(p.tolist()) for p in projections]
        n, d = len(mats), mats[0].rows
        r = round(float(mp.re(sum(mats[0][k, k] for k in range(d)))))
        c = mp.mpf(n * r - d) / (d * (n - 1))
        pairs = itertools.permutations(mats, 2)
        return float(max(max(mp.svd_c(p_j * p_i * p_j - c * p_j, compute_uv=False)) for p_i, p_j in pairs))
