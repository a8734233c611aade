"""Independent reference forms that only the tests compare the package against.

Each is a second route to a quantity the package computes another way: the
closed form of H, the Pochhammer-ratio covariance of W, the O(n^2) double
sum for E[Ztilde^2], the scalar limit-variance integrand and the power
series of its integral, the
recursions for E[S_k^2] that the forward pass of enumerate_exact sums directly, the QSL statistic of one S path, and the
invariants of a simulated word path.  The test modules
import them by bare name (``from oracles import ...``), which works because
pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dihedral_erw.group import GroupWord, _check_q
from dihedral_erw.moments import _recurrence, h_moment, h_moment_table
from dihedral_erw.quadrature import i_factor_table


def h_closed_form(k: int, q: float) -> float:
    """Closed form k/(2q - 1) ((2q)_k/k! - 1) for H(k, q); cross-check only.

    (2q)_k/k! is the running product of (2q + j)/(j + 1), j = 0..k-1, so it
    is exact where a factor vanishes (q in {0, -1/2, -1}).  At q = 1/2 the
    formula is 0/0 and its limit, k times the harmonic sum, is returned.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = _check_q(q)
    if q == 0.5:
        return k * sum(1.0 / j for j in range(1, k + 1))
    two_q = 2.0 * q
    ratio = 1.0
    for j in range(k):
        ratio *= (two_q + j) / (j + 1)
    return k / (two_q - 1.0) * (ratio - 1.0)


def cov_w(k: int, l: int, q: float) -> float:
    """E[W_k W_l]: the Pochhammer-ratio propagation of H(min, q).

    For k <= l the conditional mean of W_l given step k is W_k times the
    running product of (1 + q/i), i = k..l-1, whence
    E[W_k W_l] = [(k+q)_(l-k) / (k)_(l-k)] H(k, q), and the Pochhammer
    ratio is l I(k, q) / (k I(l, q)).
    """
    if k < 1 or l < 1:
        raise ValueError("indices must be at least 1")
    q = _check_q(q)
    if k > l:
        k, l = l, k
    i = i_factor_table(l, q)
    ratio = float(l * i[k] / (k * i[l])) if k < l else 1.0  # k = l = 1, q = -1 is 0/0
    return ratio * h_moment(k, q)


def var_ztilde_double_sum(n: int, q: float) -> float:
    """E[Ztilde_{n+1}^2] as the double sum, in O(n^2); small-n oracle:

        sum_{k=1}^{n} (H(k,q)/k^2) (1 + 2 sum_{l=1}^{n-k} (-1)^l (k+q)_l/(k+1)_l)
    """
    q = _check_q(q)
    h = h_moment_table(n, q)
    total = []
    for k in range(1, n + 1):
        inner = [1.0]
        ratio = 1.0
        for l in range(1, n - k + 1):
            ratio *= (k + q + l - 1) / (k + l)
            inner.append(2.0 * (-1.0) ** l * ratio)
        total.append(h[k] / k**2 * math.fsum(inner))
    return math.fsum(total)


def phi_integrand(q: float, u: float, um1: float = None) -> float:
    """The limit-variance integrand at one q and one u, in Python floats.

    The scalar form of quadrature._phi_level, whose rows must equal it bit for bit:
        (1/(2q-1)) * (u^(1-2q) - 1)/(1 - u) * ((1 - u/2)^(q-1) - 1)/u,
    and (-ln u)/(1 - u) * ((1 - u/2)^(-1/2) - 1)/u at q = 1/2.
    """
    q = _check_q(q)
    if um1 is None:
        um1 = 1.0 - u
    # u and um1 are validated separately: near an endpoint one of them may
    # round to 1.0 while the other still resolves the distance to it
    if not (0.0 < u <= 1.0 and 0.0 < um1 <= 1.0):
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")

    log_u = math.log1p(-um1) if u > 0.5 else math.log(u)
    second = math.expm1((q - 1.0) * math.log1p(-0.5 * u)) / u
    if q == 0.5:
        first = -log_u / um1
        return first * second
    first = math.expm1((1.0 - 2.0 * q) * log_u) / um1
    return first * second / (2.0 * q - 1.0)


def var_ztilde_series(q: float, terms: int = 200) -> float:
    """Limit variance of Ztilde as a power series, in mpmath at 30 digits; no quadrature.

    With a = 2q - 1 the integrand of quadrature.phi_integrand is
    (u^(-a) - 1)/(a (1 - u)) g(u), where g(u) = ((1 - u/2)^(q-1) - 1)/u has the
    coefficients g_k = binom(q-1, k+1) (-1/2)^(k+1).  Expanding 1/(1 - u) as a
    geometric series, the product is (u^(-a) - 1)/a times sum_n c_n u^n, with
    c_n = g_0 + ... + g_n, and term by term

        integral of (u^(n-a) - u^n)/a over (0, 1) = 1/((n + 1 - a)(n + 1)),

    so V(q) = sum_n c_n/((n + 1 - a)(n + 1)); at q = 1/2 (a = 0) the log branch
    gives the same terms.  c_n tends to C = g(1) = 2^(1-q) - 1 like 2^-n, and
    sum_n 1/((n + 1 - a)(n + 1)) = (psi(1) - psi(1 - a))/a (pi^2/6 at a = 0), so

        V(q) = C (psi(1) - psi(1 - a))/a + sum_n (c_n - C)/((n + 1 - a)(n + 1)),

    whose second sum converges geometrically: 200 terms leave far less than a
    double's rounding.
    """
    import mpmath

    with mpmath.workdps(30):
        q = mpmath.mpf(_check_q(q))
        a = 2 * q - 1
        limit = 2 ** (1 - q) - 1
        g = mpmath.mpf(1)  # binom(q-1, j) (-1/2)^j at j = 0
        c = tail = mpmath.mpf(0)
        for n in range(terms):
            g *= (q - 1 - n) / (n + 1) * mpmath.mpf(-0.5)  # now g_n
            c += g
            tail += (c - limit) / ((n + 1 - a) * (n + 1))
        head = mpmath.pi ** 2 / 6 if a == 0 else (mpmath.digamma(1) - mpmath.digamma(1 - a)) / a
        return float(limit * head + tail)


def s_moments(n: int, q: float):
    """V_k = E[S_k^2] and M_k = E[S_k W_k] for k = 1..n (index 0 unused, set to nan).

    S_{k+1} = S_k + (-1)^k dW_{k+1}, dW^2 = 1 and E[dW_{k+1} | F_k] = q W_k/k give

        M_{k+1} = (1 + q/k) M_k + (-1)^k (q H_k/k + 1),   M_1 = 1,
        V_{k+1} = V_k + 1 + 2 (-1)^k q M_k/k,             V_1 = 1,

    both solved by the package's blocked solver.  M starts at M_2 = 0, since
    a_1 = 1 + q vanishes at q = -1.
    """
    q = _check_q(q)
    h = h_moment_table(n, q)
    m, v = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
    m[1] = v[1] = 1.0
    m[2:3] = 0.0  # M_2, where n >= 2

    def m_coeffs(k):
        return 1.0 + q / k, (-1.0) ** k * (q * h[k.astype(int)] / k + 1.0)

    def v_coeffs(k):
        return np.ones_like(k), 1.0 + 2.0 * (-1.0) ** k * q * m[k.astype(int)] / k

    for k, xs in _recurrence(m_coeffs, 0.0, 2, n):
        m[int(k[0]):int(k[-1]) + 2] = xs
    for k, xs in _recurrence(v_coeffs, 1.0, 1, n):
        v[int(k[0]):int(k[-1]) + 2] = xs
    return v, m


def qsl_statistic(s_path) -> float:
    """(1/log n) * sum_k S_k^2 / k^2 along one path (S_1..S_n)."""
    s = np.asarray(s_path, dtype=float)
    n = s.size
    if n < 2:
        raise ValueError("need a path of length at least 2")
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum((s / k) ** 2) / math.log(n))


def check_invariants(trace) -> None:
    """Raise AssertionError unless trace.positions starts at w_0 = e and moves one letter a step.

    The positions are multiplied out from the letters by reduce_left_multiply,
    so checking each one against that product again would be a tautology.
    """
    positions = trace.positions
    if positions[0] != GroupWord.identity():
        raise AssertionError("w_0 must be the identity")
    for k, (w_prev, w_cur) in enumerate(itertools.pairwise(positions), start=1):
        if abs(w_cur.length - w_prev.length) != 1:
            raise AssertionError(f"length jump at step {k} is not +-1")
