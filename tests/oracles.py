"""Independent reference forms that only the tests compare the package against.

Each is a second route to a quantity the package computes another way: the
closed form of H, the Pochhammer-ratio covariance of W, the O(n^2) double
sum for E[Ztilde^2], the recursions for E[S_k^2] that the forward pass of
enumerate_exact sums directly, the QSL statistic of one S path, and the
invariants of a simulated word path.  The test modules
import them by bare name (``from oracles import ...``), which works because
pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

import math

import numpy as np

from dihedral_erw.group import GroupWord, _check_q, reduce_left_multiply
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
    """Raise AssertionError unless trace.positions is w_0 = e, then w_k = reduce(g_k * w_(k-1))."""
    if len(trace.positions) != trace.n + 1:
        raise AssertionError("positions must hold one entry per step plus w_0")
    if trace.positions[0] != GroupWord.identity():
        raise AssertionError("w_0 must be the identity")
    for k, g in enumerate(trace.letters, start=1):
        w_prev, w_cur = trace.positions[k - 1], trace.positions[k]
        if reduce_left_multiply(g, w_prev) != w_cur:
            raise AssertionError(f"w_{k} is not reduce(g_{k} * w_{k-1})")
        if abs(w_cur.length - w_prev.length) != 1:
            raise AssertionError(f"length jump at step {k} is not +-1")
