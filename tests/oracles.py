"""Independent reference forms that only the tests compare the package against.

Each is a second route to a quantity the package computes another way: the
closed form of H, the Pochhammer-ratio covariance of W, the O(n^2) double
sum for E[Ztilde^2] and the QSL statistic of one S path.  The test modules
import them by bare name (``from oracles import ...``), which works because
pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

import math

import numpy as np

from dihedral_erw.group import _check_q
from dihedral_erw.moments import h_moment, h_moment_table, i_factor_table


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


def qsl_statistic(s_path) -> float:
    """(1/log n) * sum_k S_k^2 / k^2 along one path (S_1..S_n)."""
    s = np.asarray(s_path, dtype=float)
    n = s.size
    if n < 2:
        raise ValueError("need a path of length at least 2")
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum((s / k) ** 2) / math.log(n))
