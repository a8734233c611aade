"""Exact second moments of the coupled walk and an exact pass over reachable states.

The central quantity is H(k, q) = E[W_k^2].  It satisfies the one-step
conditional-variance recursion

    H(1) = 1,  H(k+1) = (1 + 2q/k) H(k) + 1,

which is taken as the defining computation (h_moment_table solves it in
blocks of k by cumulative products and sums; var_ztilde_exact solves the
recursion for G_k = E[Ztilde_k W_k] the same way).  The closed form
H = k/(2q - 1) ((2q)_k/k! - 1) costs O(k) per value and needs a separate
limit at q = 1/2, so it is only a cross-check, kept with the tests in
tests/oracles.py.  Gamma functions enter only as ratios at integer-spaced
arguments, all of them values of I(k, q) from i_factor_table's running
product (the beta prefactors of J1 and J2, and the Pochhammer ratio of the
covariance oracle in tests/oracles.py); the one gamma value, that
product's anchor, comes from math.lgamma.

enumerate_exact is the independent oracle for all of these: W is a Markov
chain on the a-count and S, Ztilde are additive functionals of its path,
so the forward equation over the a-count gives every moment exactly from
the step law alone, in O(n^2) operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coupling import encode_increment, exhaustive_coupling_check
from .group import MemoryParams, _check_q, step_prob_a
from .quadrature import gauss_2f1, j2


def h_moment(k: int, q: float) -> float:
    """E[W_k^2] by the defining recursion."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(h_moment_table(k, q)[k])


_BLOCK = 4096


def _solve_block(a: np.ndarray, b, x0: float) -> np.ndarray:
    """x_1..x_L of x_j = a_j x_(j-1) + b_j from x_0 = x0, all a_j > 0, at once.

    x_j = Q_j (x0 + sum_{m<=j} b_m/Q_m) with Q_j = a_1 ... a_j.  Rounding in
    Q_j grows with the block length: one product over all of k <= 1e6 put H
    6.5e-13 off at q = 1/2, blocks of _BLOCK = 4096 stay within 1e-13 of the
    40-digit value.
    """
    prod = np.cumprod(a)
    return prod * (x0 + np.cumsum(b / prod))


def h_moment_table(n: int, q: float) -> np.ndarray:
    """Array of H(k, q) for k = 1..n (index 0 unused, set to nan).

    H(k+1) = a_k H(k) + 1 with a_k = 1 + 2q/k.  a_1 = 1 + 2q and a_2 = 1 + q
    can be zero or negative, so H(2) and H(3) come one step at a time.  From
    k = 3 on every a_k is positive, and _solve_block takes blocks of _BLOCK
    steps whose edges are fixed in k, so H(k) does not depend on n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    out = np.empty(n + 1)
    out[0], out[1] = np.nan, 1.0
    for k in range(1, min(n, 3)):
        out[k + 1] = (1.0 + (2.0 * q) / k) * out[k] + 1.0
    for k0 in range(3, n, _BLOCK):
        a = 1.0 + (2.0 * q) / np.arange(k0, min(n, k0 + _BLOCK), dtype=float)
        out[k0 + 1:k0 + 1 + len(a)] = _solve_block(a, 1.0, out[k0])
    return out


def i_factor(k: int, q: float) -> float:
    """Normaliser I(k, q) = Gamma(k+1) / (Gamma(k+q) Gamma(1-q)).

    At k + q = 0 (only k = 1, q = -1) the gamma in the denominator has a
    pole and I is 0.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(i_factor_table(k, q)[k])


def i_factor_table(n: int, q: float) -> np.ndarray:
    """I(k, q) for k = 1..n (index 0 is nan), as a running product.

    I(k+1) = I(k) (k+1)/(k+q), anchored at I(2) = 2/(Gamma(2+q) Gamma(1-q)),
    whose gammas have no pole for q in [-1, 1).  I(1) = I(2) (1+q)/2 is then
    exactly 0 at q = -1.  The product keeps I within 1e-11 of the 40-digit
    value for k <= 1e5; exp of a log-gamma difference was 1.5e-10 off there.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    out = np.empty(n + 1)
    out[0] = np.nan
    if q == 0.0:
        out[1:] = np.arange(1, n + 1)  # Gamma(k+1)/Gamma(k), exactly
        return out
    i2 = 2.0 * math.exp(-math.lgamma(2.0 + q) - math.lgamma(1.0 - q))
    out[1] = i2 * (1.0 + q) / 2.0
    if n >= 2:
        k = np.arange(2, n, dtype=float)
        out[2] = i2
        out[3:] = i2 * np.cumprod((k + 1.0) / (k + q))
    return out


def var_ztilde_exact(n: int, q: float) -> float:
    """E[Ztilde_{n+1}^2] for the alternating series Ztilde of W_k/k.

    Ztilde_{k+1} = Ztilde_k + (-1)^k W_k/k (as in coupling._step) and
    E[W_{k+1} | F_k] = (1 + q/k) W_k, so G_k = E[Ztilde_k W_k] obeys G_1 = 0,
    G_{k+1} = (1 + q/k) (G_k + (-1)^k H_k/k), with H_k = H(k, q), and the
    value is sum_{k<=n} t_k, t_k = H_k/k^2 + 2 (-1)^k G_k/k.  The halves of
    t_k cancel to one part in 4e4 (n = 1e6, q = 0.8), so the t_k are summed
    in pairs that end at k + 1 = n, which the recursions of H and G reduce to

        t_k + t_{k+1} = 2 (-1)^k (1-q) G_k/(k (k+1)) + ((1-2q) H_k/k^2 + 1)/(k+1)^2,

    beside t_1 = 1 (odd n) or t_1 + t_2 = (1 - q)/2 (even n).  G is solved
    in blocks from G_2 = -(1 + q), since a_1 = 1 + q vanishes at q = -1.
    """
    q = _check_q(q)
    h = h_moment_table(n, q)
    odd = n % 2
    sign = 1.0 if odd else -1.0  # (-1)^k at every pair's first k
    sums, g = [1.0 if odd else (1.0 - q) / 2.0], -(1.0 + q)  # g = G_2
    for k0 in range(2, n, _BLOCK):  # k0 even
        k = np.arange(k0, min(n, k0 + _BLOCK), dtype=float)
        a, hk = 1.0 + q / k, h[k0:k0 + len(k)]
        b = a * (hk / k)
        b[1::2] *= -1.0  # (-1)^k; sign flips are exact
        gk = np.concatenate(([g], _solve_block(a, b, g)))  # G_k0 .. G_(k0+len)
        g = gk[-1]
        first = slice(1 - odd, None, 2)  # k = n - 1, n - 3, ...
        kp, hp, gp = k[first], hk[first], gk[:-1][first]
        pairs = (sign * 2.0 * (1.0 - q) * gp / (kp * (kp + 1.0))
                 + ((1.0 - 2.0 * q) * hp / kp**2 + 1.0) / (kp + 1.0) ** 2)
        sums.append(float(np.sum(pairs)))
    return math.fsum(sums)


def t1(n: int, q: float) -> float:
    """First variance term: sum over k <= n of a_k * J1(k, q).

    a_k carries I(k, q) and J1 a beta factor B(k+q, 2-q); their product is
    (1-q)/(k+1), so each term is H(k, q)/k^2 * (1-q)/(k+1) times the Gauss
    factor of J1.  This form has no pole: at k = 1, q = -1 the term is 1.
    The n Gauss factors come from one array call of gauss_2f1.
    """
    q = _check_q(q)
    h = h_moment_table(n, q)
    k = np.arange(1, n + 1, dtype=float)
    gauss = gauss_2f1(1.0, k + q, k + 2.0, -1.0)
    return math.fsum((h[1:] / k**2 * (1.0 - q) / (k + 1) * gauss).tolist())


def t2(n: int, q: float) -> float:
    """Second variance term: J2(n, q) times the alternating sum of a_k.

    The alternating sum cancels heavily, so it is accumulated with exact
    (fsum) summation rather than a running float total.
    """
    q = _check_q(q)
    signed = MomentTable.build(n, q).a
    signed[-2::-2] *= -1.0          # (-1)^(n-k) a_k; sign flips are exact
    return j2(n, q) * math.fsum(signed.tolist())


def r_norm(n: float, p: float) -> float:
    """Scale of |W_n|: sqrt(n) below p = 3/4, sqrt(n/log n) at it (n > 1), n^(2(1-p)) above."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if p < 0.75:
        return math.sqrt(n)
    if p == 0.75:
        if n <= 1:
            raise ValueError("at p = 3/4, n must exceed 1")
        return math.sqrt(n / math.log(n))
    return n ** (2.0 * (1.0 - p))


@dataclass
class MomentTable:
    """Tabulated H, I, and a_k = H*I/k^2 for k = 1..n at one q."""

    k: np.ndarray
    H: np.ndarray
    I: np.ndarray
    a: np.ndarray

    @classmethod
    def build(cls, n: int, q: float) -> "MomentTable":
        h = h_moment_table(n, q)[1:]
        i = i_factor_table(n, q)[1:]
        k = np.arange(1, n + 1)
        return cls(k=k, H=h, I=i, a=h * i / k.astype(float) ** 2)


@dataclass
class EnumerationResult:
    """Exact moments of the walk at horizon n over all 2^n letter sequences."""

    n: int
    q: float
    prob_total: float
    e_s: float
    e_s2: float
    e_w2: float
    e_ztilde2: float
    cov_w_pairs: dict
    coupling_ok: bool
    # per-horizon arrays, index k = 1..n (index 0 unused)
    e_w2_by_step: np.ndarray = field(repr=False, default=None)
    e_s_by_step: np.ndarray = field(repr=False, default=None)
    e_s2_by_step: np.ndarray = field(repr=False, default=None)
    e_ztilde2_by_step: np.ndarray = field(repr=False, default=None)


def _forward(pa, pb, xa, xb):
    """Per-a-count vector after one step: letter a moves A to A + 1, b keeps A."""
    out = np.zeros(len(xa) + 1)
    out[1:] = pa * xa
    out[:-1] += pb * xb
    return out


def enumerate_exact(n: int, params: MemoryParams, cov_pairs: Sequence = ()) -> EnumerationResult:
    """Exact moments at horizons 1..n over all letter sequences of length n.

    The state after k steps is the a-count A (so W = 2A - k).  Each state
    carries its probability m and the partial moments E[S; A], E[S^2; A],
    E[Ztilde; A], E[Ztilde^2; A], plus E[W_k; A] from step k on for each
    covariance pair (k, l) asked for (none by default); one step of the
    forward equation moves them all with the shared step law, and the S
    increments come from encode_increment.  Cost is O(n^2).  coupling_ok is
    the exhaustive coupling check over every sequence of length n.
    """
    if n < 1:
        raise ValueError("enumeration horizon must be at least 1")
    for k, l in cov_pairs:
        if not (1 <= k <= n and 1 <= l <= n):
            raise ValueError(f"cov pair ({k},{l}) out of range for n={n}")
    q = _check_q(params.q)
    try:
        coupling_ok = exhaustive_coupling_check(n) == 2**n
    except AssertionError:
        coupling_ok = False
    firsts = {min(pair) for pair in cov_pairs}
    by_step = np.full((4, n + 1), np.nan)  # E[W^2], E[S], E[S^2], E[Ztilde^2]
    cov = {}
    carried = {}  # k -> E[W_k; A] over the current states
    m, es, es2, ez, ez2 = (np.array([v]) for v in (1.0, 0.0, 0.0, 0.0, 0.0))
    for k in range(1, n + 1):
        pa = step_prob_a(q, 2.0 * np.arange(k) - (k - 1), k - 1)
        pb = 1.0 - pa
        da, db = encode_increment(k, "a"), encode_increment(k, "b")
        es2 = _forward(pa, pb, es2 + 2 * da * es + m, es2 + 2 * db * es + m)
        es = _forward(pa, pb, es + da * m, es + db * m)
        ez, ez2, m = (_forward(pa, pb, x, x) for x in (ez, ez2, m))
        carried = {j: _forward(pa, pb, x, x) for j, x in carried.items()}
        w = 2.0 * np.arange(k + 1) - k
        zt_inc = (-1.0) ** k * w / k
        ez2 += 2.0 * zt_inc * ez + m * zt_inc**2
        ez += m * zt_inc
        if k in firsts:
            carried[k] = m * w
        for pair in cov_pairs:
            if k == max(pair):
                cov[tuple(pair)] = math.fsum(carried[min(pair)] * w)
        by_step[:, k] = [math.fsum(x) for x in (m * w * w, es, es2, ez2)]

    ew2, e_s, e_s2, ezt2 = by_step
    return EnumerationResult(
        n=n, q=q, prob_total=math.fsum(m),
        e_s=float(e_s[n]), e_s2=float(e_s2[n]), e_w2=float(ew2[n]), e_ztilde2=float(ezt2[n]),
        cov_w_pairs=cov, coupling_ok=coupling_ok,
        e_w2_by_step=ew2, e_s_by_step=e_s, e_s2_by_step=e_s2, e_ztilde2_by_step=ezt2,
    )

