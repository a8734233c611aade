"""Exact second moments of the coupled walk and an exact pass over reachable states.

The central quantity is H(k, q) = E[W_k^2].  It satisfies the one-step
conditional-variance recursion

    H(1) = 1,  H(k+1) = (1 + 2q/k) H(k) + 1,

which is taken as the defining computation.  _recurrence, the one block loop,
solves it and the recursion for G_k = E[Ztilde_k W_k] in var_ztilde_exact,
by cumulative products and sums over blocks of k.  _h_blocks hands H on a
block at a time, so the exact sums hold a few blocks at any horizon, and
only h_moment_table and MomentTable hold tables of length n.  The closed form
H = k/(2q - 1) ((2q)_k/k! - 1) costs O(k) per value and needs a separate
limit at q = 1/2, so it is only a cross-check, kept with the tests in
tests/oracles.py.  The gamma ratios, the I column of MomentTable and of t2,
come from quadrature.i_factor_table, which holds the package's one gamma
value, and its running product i_factor_block.

enumerate_exact is the independent oracle for all of these: W is a Markov
chain on the a-count and S, Ztilde are additive functionals of its path,
so the forward equation over the a-count gives every moment exactly from
the step law alone, in O(n^2) operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .coupling import encode_increment, exhaustive_coupling_check
from .group import MemoryParams, _check_int, _check_q, step_prob_a
from .quadrature import gauss_2f1, i_factor_block, i_factor_table


def h_moment(k: int, q: float) -> float:
    """E[W_k^2] by the defining recursion."""
    k, q = _check_int(k, "k"), _check_q(q)
    for _, h in _h_blocks(k, q):
        pass
    return float(h[-1])


_BLOCK = 4096


def _recurrence(coeffs, x: float, k_first: int, n: int):
    """Each block of k with x_k0 .. x_(k+1), for x_(k+1) = a_k x_k + b_k from x = x_(k_first).

    coeffs(k) gives (a_k, b_k), every a_k > 0, for a block of k.  Blocks start at
    k0 = k_first + _BLOCK j, so x_k does not depend on n, and each is solved at once as
    x_(k+1) = Q_k (x_k0 + sum_{m=k0..k} b_m/Q_m), Q_k = a_k0 ... a_k.  Rounding in Q_k
    grows with the block: one product over all of k <= 1e6 put H 6.5e-13 off at q = 1/2,
    blocks of _BLOCK = 4096 stay within 1e-13 of the 40-digit value.
    """
    for k0 in range(k_first, n, _BLOCK):
        k = np.arange(k0, min(n, k0 + _BLOCK), dtype=float)
        a, b = coeffs(k)
        prod = np.cumprod(a)
        xs = np.empty(len(k) + 1)
        xs[0] = x
        np.multiply(prod, x + np.cumsum(b / prod), out=xs[1:])
        yield k, xs
        x = xs[-1]


def _h_blocks(n: int, q: float):
    """(k, H(k, q)) for k = 1..n, one array of consecutive k at a time, each k once.

    H(k+1) = a_k H(k) + 1 with a_k = 1 + 2q/k.  a_1 = 1 + 2q and a_2 = 1 + q
    can be zero or negative, so H(2) and H(3) come one step at a time, and
    _recurrence solves the rest, where every a_k is positive.
    """
    h = [1.0]
    for k in range(1, min(n, 3)):
        h.append((1.0 + (2.0 * q) / k) * h[-1] + 1.0)
    lead = h  # H(1) .. H(3) go out with the first block: one array up to n = 4099
    for k, xs in _recurrence(lambda k: (1.0 + (2.0 * q) / k, 1.0), h[-1], 3, n):
        yield np.arange(k[0] + 1.0 - len(lead), k[-1] + 2.0), np.concatenate((lead, xs[1:]))
        lead = []
    if lead:
        yield np.arange(1.0, len(lead) + 1), np.array(lead)


def h_moment_table(n: int, q: float) -> np.ndarray:
    """Array of H(k, q) for k = 1..n (index 0 unused, set to nan), from _h_blocks."""
    n, q = _check_int(n, "n"), _check_q(q)
    out = np.empty(n + 1)
    out[0] = np.nan
    for k, h in _h_blocks(n, q):
        out[int(k[0]):int(k[-1]) + 1] = h
    return out


def var_ztilde_exact(n: int, q: float) -> float:
    """E[Ztilde_{n+1}^2] for the alternating series Ztilde of W_k/k.

    Ztilde_{k+1} = Ztilde_k + (-1)^k W_k/k (as in coupling._steps) and
    E[W_{k+1} | F_k] = (1 + q/k) W_k, so G_k = E[Ztilde_k W_k] obeys G_1 = 0,
    G_{k+1} = (1 + q/k) (G_k + (-1)^k H_k/k), with H_k = H(k, q), and the
    value is sum_{k<=n} t_k, t_k = H_k/k^2 + 2 (-1)^k G_k/k.  The halves of
    t_k cancel to one part in 4e4 (n = 1e6, q = 0.8), so the t_k are summed
    in pairs that end at k + 1 = n, which the recursions of H and G reduce to

        t_k + t_{k+1} = 2 (-1)^k (1-q) G_k/(k (k+1)) + ((1-2q) H_k/k^2 + 1)/(k+1)^2,

    beside t_1 = 1 (odd n) or t_1 + t_2 = (1 - q)/2 (even n).  G starts at G_2 = -(1 + q), as
    a_1 = 1 + q vanishes at q = -1.  Pairs are summed per block of G, whose H comes from
    _h_blocks through a window of at most two of its arrays, so memory does not grow with n.
    """
    n, q = _check_int(n, "n"), _check_q(q)
    odd = n % 2
    sign = 1.0 if odd else -1.0  # (-1)^k at every pair's first k
    first = slice(1 - odd, None, 2)  # k = n - 1, n - 3, ...; every block starts at an even k
    blocks = _h_blocks(n, q)
    start, held = 1, next(blocks)[1]  # H_k for k = start, start + 1, ...

    def h_at(k):  # G blocks start at k = 2 + 4096 j, H arrays at 1 and 4100 + 4096 j
        nonlocal start, held
        lo = int(k[0]) - start
        while len(held) < lo + len(k):
            held, start, lo = np.concatenate((held[lo:], next(blocks)[1])), int(k[0]), 0
        return held[lo:lo + len(k)]

    def coeffs(k):
        a = 1.0 + q / k
        b = a * (h_at(k) / k)
        b[1::2] *= -1.0  # (-1)^k, k[0] even; sign flips are exact
        return a, b

    def pair_sums():
        yield 1.0 if odd else (1.0 - q) / 2.0
        for k, g in _recurrence(coeffs, -(1.0 + q), 2, n):
            kp, hp, gp = k[first], h_at(k)[first], g[:-1][first]
            pairs = (sign * 2.0 * (1.0 - q) * gp / (kp * (kp + 1.0))
                     + ((1.0 - 2.0 * q) * hp / kp**2 + 1.0) / (kp + 1.0) ** 2)
            yield float(np.sum(pairs))

    return math.fsum(pair_sums())


def t1(n: int, q: float) -> float:
    """First variance term: sum over k <= n of a_k * J1(k, q).

    a_k carries I(k, q) and J1 a beta factor B(k+q, 2-q); their product is
    (1-q)/(k+1), so each term is H(k, q)/k^2 * (1-q)/(k+1) times the Gauss
    factor of J1.  This form has no pole: at k = 1, q = -1 the term is 1.
    The terms are formed an array of _h_blocks at a time, each with one array call
    of gauss_2f1, and fsum, correctly rounded, adds them as they come.
    """
    n, q = _check_int(n, "n"), _check_q(q)
    return math.fsum(chain.from_iterable(
        (h / k**2 * (1.0 - q) / (k + 1) * gauss_2f1(1.0, k + q, k + 2.0, -1.0)).tolist()
        for k, h in _h_blocks(n, q)))


def t2(n: int, q: float) -> float:
    """Second variance term: J2(n, q) times the alternating sum of a_k, k <= n.

    J2(n, q) = 2F1(1, n+q+1; n+2; -1) / I(n+1, q) as in quadrature.j2.  The a_k = H_k I_k/k^2
    are formed an array of _h_blocks at a time, with I from one running product over the
    same arrays that ends one step later, at I(n+1); fsum adds the cancelling sum exactly.
    """
    n, q = _check_int(n, "n"), _check_q(q)
    i2, carry = float(i_factor_table(2, q)[2]), 1.0  # the one gamma value

    def terms():
        nonlocal carry
        for k, h in _h_blocks(n, q):
            i, carry = i_factor_block(k, q, i2, carry)
            a = h * i / k**2
            a[(n + 1 - int(k[0])) % 2::2] *= -1.0  # (-1)^(n-k) a_k; sign flips are exact
            yield a.tolist()

    total = math.fsum(chain.from_iterable(terms()))
    i_next, _ = i_factor_block(np.array([n + 1.0]), q, i2, carry)
    return gauss_2f1(1.0, n + q + 1.0, n + 2.0, -1.0) / float(i_next[0]) * total


def r_norm(n: float, p: float) -> float:
    """n over the scale of |W_n|: sqrt(n) below p = 3/4, sqrt(n/log n) at it (n > 1), n^(2(1-p)) above.

    |W_n| grows like sqrt(n), sqrt(n log n) and n^(2p-1) there, so H(n, 2p - 1) r_n^2/n^2 stays bounded.
    """
    if not n >= 1:                      # NaN included
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
        k = np.arange(1, len(h) + 1)
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
    n = _check_int(n, "n")
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

