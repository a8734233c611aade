"""Exact second moments of the coupled walk and an exact pass over reachable states.

The central quantity is H(k, q) = E[W_k^2].  It satisfies the one-step
conditional-variance recursion

    H(1) = 1,  H(k+1) = (1 + 2q/k) H(k) + 1,

which is taken as the defining computation (h_moment_table solves it in
blocks of k by cumulative products and sums): the gamma-ratio closed form
needs a 1/Gamma(0) = 1/Gamma(-1) = 0 convention at q in {0, -1/2} and has
an unhandled pole at q = -1, so it serves only as a cross-check where its
arguments stay clear of poles.

enumerate_exact is the independent oracle for all of these: W is a Markov
chain on the a-count and S, Ztilde are additive functionals of its path,
so the forward equation over the a-count gives every moment exactly from
the step law alone, in O(n^2) operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaln, gammasgn

from .coupling import encode_increment, exhaustive_coupling_check
from .group import MemoryParams, _check_q, step_prob_a
from .quadrature import gauss_2f1, j2


def h_moment(k: int, q: float) -> float:
    """E[W_k^2] by the defining recursion."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(h_moment_table(k, q)[k])


def h_moment_table(n: int, q: float) -> np.ndarray:
    """Array of H(k, q) for k = 1..n (index 0 unused, set to nan).

    H(k+1) = a_k H(k) + 1 with a_k = 1 + 2q/k.  a_1 = 1 + 2q and a_2 = 1 + q
    can be zero or negative, so H(2) and H(3) come one step at a time.  From
    k = 3 on every a_k is positive, and each block of 4096 steps from a known
    H(k0) is solved at once: with Q_j = a_k0 ... a_(k0+j-1),

        H(k0 + j) = Q_j (H(k0) + sum_{m=1}^{j} 1/Q_m).

    Rounding in Q_j grows with the block length: one product over all of
    k <= 1e6 was 6.5e-13 off at q = 1/2, blocks of 4096 stay within 1e-13
    of the 40-digit value.  The block edges are fixed in k, so H(k) does
    not depend on n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    out = np.empty(n + 1)
    out[0], out[1] = np.nan, 1.0
    for k in range(1, min(n, 3)):
        out[k + 1] = (1.0 + (2.0 * q) / k) * out[k] + 1.0
    for k0 in range(3, n, 4096):
        prod = np.cumprod(1.0 + (2.0 * q) / np.arange(k0, min(n, k0 + 4096), dtype=float))
        out[k0 + 1:k0 + 1 + len(prod)] = prod * (out[k0] + np.cumsum(1.0 / prod))
    return out


def h_closed_form(k: int, q: float) -> float:
    """Gamma-ratio closed form for H(k, q); cross-check only.

    Returns k * (harmonic sum) at q = 1/2.  At q in {0, -1/2} the
    1/Gamma(0) = 1/Gamma(-1) = 0 convention collapses the formula to
    k/(1 - 2q).  q = -1 would need a value for 1/Gamma(-2) that the
    convention does not cover, so it is rejected; use h_moment there.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = _check_q(q)
    if q == 0.5:
        return k * sum(1.0 / j for j in range(1, k + 1))
    if q in (0.0, -0.5):
        if q == -0.5 and k == 1:
            # Gamma(k + 2q) = Gamma(0) collides with the Gamma(2q) pole;
            # the 1/Gamma = 0 convention does not apply to a pole ratio
            raise ValueError("closed form has a pole collision at k=1, q=-1/2")
        return k / (1.0 - 2.0 * q)
    if q == -1.0:
        raise ValueError("closed form undefined at q = -1; the recursion is definitive")
    two_q = 2.0 * q
    ratio = gammasgn(k + two_q) * gammasgn(two_q) * math.exp(
        gammaln(k + two_q) - gammaln(k + 1) - gammaln(two_q)
    )
    return k / (two_q - 1.0) * (ratio - 1.0)


def i_factor(k: int, q: float) -> float:
    """Normaliser I(k, q) = Gamma(k+1) / (Gamma(k+q) Gamma(1-q)).

    At k + q = 0 (only k = 1, q = -1) the gamma in the denominator has a
    pole and the limiting value of I is 0.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return float(i_factor_table(k, q)[k])


def i_factor_table(n: int, q: float) -> np.ndarray:
    """I(k, q) for k = 1..n (index 0 is nan)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    k = np.arange(1, n + 1, dtype=float)
    if q == 0.0:
        vals = k.copy()  # Gamma(k+1)/Gamma(k), exactly
    else:
        with np.errstate(divide="ignore"):
            vals = np.exp(gammaln(k + 1) - gammaln(k + q) - gammaln(1.0 - q))
        if q == -1.0:
            vals[0] = 0.0
    out = np.empty(n + 1)
    out[0] = np.nan
    out[1:] = vals
    return out


def a_factor_table(n: int, q: float) -> np.ndarray:
    """a_k = H(k, q) I(k, q) / k^2 for k = 1..n (index 0 is nan)."""
    h = h_moment_table(n, q)
    i = i_factor_table(n, q)
    k = np.arange(0, n + 1, dtype=float)
    k[0] = np.nan
    return h * i / k**2


def cov_w(k: int, l: int, q: float) -> float:
    """E[W_k W_l]: the Pochhammer-ratio propagation of H(min, q).

    For k <= l the conditional mean of W_l given step k is W_k times the
    running product of (1 + q/i), i = k..l-1, whence
    E[W_k W_l] = [(k+q)_(l-k) / (k)_(l-k)] H(k, q).
    """
    if k < 1 or l < 1:
        raise ValueError("indices must be at least 1")
    q = _check_q(q)
    if k > l:
        k, l = l, k
    ratio = 1.0
    for i in range(k, l):
        ratio *= (i + q) / i
    return ratio * h_moment(k, q)


def var_ztilde_exact(n: int, q: float) -> float:
    """E[Ztilde_{n+1}^2] for the alternating series Ztilde of W_k/k.

    Mathematically this is

        sum_{k=1}^{n} (H(k,q)/k^2) (1 + 2 sum_{l=1}^{n-k} (-1)^l (k+q)_l/(k+1)_l),

    with all Pochhammer ratios built by running products.  The double sum
    is evaluated in a separable O(n) form: the cross terms factor through
    cumulative products e_l of (1 + q/i), so one cumulative-product and one
    prefix-sum pass suffice.  The k = 1 column is split off because its
    leading factor (1 + q) vanishes at q = -1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    h = h_moment_table(n, q)  # h[k] = H(k, q)
    k = np.arange(0, n + 1, dtype=float)
    k[0] = np.nan

    base = float(np.sum(h[1:] / k[1:] ** 2))
    if n == 1:
        return base

    # e[l] = prod_{i=2}^{l-1} (1 + q/i) for l = 2..n
    e = np.empty(n + 1)
    e[:2] = np.nan
    e[2] = 1.0
    e[3:] = np.cumprod(1.0 + q / k[2:n])
    sign = np.ones(n + 1)  # (-1)^l
    sign[1::2] = -1.0

    # k = 1 against every later l: ratio (1+q)_l/(1+1)_l telescopes to (1+q) e_l
    cross1 = float(np.sum(sign[2:] * -1.0 / k[2:] * (1.0 + q) * e[2:] * h[1]))

    # u_k = (-1)^k H_k / (k e_k), prefix-summed over k = 2..l-1
    prefix = np.cumsum(sign[2:-1] * h[2:-1] / (k[2:-1] * e[2:-1]))
    cross2 = float(np.sum(sign[3:] * e[3:] / k[3:] * prefix))

    return base + 2.0 * (cross1 + cross2)


def _var_ztilde_double_sum(n: int, q: float) -> float:
    """Direct O(n^2) evaluation of the same double sum; small-n oracle."""
    if n < 1:
        raise ValueError("n must be at least 1")
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


def t1(n: int, q: float) -> float:
    """First variance term: sum over k <= n of a_k * J1(k, q).

    a_k carries I(k, q) and J1 a beta factor B(k+q, 2-q); their product is
    (1-q)/(k+1), so each term is H(k, q)/k^2 * (1-q)/(k+1) times the Gauss
    factor of J1.  This form has no pole: at k = 1, q = -1 the term is 1.
    The n Gauss factors come from one array call of gauss_2f1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
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
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _check_q(q)
    signed = a_factor_table(n, q)[1:]
    signed[-2::-2] *= -1.0          # (-1)^(n-k) a_k; sign flips are exact
    return j2(n, q) * math.fsum(signed.tolist())


def r_norm(n: float, p: float) -> float:
    """Scale of |W_n|: sqrt(n) below p = 3/4, sqrt(n/log n) at it, n^(2(1-p)) above."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if p < 0.75:
        return math.sqrt(n)
    if p == 0.75:
        return math.sqrt(n / math.log(n))
    return n ** (2.0 * (1.0 - p))


@dataclass
class MomentTable:
    """Tabulated H, I, and a_k = H*I/k^2 for k = 1..n at one q."""

    q: float
    k: np.ndarray
    H: np.ndarray
    I: np.ndarray
    a: np.ndarray

    @classmethod
    def build(cls, n: int, q: float) -> "MomentTable":
        h = h_moment_table(n, q)
        i = i_factor_table(n, q)
        a = a_factor_table(n, q)
        return cls(q=float(q), k=np.arange(1, n + 1), H=h[1:], I=i[1:], a=a[1:])

    def csv_lines(self):
        yield "k,H,I,a_k"
        for k, h, i, a in zip(self.k, self.H, self.I, self.a):
            yield f"{k},{h:.12g},{i:.12g},{a:.12g}"


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

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "q": self.q,
            "prob_total": self.prob_total,
            "E_S": self.e_s,
            "E_S2": self.e_s2,
            "E_W2": self.e_w2,
            "E_Ztilde2": self.e_ztilde2,
            "cov_W": {f"{k},{l}": v for (k, l), v in self.cov_w_pairs.items()},
            "coupling_ok": self.coupling_ok,
        }
        return json.dumps(payload, indent=2)


def _forward(pa, pb, xa, xb):
    """Per-a-count vector after one step: letter a moves A to A + 1, b keeps A."""
    out = np.zeros(len(xa) + 1)
    out[1:] = pa * xa
    out[:-1] += pb * xb
    return out


def enumerate_exact(
    n: int,
    params: MemoryParams,
    cov_pairs: Sequence = ((1, 2),),
) -> EnumerationResult:
    """Exact moments at horizons 1..n over all letter sequences of length n.

    The state after k steps is the a-count A (so W = 2A - k).  Each state
    carries its probability m and the partial moments E[S; A], E[S^2; A],
    E[Ztilde; A], E[Ztilde^2; A], plus E[W_k; A] from step k on for each
    covariance pair (k, l); one step of the forward equation moves them all
    with the shared step law, and the S increments come from
    encode_increment.  Cost is O(n^2).  coupling_ok is the exhaustive
    coupling check over every sequence of length n.
    """
    if n < 1:
        raise ValueError("enumeration horizon must be at least 1")
    for k, l in cov_pairs:
        if not (1 <= k <= n and 1 <= l <= n):
            raise ValueError(f"cov pair ({k},{l}) out of range for n={n}")
    q = params.q
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
        pa = 0.5 if k == 1 else step_prob_a(q, 2.0 * np.arange(k) - (k - 1), k - 1)
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

