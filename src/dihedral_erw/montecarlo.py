"""Monte Carlo harness: path ensembles and limit-law checks.

Replications are evolved in lockstep as numpy vectors, but each replication
consumes exactly one uniform per step from its own counter-based stream
(Philox keyed by master_seed and the replication index), so row i is the
same in every ensemble of at least i + 1 rows.  That is what
lets sample_paths compute each ensemble once per process and answer
narrower requests from stored rows.

The step loop only advances the walk and its compensated sums.  The path
collectors (qsl, lil, doob) are computed from a short history of those
steps, block by block, all three in the one pass that any of them needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .moments import t2

LIL_START = 100                # first step of the lil collector's running max

# asymptotic two-sided Kolmogorov critical constants c(alpha): threshold c/sqrt(R)
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358, 0.10: 1.224}
KS_MIN_SAMPLES = 100


def replication_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream for one replication.

    Philox is counter-based, and the spawn-key derivation keeps streams
    independent across indices while staying a pure function of
    (master_seed, index).
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class PathStats:
    """Terminal and running statistics for an ensemble of paths."""

    q: float
    steps: int
    reps: int
    master_seed: int
    W: np.ndarray = None
    S: np.ndarray = None
    Xi: np.ndarray = None
    Ztilde: np.ndarray = None
    QV: np.ndarray = None
    qsl_sum: Optional[np.ndarray] = None       # sum over k of S_k^2/k^2
    lil_pos: Optional[np.ndarray] = None       # running max of S_k/sqrt(2k lnln k)
    lil_neg: Optional[np.ndarray] = None       # same for -S_k
    doob_resid_max: Optional[np.ndarray] = None
    qv_resid_max: Optional[np.ndarray] = None
    snapshots: Dict[int, np.ndarray] = field(default_factory=dict)
    # perf_counter seconds of the pass this call ran, by part: "fill"
    # (uniforms), "steps" (the step loop, snapshots included) and
    # "collectors", read at fill-chunk and collector-block edges, never per
    # step; empty when the store answered the call
    seconds: Dict[str, float] = field(default_factory=dict)

    def qsl(self) -> np.ndarray:
        if self.qsl_sum is None:
            raise ValueError("qsl was not collected for this ensemble")
        return self.qsl_sum / math.log(self.steps)


# Process-wide ensemble store: (q, steps, master_seed) -> {item: arrays}.
# An item is "paths" (W, S, Xi, Ztilde, QV), "collectors" (the arrays of
# _Collectors.arrays) or a snapshot step; each holds the first rows of its
# arrays.  Row i depends only on stream i, so any stored prefix answers every
# request for at most that many rows.
_ENSEMBLES: Dict[tuple, Dict[object, tuple]] = {}
_UNIFORMS = np.empty(0)


def sample_paths(
    q: float,
    steps: int,
    reps: int,
    master_seed: int,
    *,
    collect: Sequence[str] = (),
    snapshot_steps: Sequence[int] = (),
) -> PathStats:
    """Evolve an ensemble of coupled-walk paths.

    collect may contain "qsl" (needs steps >= 2), "lil" (running max from
    step LIL_START on, so needs steps >= LIL_START) and "doob"; terminal
    values of W, S, Xi, Ztilde and QV are always recorded, as are
    S-snapshots at the requested steps.  A pass that computes any
    collector computes all of them (lil only when steps >= LIL_START), and
    the result carries the requested ones.

    An ensemble is computed once per process: a request that earlier ones
    already cover (at least as many rows, with collectors if any is
    requested, and every requested snapshot step) is answered with copies
    of stored rows.  So after one request with a collector, a request for
    another collector on no more rows evolves nothing.
    """
    if steps < 1 or reps < 1:
        raise ValueError("steps and reps must be at least 1")
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [-1, 1], got {q}")
    collect = set(collect)
    bad = collect - {"qsl", "lil", "doob"}
    if bad:
        raise ValueError(f"unknown collectors: {sorted(bad)}")
    if not all(float(s).is_integer() for s in snapshot_steps):
        raise ValueError(f"snapshot steps must be integers, got {list(snapshot_steps)}")
    snapshot_steps = sorted(set(int(s) for s in snapshot_steps))
    if snapshot_steps and not (1 <= snapshot_steps[0] and snapshot_steps[-1] <= steps):
        raise ValueError("snapshot steps must lie in [1, steps]")
    if "qsl" in collect and steps < 2:
        raise ValueError("qsl collection needs steps >= 2")
    if "lil" in collect and steps < LIL_START:
        raise ValueError(f"lil collection needs steps >= {LIL_START}")

    entry = _ENSEMBLES.setdefault((q, steps, master_seed), {})

    def stored_rows(item) -> int:
        return len(entry[item][0]) if item in entry else 0

    out = PathStats(q=q, steps=steps, reps=reps, master_seed=master_seed)
    needed = ("paths", *snapshot_steps) + (("collectors",) if collect else ())
    if any(stored_rows(k) < reps for k in needed):
        fresh, out.seconds = _evolve(q, steps, reps, master_seed, bool(collect), snapshot_steps)
        entry.update((k, arrays) for k, arrays in fresh.items() if stored_rows(k) < reps)

    def rows(k):
        return tuple(a[:reps].copy() for a in entry[k])

    out.W, out.S, out.Xi, out.Ztilde, out.QV = rows("paths")
    if collect:
        qsl_sum, lil_pos, lil_neg, doob_resid_max, qv_resid_max = rows("collectors")
        if "qsl" in collect:
            out.qsl_sum = qsl_sum
        if "lil" in collect:
            out.lil_pos, out.lil_neg = lil_pos, lil_neg
        if "doob" in collect:
            out.doob_resid_max, out.qv_resid_max = doob_resid_max, qv_resid_max
    out.snapshots = {m: rows(m)[0] for m in snapshot_steps}
    return out


def _uniform_buffer(chunk: int, reps: int) -> np.ndarray:
    """A (chunk, reps) view of one buffer kept across calls.

    At 10k reps the buffer is just under glibc's largest mmap threshold;
    freeing it after every ensemble would move later ones onto the heap,
    where stored ensembles pin them, and raise peak memory.
    """
    global _UNIFORMS
    if _UNIFORMS.size < chunk * reps:
        _UNIFORMS = np.empty(chunk * reps)
    return _UNIFORMS[:chunk * reps].reshape(chunk, reps)


def _evolve(q, steps, reps, master_seed, collect, snapshot_steps) -> tuple:
    """One lockstep pass over replications 0..reps-1.

    Returns the store items and the pass's seconds (see PathStats).  Each
    step performs the same IEEE operations, in the same order, as the
    scalar chain in coupling.advance, so every row is bit-identical to it;
    the letter is drawn with a buffered form of group.step_prob_a, so the
    scalar samplers turn each uniform into the same letter.
    Only the number of numpy calls is kept small: results go to
    preallocated buffers, constants are 0-d arrays, and accumulators of the
    same shape are stacked and updated by one call.  Sign flips are exact,
    which the stacking exploits:

    - dW = +1 iff u < p, so e = copysign(1, u - p) is -dW, ties included;
    - the Kahan pair K holds (-Xi, Ztilde), whose increments are both
      (-1)^n times the row of P = (e + q w, w), w = W_n / max(n, 1);
    - the Neumaier pair N holds (sum q^2 w^2, sum w^2), the latter only
      with collectors.  Its term at n = 1 is the largest (|w| <= 1 and the
      terms are non-negative), so the branch |sum| >= |term| is taken from
      n = 2 on; at n = 0 (term 0, as W_0 = 0) and n = 1 the sum is still 0
      and both branches give 0.

    The step from time n reads S, K, N and N's carry NC from row n % ring
    of a history ring and writes them to row (n + 1) % ring.  A bare pass
    (collect false) needs only the last state: K and N alternate between
    two rows, and S and NC are updated in place.  With collect true the ring
    holds a block of steps, and _Collectors reads each block once its last
    row is written.
    """
    snaps = {m: np.empty(reps, dtype=np.int64) for m in snapshot_steps}
    streams = [replication_stream(master_seed, i) for i in range(reps)]
    chunk = int(max(64, min(8192, (1 << 22) // reps)))
    ring = int(max(2, min(chunk, (1 << 16) // reps))) if collect else 2

    half, one, c_q, c_hq, c_qq = (np.array(v) for v in (0.5, 1.0, q, 0.5 * q, q * q))
    n_ = np.ones(())                                # max(n, 1), as in step_prob_a
    W, e = np.zeros(reps), np.zeros(reps)
    P, Y, KC = (np.zeros((2, reps)) for _ in range(3))
    X, R = (np.zeros((2 if collect else 1, reps)) for _ in range(2))
    w, P0, qv_term, w_sq = P[1], P[0], X[0], X[-1]
    kept = ring if collect else 1                   # a bare pass updates S and NC in place
    S_h, K_h = np.zeros((kept, reps)), np.zeros((ring, 2, reps))
    N_h, NC_h = np.zeros((ring,) + X.shape), np.zeros((kept,) + X.shape)
    # one view object per row: numpy takes a slower overlap path when out= is
    # another view of an input's memory, so in place must mean out is the input
    S_rows, NC_rows = list(S_h), list(NC_h)
    rows = [(S_rows[r % kept], K_h[r], N_h[r], NC_rows[r % kept]) for r in range(ring)]
    steps_to = [rows[r - 1] + rows[r] for r in range(ring)]     # states before, after
    collectors = _Collectors(q, reps, ring) if collect else None

    seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
    u_buf = _uniform_buffer(chunk, reps)
    clock = time.perf_counter()
    n = 0                                           # time before the step
    for m0 in range(0, steps, chunk):
        c_eff = min(chunk, steps - m0)
        for i, st in enumerate(streams):
            u_buf[:c_eff, i] = st.random(c_eff)
        clock = _lap(seconds, "fill", clock)
        lo = 0
        while lo < c_eff:                           # a block: steps first.. on rows r0..
            first = m0 + lo + 1
            r0 = first % ring
            hi = c_eff if collectors is None else min(c_eff, lo + ring - r0)
            for u in u_buf[lo:hi]:
                m = n + 1
                S, K, N, NC, S_new, K_new, N_new, NC_new = steps_to[m % ring]
                np.divide(W, n_, out=w)
                np.multiply(c_hq, w, out=e)
                np.add(e, half, out=e)              # p = 1/2 + (q/2) w
                np.subtract(u, e, out=e)
                np.copysign(one, e, out=e)          # e = -dW
                np.multiply(c_q, w, out=P0)
                np.add(P0, e, out=P0)
                if n & 1:                           # increments -P, so y = -(P + c)
                    np.add(P, KC, out=Y)
                    np.subtract(K, Y, out=K_new)
                    np.subtract(K_new, K, out=KC)
                    np.add(KC, Y, out=KC)
                else:
                    np.subtract(P, KC, out=Y)
                    np.add(K, Y, out=K_new)
                    np.subtract(K_new, K, out=KC)
                    np.subtract(KC, Y, out=KC)
                np.multiply(w, w, out=w_sq)
                np.multiply(c_qq, w_sq, out=qv_term)
                np.add(N, X, out=N_new)             # Neumaier: c += (sum - t) + x
                np.subtract(N, N_new, out=R)
                np.add(R, X, out=R)
                np.add(NC, R, out=NC_new)
                np.subtract(W, e, out=W)
                if n & 1:
                    np.add(S, e, out=S_new)
                else:
                    np.subtract(S, e, out=S_new)
                if m in snaps:
                    snaps[m][:] = S_new
                n = n_[()] = m
            clock = _lap(seconds, "steps", clock)
            if collectors is not None:
                block = slice(r0, r0 + hi - lo)
                collectors.add(first, S_h[block], K_h[block], N_h[block], NC_h[block])
                clock = _lap(seconds, "collectors", clock)
            lo = hi

    S, K, N, NC = rows[n % ring]
    xi = np.subtract(0.0, K[0])         # a zero comes out as +0, as in the scalar sum
    items = {"paths": (W.astype(np.int64), S.astype(np.int64), xi, K[1].copy(),
                       steps - (N[0] + NC[0]))}
    if collectors is not None:
        items["collectors"] = collectors.arrays()
    items.update((m, (s,)) for m, s in snaps.items())
    return items, seconds


def _lap(seconds: dict, key: str, since: float) -> float:
    now = time.perf_counter()
    seconds[key] += now - since
    return now


class _Collectors:
    """qsl, lil and doob of one pass, computed block by block from the history.

    Each collector does, per row, the IEEE operations the scalar chain does
    per step, so it is bit-identical to a per-step update: the qsl sum is
    continued along the steps by np.add.accumulate, which adds strictly in
    order, and max/min are exact in any order.  No value is NaN or -0.0
    (S starts at +0.0 and x - x is +0.0; the doob residuals are absolute
    values), so the order of the max/min reductions cannot show either.
    """

    def __init__(self, q: float, reps: int, ring: int):
        self.c_q, self.c_qq = np.array(q), np.array(q * q)
        self.qsl = np.zeros(reps)
        self.lil_pos = np.full(reps, -np.inf)
        self.lil_neg_neg = np.full(reps, np.inf)    # -lil_neg, tracked with minimum
        self.dmax = np.zeros((2, reps))
        self.T, self.U = np.empty((ring, reps)), np.empty((ring, reps))

    def add(self, first: int, S, K, N, NC) -> None:
        """Rows are steps first, first + 1, ...: S, K = (-Xi, Ztilde), N and NC."""
        b = len(S)
        T, U = self.T[:b], self.U[:b]
        # qsl: sum of (S_m / m)^2, continued from the running sum
        np.divide(S, np.arange(first, first + b, dtype=float)[:, None], out=T)
        np.multiply(T, T, out=T)
        np.add(self.qsl, T[0], out=T[0])
        np.add.accumulate(T, axis=0, out=T)
        self.qsl[:] = T[-1]
        # lil: running max of +-S_m / sqrt(2 m lnln m) from step LIL_START on
        j = max(0, LIL_START - first)
        if j < b:
            scale = [1.0 / math.sqrt(2.0 * m * math.log(math.log(m)))
                     for m in range(first + j, first + b)]
            np.multiply(S[j:], np.array(scale)[:, None], out=T[j:])
            np.maximum(self.lil_pos, T[j:].max(axis=0), out=self.lil_pos)
            np.minimum(self.lil_neg_neg, T[j:].min(axis=0), out=self.lil_neg_neg)
        # doob: |S - Xi - q Zt| and |QV correction - q^2 sum W_k^2/k^2|
        np.add(S, K[:, 0], out=T)
        np.multiply(self.c_q, K[:, 1], out=U)
        np.subtract(T, U, out=T)
        np.absolute(T, out=T)
        np.maximum(self.dmax[0], T.max(axis=0), out=self.dmax[0])
        np.add(N[:, 0], NC[:, 0], out=T)
        np.add(N[:, 1], NC[:, 1], out=U)
        np.multiply(self.c_qq, U, out=U)
        np.subtract(T, U, out=T)
        np.absolute(T, out=T)
        np.maximum(self.dmax[1], T.max(axis=0), out=self.dmax[1])

    def arrays(self) -> tuple:
        """qsl_sum, lil_pos, lil_neg, doob_resid_max, qv_resid_max.

        lil stays at -inf/+inf when steps < LIL_START; sample_paths never
        returns it then.
        """
        return (self.qsl, self.lil_pos, np.negative(self.lil_neg_neg),
                self.dmax[0].copy(), self.dmax[1].copy())


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    passed: bool


def ks_normal_test(samples, alpha: float = 0.01) -> KSResult:
    """Two-sided Kolmogorov-Smirnov test against the standard normal.

    Uses the asymptotic critical value c(alpha)/sqrt(R); small samples
    (R < 100) are refused because the asymptotic constant is not valid
    there and the exact table is out of scope.  The normal CDF is
    erfc(-x/sqrt(2))/2, by math.erfc element by element.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample set")
    if x.size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples for the asymptotic threshold")
    if alpha not in KS_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(KS_CRITICAL)}")
    r = x.size
    cdf = 0.5 * np.fromiter(map(math.erfc, (-x / math.sqrt(2.0)).tolist()), float, r)
    i = np.arange(1, r + 1)
    d_plus = np.max(i / r - cdf)
    d_minus = np.max(cdf - (i - 1) / r)
    stat = float(max(d_plus, d_minus))
    threshold = KS_CRITICAL[alpha] / math.sqrt(r)
    return KSResult(statistic=stat, threshold=threshold, passed=stat < threshold)


def qsl_statistic(s_path) -> float:
    """(1/log n) * sum_k S_k^2 / k^2 along one path (S_1..S_n)."""
    s = np.asarray(s_path, dtype=float)
    n = s.size
    if n < 2:
        raise ValueError("need a path of length at least 2")
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum((s / k) ** 2) / math.log(n))


@dataclass(frozen=True)
class SlopeFit:
    fitted_slope: float
    intercept: float
    theoretical_slope: float
    residual: float
    dropped: tuple = ()


def t2_rate_fit(q: float, n_list: Sequence[int]) -> SlopeFit:
    """Least-squares slope of log|T2(n, q)| against log n.

    The theoretical decay is n^(q-1) for q > 0 and n^(-1) for q < 0; at
    q = 0 the bound carries an extra log factor, and T2 vanishes
    identically at even n (the alternating a_k sum telescopes to 0), so
    exact zeros and underflows are dropped from the fit and reported.
    """
    ns = [int(n) for n in n_list]
    if len(ns) < 4 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("need an increasing n list with at least 4 points")
    if ns[-1] < 100 * ns[0]:
        raise ValueError("n list should span at least two decades")
    kept, logs, dropped = [], [], []
    for n in ns:
        val = t2(n, q)
        if val == 0.0 or not math.isfinite(val):
            dropped.append(n)
            continue
        kept.append(math.log(n))
        logs.append(math.log(abs(val)))
    if len(kept) < 2:
        raise ValueError(f"too few usable points after dropping {dropped}")
    slope, intercept = np.polyfit(kept, logs, 1)
    resid = float(np.sum((np.polyval([slope, intercept], kept) - np.array(logs)) ** 2))
    theoretical = q - 1.0 if q > 0.0 else -1.0
    return SlopeFit(
        fitted_slope=float(slope),
        intercept=float(intercept),
        theoretical_slope=theoretical,
        residual=resid,
        dropped=tuple(dropped),
    )
