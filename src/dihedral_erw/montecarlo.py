"""Monte Carlo harness: path ensembles and limit-law checks.

Replications are evolved in lockstep as numpy vectors, but each replication
consumes exactly one uniform per step from its own counter-based stream
(Philox keyed by master_seed and the replication index; see _philox), so
row i is the same in every ensemble of at least i + 1 rows.  That is what
lets sample_paths compute each ensemble once per process and answer
narrower requests from stored rows, and run a wide pass on several CPUs.

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

from .group import _check_int
from .moments import t2

LIL_START = 100                # first step of the lil collector's running max

# asymptotic two-sided Kolmogorov critical constants c(alpha): threshold c/sqrt(R)
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358, 0.10: 1.224}
KS_MIN_SAMPLES = 100


def replication_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream for one replication.

    Philox is counter-based, and numpy's spawn-key derivation of its key
    keeps streams independent across indices while staying a pure function
    of (master_seed, index).  Both are integers >= 0 (group._check_int), and
    an index of 2^32 or more raises ValueError too.
    """
    global _philox
    master_seed, index = _check_int(master_seed, "master_seed", 0), _check_int(index, "index", 0)
    if _philox is None:             # at the first stream, not at import
        from . import _philox
    return _philox.stream(master_seed, index)


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
    # (streams and uniforms), "steps" (the step loop, snapshots included) and
    # "collectors", read at fill-chunk and collector-block edges, never per
    # step; of a pass split over processes, each is the maximum over them;
    # empty when the store answered the call
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
_philox = None
_TILE = 128                     # streams per staging block of the uniform fill
# A pass of reps rows and steps steps runs in _parts(reps, steps, cpus)
# processes.  A part below either floor saves no time: a child takes about
# 0.2 s to start, and a part of fewer rows is bound by per-call dispatch
# (measured with two parts; BENCH_26.json)
_MIN_PART_ROWS = 256
_MIN_PART_WORK = 1 << 24        # path-steps


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
    S-snapshots at the requested steps.  A request that names any
    collector is a collector pass, and its result carries every collector
    the pass computed: qsl_sum when steps >= 2, lil_pos and lil_neg when
    steps >= LIL_START, and both doob residuals.

    An ensemble is computed once per process: a request that earlier ones
    already cover (at least as many rows, with collectors if any is
    requested, and every requested snapshot step) is answered with copies
    of stored rows.  So after one collector pass, a collector request on
    no more rows evolves nothing.

    Rows are independent, so a wide pass runs on every usable CPU, bit for
    bit the same (see _parts and _split); a failed child process makes the
    call raise RuntimeError and store no row.
    """
    steps, reps = _check_int(steps, "steps"), _check_int(reps, "reps")
    master_seed = _check_int(master_seed, "master_seed", 0)
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [-1, 1], got {q}")
    collect = set(collect)
    bad = collect - {"qsl", "lil", "doob"}
    if bad:
        raise ValueError(f"unknown collectors: {sorted(bad)}")
    snapshot_steps = sorted({_check_int(s, "snapshot steps") for s in snapshot_steps})
    if snapshot_steps and snapshot_steps[-1] > steps:
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
        chunk = int(max(64, min(1024, (1 << 22) // (reps + min(_TILE, reps)))))
        args = (q, steps, master_seed, bool(collect), snapshot_steps, chunk)
        parts = _parts(reps, steps, reps)       # at the floors alone, on unbounded CPUs
        if parts > 1:
            from ._split import split_pass, usable_cpus
            parts = _parts(reps, steps, usable_cpus())
        if parts == 1:
            fresh, out.seconds = _evolve(*args, 0, reps)
        else:
            fresh, out.seconds = split_pass(_evolve, parts, reps, args)
        entry.update((k, arrays) for k, arrays in fresh.items() if stored_rows(k) < reps)

    def rows(k):
        return tuple(a[:reps].copy() for a in entry[k])

    out.W, out.S, out.Xi, out.Ztilde, out.QV = rows("paths")
    if collect:
        qsl_sum, lil_pos, lil_neg, out.doob_resid_max, out.qv_resid_max = rows("collectors")
        if steps >= 2:
            out.qsl_sum = qsl_sum
        if steps >= LIL_START:
            out.lil_pos, out.lil_neg = lil_pos, lil_neg
    out.snapshots = {m: rows(m)[0] for m in snapshot_steps}
    return out


def _parts(reps: int, steps: int, cpus: int) -> int:
    """How many processes evolve a pass of reps rows and steps steps on cpus usable CPUs."""
    return max(1, min(cpus, reps // _MIN_PART_ROWS, reps * steps // _MIN_PART_WORK))


def _uniform_buffer(chunk: int, reps: int, tile: int) -> tuple:
    """A (chunk, reps) view and a tile * chunk staging block, of one buffer kept across calls.

    At 10k reps in one process the buffer is 32.0 MiB, just under glibc's
    largest mmap threshold; freeing it after every ensemble would move later
    ones onto the heap, where stored ensembles pin them, and raise peak
    memory (the mc_wide benchmark's three passes: 111.7 against 80.1 MiB).
    Split in two parts, each process's buffer is 16.2 MiB, and freeing it
    made no difference (59.8 against 60.5 MiB in the caller).
    """
    global _UNIFORMS
    size = chunk * (reps + tile)
    if _UNIFORMS.size < size:
        _UNIFORMS = np.empty(size)
    return _UNIFORMS[:chunk * reps].reshape(chunk, reps), _UNIFORMS[chunk * reps:size]


def _evolve(q, steps, master_seed, collect, snapshot_steps, chunk, first, reps) -> tuple:
    """One lockstep pass over replications first..first+reps-1.

    Returns the store items and the pass's seconds (see PathStats).  Row i
    of the items is replication first + i, driven by its stream alone, so
    any cut of a pass into contiguous parts gives the same rows (this is
    what _split relies on).  chunk is the number of steps per uniform
    fill; sample_paths sets it from the width of the whole pass, so the
    buffers of a split pass's parts together are no larger than one
    process's buffer.  Each
    step performs the same IEEE operations, in the same order, as the
    scalar chain in coupling._steps, so every row is bit-identical to it;
    the letter is drawn with a buffered form of group.step_prob_a, so the
    scalar samplers turn each uniform into the same letter.
    A step is 16 numpy calls, and only their number is kept small: results
    go to preallocated buffers, passed by position, constants are 0-d
    arrays, and the two compensated sums are stacked and updated by one
    call each.  Sign flips are exact, fl(a - b) = -fl(b - a) in value,
    which the stacking exploits:

    - dW = +1 iff u < p, so e = copysign(1, u - p) is -dW, ties included;
    - the Kahan rows of Z hold (-Xi, Ztilde), whose increments are both
      (-1)^n times the row of P = (e + q w, w), w = W_n / max(n, 1);
    - the Neumaier rows of Z hold (sum q^2 w^2, sum w^2), the latter only
      with collectors.  Its term at n = 1 is the largest (|w| <= 1 and the
      terms are non-negative), so the branch |sum| >= |term| is taken from
      n = 2 on; at n = 0 (term 0, as W_0 = 0) and n = 1 the sum is still 0
      and both branches give 0.
    - V holds each row's input: over the Kahan rows P, formed in place,
      then P + D or D - P, the Kahan y at even and odd n; over the
      Neumaier rows the q^2 w^2 and w^2 terms.  D holds the carries: over
      the Kahan rows the Kahan carry negated, kept from step to step, and
      over the others the Neumaier term's rounding error, added to NC.  So
      one sequence is both sums, each with its own IEEE operations:
      Z' = Z + V, D = Z - Z', D += V, NC' = NC + D[Neumaier rows].  A carry
      of 0 may come out as -0.0 where the scalar chain has +0.0 or the
      reverse, but Z never holds -0.0 and P never does, so no sum sees it.

    The step from time n reads S, Z and NC from row n % ring of a history
    ring and writes them to row (n + 1) % ring.  A bare pass (collect
    false) needs only the last state: Z alternates between two rows, and S
    and NC are updated in place.  With collect true the ring holds a block
    of steps, and _Collectors reads each block once its last row is
    written.

    Each tile of _TILE streams draws a chunk into the rows of a cache-sized
    staging block, which one transposed copy moves into the tile's columns
    of the uniforms: written down a column, each draw takes a cache line.
    """
    snaps = {m: np.empty(reps, dtype=np.int64) for m in snapshot_steps}
    tile = min(_TILE, reps)
    ring = int(max(2, min(chunk, (1 << 16) // reps))) if collect else 2

    half, one, c_q, c_hq, c_qq = (np.array(v) for v in (0.5, 1.0, q, 0.5 * q, q * q))
    n_ = np.ones(())                                # max(n, 1), as in step_prob_a
    nz = 4 if collect else 3                        # Kahan rows 0, 1; Neumaier rows 2..
    W, e, V, D = np.zeros(reps), np.zeros(reps), np.zeros((nz, reps)), np.zeros((nz, reps))
    kept = ring if collect else 1                   # a bare pass updates S and NC in place
    S_h, NC_h = np.zeros((kept, reps)), np.zeros((kept, nz - 2, reps))
    Z_h = np.zeros((ring, nz, reps))
    # one view object per row: numpy takes a slower overlap path when out= is
    # another view of an input's memory, so in place must mean out is the input
    P0, w, VK, DK, DN, qv_term = V[0], V[1], V[:2], D[:2], D[2:], V[2]
    w_sq = V[3] if collect else qv_term
    S_rows, NC_rows = list(S_h), list(NC_h)
    rows = [(S_rows[r % kept], Z_h[r], NC_rows[r % kept]) for r in range(ring)]
    steps_to = [rows[r - 1] + rows[r] for r in range(ring)]     # states before, after
    collectors = _Collectors(q, reps, ring) if collect else None

    seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
    u_buf, staging = _uniform_buffer(chunk, reps, tile)
    clock = time.perf_counter()
    streams = [replication_stream(master_seed, first + i) for i in range(reps)]
    n = 0                                           # time before the step
    for m0 in range(0, steps, chunk):
        c_eff = min(chunk, steps - m0)
        block = staging[:tile * c_eff].reshape(tile, c_eff)
        for j in range(0, reps, tile):
            draws = block[:min(tile, reps - j)]
            for st, row in zip(streams[j:j + tile], draws):
                st.random(out=row)
            u_buf[:c_eff, j:j + tile] = draws.T
        clock = _lap(seconds, "fill", clock)
        lo = 0
        while lo < c_eff:                           # a block: steps first.. on rows r0..
            first = m0 + lo + 1
            r0 = first % ring
            hi = c_eff if collectors is None else min(c_eff, lo + ring - r0)
            for u in u_buf[lo:hi]:
                m = n + 1
                S, Z, NC, S_new, Z_new, NC_new = steps_to[m % ring]
                np.divide(W, n_, w)
                np.multiply(c_hq, w, e)
                np.add(e, half, e)                  # p = 1/2 + (q/2) w
                np.subtract(u, e, e)
                np.copysign(one, e, e)              # e = -dW
                np.multiply(c_q, w, P0)
                np.add(P0, e, P0)
                np.multiply(w, w, w_sq)
                np.multiply(c_qq, w_sq, qv_term)
                if n & 1:                           # increments -P
                    np.subtract(DK, VK, VK)
                    np.add(S, e, S_new)
                else:
                    np.add(VK, DK, VK)
                    np.subtract(S, e, S_new)
                np.add(Z, V, Z_new)
                np.subtract(Z, Z_new, D)
                np.add(D, V, D)
                np.add(NC, DN, NC_new)
                np.subtract(W, e, W)
                if m in snaps:
                    snaps[m][:] = S_new
                n = n_[()] = m
            clock = _lap(seconds, "steps", clock)
            if collectors is not None:
                block = slice(r0, r0 + hi - lo)
                collectors.add(first, S_h[block], Z_h[block, :2], Z_h[block, 2:], NC_h[block])
                clock = _lap(seconds, "collectors", clock)
            lo = hi

    S, Z, NC = rows[n % ring]
    xi = np.subtract(0.0, Z[0])         # a zero comes out as +0, as in the scalar sum
    items = {"paths": (W.astype(np.int64), S.astype(np.int64), xi, Z[1].copy(),
                       steps - (Z[2] + NC[0]))}
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


@dataclass(frozen=True)
class SlopeFit:
    fitted_slope: float
    theoretical_slope: float
    dropped: tuple = ()


def t2_rate_fit(q: float, n_list: Sequence[int]) -> SlopeFit:
    """Least-squares slope of log|T2(n, q)| against log n.

    The theoretical decay is n^(q-1) for q > 0 and n^(-1) for q < 0; at
    q = 0 the bound carries an extra log factor, and T2 vanishes
    identically at even n (the alternating a_k sum telescopes to 0), so
    exact zeros and underflows are dropped from the fit and reported.
    """
    ns = [_check_int(n, "n") for n in n_list]
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
    slope = np.polyfit(kept, logs, 1)[0]
    theoretical = q - 1.0 if q > 0.0 else -1.0
    return SlopeFit(fitted_slope=float(slope), theoretical_slope=theoretical, dropped=tuple(dropped))
