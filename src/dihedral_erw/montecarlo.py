"""Monte Carlo harness: path ensembles and limit-law checks.

Replications are evolved in lockstep as numpy vectors, but each replication
consumes exactly one uniform per step from its own counter-based stream
(Philox keyed by master_seed and the replication index; see _philox), so
row i is the same in every ensemble of at least i + 1 rows.  That is what
lets sample_paths compute each ensemble once per process and answer
narrower requests from stored rows, and run a wide pass on several CPUs,
cut by rows (_part_pass).  A narrow, long pass runs on two, cut by stage
(_stage_pass): the walk in this process, and the compensated sums in a
child (_serve), from the walk's signs.

The step loop only advances the walk and its compensated sums.  The path
collectors (qsl, lil, doob) are computed from a short history of those
steps, block by block, all three in the one pass that any of them needs.
"""

from __future__ import annotations

import math
import pickle
import sys
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
    # step; of a pass split over processes, each is the maximum over them
    # (in two stages: "steps" the longer of the walk and the sums, and
    # "collectors" of qsl with lil and of doob, waits on the other process
    # excluded); empty when the store answered the call
    seconds: Dict[str, float] = field(default_factory=dict)

    def qsl(self) -> np.ndarray:
        if self.qsl_sum is None:
            raise ValueError("qsl was not collected for this ensemble")
        return self.qsl_sum / math.log(self.steps)


# Process-wide ensemble store: (q, steps, master_seed) -> {item: arrays}.
# An item is "paths" (W, S, Xi, Ztilde, QV), "collectors" (the arrays of
# _stages.Collectors.arrays) or a snapshot step; each holds the first rows of its
# arrays.  Row i depends only on stream i, so any stored prefix answers every
# request for at most that many rows.
_ENSEMBLES: Dict[tuple, Dict[object, tuple]] = {}
_UNIFORMS = np.empty(0)
_philox = None
# imported at a process's first pass, as _philox at its first stream, since a
# process keeps the memory it took to compile a module (BENCH_29.json)
_stages = None
_TILE = 128                     # streams per staging block of the uniform fill
# A pass of reps rows and steps steps runs as _plan(reps, steps, cpus) says.
# A row part below either floor saves no time: a child takes about 0.2 s to
# start, and a part of fewer rows is bound by per-call dispatch (measured
# with two parts; BENCH_26.json).  A narrower pass runs as two stages from
# _MIN_STAGE_STEPS steps on (BENCH_27.json)
_MIN_PART_ROWS = 256
_MIN_PART_WORK = 1 << 24        # path-steps
_MIN_STAGE_STEPS = 50_000
# steps x rows of a collector block, and of a block of signs sent to the sums stage
_BLOCK_CELLS = 1 << 14


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
    step LIL_START on, so needs steps >= LIL_START) and "doob", and a bare
    string names one collector; terminal
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

    A wide pass runs on every usable CPU, its rows cut into parts
    (_part_pass), and a narrow one of at least _MIN_STAGE_STEPS steps on
    two, the walk and the compensated sums as a pipeline (_stage_pass;
    _plan chooses); both give the one-process pass bit for bit.  A failed
    child process makes the call raise RuntimeError and store no row.
    """
    steps, reps = _check_int(steps, "steps"), _check_int(reps, "reps")
    master_seed = _check_int(master_seed, "master_seed", 0)
    q = float(q)
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [-1, 1], got {q}")
    collect = {collect} if isinstance(collect, str) else set(collect)
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
        global _stages
        from . import _stages
        parts, stages = _plan(reps, steps, _stages.usable_cpus())
        if stages > 1:
            fresh, out.seconds = _stage_pass(reps, args)
        elif parts > 1:
            fresh, out.seconds = _part_pass(parts, reps, args)
        else:
            fresh, out.seconds = _evolve(*args, 0, reps)
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


def _plan(reps: int, steps: int, cpus) -> tuple:
    """(parts, stages) for a pass of reps rows and steps steps on cpus usable CPUs.

    Its rows are cut into parts contiguous parts, one process each
    (_part_pass).  On two CPUs or more, a pass narrower than one part and
    at least _MIN_STAGE_STEPS long runs as two stages, the walk and the
    sums, in two processes (_stage_pass).  Any other pass of one part runs
    in this process.
    """
    parts = max(1, min(cpus, reps // _MIN_PART_ROWS, reps * steps // _MIN_PART_WORK))
    return parts, 2 if reps < _MIN_PART_ROWS and steps >= _MIN_STAGE_STEPS and cpus >= 2 else 1


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
    what _part_pass relies on).  chunk is the number of steps per uniform
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
    of steps, and _stages.Collectors reads each block once its last row is
    written.
    """
    snaps = {m: np.empty(reps, dtype=np.int64) for m in snapshot_steps}
    ring = int(max(2, min(chunk, _BLOCK_CELLS // reps))) if collect else 2

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
    collectors = _stages.Collectors(q, reps, ring, LIL_START) if collect else None

    seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
    n = 0                                           # time before the step
    for u_buf in _uniforms(master_seed, first, reps, steps, chunk, seconds):
        clock, m0, c_eff = time.perf_counter(), n, len(u_buf)
        lo = 0
        while lo < c_eff:                           # a block: steps m_first.. on rows r0..
            m_first = m0 + lo + 1
            r0 = m_first % ring
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
            clock = _stages.lap(seconds, "steps", clock)
            if collectors is not None:
                block = slice(r0, r0 + hi - lo)
                collectors.add_s(m_first, S_h[block])
                collectors.add_doob(S_h[block], Z_h[block, :2], Z_h[block, 2:], NC_h[block])
                clock = _stages.lap(seconds, "collectors", clock)
            lo = hi

    S, Z, NC = rows[n % ring]
    xi = np.subtract(0.0, Z[0])         # a zero comes out as +0, as in the scalar sum
    items = {"paths": (W.astype(np.int64), S.astype(np.int64), xi, Z[1].copy(),
                       steps - (Z[2] + NC[0]))}
    if collectors is not None:
        items["collectors"] = collectors.arrays()
    items.update((m, (s,)) for m, s in snaps.items())
    return items, seconds


def _uniforms(master_seed, first, reps, steps, chunk, seconds):
    """The uniforms of replications first..first+reps-1, chunk steps at a time.

    Yields (steps in the chunk, reps) views of one buffer (_uniform_buffer),
    row n holding each stream's draw for the chunk's step n, and adds the
    time it takes, stream construction included, to seconds["fill"].  Each
    tile of _TILE streams draws a chunk into the rows of a cache-sized
    staging block, which one transposed copy moves into the tile's columns
    of the uniforms: written down a column, each draw takes a cache line.
    """
    tile = min(_TILE, reps)
    u_buf, staging = _uniform_buffer(chunk, reps, tile)
    clock = time.perf_counter()
    streams = [replication_stream(master_seed, first + i) for i in range(reps)]
    for m0 in range(0, steps, chunk):
        c_eff = min(chunk, steps - m0)
        block = staging[:tile * c_eff].reshape(tile, c_eff)
        for j in range(0, reps, tile):
            draws = block[:min(tile, reps - j)]
            for st, row in zip(streams[j:j + tile], draws):
                st.random(out=row)
            u_buf[:c_eff, j:j + tile] = draws.T
        _stages.lap(seconds, "fill", clock)
        yield u_buf[:c_eff]
        clock = time.perf_counter()


def _part_pass(parts: int, reps: int, args: tuple) -> tuple:
    """_evolve(*args, first, rows) over rows 0..reps-1, in parts contiguous parts.

    The caller evolves the first part, and a child process each other.
    Returns the items, concatenated in row order, so bit for bit those of
    one process, and the seconds, each the maximum over the processes.  A
    failed child makes the call raise RuntimeError (_stages.Child.result).  Every
    child is killed if still running, and reaped, before the call returns
    or raises, KeyboardInterrupt included.
    """
    edges = [reps * k // parts for k in range(parts + 1)]
    children = []
    try:
        for first, end in zip(edges[1:], edges[2:]):
            children.append(_stages.Child(f"evolving rows {first}..{end - 1}"))
            children[-1].send(pickle.dumps(("rows", (*args, first, end - first))))
        results = [_evolve(*args, 0, edges[1])] + [child.result() for child in children]
    finally:
        for child in children:
            child.stop()
    items = {k: tuple(map(np.concatenate, zip(*(r[0][k] for r in results))))
             for k in results[0][0]}
    return items, {k: max(r[1][k] for r in results) for k in results[0][1]}


def _stage_pass(reps: int, args: tuple) -> tuple:
    """_evolve(*args, 0, reps) as a pipeline of two processes.

    The caller draws the uniforms (_uniforms) and runs the walk
    (_stages.walk), W and e = -dW, by the engine's operations, the only
    part that reads them.  After every block of steps it writes the signs
    of e, packed eight to a byte, to a child running _stages.sums, and then
    computes S from e, the snapshots, and the collectors that read S alone
    (Collectors.add_s).  The child computes the paths and the doob
    collector (Collectors.add_doob).  The pipe holds the blocks the child
    has not read yet, so the two overlap.  The seconds are each the maximum
    over the two processes, so "steps" is the longer of the walk and the
    sums, time spent waiting on the other process excluded.  Failures and
    interrupts are handled as in _part_pass.
    """
    q, steps, master_seed, collect, snapshot_steps, chunk = args
    block = max(1, _BLOCK_CELLS // reps)
    child = _stages.Child(f"summing rows 0..{reps - 1}")
    try:
        child.send(pickle.dumps(("sums", (q, steps, collect, reps, block))))
        seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
        col = _stages.Collectors(q, reps, block, LIL_START) if collect else None
        snaps = _stages.walk(child, _uniforms(master_seed, 0, reps, steps, chunk, seconds), q,
                             reps, block, snapshot_steps, col, seconds)
        items, sums_seconds = child.result()
    finally:
        child.stop()
    if col is not None:
        items["collectors"] = col.arrays()[:3] + items["collectors"][3:]
    items.update((m, (s,)) for m, s in snaps.items())
    return items, {k: max(seconds[k], sums_seconds[k]) for k in seconds}


def _serve() -> None:
    """A child: a pickled (stage, arguments) on stdin, the pickled (items, seconds) on stdout.

    Stage "rows" is _evolve(*arguments); "sums" is _stages.sums, which
    reads the walk's signs from stdin after the pickle."""
    global _stages
    from . import _stages
    stage, args = pickle.load(sys.stdin.buffer)
    result = (_evolve(*args) if stage == "rows"
              else _stages.sums(sys.stdin.buffer, LIL_START, *args))
    pickle.dump(result, sys.stdout.buffer)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    passed: bool


def ks_normal_test(samples, alpha: float = 0.01) -> KSResult:
    """Two-sided Kolmogorov-Smirnov test against the standard normal.

    Uses the asymptotic critical value c(alpha)/sqrt(R); small samples
    (R < 100) are refused because the asymptotic constant is not valid
    there and the exact table is out of scope, and so are non-finite
    ones.  The normal CDF is erfc(-x/sqrt(2))/2, by math.erfc element by
    element.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample set")
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):     # sorted, so NaN is last
        raise ValueError("samples must be finite")
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
    mx = math.fsum(kept) / len(kept)  # the centred least-squares slope, each sum exact
    slope = math.fsum((x - mx) * y for x, y in zip(kept, logs)) / math.fsum((x - mx) ** 2 for x in kept)
    return SlopeFit(slope, q - 1.0 if q > 0.0 else -1.0, tuple(dropped))
