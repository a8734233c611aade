"""Monte Carlo passes on several CPUs: row parts, or a narrow pass as two stages.

montecarlo.sample_paths imports this module only for a pass that
montecarlo._plan would run in two or more processes on unbounded CPUs, and
then asks usable_cpus how many there are; so a process that runs no such
pass neither loads nor compiles it, nor subprocess.

A row of a pass depends only on its own stream.  A wide pass is cut into
contiguous parts of rows (split_pass): the caller evolves the first with
montecarlo._evolve, and a child each other part.  A narrow pass, whose
steps are bound by per-call dispatch, is cut by stage instead
(stage_pass): the caller draws the uniforms and runs the walk, the only
part that reads them, and a child the compensated sums, from the signs of
the walk's steps.  A child is a fresh interpreter started with
sys.executable and serve, not a multiprocessing worker, so no __main__
module is imported again, and it stays in the caller's process group.  The
module imports nothing of the package: the engine's functions are passed
in, so montecarlo and _split form no import cycle.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# argv[1] is the src directory of the caller's package, put ahead of the
# child's working directory, so a dihedral_erw there cannot shadow it
COMMAND = ("-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                 "from dihedral_erw import _split, montecarlo; "
                 "_split.serve(montecarlo._evolve, montecarlo._Collectors)")
BLOCK_CELLS = 1 << 14           # steps x rows of a block of signs sent to the sums stage


def split_pass(evolve, parts: int, reps: int, args: tuple) -> tuple:
    """evolve(*args, first, rows) over rows 0..reps-1, in parts contiguous parts.

    Returns the items, concatenated in row order, so bit for bit those of
    one process, and the seconds, each the maximum over the processes.  A
    child that exits non-zero or writes no result makes the call raise
    RuntimeError with its exit status and the end of its stderr.  Every
    child is killed if still running, and reaped, before the call returns
    or raises, KeyboardInterrupt included.
    """
    edges = [reps * k // parts for k in range(parts + 1)]
    children = []
    try:
        for first, end in zip(edges[1:], edges[2:]):
            children.append(_Child(f"evolving rows {first}..{end - 1}"))
            children[-1].send(pickle.dumps(("rows", (*args, first, end - first))))
        results = [evolve(*args, 0, edges[1])] + [child.result() for child in children]
    finally:
        for child in children:
            child.stop()
    items = {k: tuple(map(np.concatenate, zip(*(r[0][k] for r in results))))
             for k in results[0][0]}
    return items, {k: max(r[1][k] for r in results) for k in results[0][1]}


def stage_pass(uniforms, collectors, args: tuple, reps: int) -> tuple:
    """montecarlo._evolve(*args, 0, reps) as a pipeline of two processes.

    The caller draws the uniforms with uniforms (montecarlo._uniforms) and
    runs the walk, W and e = -dW, by the engine's operations.  After every
    block of steps it writes the signs of e, packed eight to a byte, to a
    child running _sums, and then computes S from e, the snapshots, and
    the collectors that read S alone (collectors.add_s).  The child
    computes the paths and the doob collector (collectors.add_doob).  The
    pipe holds the blocks the child has not read yet, so the two overlap.
    The seconds are each the maximum over the two processes, so "steps" is
    the longer of the walk and the sums, time spent waiting on the other
    process excluded.  Failures and interrupts are handled as in split_pass.
    """
    q, steps, master_seed, collect, snapshot_steps, chunk = args
    block = max(1, BLOCK_CELLS // reps)
    child = _Child(f"summing rows 0..{reps - 1}")
    try:
        child.send(pickle.dumps(("sums", (q, steps, collect, reps, block))))
        seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
        col = collectors(q, reps, block) if collect else None
        snaps = _walk(child, uniforms(master_seed, 0, reps, steps, chunk, seconds), q, reps,
                      block, snapshot_steps, col, seconds)
        items, sums_seconds = child.result()
    finally:
        child.stop()
    if col is not None:
        items["collectors"] = col.arrays()[:3] + items["collectors"][3:]
    items.update((m, (s,)) for m, s in snaps.items())
    return items, {k: max(seconds[k], sums_seconds[k]) for k in seconds}


def _walk(child, uniforms, q, reps, block, snapshot_steps, col, seconds) -> dict:
    """The first stage: W and e = -dW, as in montecarlo._evolve, then S, snapshots and col.

    Returns the snapshots.  Stops early once the child has closed its
    stdin; child.result() then reports why.
    """
    half, one, c_hq = np.array(0.5), np.array(1.0), np.array(0.5 * q)
    n_ = np.ones(())                                # max(n, 1)
    W, w, E = np.zeros(reps), np.empty(reps), np.empty((block, reps))
    S = np.zeros((block + 1, reps))                 # row 0: S before the block
    snaps = {m: np.empty(reps, dtype=np.int64) for m in snapshot_steps}
    rows = list(E)

    def block_done(n0, b) -> bool:
        """Steps n0 + 1 .. n0 + b are in E: send them, then S and what reads it."""
        if not child.send(np.packbits(np.signbit(E[:b]))):
            return False
        clock = time.perf_counter()
        _s_history(S, E[:b], n0)
        for m in snapshot_steps:
            if n0 < m <= n0 + b:
                snaps[m][:] = S[m - n0]
        now = time.perf_counter()
        seconds["steps"] += now - clock
        if col is not None:
            col.add_s(n0 + 1, S[1:b + 1])
            seconds["collectors"] += time.perf_counter() - now
        S[0] = S[b]
        return True

    n = k = 0                                       # time, and steps in E
    for u_buf in uniforms:
        lo = 0
        while lo < len(u_buf):
            hi = min(len(u_buf), lo + block - k)
            clock = time.perf_counter()
            for u, e in zip(u_buf[lo:hi], rows[k:]):
                np.divide(W, n_, w)
                np.multiply(c_hq, w, e)
                np.add(e, half, e)                  # p = 1/2 + (q/2) w
                np.subtract(u, e, e)
                np.copysign(one, e, e)              # e = -dW
                np.subtract(W, e, W)
                n = n_[()] = n + 1
            seconds["steps"] += time.perf_counter() - clock
            k, lo = k + hi - lo, hi
            if k == block:
                if not block_done(n - k, k):
                    return snaps
                k = 0
    if k:
        block_done(n - k, k)
    return snaps


def _s_history(S, e, n0: int) -> None:
    """S[1 + k] = S after step n0 + k + 1, from S[0] and the e of those steps.

    The step from time n adds e at odd n and -e at even n; S and e are
    integers in doubles, so the sums are exact in any order.
    """
    b = len(e)
    S[1:b + 1] = e
    np.negative(S[1 + n0 % 2:b + 1:2], out=S[1 + n0 % 2:b + 1:2])
    np.add.accumulate(S[:b + 1], axis=0, out=S[:b + 1])


def _sums(stdin, collectors, q, steps, collect, reps, block) -> tuple:
    """The second stage: from the signs of e on stdin, the items of montecarlo._evolve.

    Snapshots excepted, and of the collectors only doob.  A block of steps
    at a time, every row by _evolve's IEEE operations in its order.  W is a
    sum of -e and S of +-e, integers in doubles, so exact in any order;
    w = W / max(n, 1) and the inputs V of the sums follow elementwise for
    the block.  A loop over its steps then updates the sums Z in _evolve's
    layout: the Kahan y = P + D, where at odd n the increment is -P and
    fl(D + -P) = fl(D - P); Z' = Z + V; D = (Z - Z') + V; and
    NC' = NC + D[Neumaier rows].
    """
    seconds = {"fill": 0.0, "steps": 0.0, "collectors": 0.0}
    c_q, c_qq, signs = np.array(q), np.array(q * q), np.array([1.0, -1.0])
    nz = 4 if collect else 3                        # Kahan rows 0, 1; Neumaier rows 2..
    # row 0 of each history holds the state before the block, row k + 1 the state after step k
    W, S = np.zeros((block + 1, reps)), np.zeros((block + 1, reps))
    Z, D, NC = (np.zeros((block + 1, rows, reps)) for rows in (nz, nz, nz - 2))
    V = np.empty((block, nz, reps))
    # one view object per row: in place must mean out is the input (see _evolve)
    Z_r, D_r, V_r, NC_r = list(Z), list(D), list(V), list(NC)
    DK, DN, VK = list(D[:, :2]), list(D[:, 2:]), list(V[:, :2])
    rows = [(VK[k], DK[k], Z_r[k], V_r[k], Z_r[k + 1], D_r[k + 1], NC_r[k], DN[k + 1],
             NC_r[k + 1]) for k in range(block)]
    col = collectors(q, reps, block) if collect else None
    packed = np.empty((block * reps + 7) // 8, dtype=np.uint8)
    for n0 in range(0, steps, block):               # steps n0 + 1 .. n0 + b
        b = min(block, steps - n0)
        bits = packed[:(b * reps + 7) // 8]
        if stdin.readinto(bits) != bits.size:
            raise EOFError(f"the walk's signs end before step {n0 + b}")
        clock = time.perf_counter()
        e = signs.take(np.unpackbits(bits, count=b * reps)).reshape(b, reps)
        np.negative(e, out=W[1:b + 1])
        np.add.accumulate(W[:b + 1], axis=0, out=W[:b + 1])
        _s_history(S, e, n0)
        P, w, qv_term = V[:b, 0], V[:b, 1], V[:b, 2]
        w_sq = V[:b, 3] if collect else qv_term
        np.divide(W[:b], np.maximum(np.arange(n0, n0 + b), 1.0)[:, None], out=w)
        np.multiply(c_q, w, out=P)
        np.add(P, e, out=P)
        np.multiply(w, w, out=w_sq)
        np.multiply(c_qq, w_sq, out=qv_term)
        odd = V[1 - n0 % 2:b:2, :2]
        np.negative(odd, out=odd)
        for y, d, z, v, z_new, d_new, nc, dn_new, nc_new in rows[:b]:
            np.add(y, d, y)
            np.add(z, v, z_new)
            np.subtract(z, z_new, d_new)
            np.add(d_new, v, d_new)
            np.add(nc, dn_new, nc_new)
        now = time.perf_counter()
        seconds["steps"] += now - clock
        if col is not None:
            col.add_doob(S[1:b + 1], Z[1:b + 1, :2], Z[1:b + 1, 2:], NC[1:b + 1])
            seconds["collectors"] += time.perf_counter() - now
        for h in (W, S, Z, D, NC):
            h[0] = h[b]
    items = {"paths": (W[0].astype(np.int64), S[0].astype(np.int64), np.subtract(0.0, Z[0, 0]),
                       Z[0, 1].copy(), steps - (Z[0, 2] + NC[0, 0]))}
    if col is not None:
        items["collectors"] = col.arrays()
    return items, seconds


def serve(evolve, collectors) -> None:
    """A child: a pickled (stage, arguments) on stdin, the pickled (items, seconds) on stdout.

    Stage "rows" is evolve(*arguments); stage "sums" is _sums, which reads
    the walk's signs from stdin after the pickle.
    """
    stage, args = pickle.load(sys.stdin.buffer)
    result = evolve(*args) if stage == "rows" else _sums(sys.stdin.buffer, collectors, *args)
    pickle.dump(result, sys.stdout.buffer)


class _Child:
    """A child process running serve, and what it does, for messages.

    Its stdout and stderr are unnamed temporary files, not pipes, so it
    never blocks on its output, however long the caller blocks writing to
    its stdin.
    """

    def __init__(self, task: str):
        self.task, self.broken = task, False
        self.out, self.err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.proc = subprocess.Popen([sys.executable, *COMMAND, src], stdin=subprocess.PIPE,
                                     stdout=self.out, stderr=self.err)

    def send(self, data) -> bool:
        """Write data to the child's stdin; False once the child has closed it."""
        if not self.broken:
            try:
                self.proc.stdin.write(data)
                self.proc.stdin.flush()
            except BrokenPipeError:                 # it has exited: result() says why
                self.broken = True
        return not self.broken

    def result(self):
        """The child's unpickled stdout, or RuntimeError with its exit status and stderr.

        Closes its stdin and waits for it to exit; it must exit with status 0
        having read all its input and written a result.
        """
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        status = self.proc.wait()
        self.out.seek(0)
        out = self.out.read()
        if status or self.broken or not out:
            self.err.seek(max(0, self.err.seek(0, os.SEEK_END) - 2000))
            raise RuntimeError(
                f"the process {self.task} exited with status {status} and no result; its "
                f"stderr ends: {self.err.read().decode(errors='replace')}")
        return pickle.loads(out)

    def stop(self) -> None:
        """Kill the child if it is still running, reap it and close its files."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.out.close()
        self.err.close()


def usable_cpus() -> int:
    """The CPUs of the affinity mask, at most the cgroup v2 CPU quota rounded up."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, cgroup_cpus())


def cgroup_cpus() -> float:
    """The tightest cgroup v2 CPU quota on this process's cgroup and its ancestors, in CPUs."""
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
        group = next(line[3:] for line in lines if line.startswith("0::"))
    except (OSError, StopIteration):
        return math.inf
    cpus = math.inf
    while True:
        try:
            cpus = min(cpus, quota_cpus(Path(f"/sys/fs/cgroup{group.rstrip('/')}/cpu.max")
                                        .read_text()))
        except OSError:                         # the root group, or no cpu controller
            pass
        if group in ("/", ""):
            return cpus
        group = os.path.dirname(group)


def quota_cpus(cpu_max: str) -> float:
    """A cgroup v2 cpu.max line, "quota period" or "max period", in whole CPUs."""
    quota, period = cpu_max.split()
    return math.inf if quota == "max" else max(1, math.ceil(int(quota) / int(period)))
