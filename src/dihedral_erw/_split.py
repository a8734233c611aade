"""Split Monte Carlo passes: the caller and one child process per further part.

montecarlo.sample_paths imports this module only for a pass that
montecarlo._parts would cut into two or more parts on unbounded CPUs, and
then asks usable_cpus how many there are; so a process that runs no such
pass neither loads nor compiles it, nor subprocess.

A row of a pass depends only on its own stream, so the rows are cut into
contiguous parts: the caller evolves the first with montecarlo._evolve, and
a child running serve(montecarlo._evolve) each other part.  A child is a
fresh interpreter started with sys.executable, not a multiprocessing worker,
so no __main__ module is imported again, and it stays in the caller's
process group.  The module imports nothing of the package: the evolve
function is passed in, so montecarlo and _split form no import cycle.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

# argv[1] is the src directory of the caller's package, put ahead of the
# child's working directory, so a dihedral_erw there cannot shadow it
COMMAND = ("-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                 "from dihedral_erw import _split, montecarlo; _split.serve(montecarlo._evolve)")


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    children = []
    try:
        for first, end in zip(edges[1:], edges[2:]):
            child = subprocess.Popen([sys.executable, *COMMAND, src], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            children.append(child)
            try:                                # the pickle ends itself: communicate closes stdin
                pickle.dump((*args, first, end - first), child.stdin)
                child.stdin.flush()
            except BrokenPipeError:             # the child has exited: reported below
                pass
        results = [evolve(*args, 0, edges[1])]
        for child, first, end in zip(children, edges[1:], edges[2:]):
            out, err = child.communicate()
            if child.returncode or not out:
                raise RuntimeError(
                    f"the process evolving rows {first}..{end - 1} exited with status "
                    f"{child.returncode} and no result; its stderr ends: "
                    f"{err.decode(errors='replace')[-2000:]}")
            results.append(pickle.loads(out))
    finally:
        for child in children:
            if child.returncode is None:        # not reaped by communicate
                child.kill()
                child.communicate()
    items = {k: tuple(map(np.concatenate, zip(*(r[0][k] for r in results))))
             for k in results[0][0]}
    return items, {k: max(r[1][k] for r in results) for k in results[0][1]}


def serve(evolve) -> None:
    """A child: evolve's arguments pickled on stdin, its (items, seconds) pickled on stdout."""
    pickle.dump(evolve(*pickle.load(sys.stdin.buffer)), sys.stdout.buffer)


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
