"""Benchmark of dihedral_erw: end-to-end and per-layer cost of its three kinds of computation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_long --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``mc_long`` (narrow, long Monte Carlo ensembles
with every collector and repeated rows), ``mc_wide`` (10k-wide ensembles with
CLT snapshots) and ``exact`` (enumeration, exact sums, quadrature and the
quick CLI suite; no Monte Carlo).

Every pass runs in a fresh single-threaded process (worker.py) importing the
package from ``src/`` of this checkout, so no module-level cache survives
from one pass to the next.  ``--trace 0`` repeats passes for about
``--seconds`` seconds and reports the median wall time, set-up time and peak
resident memory of the passes.  ``--trace 1`` runs one plain and one traced
pass and reports the per-layer numbers from the traced pass's spans, plus
the tracing overhead.  The metric names and units are read from
BENCHMARK.json; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
RUN_DEADLINE_S = 170  # every pass ends, or is killed, within this many seconds of the start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    """Worker environment: package from this checkout, one BLAS thread, no thread pool."""
    env = dict(os.environ)
    env.pop("ERW_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "ERW_THREADS": None,
        **{var: env[var] for var in THREAD_VARS},
    }


def run_pass(workload: str, seed: int, env: dict, deadline: float, spans_out: Path = None) -> dict:
    """One worker process, killed at ``deadline``; returns its JSON record plus ``setup_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def untraced(args, env: dict, deadline: float) -> tuple:
    start = time.monotonic()
    passes = []
    while True:
        passes.append(run_pass(args.workload, args.seed, env, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    info = {
        "passes": len(passes),
        "wall_s_all": [round(p["wall_s"], 4) for p in passes],
        "path_steps_per_s": passes[0]["path_steps"] / wall,
    }
    return metrics, passes, info


def traced(args, env: dict, deadline: float) -> tuple:
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    plain = run_pass(args.workload, args.seed, env, deadline)
    traced_pass = run_pass(args.workload, args.seed, env, deadline, spans_out=spans_path)
    spans = json.loads(spans_path.read_text())
    metrics = tracing.layer_metrics(spans)
    metrics.update(traced_pass["extras"])
    metrics["trace.wall_s"] = traced_pass["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced_pass["wall_s"] - plain["wall_s"]
    metrics["trace.top_level_share"] = tracing.top_level_seconds(spans) / traced_pass["wall_s"]
    info = {"spans": len(spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, [plain, traced_pass], info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dihedral_erw benchmark")
    ap.add_argument("--workload", required=True, choices=("mc_long", "mc_wide", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dihedral_erw" / "__init__.py").is_file():
        print(f"no dihedral_erw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = pinned_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        metrics, passes, info = (traced if args.trace else untraced)(args, env, deadline)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(env, passes[0]["versions"])))
    attempted = sum(p["attempted"] for p in passes)
    failed = [name for p in passes for name in p["failed"]]
    for name in failed:
        print(f"FAILED check: {name}")
    print(f"checks attempted {attempted} failed {len(failed)}")
    print("recorded " + json.dumps(passes[0]["values"]))
    print("info " + json.dumps(info))
    # reported but not in BENCHMARK.json, whose end-to-end metrics must never read 0:
    # failed_ratio is 0 when all checks pass and path_steps_per_s is 0 on exact
    print(f"failed_ratio {len(failed) / attempted if attempted else 0.0} ratio")
    if not args.trace:
        print(f"path_steps_per_s {info['path_steps_per_s']} 1/s")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(json.dumps({"correct": attempted > 0 and not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
