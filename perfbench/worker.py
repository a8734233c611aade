"""One pass of one workload in a fresh process; started by run.py.

The first thing after the imports is the ready timestamp (``time.monotonic``,
one clock for every process on the machine), so the parent can time set-up
from the moment it started this process.  The last line of standard output
is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import dihedral_erw
from dihedral_erw import coupling, group, moments, montecarlo, quadrature

import tracing
import workloads

PACKAGE = "dihedral_erw"


def _ensemble_attrs(args, kwargs, result):
    return {"q": result.q, "steps": result.steps, "reps": result.reps, "seed": result.master_seed}


def _enumeration_attrs(args, kwargs, result):
    return {"n": result.n, "p": (args[1] if len(args) > 1 else kwargs["params"]).p}


# (module, public function, span attributes); each is wrapped wherever the package binds it
TRACED = (
    (montecarlo, "sample_paths", _ensemble_attrs),
    (montecarlo, "replication_stream", None),
    (montecarlo, "ks_normal_test", None),
    (montecarlo, "t2_rate_fit", None),
    (group, "simulate_walk", None),
    (coupling, "coupled_states_along", None),
    (coupling, "exhaustive_coupling_check", lambda a, k, r: {"sequences": r}),
    (moments, "enumerate_exact", _enumeration_attrs),
    (moments, "var_ztilde_exact", None),
    (moments, "t1", None),
    (moments, "t2", None),
    (moments, "h_moment", None),
    (moments, "h_moment_table", None),
    (quadrature, "integrate", lambda a, k, r: {"evaluations": r.evaluations}),
    (quadrature, "j1", None),
    (quadrature, "j2", None),
    (quadrature, "figure_grid", None),
)


def install_tracer() -> tracing.Tracer:
    tracer = tracing.Tracer()
    for module, name, attrs in TRACED:
        tracer.wrap(PACKAGE, module, name, attrs)
    return tracer


def rng_fill_seconds(calls) -> float:
    """Build and fill the engine's Philox streams for each ensemble, standalone.

    Same streams and uniform counts as the traced ``sample_paths`` calls,
    written column by column into a (chunk, reps) buffer with the engine's
    chunk rule, and nothing else.
    """
    start = time.perf_counter()
    for steps, reps, seed in calls:
        streams = [montecarlo.replication_stream(seed, i) for i in range(reps)]
        chunk = int(max(64, min(8192, (1 << 22) // reps)))
        buf = np.empty((chunk, reps))
        for m0 in range(0, steps, chunk):
            c = min(chunk, steps - m0)
            for i, st in enumerate(streams):
                buf[:c, i] = st.random(c)
    return time.perf_counter() - start


def collector_extra_seconds(seed: int) -> dict:
    """Cost of each collector over a bare ensemble, at the mc_long shape."""
    def timed(**kwargs) -> float:
        start = time.perf_counter()
        montecarlo.sample_paths(0.5, workloads.MC_LONG_STEPS, 100, seed, **kwargs)
        return time.perf_counter() - start

    variants = (("qsl", {"collect": ("qsl",)}), ("lil", {"collect": ("lil",)}),
                ("doob", {"collect": ("doob",)}),
                ("snapshots", {"snapshot_steps": (25_000, 50_000, workloads.MC_LONG_STEPS)}))
    before = timed()
    costs = {name: timed(**kw) for name, kw in variants}
    bare = 0.5 * (before + timed())  # bare runs on both sides absorb drift
    return {f"montecarlo.collector.{name}.extra_s": t - bare for name, t in costs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans-out", help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(dihedral_erw.__file__).resolve().parents:
        print(f"dihedral_erw imported from {dihedral_erw.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = install_tracer() if args.spans_out else None
    ready = time.monotonic()

    checks = workloads.Checks()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, checks, span)
    wall = time.perf_counter() - start

    extras = {}
    if tracer:
        tracer.uninstall()
        calls = [(s[tracing.ATTRS]["steps"], s[tracing.ATTRS]["reps"], s[tracing.ATTRS]["seed"])
                 for s in tracer.spans if s[tracing.NAME] == "montecarlo.sample_paths"]
        extras["montecarlo.rng_fill_s"] = rng_fill_seconds(calls) if calls else 0.0
        if args.workload == "mc_long":
            extras.update(collector_extra_seconds(args.seed))
        Path(args.spans_out).write_text(json.dumps(tracer.spans))

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mib": peak_kib / 1024.0,
        "path_steps": workloads.requested_path_steps(args.workload),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "values": checks.values,
        "extras": extras,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
