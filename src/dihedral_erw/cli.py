"""Command-line interface: simulation, exact computation, quadrature, verification.

Exit codes: 0 success, 1 numerical failure (JSON error record on stdout),
2 usage error.  All output is locale-independent; floats are printed with
12 significant digits in CSV files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .acceptance import run_acceptance
from .coupling import coupled_states_along, trace_csv_lines, verify_coupling
from .group import MemoryParams, signed_location, simulate_walk, word_metric
from .moments import MomentTable, enumerate_exact, var_ztilde_exact
from .montecarlo import replication_stream
from .quadrature import (
    QuadratureError,
    figure_csv_lines,
    figure_grid,
    var_ztilde_infinity_result,
)


def _add_memory_args(sp, required: bool = True):
    grp = sp.add_mutually_exclusive_group(required=required)
    grp.add_argument("--p", type=float, help="memory parameter p in [0, 1]")
    grp.add_argument("--q", type=float, help="centred memory parameter q = 2p - 1")


def _params_from_args(parser, args, allow_p_one: bool) -> MemoryParams:
    try:
        params = (MemoryParams.from_p(args.p) if args.p is not None
                  else MemoryParams.from_q(args.q))
    except ValueError as exc:
        parser.error(str(exc))
    if not allow_p_one and params.p == 1.0:
        parser.error("p = 1 (q = 1) is only supported by `simulate`")
    return params


def _write_lines(lines, path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derw",
        description="Elephant random walk on the infinite dihedral group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate one path")
    sp.set_defaults(run=_cmd_simulate)
    _add_memory_args(sp)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", metavar="OUT.CSV", help="write the full coupled trace")

    sp = sub.add_parser("enumerate", help="exact moments over all paths of a horizon")
    sp.set_defaults(run=_cmd_enumerate)
    _add_memory_args(sp)
    sp.add_argument("--n", type=int, required=True,
                    help="horizon, at least 1; cost grows like n^2")

    sp = sub.add_parser("moments", help="H, I and a_k table as CSV")
    sp.set_defaults(run=_cmd_moments)
    _add_memory_args(sp)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--out", metavar="OUT.CSV")

    sp = sub.add_parser("variance", help="limiting variances by quadrature")
    sp.set_defaults(run=_cmd_variance)
    _add_memory_args(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--exact-n", type=int,
                    help="also report the truncated exact sum at this horizon")

    sp = sub.add_parser("figure", help="limit-variance curve over a q grid (CSV)")
    sp.set_defaults(run=_cmd_figure)
    sp.add_argument("--q-min", type=float, required=True)
    sp.add_argument("--q-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", metavar="OUT.CSV")

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("--quick", action="store_true",
                    help="enumeration and identity checks only")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        return args.run(parser, args)
    except QuadratureError as exc:
        print(json.dumps({"error": {"kind": "quadrature", "message": str(exc)}}))
        return 1
    except ValueError as exc:
        print(json.dumps({"error": {"kind": "value", "message": str(exc)}}))
        return 1


def _cmd_simulate(parser, args) -> int:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    params = _params_from_args(parser, args, allow_p_one=True)
    rng = replication_stream(args.seed, 0)
    trace = simulate_walk(params, args.steps, rng)
    if args.trace:
        _write_lines(trace_csv_lines(trace), args.trace)
    final = coupled_states_along(trace)[-1]
    summary = {
        "p": params.p,
        "q": params.q,
        "steps": args.steps,
        "seed": args.seed,
        "distance": word_metric(trace.positions[-1]),
        "signed_location": signed_location(trace.positions[-1]),
        "W": final.W,
        "S": final.S,
        "Xi": final.Xi,
        "Ztilde": final.Ztilde,
        "QV": final.QV,
        "coupling_verified": verify_coupling(trace),
    }
    print(json.dumps(summary))
    return 0


def _cmd_enumerate(parser, args) -> int:
    if args.n < 1:
        parser.error("--n must be at least 1")
    params = _params_from_args(parser, args, allow_p_one=False)
    res = enumerate_exact(args.n, params)
    print(res.to_json())
    return 0


def _cmd_moments(parser, args) -> int:
    if args.n_max < 1:
        parser.error("--n-max must be at least 1")
    params = _params_from_args(parser, args, allow_p_one=False)
    table = MomentTable.build(args.n_max, params.q)
    _write_lines(table.csv_lines(), args.out)
    return 0


def _cmd_variance(parser, args) -> int:
    if args.tol <= 0:
        parser.error("--tol must be positive")
    if args.exact_n is not None and args.exact_n < 1:
        parser.error("--exact-n must be at least 1")
    params = _params_from_args(parser, args, allow_p_one=False)
    res = var_ztilde_infinity_result(params.q, tol=args.tol)
    payload = {
        "q": params.q,
        "var_Z_infinity": params.q**2 * res.value,
        "var_Ztilde_infinity": res.value,
        "abs_err": res.abs_err_estimate,
        "evaluations": res.evaluations,
        "levels": res.levels,
    }
    if args.exact_n is not None:
        payload["exact_n"] = args.exact_n
        payload["var_Ztilde_exact_n"] = var_ztilde_exact(args.exact_n, params.q)
    print(json.dumps(payload))
    return 0


def _cmd_figure(parser, args) -> int:
    if args.tol <= 0:
        parser.error("--tol must be positive")
    if args.step <= 0:
        parser.error("--step must be positive")
    if args.q_min < -1.0 or args.q_max > 0.99 or args.q_max < args.q_min:
        parser.error("grid must satisfy -1 <= q-min <= q-max <= 0.99")
    rows = figure_grid(args.q_min, args.q_max, args.step, tol=args.tol)
    failed = [r.q for r in rows if not r.ok]
    _write_lines(figure_csv_lines(rows), args.out)
    if failed:
        print(f"warning: quadrature failed at q = {failed}", file=sys.stderr)
    return 0


def _cmd_verify(parser, args) -> int:
    results = run_acceptance(quick=args.quick)
    n_fail = sum(1 for r in results if not r.passed)
    total = sum(r.seconds for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed in {total:.0f}s")
    return 0 if n_fail == 0 else 1
