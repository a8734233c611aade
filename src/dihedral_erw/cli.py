"""Command-line interface: simulation, exact computation, quadrature, verification.

Exit codes: 0 success, 1 numerical failure (JSON error record on stdout),
2 usage error, which covers every argument the library rejects and an
output path that cannot be written (the message on stderr, nothing on
stdout).  The CLI checks no numeric domain itself: each input is checked
by the library function that owns it, a rejected horizon is named by its
option, and the exact commands check q first, so a bad q is not named as one.

This module is the package's only writer: the library returns values, and
the commands here turn them into CSV, JSON and the verify report.  All
output is locale-independent; _write_csv prints floats with 12 significant
digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

from .acceptance import ALL_CRITERIA, QUICK_CRITERIA
from .coupling import coupled_states_along, verify_coupling
from .group import MemoryParams, _check_q, signed_location, simulate_walk, word_metric
from .moments import MomentTable, enumerate_exact, var_ztilde_exact
from .montecarlo import replication_stream
from .quadrature import QuadratureError, figure_grid, var_ztilde_infinity_result


def _add_memory_args(sp):
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", type=float, help="memory parameter p in [0, 1]")
    grp.add_argument("--q", type=float, help="centred memory parameter q = 2p - 1")


def _params_from_args(args) -> MemoryParams:
    return MemoryParams.from_p(args.p) if args.p is not None else MemoryParams.from_q(args.q)


def _named(option: str, fn, *args):
    """fn(*args), with a ValueError it raises named after the option whose value it rejected."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"argument {option}: {exc}") from None


def _write_csv(out, header: str, rows) -> None:
    """The header, then one line per row: floats to 12 significant digits, the rest by str.

    numpy float64 is a float and int64 is not, so table columns print like
    Python floats and ints.  Lines are written as they come, never held.
    """
    out.write(header + "\n")
    out.writelines(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows)


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or the file at path, opened before the caller computes what goes in it.

    A regular file is written to a temporary file beside it, which replaces it
    with the same mode only once the caller is done, so a rejected argument
    leaves it as it was.  Anything else, such as /dev/null, is written in place.
    """
    if path is None:
        yield sys.stdout
        return
    real = os.path.realpath(path)  # through a symlink, as open() writes
    existing = os.path.exists(real)
    tmp = f"{real}.{os.getpid()}.tmp" if not existing or os.path.isfile(real) else None
    try:
        with open(tmp or real, "w") as fh:
            yield fh
        if tmp:
            if existing:
                shutil.copymode(real, tmp)
            os.replace(tmp, real)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


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
        return args.run(args)
    except QuadratureError as exc:
        print(json.dumps({"error": {"kind": "quadrature", "message": str(exc)}}))
        return 1
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_simulate(args) -> int:
    params = _params_from_args(args)
    with _output(args.trace) if args.trace else contextlib.nullcontext() as out:
        stream = replication_stream(args.seed, 0)
        trace = _named("--steps", simulate_walk, params, args.steps, stream)
        states = coupled_states_along(trace)
        if out:
            rows = ((st.n, g, st.W, st.S, st.Xi, st.Ztilde, st.QV)
                    for g, st in zip(trace.letters, states))
            _write_csv(out, "n,letter,W,S,Xi,Ztilde,QV", rows)
    verified = verify_coupling(trace)   # walks trace.positions, which keep their last span
    final, last = states[-1], trace.positions[-1]
    summary = {
        "p": params.p,
        "q": params.q,
        "steps": args.steps,
        "seed": args.seed,
        "distance": word_metric(last),
        "signed_location": signed_location(last),
        "W": final.W,
        "S": final.S,
        "Xi": final.Xi,
        "Ztilde": final.Ztilde,
        "QV": final.QV,
        "coupling_verified": verified,
    }
    print(json.dumps(summary))
    return 0


def _cmd_enumerate(args) -> int:
    params = _params_from_args(args)
    _check_q(params.q)
    cov_pairs = ((1, 2),) if args.n >= 2 else ()
    res = _named("--n", enumerate_exact, args.n, params, cov_pairs)
    payload = {
        "n": res.n,
        "q": res.q,
        "prob_total": res.prob_total,
        "E_S": res.e_s,
        "E_S2": res.e_s2,
        "E_W2": res.e_w2,
        "E_Ztilde2": res.e_ztilde2,
        "cov_W": {f"{k},{l}": v for (k, l), v in res.cov_w_pairs.items()},
        "coupling_ok": res.coupling_ok,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_moments(args) -> int:
    q = _check_q(_params_from_args(args).q)
    with _output(args.out) as out:
        table = _named("--n-max", MomentTable.build, args.n_max, q)
        _write_csv(out, "k,H,I,a_k", zip(table.k, table.H, table.I, table.a))
    return 0


def _cmd_variance(args) -> int:
    q = _check_q(_params_from_args(args).q)
    # the exact sum first, so a bad --exact-n fails before any integrand runs
    exact = None if args.exact_n is None else _named("--exact-n", var_ztilde_exact, args.exact_n, q)
    res = var_ztilde_infinity_result(q, tol=args.tol)
    payload = {
        "q": q,
        "var_Z_infinity": q**2 * res.value,
        "var_Ztilde_infinity": res.value,
        "abs_err": res.abs_err_estimate,
        "evaluations": res.evaluations,
        "levels": res.levels,
    }
    if exact is not None:
        payload["exact_n"] = args.exact_n
        payload["var_Ztilde_exact_n"] = exact
    print(json.dumps(payload))
    return 0


def _cmd_figure(args) -> int:
    # the grid before the output: figure_grid finds a bad --tol or --step, and no file is left
    rows = figure_grid(args.q_min, args.q_max, args.step, tol=args.tol)
    failed = [r.q for r in rows if not r.ok]
    with _output(args.out) as out:
        _write_csv(out, "q,var_Z_infinity,abs_err",
                   ((r.q, r.var_z_infinity, r.abs_err) for r in rows))
    if failed:
        print(f"warning: quadrature failed at q = {failed}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    results = []
    for criterion in (QUICK_CRITERIA if args.quick else ALL_CRITERIA):
        results.append(criterion())
        print(results[-1].line())
    n_fail = sum(1 for r in results if not r.passed)
    total = sum(r.seconds for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed in {total:.0f}s")
    return 0 if n_fail == 0 else 1
