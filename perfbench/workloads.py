"""The benchmark's workloads: fixed sets of calls into dihedral_erw, with their checks.

Every call goes through a module attribute (``montecarlo.sample_paths``,
not a name imported here), so a tracer that replaced the attribute sees
it.  ``Checks.check`` counts deterministic checks only; statistical
outcomes (KS statistics, QSL and LIL means) go to ``Checks.record`` and
never fail a run.
"""

from __future__ import annotations

import math
import subprocess
import sys

from dihedral_erw import acceptance, coupling, group, moments, montecarlo, quadrature

MC_LONG_STEPS = 100_000
MC_LONG_Q = (0.0, 0.5)
# (reps, collectors) per q, as in criteria 5, 7 and 8: the second call repeats rows of the first
MC_LONG_CALLS = ((100, ("qsl", "lil")), (50, ("lil",)), (100, ("doob",)))
MC_WIDE_STEPS = 10_000
MC_WIDE_REPS = 10_000
MC_WIDE_Q = (-0.5, 0.0, 0.5)
MC_WIDE_SNAPSHOTS = (2500, 5000, 10_000)
EXACT_ENUM_STEPS = 18
EXACT_IDENTITY_N = (10, 200, 1000)
EXACT_LONG_N = 1_000_000
EXACT_COUPLING_DEPTH = 20
EXACT_T2_RATES = ((0.3, -0.7), (0.5, -0.5), (0.7, -0.3), (-0.5, -1.0))
EXACT_FIGURE = (-1.0, 0.95, 0.005)
EXACT_FIGURE_ROWS = 391
VERIFY_TIMEOUT_S = 120


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.values = {}

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def record(self, name: str, value: float) -> None:
        self.values[name] = float(value)


def _scalar_oracle(checks: Checks, q: float, steps: int, seed: int, rep: int, ens) -> None:
    """The scalar chain on replication ``rep``'s stream must equal the engine bit for bit."""
    trace = group.simulate_walk(group.MemoryParams.from_q(q), steps,
                                montecarlo.replication_stream(seed, rep))
    states = coupling.coupled_states_along(trace)
    last = states[-1]
    checks.check(f"q={q} rep={rep} scalar W,S,Xi,Ztilde,QV == engine",
                 (last.W, last.S, last.Xi, last.Ztilde, last.QV)
                 == (ens.W[rep], ens.S[rep], ens.Xi[rep], ens.Ztilde[rep], ens.QV[rep]))
    for m, snap in ens.snapshots.items():
        checks.check(f"q={q} rep={rep} snapshot {m} == scalar S", states[m - 1].S == snap[rep])


def mc_long(seed: int, checks: Checks, span) -> None:
    """Narrow, long ensembles with every collector on; the reps=50 call repeats rows."""
    for q in MC_LONG_Q:
        qsl, lil, doob = (montecarlo.sample_paths(q, MC_LONG_STEPS, reps, seed, collect=collect)
                          for reps, collect in MC_LONG_CALLS)
        checks.check(f"q={q} Doob residual <= 1e-12", float(doob.doob_resid_max.max()) <= 1e-12)
        checks.check(f"q={q} QV residual <= 1e-12", float(doob.qv_resid_max.max()) <= 1e-12)
        checks.check(f"q={q} repeated rows agree across calls",
                     (qsl.W == doob.W).all() and (qsl.S == doob.S).all()
                     and (lil.W == qsl.W[:50]).all()
                     and (lil.lil_pos == qsl.lil_pos[:50]).all()
                     and (lil.lil_neg == qsl.lil_neg[:50]).all())
        _scalar_oracle(checks, q, MC_LONG_STEPS, seed, 0, doob)
        checks.record(f"q={q} QSL mean", qsl.qsl().mean())
        checks.record(f"q={q} LIL+ mean", lil.lil_pos.mean())
        checks.record(f"q={q} LIL- mean", lil.lil_neg.mean())


def mc_wide(seed: int, checks: Checks, span) -> None:
    """Wide, short ensembles with CLT snapshots; no ensemble repeats."""
    for q in MC_WIDE_Q:
        ens = montecarlo.sample_paths(q, MC_WIDE_STEPS, MC_WIDE_REPS, seed,
                                      snapshot_steps=MC_WIDE_SNAPSHOTS)
        for m in MC_WIDE_SNAPSHOTS:
            res = montecarlo.ks_normal_test(ens.snapshots[m] / math.sqrt(m), alpha=0.01)
            checks.record(f"q={q} KS statistic at {m}", res.statistic)
        for rep in (0, MC_WIDE_REPS - 1):
            _scalar_oracle(checks, q, MC_WIDE_STEPS, seed, rep, ens)


def exact(seed: int, checks: Checks, span) -> None:
    """Exact moments, the T1 + 2 T2 identity, quadrature and the quick CLI suite.

    No Monte Carlo: the seed is accepted and ignored.
    """
    for q in acceptance.Q_GRID:
        res = moments.enumerate_exact(EXACT_ENUM_STEPS, group.MemoryParams.from_q(q))
        checks.check(f"q={q} enumeration coupling", res.coupling_ok)
        checks.check(f"q={q} enumeration |prob - 1| <= 1e-12", abs(res.prob_total - 1.0) <= 1e-12)
        for k in range(1, EXACT_ENUM_STEPS + 1):
            checks.check(f"q={q} k={k} |E W^2 - H| <= 1e-10",
                         abs(res.e_w2_by_step[k] - moments.h_moment(k, q)) <= 1e-10)
            checks.check(f"q={q} k={k} |E Zt^2 - double sum| <= 1e-10",
                         abs(res.e_ztilde2_by_step[k] - moments.var_ztilde_exact(k, q)) <= 1e-10)
        for n in EXACT_IDENTITY_N:
            err = abs(moments.var_ztilde_exact(n, q) - (moments.t1(n, q) + 2.0 * moments.t2(n, q)))
            checks.check(f"q={q} n={n} T1 + 2 T2 identity <= 1e-8", err <= 1e-8)
        long_sum = moments.var_ztilde_exact(EXACT_LONG_N, q)
        checks.check(f"q={q} var_ztilde_exact(1e6) finite, >= 0",
                     math.isfinite(long_sum) and long_sum >= 0.0)
        checks.record(f"q={q} var_ztilde_exact(1e6)", long_sum)

    sequences = coupling.exhaustive_coupling_check(EXACT_COUPLING_DEPTH)
    checks.check("exhaustive coupling count", sequences == 2 ** EXACT_COUPLING_DEPTH)
    for q, target in EXACT_T2_RATES:
        fit = montecarlo.t2_rate_fit(q, (100, 1000, 10_000, 100_000))
        checks.check(f"q={q} T2 slope within 0.15 of {target}",
                     abs(fit.fitted_slope - target) <= 0.15)

    rows = quadrature.figure_grid(*EXACT_FIGURE)
    checks.check("figure row count", len(rows) == EXACT_FIGURE_ROWS)
    checks.check("figure rows converged", all(r.ok for r in rows))
    checks.check("figure abs_err <= 1e-8", max(r.abs_err for r in rows) <= 1e-8)
    checks.check("figure zero at q = 0",
                 any(r.q == 0.0 and r.var_z_infinity == 0.0 for r in rows))

    with span("cli.verify_quick"):
        proc = subprocess.run([sys.executable, "-m", "dihedral_erw", "verify", "--quick"],
                              capture_output=True, text=True, timeout=VERIFY_TIMEOUT_S)
    checks.check("derw verify --quick exits 0", proc.returncode == 0)


WORKLOADS = {"mc_long": mc_long, "mc_wide": mc_wide, "exact": exact}


def requested_path_steps(workload: str) -> int:
    """Reps x steps summed over the workload's ``sample_paths`` calls."""
    if workload == "mc_long":
        return len(MC_LONG_Q) * sum(reps for reps, _ in MC_LONG_CALLS) * MC_LONG_STEPS
    if workload == "mc_wide":
        return len(MC_WIDE_Q) * MC_WIDE_REPS * MC_WIDE_STEPS
    return 0
