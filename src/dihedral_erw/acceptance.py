"""Verification suite: one callable per criterion, shared by tests and the CLI.

Every criterion is deterministic: Monte Carlo checks run under the fixed
master seed below with one counter-based stream per replication, so the
suite either passes identically everywhere or fails identically everywhere.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import exhaustive_coupling_check
from .group import MemoryParams
from .moments import enumerate_exact, h_moment_table, t1, t2, var_ztilde_exact
from .montecarlo import ks_normal_test, sample_paths, t2_rate_fit
from .quadrature import gauss_2f1, var_ztilde_infinity

MASTER_SEED = 2

Q_GRID = (-1.0, -0.5, 0.0, 0.3, 0.5, 0.8)       # moment-oracle grid
Q_GRID_VARIANCE = (-0.5, 0.0, 0.3, 0.5)          # limit-variance grid
Q_GRID_CLT = (-0.5, 0.0, 0.5)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.index:2d}  {self.name}: {self.detail}  [{self.seconds:.1f}s]"


def _criterion(index: int, name: str):
    """Turn a check returning (passed, detail) into a criterion returning its timed result."""

    def decorate(check: Callable[[], tuple]) -> Callable[[], CriterionResult]:
        @functools.wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check()
            return CriterionResult(index, name, passed, detail, time.perf_counter() - start)

        return run

    return decorate


@_criterion(1, "exhaustive coupling")
def criterion_1_coupling():
    """Signed location equals the encoded S on every 14-step letter sequence."""
    start = time.perf_counter()
    count = exhaustive_coupling_check(14)
    elapsed = time.perf_counter() - start
    ok = count == 2**14 and elapsed < 60.0
    return ok, f"{count} sequences, zero mismatches, {elapsed:.2f}s"


@_criterion(2, "moment oracle n<=14")
def criterion_2_moment_oracle():
    """Enumerated moments match the recursions for H and for E[Ztilde^2]."""
    worst_w = worst_z = worst_p = 0.0
    coupling = True
    for q in Q_GRID:
        res = enumerate_exact(14, MemoryParams.from_q(q))
        coupling &= res.coupling_ok
        worst_p = max(worst_p, abs(res.prob_total - 1.0))
        worst_w = max(worst_w, np.max(np.abs(res.e_w2_by_step[1:] - h_moment_table(14, q)[1:])))
        for k in range(1, 15):
            worst_z = max(worst_z, abs(res.e_ztilde2_by_step[k] - var_ztilde_exact(k, q)))
    ok = coupling and worst_w <= 1e-10 and worst_z <= 1e-10 and worst_p <= 1e-12
    return ok, (f"max |E W^2 - H| = {worst_w:.2e}, max |E Zt^2 - recursion| = "
                f"{worst_z:.2e}, max |prob - 1| = {worst_p:.2e}")


@_criterion(3, "T1 + 2 T2 identity")
def criterion_3_t1_t2_identity():
    """The recursion for E[Ztilde^2] equals T1 + 2 T2 on the full grid."""
    worst = 0.0
    for q in Q_GRID:
        for n in (10, 50, 200, 5000):
            err = abs(var_ztilde_exact(n, q) - (t1(n, q) + 2.0 * t2(n, q)))
            worst = max(worst, err)
    return worst <= 1e-8, f"max identity error {worst:.2e} (tolerance 1e-8)"


@_criterion(4, "limit variance")
def criterion_4_limit_variance():
    """Quadrature limit: ln 2 at q=0, truncated-sum agreement, branch continuity.

    The q = 1/2 truncation clause fails by mathematics, not by
    implementation: the n = 1e5 tail of the exact sum at q = 1/2 is
    2|T2| + T1-tail ~ 1.74e-3 (verified against 30-digit arithmetic),
    which already exceeds the stated 1e-3.  The check is kept as stated.
    """
    msgs = []
    ok = True

    err0 = abs(var_ztilde_infinity(0.0, tol=1e-10) - math.log(2.0))
    ok &= err0 <= 1e-9
    msgs.append(f"|var(0)-ln2|={err0:.1e}")

    worst_q = None
    for q in Q_GRID_VARIANCE:
        diff = abs(var_ztilde_infinity(q) - var_ztilde_exact(100_000, q))
        if diff > 1e-3:
            ok = False
            worst_q = (q, diff)
        msgs.append(f"q={q:+.1f}: |limit-exact(1e5)|={diff:.2e}")
    if worst_q is not None:
        msgs.append(f"TOLERANCE 1e-3 EXCEEDED at q={worst_q[0]} (true truncation tail)")

    # branch continuity: symmetric probe at +-1e-4 cancels the smooth
    # q-derivative (~ -0.41 * delta per side) and measures the jump
    mid = var_ztilde_infinity(0.5)
    lo = var_ztilde_infinity(0.5 - 1e-4)
    hi = var_ztilde_infinity(0.5 + 1e-4)
    jump = abs(0.5 * (lo + hi) - mid)
    near = max(abs(var_ztilde_infinity(0.5 - 1e-6) - mid),
               abs(var_ztilde_infinity(0.5 + 1e-6) - mid))
    ok &= jump <= 1e-5 and near <= 1e-5
    msgs.append(f"branch jump={jump:.1e}, one-sided@1e-6={near:.1e}")
    return ok, "; ".join(msgs)


@_criterion(5, "Doob decomposition pathwise")
def criterion_5_doob():
    """Pathwise Doob identities to 1e-12 on 1e3 paths of length 1e5."""
    worst_s = worst_qv = 0.0
    for q in Q_GRID_VARIANCE:
        ens = sample_paths(q, 100_000, 1000, MASTER_SEED, collect=("doob",))
        worst_s = max(worst_s, float(ens.doob_resid_max.max()))
        worst_qv = max(worst_qv, float(ens.qv_resid_max.max()))
    ok = worst_s <= 1e-12 and worst_qv <= 1e-12
    return ok, f"max |S-Xi-qZt| = {worst_s:.2e}, max QV residual = {worst_qv:.2e}"


@_criterion(6, "CLT marginals (KS)")
def criterion_6_clt():
    """KS tests of S/sqrt(k) against the standard normal at three path times."""
    ok = True
    worst = 0.0
    thr = None
    for q in Q_GRID_CLT:
        ens = sample_paths(q, 10_000, 10_000, MASTER_SEED,
                           snapshot_steps=(2500, 5000, 10000))
        for m in (2500, 5000, 10000):
            res = ks_normal_test(ens.snapshots[m] / math.sqrt(m), alpha=0.01)
            ok &= res.passed
            worst = max(worst, res.statistic)
            thr = res.threshold
    return ok, f"max KS statistic {worst:.5f} vs threshold {thr:.5f}"


@_criterion(7, "SLLN and QSL")
def criterion_7_slln_qsl():
    """Strong law at n=1e5 and the quadratic strong law at n=1e6."""
    msgs = []
    ok = True
    for q in Q_GRID_CLT:
        ens = sample_paths(q, 100_000, 1000, MASTER_SEED)
        frac = float(np.abs(ens.S).mean()) / 100_000
        ok &= frac <= 0.01
        msgs.append(f"q={q:+.1f}: mean|S|/n={frac:.4f}")
    for q in (0.0, 0.5):
        big = sample_paths(q, 1_000_000, 100, MASTER_SEED, collect=("qsl",))
        qsl_mean = float(big.qsl().mean())
        ok &= 0.85 <= qsl_mean <= 1.15
        msgs.append(f"q={q:+.1f}: QSL={qsl_mean:.3f}")
    return ok, "; ".join(msgs)


@_criterion(8, "LIL envelope (qualitative)")
def criterion_8_lil():
    """Iterated-logarithm envelope, loose-band qualitative check.

    Per-path running maxima of +-S_k / sqrt(2k lnln k) spread widely
    (observed 0.07 to 2.5 over 50 paths), so the band [0.5, 1.5] is applied
    to the ensemble mean of the envelope statistic for each sign, which
    concentrates near the almost-sure limit 1.
    """
    msgs = []
    ok = True
    for q in (0.0, 0.5):
        big = sample_paths(q, 1_000_000, 50, MASTER_SEED, collect=("lil",))
        mean_pos = float(big.lil_pos.mean())
        mean_neg = float(big.lil_neg.mean())
        ok &= 0.5 <= mean_pos <= 1.5 and 0.5 <= mean_neg <= 1.5
        msgs.append(f"q={q:+.1f}: mean+={mean_pos:.3f} mean-={mean_neg:.3f}")
    return ok, "; ".join(msgs)


@_criterion(9, "T2 decay rates")
def criterion_9_t2_rates():
    """Fitted log-log decay of |T2| against the analytic rates."""
    ok = True
    msgs = []
    for q, target in ((0.3, -0.7), (0.5, -0.5), (0.7, -0.3), (-0.5, -1.0)):
        fit = t2_rate_fit(q, (100, 1000, 10_000, 100_000))
        ok &= abs(fit.fitted_slope - target) <= 0.15
        msgs.append(f"q={q:+.1f}: slope={fit.fitted_slope:.3f} (target {target})")
    return ok, "; ".join(msgs)


@_criterion(10, "hypergeometric cross-check")
def criterion_10_hypergeometric():
    """Series 2F1(q,1;2;-lambda) against its elementary closed form."""
    worst = 0.0
    for qi in range(1, 10):
        q = qi / 10.0
        for li in range(1, 11):
            lam = li / 10.0
            closed = ((1.0 + lam) ** (1.0 - q) - 1.0) / ((1.0 - q) * lam)
            worst = max(worst, abs(gauss_2f1(q, 1.0, 2.0, -lam) - closed))
    return worst <= 1e-10, f"max |series - closed form| = {worst:.2e}"


@_criterion(11, "figure grid via CLI")
def criterion_11_figure():
    """Limit-variance grid CSV through the CLI surface."""
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "figure.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dihedral_erw", "figure",
             "--q-min", "-1", "--q-max", "0.95", "--step", "0.05",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return False, f"CLI exited {proc.returncode}: {proc.stderr.strip()[:200]}"
        lines = out.read_text().strip().splitlines()
    if lines[0] != "q,var_Z_infinity,abs_err":
        return False, f"bad header {lines[0]!r}"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    n_expected = 40
    ok = len(rows) == n_expected
    zero_ok = any(qv == 0.0 and val == 0.0 for qv, val, _ in rows)
    ok &= zero_ok
    ok &= all(val >= 0.0 for _, val, _ in rows)
    worst_err = max(err for _, _, err in rows)
    ok &= worst_err <= 1e-8
    return ok, (f"{len(rows)} rows, zero-at-q=0 {zero_ok}, "
                f"max abs_err {worst_err:.1e}")


ALL_CRITERIA = (
    criterion_1_coupling,
    criterion_2_moment_oracle,
    criterion_3_t1_t2_identity,
    criterion_4_limit_variance,
    criterion_5_doob,
    criterion_6_clt,
    criterion_7_slln_qsl,
    criterion_8_lil,
    criterion_9_t2_rates,
    criterion_10_hypergeometric,
    criterion_11_figure,
)

QUICK_CRITERIA = (
    criterion_1_coupling,
    criterion_2_moment_oracle,
    criterion_3_t1_t2_identity,
    criterion_10_hypergeometric,
)
