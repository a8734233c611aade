"""Desk-scale checks of the limit theorems.

Whatever the memory parameter below 1, the signed location behaves like a
simple symmetric walk to first and second order: S_n/n -> 0, S_n/sqrt(n)
is asymptotically standard normal, the iterated-logarithm envelope is
honoured, and the quadratic strong law average settles near 1.  Memory
changes none of these, only the convergent correction term.
"""

import math

import numpy as np

from dihedral_erw.group import MemoryParams
from dihedral_erw.moments import r_norm
from dihedral_erw.montecarlo import ks_normal_test, sample_paths, t2_rate_fit

SEED = 2

print("normality of S_n / sqrt(n) at n = 4000 (KS against N(0,1), alpha = 1%):")
for q in (-0.5, 0.0, 0.5):
    ens = sample_paths(q, 4000, 4000, SEED)
    res = ks_normal_test(ens.S / math.sqrt(4000), alpha=0.01)
    print(f"  q={q:+.1f}: statistic={res.statistic:.4f} threshold={res.threshold:.4f} "
          f"pass={res.passed}")

print("\nterminal summaries at q = 0.5, n = 2e4, R = 2000:")
n = 20_000
ens = sample_paths(0.5, n, 2000, SEED, collect=("qsl",))
for name, x in (("S_over_sqrt_n", ens.S / math.sqrt(n)), ("Ztilde", ens.Ztilde),
                ("QV_over_n", ens.QV / n), ("qsl", ens.qsl())):
    print(f"  {name:<15s} mean={x.mean():+.4f}  sd={math.sqrt(x.var(ddof=1)):.4f}")

print("\niterated-logarithm envelope statistic (running max, both signs):")
lil = sample_paths(0.0, 200_000, 40, SEED, collect=("lil",))
print(f"  mean+ = {lil.lil_pos.mean():.3f}   mean- = {lil.lil_neg.mean():.3f} "
      f"(almost-sure limit of the envelope is 1, band is loose)")

print("\nthe W-walk changes regime with p even though S never does:")
n = 50_000
for p in (0.5, 0.9):
    w_abs = np.abs(sample_paths(MemoryParams.from_p(p).q, n, 300, SEED).W)
    r = r_norm(n, p)
    print(f"  p={p}: |W|/r_n mean={(w_abs / r).mean():10.3f}   "
          f"|W|/(n/r_n) mean={(w_abs / (n / r)).mean():.3f}")

print("\nfitted decay of the variance cross-term T2:")
for q in (0.5, -0.5):
    fit = t2_rate_fit(q, (100, 1000, 10_000, 100_000))
    print(f"  q={q:+.1f}: fitted slope {fit.fitted_slope:+.3f} "
          f"(theory {fit.theoretical_slope:+.1f})")
