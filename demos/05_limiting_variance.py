"""The limiting variance of the memory correction.

The predictable part q * Ztilde converges to a genuine random variable
whose variance has an explicit one-dimensional integral representation
with an integrable endpoint singularity.  Tanh-sinh quadrature evaluates
it to ~1e-10; at q = 0 the integrand collapses to 1/(2-u) and the value
is exactly ln 2.
"""

import math

import numpy as np

from dihedral_erw import var_z_infinity, var_ztilde_infinity, var_ztilde_exact
from dihedral_erw.montecarlo import sample_paths
from dihedral_erw.quadrature import figure_grid

print("q      var(Ztilde_inf)  var(Z_inf) = q^2 * var(Ztilde_inf)")
for q in (-1.0, -0.5, 0.0, 0.3, 0.5, 0.7, 0.9):
    print(f"{q:+.2f}  {var_ztilde_infinity(q):<16.10f} {var_z_infinity(q):.10f}")

print(f"\nmemoryless closed form: value - ln 2 = "
      f"{var_ztilde_infinity(0.0) - math.log(2):+.2e}")

print("\ntruncated exact sums approach the integral (q = 0.3):")
limit = var_ztilde_infinity(0.3)
for n in (10, 100, 1000, 10_000, 100_000):
    print(f"  n={n:<7d} exact={var_ztilde_exact(n, 0.3):.8f}  gap={var_ztilde_exact(n, 0.3) - limit:+.1e}")

# the two branches of the formula meet at q = 1/2
mid = var_ztilde_infinity(0.5)
for d in (1e-3, 1e-5, 1e-7):
    lo, hi = var_ztilde_infinity(0.5 - d), var_ztilde_infinity(0.5 + d)
    print(f"branch gap at offset {d:.0e}: one-sided {hi - mid:+.2e}, "
          f"symmetric {0.5 * (lo + hi) - mid:+.2e}")

# Monte Carlo agrees: sample variance of Ztilde at a long horizon
ens = sample_paths(0.5, 100_000, 2000, 3)
print(f"\nMC sample variance of Ztilde at q=0.5, n=1e5: {np.var(ens.Ztilde, ddof=1):.5f} "
      f"vs integral {mid:.5f}")

print("\nfigure grid (head; `derw figure` writes these rows as CSV):")
for row in figure_grid(-1.0, 0.9, 0.25)[:5]:
    print(f"  q={row.q:+.2f}  var(Z_inf)={row.var_z_infinity:.10f}  abs_err={row.abs_err:.1e}")
