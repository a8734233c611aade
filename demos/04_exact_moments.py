"""Exact second moments, three independent ways.

E[W_k^2] = H(k, q) follows a one-step recursion, and E[Ztilde_{n+1}^2]
follows from a second one, for G_k = E[Ztilde_k W_k].  The same value is a
double sum over Pochhammer ratios, which splits as T1 + 2 T2 with T2
vanishing at an explicit rate.  An exact pass over all 2^n letter
sequences (the forward equation over the a-count, O(n^2) work) cross-checks
everything from the step law alone, at small n and far out.
"""

from dihedral_erw import MemoryParams, enumerate_exact, h_moment, t1, t2, var_ztilde_exact
from dihedral_erw.moments import MomentTable

q = 0.5
params = MemoryParams.from_q(q)

print(f"H(k, q={q}) by recursion vs the exact pass over all paths (n = 12):")
res = enumerate_exact(12, params)
for k in (1, 2, 3, 6, 12):
    print(f"  k={k:<3d} recursion={h_moment(k, q):<12.6f} "
          f"enumerated={res.e_w2_by_step[k]:<12.6f}")

print(f"\nE[Ztilde^2] by recursion vs the exact pass:")
for n in (1, 2, 6, 12):
    print(f"  n={n:<3d} recursion={var_ztilde_exact(n, q):<12.8f} "
          f"enumerated={res.e_ztilde2_by_step[n]:<12.8f}")

far = enumerate_exact(1000, params)
print(f"\nat n = 1000: exact pass E[W^2] = {far.e_w2:.10g}, recursion = {h_moment(1000, q):.10g}")

print("\nthe T1 + 2 T2 split reproduces the recursion:")
for qq in (-1.0, -0.5, 0.0, 0.3, 0.8):
    n = 60
    lhs = var_ztilde_exact(n, qq)
    rhs = t1(n, qq) + 2 * t2(n, qq)
    print(f"  q={qq:+.1f}: recursion={lhs:.10f}  T1+2T2={rhs:.10f}  diff={lhs - rhs:+.1e}")

print("\nT2 alone fades with the horizon (alternating-tail decay):")
for n in (100, 1000, 10_000, 100_000):
    print(f"  n={n:<7d} T2={t2(n, 0.5):+.3e}")

print("\nmoment table head (the columns of `derw moments`):")
table = MomentTable.build(5, 0.5)
for k, h, i, a in zip(table.k, table.H, table.I, table.a):
    print(f"  k={k}  H={h:<10.6f} I={i:.6f}  a_k={a:.6f}")
