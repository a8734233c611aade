"""The signed location is an integer walk in disguise.

Encoding letter a as +1 at odd epochs and as -1 at even epochs (and the
reverse for b) produces a walk S that equals the signed location of the
reduced word at every step.  The letter counts give a second integer walk
W = #a - #b, and S determines W through an alternating sum.
"""

from dihedral_erw import (
    GroupWord,
    MemoryParams,
    WalkTrace,
    encode_increment,
    exhaustive_coupling_check,
    reconstruct_w_from_s,
    reduce_left_multiply,
    signed_location,
    simulate_walk,
    verify_coupling,
)
from dihedral_erw.montecarlo import replication_stream

# the nine-step excursion e, a, ba, aba, baba, aba, baba, ababa, baba, aba
letters = ["a", "b", "a", "b", "b", "b", "a", "a", "b"]
positions = [GroupWord.identity()]
for g in letters:
    positions.append(reduce_left_multiply(g, positions[-1]))

s = 0
print("k  letter  word     signed  encoded-S")
for k, g in enumerate(letters, start=1):
    s += encode_increment(k, g)
    print(f"{k}  {g}       {str(positions[k]):7s}  {signed_location(positions[k]):+d}      {s:+d}")

trace = WalkTrace(params=MemoryParams.from_p(0.5), letters=letters, positions=positions)
print("\ncoupling verified on this path:", verify_coupling(trace))

s_path = [sum(encode_increment(j, letters[j - 1]) for j in range(1, k + 1))
          for k in range(1, 10)]
print("W_9 reconstructed from S alone:", reconstruct_w_from_s(s_path),
      " direct count:", letters.count("a") - letters.count("b"))

# the identity is combinatorial, not probabilistic: it holds for every
# letter sequence whatsoever.  The check runs over the reachable
# (word, S) states, so it covers all 2^n sequences at O(n^2) cost.
for depth in (12, 200):
    checked = exhaustive_coupling_check(depth)
    print(f"\nexhaustive check over all {checked:.4g} sequences of length {depth}: no mismatch")

for q in (-0.8, 0.0, 0.9):
    trace = simulate_walk(MemoryParams.from_q(q), 10_000, replication_stream(1, 0))
    print(f"simulated path at q={q:+.1f}: coupling holds = {verify_coupling(trace)}")
