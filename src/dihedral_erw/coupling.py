"""Coupled integer processes along a path and the Doob decomposition.

Each step letter is encoded as a +-1 increment in two ways: W counts
a-steps minus b-steps (a reinforced walk on the integers), while S flips
the encoding at even epochs and reproduces the signed location of the
group walk exactly.  Along any path

    S_n = Xi_n + q * Ztilde_n,

where Xi is a martingale with increments bounded by 2, Ztilde_n is the
alternating sum of W_k/k up to n-1, and the predictable quadratic
variation of Xi is <Xi>_n = n - q^2 * sum_{k<n} W_k^2/k^2.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .group import (LETTERS, GroupWord, MemoryParams, WalkTrace, _check_int,
                    reduce_left_multiply, signed_location, step_prob_a)


def encode_increment(n: int, g: str) -> int:
    """+-1 encoding of step letter g at epoch n: a is +1 at odd epochs."""
    if n < 1:
        raise ValueError("step epochs start at 1")
    if g not in LETTERS:
        raise ValueError(f"not a generator: {g!r}")
    if n % 2 == 1:
        return 1 if g == "a" else -1
    return 1 if g == "b" else -1


class CoupledState(NamedTuple):
    """Running record of the coupled processes after n steps.

    The float accumulators carry Kahan compensation terms, and the QV
    correction sum a Neumaier one, so the pathwise identities below survive
    to 1e-12 even on paths of length 1e5.  QV is not stored: it is derived
    from the correction sum and its compensation term.  The letter counts
    are A = (n + W)/2 and B = (n - W)/2.
    """

    n: int = 0
    W: int = 0
    S: int = 0
    Xi: float = 0.0
    Ztilde: float = 0.0
    xi_comp: float = 0.0
    zt_comp: float = 0.0
    qv_corr: float = 0.0  # running sum of q^2 W_k^2 / k^2
    qv_comp: float = 0.0

    @property
    def QV(self) -> float:
        """<Xi>_n = n - q^2 sum_{k<n} W_k^2/k^2."""
        return self.n - (self.qv_corr + self.qv_comp)

    def validate(self) -> None:
        if self.n < 0:
            raise ValueError("negative step count")
        if abs(self.W) > self.n or (self.W - self.n) % 2 != 0:
            raise ValueError("W out of range or with wrong parity")
        if abs(self.S) > self.n or (self.S - self.n) % 2 != 0:
            raise ValueError("S out of range or with wrong parity")


def _kahan_add(total: float, comp: float, inc: float) -> tuple:
    y = inc - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _neumaier_add(total: float, corr: float, x: float) -> tuple:
    t = total + x
    if abs(total) >= abs(x):
        corr += (total - t) + x
    else:
        corr += (x - t) + total
    return t, corr


def _step(state: CoupledState, dw: int, q: float) -> CoupledState:
    """The state after one more step with W-increment dw = +-1 (a is +1).

    The drift and the Ztilde and QV increments are formed from
    w = W_n / max(n, 1), as in step_prob_a; at n = 0, W_0 = 0 makes all
    three exactly 0.  No checks: advance and coupled_states_along make them.
    """
    n = state.n
    sgn = 1 if n % 2 == 0 else -1  # (-1)^n; epoch n+1 is odd iff n is even
    ds = sgn * dw

    w = state.W / max(n, 1)
    drift = sgn * q * w
    zt_inc = sgn * w
    qv_inc = (q * q) * (w * w)

    xi, xi_comp = _kahan_add(state.Xi, state.xi_comp, ds - drift)
    zt, zt_comp = _kahan_add(state.Ztilde, state.zt_comp, zt_inc)
    qv_corr, qv_comp = _neumaier_add(state.qv_corr, state.qv_comp, qv_inc)
    return CoupledState(n + 1, state.W + dw, state.S + ds, xi, zt,
                        xi_comp, zt_comp, qv_corr, qv_comp)


def advance(state: CoupledState, g: str, params: MemoryParams) -> CoupledState:
    """Advance the coupled state by one step taking letter g."""
    state.validate()
    if g not in LETTERS:
        raise ValueError(f"not a generator: {g!r}")
    return _step(state, 1 if g == "a" else -1, params.q)


def conditional_step_prob(state: CoupledState, params: MemoryParams) -> tuple:
    """(P(S goes up), P(S goes down)) given the state after n >= 0 steps.

    The up-probability is 1/2 + (-1)^n q W_n / (2n), and (1/2, 1/2) at
    n = 0: step epoch n + 1 encodes a as +1 iff n is even, so it is
    P(a) = step_prob_a at even n and 1 - P(a) at odd n.  It depends on the
    whole S-history only through W_n, which is itself a signed functional
    of the full path.
    """
    state.validate()
    prob_a = step_prob_a(params.q, state.W, state.n)
    prob_up = prob_a if state.n % 2 == 0 else 1.0 - prob_a
    return prob_up, 1.0 - prob_up


def reconstruct_w_from_s(s_path: Sequence[int]) -> int:
    """Recover W_n from the S-path alone.

    W_n = (-1)^(n-1) S_n + 2 * sum_{k=1}^{n-1} (-1)^(k-1) S_k, which is the
    alternating sum of the S-increments, sum_k (-1)^(k-1) (S_k - S_(k-1)),
    added up in the same pass that checks each step.  The input is S_1..S_n.
    """
    w = prev = k = 0
    for k, v in enumerate(map(int, s_path), start=1):
        if abs(v - prev) != 1:
            raise ValueError(f"S must move by +-1 each step (step {k})")
        w += v - prev if k % 2 else prev - v
        prev = v
    if k == 0:
        raise ValueError("empty path")
    return w


class _StateChain(Sequence):
    """Read-only CoupledStates, nine doubles each in one array("d"), which holds every field exactly."""

    def __init__(self, fields):
        self._fields = fields

    def __len__(self) -> int:
        return len(self._fields) // 9

    def __getitem__(self, i: int) -> CoupledState:
        k = range(0, len(self._fields), 9)[i]  # IndexError past either end
        n, w, s, *rest = self._fields[k:k + 9]
        return CoupledState(int(n), int(w), int(s), *rest)

    def __iter__(self):
        n, w, s, *rest = (memoryview(self._fields)[j::9] for j in range(9))  # strided, not copied
        return map(CoupledState._make, zip(map(int, n), map(int, w), map(int, s), *rest))


def coupled_states_along(trace: WalkTrace) -> Sequence:
    """Read-only sequence of the CoupledState after each step of a trace (n = 1..len)."""
    for g in trace.letters:
        if g not in LETTERS:
            raise ValueError(f"not a generator: {g!r}")
    from array import array  # here, so a process that builds no chain does not load it (72 KiB)
    from struct import Struct

    q = trace.params.q
    fields = array("d", (0.0,)) * (9 * len(trace.letters))
    pack = Struct("9d").pack_into
    st = CoupledState()
    for k, g in enumerate(trace.letters):
        st = _step(st, 1 if g == "a" else -1, q)
        pack(fields, 72 * k, *st)
    return _StateChain(fields)


def verify_coupling(trace: WalkTrace) -> bool:
    """True iff the encoded S-path equals the signed location at every step."""
    s = 0
    if signed_location(trace.positions[0]) != 0:
        return False
    for k, g in enumerate(trace.letters, start=1):
        s += encode_increment(k, g)
        if signed_location(trace.positions[k]) != s:
            return False
    return True


def exhaustive_coupling_check(depth: int) -> int:
    """Check the S/signed-location identity on every letter sequence.

    Runs over the reachable states rather than the 2^depth sequences: each
    epoch keeps {(reduced word, S): number of sequences reaching it} and
    extends every state by both letters, so all sequences are checked at
    O(depth^2) cost.  Returns the number of sequences checked (2^depth);
    raises AssertionError on the first mismatch.
    """
    depth = _check_int(depth, "depth")
    layer = {(GroupWord.identity(), 0): 1}
    for n in range(1, depth + 1):
        nxt = {}
        for (word, s), count in layer.items():
            for g in LETTERS:
                word_g = reduce_left_multiply(g, word)
                s_g = s + encode_increment(n, g)
                loc = signed_location(word_g)
                if loc != s_g:
                    raise AssertionError(
                        f"coupling broken at epoch {n}: word {word_g} "
                        f"sits at {loc} but S = {s_g}"
                    )
                nxt[word_g, s_g] = nxt.get((word_g, s_g), 0) + count
        layer = nxt
    return sum(layer.values())
