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
from struct import Struct
from typing import NamedTuple

from .group import (LETTERS, GroupWord, MemoryParams, WalkTrace, _Replayed, _check_int,
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


_PACK = Struct("9d").pack_into   # one CoupledState as nine doubles


def _steps(state: CoupledState, letters, q: float, fields, stride: int) -> CoupledState:
    """The state after each letter of letters in turn, from state; returns the last one.

    State k + 1 (k = 0, 1, ...) is packed as nine doubles at byte k * stride
    of fields, so a stride of 72 keeps the chain and 0 only the last state.
    This is the scalar step arithmetic, the reference for the Monte Carlo
    engine: Xi and Ztilde are Kahan sums and the QV correction a Neumaier
    sum, all kept in local variables.  The drift and the Ztilde and QV
    increments are formed from w = W_n / max(n, 1), as in step_prob_a; at
    n = 0, W_0 = 0 makes all three exactly 0.
    """
    pack = _PACK
    n, W, S, xi, zt, xi_comp, zt_comp, qv_corr, qv_comp = state
    qq, at = q * q, 0
    for g in letters:
        if g == "a":
            dw = 1
        elif g == "b":
            dw = -1
        else:
            raise ValueError(f"not a generator: {g!r}")
        sgn = -1 if n & 1 else 1    # (-1)^n; epoch n+1 is odd iff n is even
        ds = sgn * dw
        w = W / (n or 1)            # max(n, 1), n >= 0
        y = (ds - sgn * q * w) - xi_comp
        t = xi + y
        xi_comp = (t - xi) - y
        xi = t
        y = sgn * w - zt_comp
        t = zt + y
        zt_comp = (t - zt) - y
        zt = t
        x = qq * (w * w)
        t = qv_corr + x
        if abs(qv_corr) >= abs(x):
            qv_comp += (qv_corr - t) + x
        else:
            qv_comp += (x - t) + qv_corr
        qv_corr = t
        n, W, S = n + 1, W + dw, S + ds
        pack(fields, at, n, W, S, xi, zt, xi_comp, zt_comp, qv_corr, qv_comp)
        at += stride
    return CoupledState(n, W, S, xi, zt, xi_comp, zt_comp, qv_corr, qv_comp)


def advance(state: CoupledState, g: str, params: MemoryParams) -> CoupledState:
    """Advance the coupled state by one step taking letter g."""
    state.validate()
    return _steps(state, (g,), params.q, bytearray(72), 0)


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


class _StateChain(_Replayed):
    """Read-only CoupledStates after each letter, rebuilt from a checkpoint every _SPAN steps.

    It keeps the letters as one str, q and the state at the start of each
    span that reads have reached.  A span is replayed through _steps into
    nine doubles a state in one array("d"), which holds every field exactly,
    and decoded on read.
    """

    _FIRST = 1

    def __init__(self, letters: str, q: float, start: CoupledState):
        super().__init__(letters, start)
        self._q = q

    def _run(self, start: CoupledState, letters: str):
        from array import array  # here, so a process that reads no chain does not load it

        fields = array("d", bytes(72 * len(letters)))
        return fields, _steps(start, letters, self._q, fields, 72)

    def _end(self, start: CoupledState, letters: str) -> CoupledState:
        return _steps(start, letters, self._q, bytearray(72), 0)

    @staticmethod
    def _value(fields, j: int) -> CoupledState:
        n, w, s, *rest = fields[9 * j:9 * j + 9]
        return CoupledState(int(n), int(w), int(s), *rest)

    @staticmethod
    def _values(fields):
        packed = memoryview(fields)
        n, w, s, *rest = (packed[j::9] for j in range(9))  # strided, not copied
        return map(CoupledState._make, zip(map(int, n), map(int, w), map(int, s), *rest))


def coupled_states_along(trace: WalkTrace) -> Sequence:
    """Read-only sequence of the CoupledState after each step of a trace (n = 1..len).

    A letter other than a or b raises here.  The chain keeps the trace's
    str itself, not a copy, and steps it only as reads reach it: the last
    state of a new chain costs one pass, and iteration steps each letter once.
    """
    letters = trace.letters
    bad = letters.replace("a", "").replace("b", "")
    if bad:
        raise ValueError(f"not a generator: {bad[0]!r}")
    return _StateChain(letters, trace.params.q, CoupledState())


def verify_coupling(trace: WalkTrace) -> bool:
    """True iff the encoded S-path equals the signed locations of the positions.

    The positions are multiplied out from the letters by the word rule,
    never derived from S.
    """
    s = 0
    words = iter(trace.positions)
    next(words)                     # w_0 = e
    for k, (g, w) in enumerate(zip(trace.letters, words), start=1):
        s += encode_increment(k, g)
        if signed_location(w) != s:
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
