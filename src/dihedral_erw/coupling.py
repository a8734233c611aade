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

from dataclasses import dataclass
from typing import Iterable, Sequence

from .group import (LETTERS, GroupWord, MemoryParams, WalkTrace, reduce_left_multiply,
                    signed_location, step_prob_a)


def encode_increment(n: int, g: str) -> int:
    """+-1 encoding of step letter g at epoch n: a is +1 at odd epochs."""
    if n < 1:
        raise ValueError("step epochs start at 1")
    if g not in LETTERS:
        raise ValueError(f"not a generator: {g!r}")
    if n % 2 == 1:
        return 1 if g == "a" else -1
    return 1 if g == "b" else -1


@dataclass(frozen=True)
class CoupledState:
    """Running record of the coupled processes after n steps.

    The float accumulators carry Kahan compensation terms (and QV keeps its
    correction sum separately) so the pathwise identities below survive to
    1e-12 even on paths of length 1e5.
    """

    n: int = 0
    A: int = 0
    B: int = 0
    W: int = 0
    S: int = 0
    Xi: float = 0.0
    Ztilde: float = 0.0
    QV: float = 0.0
    _xi_comp: float = 0.0
    _zt_comp: float = 0.0
    _qv_corr: float = 0.0  # running sum of q^2 W_k^2 / k^2
    _qv_comp: float = 0.0

    def validate(self) -> None:
        if self.n < 0 or self.A < 0 or self.B < 0:
            raise ValueError("negative counts")
        if self.A + self.B != self.n:
            raise ValueError("A + B must equal n")
        if self.W != self.A - self.B:
            raise ValueError("W must equal A - B")
        if abs(self.S) > self.n or (self.S - self.n) % 2 != 0:
            raise ValueError("S out of range or with wrong parity")


def initial_state() -> CoupledState:
    return CoupledState()


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


def advance(state: CoupledState, g: str, params: MemoryParams) -> CoupledState:
    """Advance the coupled state by one step taking letter g."""
    state.validate()
    if g not in LETTERS:
        raise ValueError(f"not a generator: {g!r}")
    n = state.n
    q = params.q
    dw = 1 if g == "a" else -1
    sgn = 1 if n % 2 == 0 else -1  # (-1)^n; epoch n+1 is odd iff n is even
    ds = sgn * dw

    if n == 0:
        # first step: no drift, empty Ztilde term, unit conditional variance
        drift = 0.0
        zt_inc = 0.0
        qv_inc = 0.0
    else:
        w_over_n = state.W / n
        drift = sgn * q * w_over_n
        zt_inc = sgn * w_over_n
        qv_inc = (q * q) * (w_over_n * w_over_n)

    xi, xi_comp = _kahan_add(state.Xi, state._xi_comp, ds - drift)
    zt, zt_comp = _kahan_add(state.Ztilde, state._zt_comp, zt_inc)
    qv_corr, qv_comp = _neumaier_add(state._qv_corr, state._qv_comp, qv_inc)
    n_new = n + 1
    return CoupledState(
        n=n_new,
        A=state.A + (1 if dw > 0 else 0),
        B=state.B + (1 if dw < 0 else 0),
        W=state.W + dw,
        S=state.S + ds,
        Xi=xi,
        Ztilde=zt,
        QV=n_new - (qv_corr + qv_comp),
        _xi_comp=xi_comp,
        _zt_comp=zt_comp,
        _qv_corr=qv_corr,
        _qv_comp=qv_comp,
    )


def conditional_step_prob(state: CoupledState, params: MemoryParams) -> tuple:
    """(P(S goes up), P(S goes down)) given the state after n >= 1 steps.

    The up-probability is 1/2 + (-1)^n q W_n / (2n): step epoch n + 1 encodes
    a as +1 iff n is even, so it is P(a) = step_prob_a at even n and 1 - P(a)
    at odd n.  It depends on the whole S-history only through W_n, which is
    itself a signed functional of the full path.
    """
    state.validate()
    if state.n < 1:
        raise ValueError("conditional law is defined from n >= 1 (first step is uniform)")
    prob_a = step_prob_a(params.q, state.W, state.n)
    prob_up = prob_a if state.n % 2 == 0 else 1.0 - prob_a
    return prob_up, 1.0 - prob_up


def reconstruct_w_from_s(s_path: Sequence[int]) -> int:
    """Recover W_n from the S-path alone.

    W_n = (-1)^(n-1) S_n + 2 * sum_{k=1}^{n-1} (-1)^(k-1) S_k, which is the
    alternating sum of the S-increments.  The input is S_1..S_n.
    """
    s = [int(v) for v in s_path]
    if not s:
        raise ValueError("empty path")
    prev = 0
    for k, v in enumerate(s, start=1):
        if abs(v - prev) != 1:
            raise ValueError(f"S must move by +-1 each step (step {k})")
        prev = v
    n = len(s)
    total = (1 if (n - 1) % 2 == 0 else -1) * s[-1]
    for k in range(1, n):
        total += 2 * (1 if (k - 1) % 2 == 0 else -1) * s[k - 1]
    return total


def coupled_states_along(trace: WalkTrace) -> list:
    """CoupledState after each step of a trace (n = 1..len)."""
    states = []
    st = initial_state()
    for g in trace.letters:
        st = advance(st, g, trace.params)
        states.append(st)
    return states


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
    if depth < 1:
        raise ValueError("depth must be at least 1")

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


TRACE_CSV_HEADER = "n,letter,W,S,Xi,Ztilde,QV"


def trace_csv_lines(trace: WalkTrace) -> Iterable[str]:
    """Trace dump rows: n, letter, W, S, Xi, Ztilde, QV (header included)."""
    yield TRACE_CSV_HEADER
    for g, st in zip(trace.letters, coupled_states_along(trace)):
        yield (
            f"{st.n},{g},{st.W},{st.S},"
            f"{st.Xi:.12g},{st.Ztilde:.12g},{st.QV:.12g}"
        )
