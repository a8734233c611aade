import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_erw import coupling, group
from dihedral_erw.coupling import (
    CoupledState,
    advance,
    conditional_step_prob,
    coupled_states_along,
    encode_increment,
    exhaustive_coupling_check,
    reconstruct_w_from_s,
    verify_coupling,
)
from dihedral_erw.group import (GroupWord, MemoryParams, WalkTrace, reduce_left_multiply,
                                signed_location, simulate_walk)
from dihedral_erw.moments import enumerate_exact
from dihedral_erw.montecarlo import replication_stream

# the nine-step excursion e, a, ba, aba, baba, aba, baba, ababa, baba, aba
# realised by the letters below; its encoded walk visits 1,2,3,4,3,4,5,4,3
PATH_LETTERS = ["a", "b", "a", "b", "b", "b", "a", "a", "b"]
PATH_S = [1, 2, 3, 4, 3, 4, 5, 4, 3]


def trace_from_letters(letters, params=None):
    return WalkTrace(params=params or MemoryParams.from_p(0.5), letters=letters)


class TestEncodeIncrement:
    def test_epoch_letter_table(self):
        assert encode_increment(1, "a") == 1
        assert encode_increment(2, "b") == 1
        assert encode_increment(2, "a") == -1
        assert encode_increment(1, "b") == -1

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            encode_increment(0, "a")

    @given(st.integers(min_value=1, max_value=1000), st.sampled_from(["a", "b"]))
    def test_sign_flip_between_parities(self, n, g):
        assert encode_increment(n, g) == -encode_increment(n + 1, g)


class TestAdvance:
    def test_first_step_conventions(self):
        st0 = CoupledState()
        st1 = advance(st0, "a", MemoryParams.from_q(0.5))
        assert (st1.n, st1.W, st1.S) == (1, 1, 1)
        assert st1.Xi == 1.0 and st1.Ztilde == 0.0 and st1.QV == 1.0

    def test_rejects_inconsistent_state(self):
        bad = CoupledState(n=2, W=1, S=0)  # W_n has the parity of n
        with pytest.raises(ValueError):
            advance(bad, "a", MemoryParams.from_q(0.0))

    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.3, 0.5, 0.8])
    def test_doob_identity_along_paths(self, q):
        params = MemoryParams.from_q(q)
        trace = simulate_walk(params, 2000, replication_stream(5, 0))
        s_vals = trace.signed_locations()
        states = coupled_states_along(trace)
        for k, state in enumerate(states, start=1):
            assert state.S == s_vals[k]
            assert abs(state.S - state.Xi - q * state.Ztilde) < 1e-12
        final = states[-1]
        wsq = 0.0
        w = 0
        for k, g in enumerate(trace.letters[:-1], start=1):
            w += 1 if g == "a" else -1
            wsq += (w / k) ** 2
        assert abs(final.QV - (trace.n - q * q * wsq)) < 1e-12

    def test_states_are_immutable(self):
        st1 = advance(CoupledState(), "a", MemoryParams.from_q(0.5))
        with pytest.raises(AttributeError):
            st1.W = 3
        with pytest.raises(AttributeError):
            st1.xi_comp = 1.0
        assert st1 == advance(CoupledState(), "a", MemoryParams.from_q(0.5))

    @pytest.mark.parametrize("where", (0, 4, 8))
    def test_chain_rejects_a_non_generator_anywhere(self, where):
        letters = list(PATH_LETTERS)
        letters[where] = "c"
        trace = WalkTrace(params=MemoryParams.from_q(0.3), letters=letters)
        with pytest.raises(ValueError, match="not a generator: 'c'"):
            coupled_states_along(trace)

    def test_chain_memory_per_state(self):
        # a checkpoint every group._SPAN states, one byte a letter and one
        # replayed span of nine packed doubles a state peak at about 3.5 B a
        # state here; the array of every state took 72, a list of
        # CoupledState tuples of boxed numbers about 340
        steps = 100_000
        trace = simulate_walk(MemoryParams.from_q(0.5), steps, replication_stream(3, 0))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            states = coupled_states_along(trace)
            states[-1], states[steps // 2]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == steps
        assert (peak - before) / steps < 8

    def test_trace_memory_per_step(self):
        # the letters as one str; lists of letters and of positions held 16 B a step
        steps = 100_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace = simulate_walk(MemoryParams.from_q(0.5), steps, replication_stream(3, 0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n == steps
        assert (held - before) / steps < 1.1
        assert (peak - before) / steps < 4

    def test_positions_memory(self):
        # reading every position of a 1e6-step trace holds a checkpoint word
        # every group._SPAN steps and one replayed span, not 1e6 words; the
        # word cache (at most 4096 words) is filled by a first reading
        steps = 1_000_000
        trace = simulate_walk(MemoryParams.from_q(0.5), steps, replication_stream(3, 0))
        for _ in WalkTrace(trace.params, trace.letters).positions:
            pass
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            count = sum(1 for _ in trace.positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == steps + 1
        assert peak - before < 2**20

    @pytest.mark.parametrize("q", (-1.0, 0.0, 0.5, 1.0))
    def test_final_state_is_the_chain_end(self, q):
        trace = simulate_walk(MemoryParams.from_q(q), 5000, replication_stream(4, 0))
        last = coupling._steps(CoupledState(), trace.letters, q, bytearray(72), 0)
        assert repr(last) == repr(coupled_states_along(trace)[-1])

    def test_chain_steps_each_letter_once(self, monkeypatch):
        # checkpoints fill as reads advance: iteration steps each letter once,
        # the last state of a new chain costs one pass, and a read behind the
        # last span replays its own span alone
        steps = 3 * group._SPAN + 5
        trace = simulate_walk(MemoryParams.from_q(0.3), steps, replication_stream(6, 0))
        stepped = []

        def counted(state, letters, *args):
            stepped.append(len(letters))
            return steps_(state, letters, *args)

        steps_ = coupling._steps
        monkeypatch.setattr(coupling, "_steps", counted)
        states = coupled_states_along(trace)
        assert stepped == []
        walked = list(states)
        assert sum(stepped) == steps and len(walked) == steps
        states[-1]
        assert sum(stepped) == steps
        assert repr(states[5]) == repr(walked[5])
        assert stepped[-1] == group._SPAN and sum(stepped) == steps + group._SPAN
        stepped.clear()
        again = coupled_states_along(trace)
        assert repr(again[-1]) == repr(walked[-1]) and sum(stepped) == steps

    def test_packed_states_keep_every_bit(self):
        # replayed from this checkpoint, the two states hold -0.0 and the
        # smallest subnormal, which the packed doubles must keep
        start = CoupledState(1, 0, 1, -0.0, -0.0, -0.0, 0.0, 5e-324, -0.0)
        expect, st_ = [], start
        for g in "ab":
            st_ = coupling._steps(st_, g, 0.5, bytearray(72), 0)
            expect.append(repr(st_))
        assert "Ztilde=-0.0" in expect[0] and "5e-324" in expect[0] and "5e-324" in expect[1]
        chain = coupling._StateChain("ab", 0.5, start)
        assert [repr(x) for x in chain] == [repr(chain[0]), repr(chain[-1])] == expect

    @pytest.mark.parametrize("q", (-0.5, 0.8))
    def test_random_access_matches_iteration(self, q):
        # three full spans and five states of a fourth: every index, both
        # signs, in an order that jumps between spans and across their edges
        steps = 3 * group._SPAN + 5
        trace = simulate_walk(MemoryParams.from_q(q), steps, replication_stream(6, 0))
        states = coupled_states_along(trace)
        walked = [repr(st_) for st_ in states]
        assert len(states) == len(walked) == steps
        fresh = coupled_states_along(trace)  # first reads that step over spans not yet reached
        for k in (2 * group._SPAN + 3, group._SPAN, -1, 0):
            assert repr(fresh[k]) == walked[k]
        edges = [k for span in range(4) for k in (span * group._SPAN - 1, span * group._SPAN)]
        for k in [*edges[1:], *range(steps - 1, -1, -1), *range(steps)]:
            assert repr(states[k]) == walked[k]
            assert repr(states[k - steps]) == walked[k]
        for k in (steps, steps + group._SPAN, -steps - 1):
            with pytest.raises(IndexError):
                states[k]
        with pytest.raises(TypeError, match="slice"):
            states[1:3]

    def test_chain_keeps_its_own_letters(self):
        # the trace is frozen and its letters a str, so the chain holds that
        # str itself, not a copy, and no later change reaches its states
        trace = simulate_walk(MemoryParams.from_q(0.3), group._SPAN + 10, replication_stream(7, 0))
        states = coupled_states_along(trace)
        before = [repr(st_) for st_ in states]
        assert states._letters is trace.letters
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.letters = trace.letters.translate(str.maketrans("ab", "ba"))
        assert [repr(states[k]) for k in range(len(states))] == before
        assert [repr(st_) for st_ in states] == before

    def test_zero_memory_kills_corrections(self):
        params = MemoryParams.from_q(0.0)
        st_ = CoupledState()
        stream = replication_stream(8, 0)
        for m in range(1, 300):
            g = "a" if stream.random() < 0.5 else "b"
            st_ = advance(st_, g, params)
            assert st_.Xi == st_.S
            assert st_.QV == st_.n

    def test_increment_bound(self):
        # martingale increments stay within 2 in absolute value
        for q in (-1.0, 0.8):
            params = MemoryParams.from_q(q)
            st_ = CoupledState()
            stream = replication_stream(21, 0)
            prev = 0.0
            for m in range(1, 500):
                g = "a" if stream.random() < 0.5 else "b"
                st_ = advance(st_, g, params)
                assert abs(st_.Xi - prev) <= 2.0 + 1e-15
                prev = st_.Xi


class TestConditionalStepProb:
    def test_memoryless(self):
        st1 = advance(CoupledState(), "a", MemoryParams.from_q(0.0))
        assert conditional_step_prob(st1, MemoryParams.from_q(0.0)) == (0.5, 0.5)

    def test_worked_value(self):
        # n=1, W=1, q=0.5: P(up) = 1/2 - 0.5/2 = 0.25
        st1 = advance(CoupledState(), "a", MemoryParams.from_q(0.5))
        up, down = conditional_step_prob(st1, MemoryParams.from_q(0.5))
        assert up == 0.25 and down == 0.75

    def test_empirical_frequency_of_fixed_prefix(self):
        # continue the one-step prefix g_1 = a a million times
        params = MemoryParams.from_q(0.5)
        stream = replication_stream(31337, 0)
        n, ups = 1_000_000, 0
        for _ in range(n):
            u = stream.random()
            g = "a" if u < params.p * 1.0 else "b"  # counts form at A=1, B=0
            ups += encode_increment(2, g) == 1
        stderr = math.sqrt(0.25 * 0.75 / n)
        assert abs(ups / n - 0.25) < 4 * stderr

    def test_boundary_saturation(self):
        # q=-1 with W=n pins the next move
        params = MemoryParams.from_q(-1.0)
        st_ = CoupledState()
        st_ = advance(st_, "a", params)
        up, down = conditional_step_prob(st_, params)
        assert (up, down) == (1.0, 0.0)

    def test_first_step_is_uniform(self):
        for q in (-1.0, -0.5, 0.0, 0.3, 1.0):
            assert conditional_step_prob(CoupledState(), MemoryParams.from_q(q)) == (0.5, 0.5)

    def test_martingale_increment_mean_zero_exact(self):
        # E[xi | state] = 0 algebraically for every reachable state
        for q in (-0.5, 0.3, 0.8):
            params = MemoryParams.from_q(q)
            st_ = CoupledState()
            stream = replication_stream(13, 0)
            for m in range(1, 200):
                g = "a" if stream.random() < 0.5 else "b"
                st_ = advance(st_, g, params)
                up, down = conditional_step_prob(st_, params)
                n, w = st_.n, st_.W
                drift = (-1.0) ** n * q * w / n
                assert abs((up - down) - drift) < 1e-15


class TestReconstructW:
    def test_single_step(self):
        assert reconstruct_w_from_s([1]) == 1

    def test_two_steps(self):
        # letters (a, b) give S=(1,2) and counts A=B=1
        assert reconstruct_w_from_s([1, 2]) == 0

    def test_nine_step_path(self):
        # direct count for the excursion: 4 a's, 5 b's
        a_count = PATH_LETTERS.count("a")
        assert a_count == 4
        expected_w = a_count - (9 - a_count)
        assert expected_w == -1
        assert reconstruct_w_from_s(PATH_S) == -1

    def test_rejects_bad_increments(self):
        with pytest.raises(ValueError):
            reconstruct_w_from_s([1, 3])
        with pytest.raises(ValueError):
            reconstruct_w_from_s([2])
        with pytest.raises(ValueError):
            reconstruct_w_from_s([])

    @given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_matches_direct_count_on_random_paths(self, letters):
        s_path = []
        s = 0
        for k, g in enumerate(letters, start=1):
            s += encode_increment(k, g)
            s_path.append(s)
        w_direct = letters.count("a") - letters.count("b")
        assert reconstruct_w_from_s(s_path) == w_direct


class TestVerifyCoupling:
    def test_nine_step_path(self):
        trace = trace_from_letters(PATH_LETTERS)
        assert verify_coupling(trace)
        assert trace.positions[-1].letters() == "aba"
        assert list(trace.signed_locations())[1:] == PATH_S
        assert [st.S for st in coupled_states_along(trace)] == PATH_S

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.9])
    def test_simulated_traces(self, q):
        trace = simulate_walk(MemoryParams.from_q(q), 5000, replication_stream(3, 0))
        assert verify_coupling(trace)

    def test_exhaustive_small_depth(self):
        assert exhaustive_coupling_check(10) == 2**10

    def test_broken_trace_detected(self, monkeypatch):
        # a word rule that puts the step to length 4 on the wrong side of e
        # (step 4 of the path) must fail the check, which multiplies words
        assert verify_coupling(trace_from_letters(PATH_LETTERS))
        monkeypatch.setattr(group, "reduce_left_multiply", _wrong_letter_at_length_4)
        trace = trace_from_letters(PATH_LETTERS)
        assert signed_location(trace.positions[4]) == -PATH_S[3]
        assert not verify_coupling(trace)

    def test_exhaustive_every_depth_and_far(self):
        for depth in range(1, 21):
            assert exhaustive_coupling_check(depth) == 2**depth
        assert exhaustive_coupling_check(500) == 2**500

    def test_exhaustive_rejects_empty_depth(self):
        with pytest.raises(ValueError):
            exhaustive_coupling_check(0)


def _flip_encoding_at_epoch_7(n, g):
    return -encode_increment(n, g) if n == 7 else encode_increment(n, g)


def _wrong_letter_at_length_4(g, w):
    out = reduce_left_multiply(g, w)
    if out.length == 4:
        return GroupWord(4, "b" if out.first == "a" else "a")
    return out


class TestCouplingCheckLiveness:
    """A broken encoding or word reduction must fail both exact-layer checks."""

    @pytest.mark.parametrize("name, mutant", [
        ("encode_increment", _flip_encoding_at_epoch_7),
        ("reduce_left_multiply", _wrong_letter_at_length_4),
    ])
    def test_mutant_caught(self, monkeypatch, name, mutant):
        monkeypatch.setattr(coupling, name, mutant)
        with pytest.raises(AssertionError):
            exhaustive_coupling_check(10)
        assert not enumerate_exact(10, MemoryParams.from_q(0.3)).coupling_ok
