import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dihedral_erw.group import (
    _SPAN,
    GroupWord,
    MemoryParams,
    WalkTrace,
    _letter,
    complement,
    reduce_left_multiply,
    signed_location,
    simulate_walk,
    step_prob_a,
    word_metric,
)
from dihedral_erw.montecarlo import replication_stream
from oracles import check_invariants

E = GroupWord.identity()


def word(s):
    return GroupWord.from_letters(s)


letters = st.sampled_from(["a", "b"])


@st.composite
def reduced_words(draw, max_len=30):
    n = draw(st.integers(min_value=0, max_value=max_len))
    if n == 0:
        return E
    first = draw(letters)
    return GroupWord(n, first)


def test_complement_involution():
    assert complement("a") == "b"
    assert complement("b") == "a"
    with pytest.raises(ValueError):
        complement("c")


class TestReduceLeftMultiply:
    def test_identity_word(self):
        assert reduce_left_multiply("a", E) == word("a")

    def test_relation_squares_to_identity(self):
        assert reduce_left_multiply("a", word("a")) == E

    def test_cancellation_of_leading_letter(self):
        # the walk at "ababa" taking letter a backtracks to "baba"
        assert reduce_left_multiply("a", word("ababa")) == word("baba")

    def test_prepend(self):
        assert reduce_left_multiply("b", word("ababa")) == word("bababa")

    @given(letters, reduced_words())
    def test_involution(self, g, w):
        assert reduce_left_multiply(g, reduce_left_multiply(g, w)) == w

    @given(letters, reduced_words())
    def test_length_changes_by_one(self, g, w):
        assert abs(reduce_left_multiply(g, w).length - w.length) == 1

    @given(letters, reduced_words())
    def test_interned_words_equal_fresh_words(self, g, w):
        out = reduce_left_multiply(g, w)
        assert out == GroupWord(out.length, out.first)
        assert out is reduce_left_multiply(g, w)


class TestWordBasics:
    def test_metric(self):
        assert word_metric(E) == 0
        assert word_metric(word("ba")) == 2
        assert word_metric(word("bab")) == 3

    def test_from_letters_rejects_unreduced(self):
        with pytest.raises(ValueError):
            word("aab")

    def test_letters_roundtrip(self):
        for s in ("", "a", "b", "ab", "ba", "aba", "babab"):
            assert GroupWord.from_letters(s).letters() == s

    def test_signed_location_path_labels(self):
        # vertices of the bi-infinite path: ..., bab, ab, b, e, a, ba, aba, ...
        expected = {"bab": -3, "ab": -2, "b": -1, "": 0, "a": 1, "ba": 2, "aba": 3}
        for s, loc in expected.items():
            assert signed_location(word(s)) == loc

    @given(reduced_words())
    def test_signed_location_magnitude(self, w):
        assert abs(signed_location(w)) == word_metric(w)

    @given(reduced_words())
    def test_branch_sign_matches_distance_comparison(self, w):
        # the positive branch is the one closer to the vertex a: multiplying
        # on the right by a generator moves one step towards or away from it
        right_a = w.length - 1 if w.last == "a" else w.length + 1
        right_b = w.length - 1 if w.last == "b" else w.length + 1
        if right_a < right_b:
            assert signed_location(w) > 0
        elif right_b < right_a:
            assert signed_location(w) < 0
        else:
            assert w == E and signed_location(w) == 0


class TestMemoryParams:
    def test_q_relation(self):
        mp = MemoryParams.from_p(0.75)
        assert mp.q == 0.5
        mq = MemoryParams.from_q(0.3)
        assert mq.q == 0.3 and mq.p == 0.65

    def test_bounds(self):
        with pytest.raises(ValueError):
            MemoryParams.from_p(1.5)
        with pytest.raises(ValueError):
            MemoryParams.from_q(-1.2)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            MemoryParams(p=0.7, q=0.0)


class TestSampleNextLetter:
    """The scalar sampler group._letter, which simulate_walk draws every letter through.

    Generator.random(k) gives the same doubles as k calls of random(), so
    each check sees the draws of one scalar draw per letter.
    """

    def test_degenerate_repeat(self):
        rng = np.random.default_rng(0)
        q = MemoryParams.from_p(1.0).q
        assert all(_letter(u, q, 5, 5) == "a" for u in rng.random(50).tolist())

    def test_conditional_probability_value(self):
        # A=2, B=1, n=3, p=0.75: P(a) = (0.75*2 + 0.25*1)/3 = 7/12
        q = MemoryParams.from_p(0.75).q
        rng = replication_stream(4242, 0)
        draws = 1_000_000
        hits = sum(_letter(u, q, 1, 3) == "a" for u in rng.random(draws).tolist())
        expect = 7.0 / 12.0
        stderr = (expect * (1 - expect) / draws) ** 0.5
        assert abs(hits / draws - expect) < 4 * stderr

    def test_memoryless_case(self):
        q = MemoryParams.from_p(0.5).q
        rng = replication_stream(77, 0)
        draws = 200_000
        hits = sum(_letter(u, q, 180, 200) == "a" for u in rng.random(draws).tolist())
        assert abs(hits / draws - 0.5) < 4 * (0.25 / draws) ** 0.5


class TestStepLaw:
    def test_values(self):
        assert step_prob_a(0.5, 1, 1) == 0.75
        assert step_prob_a(-1.0, 3, 3) == 0.0 and step_prob_a(1.0, 3, 3) == 1.0
        w = np.array([-4, 0, 4])
        assert list(step_prob_a(0.5, w, 4)) == [step_prob_a(0.5, int(x), 4) for x in w]
        # the uniform first step is the law at n = 0, where W_0 = 0
        for q in (-1.0, -0.5, 0.0, 0.3, 1.0):
            assert step_prob_a(q, 0, 0) == 0.5
            assert list(step_prob_a(q, np.zeros(3), 0)) == [0.5] * 3

    def test_sampler_threshold_is_the_shared_law(self):
        # where the counts form (p*A + (1-p)*B)/n rounds differently from
        # the shared law, the sampler must still split exactly at step_prob_a
        points = []
        for q in (-0.5, -0.4, 0.3, 0.7, 0.8):
            params = MemoryParams.from_q(q)
            p = params.p
            for n in range(1, 200):
                for A in range(n + 1):
                    B = n - A
                    if (p * A + (1.0 - p) * B) / n != step_prob_a(q, A - B, n):
                        points.append((params, A, B, n))
        assert len(points) > 10_000
        # n = 0 splits at exactly 1/2 for every q
        points += [(MemoryParams.from_q(q), 0, 0, 0) for q in (-1.0, -0.5, 0.0, 0.3, 1.0)]
        for params, A, B, n in points:
            u = step_prob_a(params.q, A - B, n)
            assert _letter(u, params.q, A - B, n) == "b"
            below = float(np.nextafter(u, 0.0))
            assert _letter(below, params.q, A - B, n) == "a"


class TestSimulateWalk:
    def test_full_memory_distance_alternates(self):
        params = MemoryParams.from_p(1.0)
        trace = simulate_walk(params, 20, replication_stream(9, 0))
        assert list(trace.word_metrics()) == [0] + [1, 0] * 10

    def test_invariants_hold(self):
        for q, steps in ((-1.0, 500), (-0.3, 500), (0.0, 500), (0.6, 500), (0.5, 10_000)):
            trace = simulate_walk(MemoryParams.from_q(q), steps, replication_stream(11, 0))
            check_invariants(trace)

    def test_positions_replay_the_word_rule(self):
        # the positions, read by iteration and by index in an order that jumps
        # between spans and across their edges, are the words formed one
        # letter at a time; w_0 = e is item 0, so there are n + 1
        steps = 3 * _SPAN + 5
        trace = simulate_walk(MemoryParams.from_q(0.4), steps, replication_stream(12, 0))
        assert isinstance(trace.letters, str) and len(trace.letters) == steps
        words = [E]
        for g in trace.letters:
            words.append(reduce_left_multiply(g, words[-1]))
        positions = trace.positions
        assert positions is trace.positions and len(positions) == steps + 1
        assert list(positions) == words
        edges = [k for span in range(4) for k in (span * _SPAN, span * _SPAN + 1)]
        for k in [steps, *edges, *range(steps, -1, -1)]:
            assert positions[k] == words[k] and positions[k - steps - 1] == words[k]
        for k in (steps + 1, -steps - 2):
            with pytest.raises(IndexError):
                positions[k]

    def test_trace_joins_any_letters(self):
        params = MemoryParams.from_p(0.5)
        for letters in (["a", "b", "b"], ("a", "b", "b"), iter("abb"), "abb"):
            trace = WalkTrace(params, letters)
            assert trace.letters == "abb" and trace.n == 3
            assert trace.positions[-1] == word("a")
        assert WalkTrace(params).positions[-1] == E

    def test_single_step_uniform(self):
        params = MemoryParams.from_p(0.3)
        hits = 0
        n = 20_000
        for i in range(n):
            trace = simulate_walk(params, 1, replication_stream(123, i))
            assert trace.positions[1].length == 1
            hits += trace.letters[0] == "a"
        assert abs(hits / n - 0.5) < 4 * (0.25 / n) ** 0.5

    def test_symmetric_case_matches_ssrw_distribution(self):
        # at p = 1/2 every letter sequence has probability 2^-n and the
        # signed location must follow the simple-symmetric-walk binomial law
        # exactly (probabilities are dyadic, so equality is exact)
        from itertools import product
        from math import comb

        n = 11
        hist = {}
        for seq in product("ab", repeat=n):
            w = E
            for g in seq:
                w = reduce_left_multiply(g, w)
            s = signed_location(w)
            hist[s] = hist.get(s, 0) + 1
        for s, count in hist.items():
            k = (s + n) // 2
            assert count == comb(n, k)

        from dihedral_erw.moments import enumerate_exact

        res = enumerate_exact(10, MemoryParams.from_p(0.5))
        assert abs(res.e_s2 - 10.0) < 1e-12
        assert abs(res.e_s) < 1e-13
