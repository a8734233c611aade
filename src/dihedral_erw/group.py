"""Reduced words over two involutive generators and the elephant step dynamics.

The walk lives on the group generated by two letters a, b subject to
a*a = b*b = identity.  Its Cayley graph is the bi-infinite path, so every
position is a reduced word whose letters strictly alternate.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index
from typing import Iterable, Optional

import numpy as np

LETTERS = ("a", "b")
_DRAWS = 4096                  # uniforms per fill in simulate_walk
_SPAN = 1024                   # letters between checkpoints of a replayed sequence


def complement(letter: str) -> str:
    """Swap the two generators: a <-> b."""
    if letter == "a":
        return "b"
    if letter == "b":
        return "a"
    raise ValueError(f"not a generator: {letter!r}")


@dataclass(frozen=True)
class GroupWord:
    """A reduced word over {a, b}, stored leftmost-letter-first.

    Both generators are involutions, so in a reduced word no two adjacent
    letters agree; the letters must alternate.  The pair (length, first
    letter) therefore determines the whole word, which keeps words O(1)
    regardless of how far the walk wanders.  The identity is the empty word.
    """

    length: int = 0
    first: Optional[str] = None

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("word length cannot be negative")
        if self.length == 0 and self.first is not None:
            raise ValueError("the identity word carries no letters")
        if self.length > 0 and self.first not in LETTERS:
            raise ValueError(f"bad leading letter: {self.first!r}")

    @classmethod
    def identity(cls) -> "GroupWord":
        return cls(0, None)

    @classmethod
    def from_letters(cls, letters: Iterable[str]) -> "GroupWord":
        s = "".join(letters)
        for ch in s:
            if ch not in LETTERS:
                raise ValueError(f"not a generator: {ch!r}")
        for x, y in zip(s, s[1:]):
            if x == y:
                raise ValueError(f"word is not reduced: {s!r}")
        if not s:
            return cls.identity()
        return cls(len(s), s[0])

    @property
    def last(self) -> Optional[str]:
        """Rightmost letter (the first step's surviving side), None for e."""
        if self.length == 0:
            return None
        # letters alternate, so parity of the length decides
        return self.first if self.length % 2 == 1 else complement(self.first)

    def letters(self) -> str:
        if self.length == 0:
            return ""
        out = []
        cur = self.first
        for _ in range(self.length):
            out.append(cur)
            cur = complement(cur)
        return "".join(out)

    def __str__(self) -> str:
        return self.letters() or "e"


@lru_cache(maxsize=4096)
def _word(length: int, first: Optional[str]) -> GroupWord:
    """The shared GroupWord(length, first).

    Words are frozen, so one object per visited word can stand for every
    occurrence of it; a walk of n steps visits O(sqrt(n)) words, so the
    cache spares the walk almost every construction.
    """
    return GroupWord(length, first)


def reduce_left_multiply(g: str, w: GroupWord) -> GroupWord:
    """Reduced form of g*w for a generator g and a reduced word w.

    If w starts with g the two letters cancel, otherwise g is prepended;
    either way the length changes by exactly one.
    """
    if g not in LETTERS:
        raise ValueError(f"not a generator: {g!r}")
    if w.length == 0:
        return _word(1, g)
    if w.first == g:
        if w.length == 1:
            return _word(0, None)
        return _word(w.length - 1, complement(g))
    return _word(w.length + 1, g)


def word_metric(w: GroupWord) -> int:
    """Graph distance from the identity: the letter count of the word."""
    return w.length


def signed_location(w: GroupWord) -> int:
    """Position of the word on the bi-infinite path, identity at 0.

    The branch containing the vertex a is positive.  A word sits on that
    branch exactly when its rightmost letter is a (the vertices ..., ab, b,
    e, a, ba, aba, ... from left to right), so the sign is read off the
    last letter.
    """
    if w.length == 0:
        return 0
    return w.length if w.last == "a" else -w.length


@dataclass(frozen=True)
class MemoryParams:
    """Memory parameter p in [0, 1] and its centred form q = 2p - 1.

    Doubles cannot make both q = 2p - 1 and p = (q + 1)/2 exact for
    non-dyadic values, so whichever parameter was given is stored verbatim
    and the relation must hold exactly in at least one direction.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0 and -1.0 <= self.q <= 1.0):
            raise ValueError(f"need p in [0, 1] and q in [-1, 1], got p={self.p}, q={self.q}")
        if self.q != 2.0 * self.p - 1.0 and self.p != (self.q + 1.0) / 2.0:
            raise ValueError("p and q must satisfy q = 2p - 1")

    @classmethod
    def from_p(cls, p: float) -> "MemoryParams":
        p = float(p)
        return cls(p=p, q=2.0 * p - 1.0)

    @classmethod
    def from_q(cls, q: float) -> "MemoryParams":
        q = float(q)
        return cls(p=(q + 1.0) / 2.0, q=q)


def _check_q(q: float) -> float:
    """q as a float in [-1, 1), the domain of the exact and limiting moments."""
    q = float(q)
    if not -1.0 <= q < 1.0:
        raise ValueError(f"q must lie in [-1, 1), got {q}")
    return q


def _check_int(value, name: str, least: int = 1) -> int:
    """value as an int >= least, else ValueError naming it: the check of every integer argument.

    An int of any size or a numpy integer passes operator.index unchanged, with no float
    round trip; an integral float such as 100.0 becomes 100, and a str, 10.5, nan or inf fails.
    """
    try:
        out = operator.index(value)
    except TypeError:
        if not (isinstance(value, (float, np.floating)) and value.is_integer()):
            raise ValueError(f"{name} must be integers, got {value!r}") from None
        out = int(value)
    if out < least:
        raise ValueError(f"{name} must be at least {least}")
    return out


def step_prob_a(q, W, n):
    """P(the next letter is a) after n >= 0 steps with W = #a - #b.

    Mathematically (p*A + (1-p)*B)/n; evaluated as 1/2 + (q/2) * (W/n),
    the IEEE operations of the Monte Carlo engine, so that every sampler
    turns the same uniform into the same letter.  W is divided by
    max(n, 1): W_0 = 0, so the uniform first step is this law at n = 0,
    exactly 1/2 for every q.  Works on scalars and on numpy arrays alike.
    """
    return 0.5 + (0.5 * q) * (W / max(n, 1))


def _letter(u: float, q: float, W: int, n: int) -> str:
    """The letter a uniform u in [0, 1) selects after n steps with W = #a - #b."""
    return "a" if u < step_prob_a(q, W, n) else "b"


class _Replayed(Sequence):
    """Read-only values along a str of letters, rebuilt from a checkpoint every _SPAN letters.

    Span j holds the values after letters j*_SPAN + 1 .. (j + 1)*_SPAN, and
    checkpoint j the value before them; item i is the value after _FIRST + i
    letters.  A subclass's _run(start, letters) returns a span's values, as
    _value and _values read them, and the value after the span; _end gives
    that last value alone, for the spans a read steps over.  Only the start,
    the checkpoints that reads have reached and the last span replayed are
    kept: reads in order step each letter once, and any read steps over at
    most the spans from the last checkpoint to its own.
    """

    _FIRST = 0

    def __init__(self, letters: str, start):
        self._letters, self._checkpoints = letters, [start]
        self._span = self._held = None

    def __len__(self) -> int:
        return len(self._letters) + 1 - self._FIRST

    def _replay(self, span: int):
        """The values of one span, replayed from its checkpoint unless it was the last read."""
        points = self._checkpoints
        while len(points) <= span:
            lo = (len(points) - 1) * _SPAN
            points.append(self._end(points[-1], self._letters[lo:lo + _SPAN]))
        if span != self._span:
            lo = span * _SPAN
            self._held, end = self._run(points[span], self._letters[lo:lo + _SPAN])
            self._span = span
            if span + 1 == len(points):
                points.append(end)
        return self._held

    def _end(self, start, letters: str):
        return self._run(start, letters)[1]

    def __getitem__(self, i: int):
        # letters before item i: TypeError for a slice, IndexError past either end
        m = range(self._FIRST, len(self._letters) + 1)[index(i)]
        if m == 0:
            return self._checkpoints[0]
        return self._value(self._replay((m - 1) // _SPAN), (m - 1) % _SPAN)

    def __iter__(self):
        if not self._FIRST:
            yield self._checkpoints[0]
        for span in range(-(-len(self._letters) // _SPAN)):
            yield from self._values(self._replay(span))

    @staticmethod
    def _value(held, j: int):
        return held[j]

    @staticmethod
    def _values(held):
        return held


class _Positions(_Replayed):
    """The positions w_0 = e, w_k = reduce_left_multiply(g_k, w_(k-1)) along a str of letters."""

    def __init__(self, letters: str):
        super().__init__(letters, _word(0, None))

    @staticmethod
    def _run(w: GroupWord, letters: str):
        words = []
        for g in letters:
            w = reduce_left_multiply(g, w)
            words.append(w)
        return words, w


@dataclass(frozen=True)
class WalkTrace:
    """One realised path: step letters g_1..g_n and positions w_0..w_n.

    The letters are one str, a byte a step; any other iterable of letters
    is joined into one.  The positions are not stored: positions is a
    read-only sequence that multiplies them out from the letters as reads
    reach them, made at the first read and kept with the trace.
    """

    params: MemoryParams
    letters: str = ""

    def __post_init__(self):
        if not isinstance(self.letters, str):   # "".join(str) would build a list of its characters
            object.__setattr__(self, "letters", "".join(self.letters))

    @property
    def n(self) -> int:
        return len(self.letters)

    @cached_property
    def positions(self) -> Sequence:
        return _Positions(self.letters)

    def word_metrics(self) -> np.ndarray:
        return np.array([word_metric(w) for w in self.positions], dtype=np.int64)

    def signed_locations(self) -> np.ndarray:
        return np.array([signed_location(w) for w in self.positions], dtype=np.int64)


def simulate_walk(params: MemoryParams, steps: int, rng) -> WalkTrace:
    """Simulate one elephant path of the given length.

    Every letter, the uniform first one included, is chosen by _letter
    from W = #a - #b so far: the conditional law of repeating a uniformly
    remembered past step with probability p, in O(1) state.  One uniform
    per step is consumed, in rng.random fills of _DRAWS at a time, which
    give the same doubles as successive scalar draws; that pins the path
    to the injected stream.  Each fill's letters are joined into one str,
    and no word is formed here: the trace's positions multiply them out.
    """
    steps = _check_int(steps, "steps")
    q = params.q
    fills = []
    W = 0
    for done in range(0, steps, _DRAWS):
        fill = []
        for n, u in enumerate(rng.random(min(_DRAWS, steps - done)).tolist(), done):
            g = _letter(u, q, W, n)
            W += 1 if g == "a" else -1
            fill.append(g)
        fills.append("".join(fill))
    return WalkTrace(params=params, letters="".join(fills))
