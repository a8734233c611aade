"""Spans recorded from outside the package, and the per-layer numbers derived from them.

A ``Tracer`` replaces a public function with a wrapper in every module of
the package that binds it, so calls made through any import path (a
``from .moments import t2`` at import time, a module-global lookup at call
time) land in the same wrapper.  Spans are kept in memory as
``[name, start, end, parent, attrs]`` lists and written out by the caller
when the run ends.  Nothing in this module needs numpy, so the derivations
can be tested on synthetic spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, package: str, module, attr: str,
             attrs: Optional[Callable] = None) -> int:
        """Trace ``module.attr`` in every namespace of ``package`` that binds it.

        ``attrs(args, kwargs, result)`` may return a dict of counts kept on
        the span.  Returns the number of bindings replaced.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap one another; their summed durations are the part of
    the parent's interval they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def top_level_seconds(spans: Sequence[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def useful_ratio(calls: Iterable[tuple]) -> float:
    """Distinct (q, steps, seed, rep) path-rows over the rows computed.

    ``calls`` holds one ``(q, steps, seed, reps)`` tuple per ensemble call;
    rows ``0..reps-1`` of a key repeat across calls with that key.  Zero
    when nothing was computed.
    """
    widest: Dict[tuple, int] = {}
    computed = 0
    for q, steps, seed, reps in calls:
        key = (q, steps, seed)
        widest[key] = max(widest.get(key, 0), reps)
        computed += reps
    return sum(widest.values()) / computed if computed else 0.0


def nonzero_paths(n: int, p: float) -> int:
    """Letter sequences of length n with nonzero probability under memory p.

    Counts the leaves the depth-first enumeration visits: the first step is
    uniform, then ``a`` has probability (p*A + (1-p)*(m-A))/m after m
    steps with A a's, evaluated in the same floating-point order so that
    the same children are pruned.
    """
    counts = {1: 1, 0: 1}  # a-count -> number of sequences after one step
    for m in range(1, n):
        nxt: Dict[int, int] = {}
        for a, c in counts.items():
            prob_a = (p * a + (1.0 - p) * (m - a)) / m
            if prob_a != 0.0:
                nxt[a + 1] = nxt.get(a + 1, 0) + c
            if 1.0 - prob_a != 0.0:
                nxt[a] = nxt.get(a, 0) + c
        counts = nxt
    return sum(counts.values())


def layer_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """Per-layer numbers named ``<module>.<function>.<stat>`` from one traced run."""
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    wall_s: Dict[str, float] = {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        wall_s[name] = wall_s.get(name, 0.0) + (s[END] - s[START])

    def attr_rows(name):
        return [s[ATTRS] for s in spans if s[NAME] == name and s[ATTRS] is not None]

    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.wall_s"] = wall_s[name]

    ensembles = attr_rows("montecarlo.sample_paths")
    path_steps = sum(e["reps"] * e["steps"] for e in ensembles)
    out["montecarlo.sample_paths.path_steps"] = path_steps
    out["montecarlo.sample_paths.ns_per_path_step"] = (
        1e9 * wall_s["montecarlo.sample_paths"] / path_steps if path_steps else 0.0)
    out["montecarlo.sample_paths.useful_ratio"] = useful_ratio(
        (e["q"], e["steps"], e["seed"], e["reps"]) for e in ensembles)
    out["quadrature.integrate.evaluations"] = sum(
        e["evaluations"] for e in attr_rows("quadrature.integrate"))
    out["moments.enumerate_exact.leaves"] = sum(
        nonzero_paths(e["n"], e["p"]) for e in attr_rows("moments.enumerate_exact"))
    out["coupling.exhaustive_coupling_check.sequences"] = sum(
        e["sequences"] for e in attr_rows("coupling.exhaustive_coupling_check"))
    return out
