"""Tests of the benchmark's own derivations, on synthetic spans and call lists.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import itertools
import sys
import types

import pytest

import tracing


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert tracing.top_level_seconds(spans) == pytest.approx(10.0)


def test_self_times_sum_to_top_level_time():
    spans = [span("r", 0.0, 8.0), span("c", 1.0, 7.0, 0), span("g", 2.0, 3.0, 1),
             span("g", 4.0, 6.5, 1), span("r", 9.0, 10.0)]
    assert sum(tracing.self_times(spans)) == pytest.approx(tracing.top_level_seconds(spans))


def test_useful_ratio_counts_repeated_rows_once():
    # mc_long per q: reps 100, then 50, then 100 on one (q, steps, seed)
    calls = [(q, 100_000, 7, reps) for q in (0.0, 0.5) for reps in (100, 50, 100)]
    assert tracing.useful_ratio(calls) == pytest.approx(0.4)
    assert tracing.useful_ratio([(q, 10_000, 7, 10_000) for q in (-0.5, 0.0, 0.5)]) == 1.0
    assert tracing.useful_ratio([(0.5, 10, 1, 4), (0.5, 10, 2, 4)]) == 1.0  # seeds differ
    assert tracing.useful_ratio([]) == 0.0


def _brute_force_paths(n, p):
    count = 0
    for letters in itertools.product("ab", repeat=n):
        a = int(letters[0] == "a")
        for m, g in enumerate(letters[1:], start=1):
            prob_a = (p * a + (1.0 - p) * (m - a)) / m
            if (prob_a if g == "a" else 1.0 - prob_a) == 0.0:
                break
            a += g == "a"
        else:
            count += 1
    return count


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_nonzero_paths_matches_brute_force(p):
    for n in range(1, 9):
        assert tracing.nonzero_paths(n, p) == _brute_force_paths(n, p)


def test_nonzero_paths_without_pruning_is_two_to_the_n():
    assert tracing.nonzero_paths(18, 0.9) == 2 ** 18


def test_layer_metrics_from_synthetic_ensembles():
    ens = {"q": 0.5, "steps": 1000, "seed": 3}
    spans = [
        span("montecarlo.sample_paths", 0.0, 2.0, attrs={**ens, "reps": 100}),
        span("montecarlo.replication_stream", 0.1, 0.3, parent=0),
        span("montecarlo.sample_paths", 2.0, 3.0, attrs={**ens, "reps": 50}),
        span("quadrature.integrate", 3.0, 3.5, attrs={"evaluations": 120}),
        span("quadrature.integrate", 3.5, 3.75, attrs={"evaluations": 80}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["montecarlo.sample_paths.calls"] == 2
    assert m["montecarlo.sample_paths.self_s"] == pytest.approx(2.8)
    assert m["montecarlo.sample_paths.wall_s"] == pytest.approx(3.0)
    assert m["montecarlo.sample_paths.path_steps"] == 150_000
    assert m["montecarlo.sample_paths.ns_per_path_step"] == pytest.approx(1e9 * 3.0 / 150_000)
    assert m["montecarlo.sample_paths.useful_ratio"] == pytest.approx(100 / 150)
    assert m["montecarlo.replication_stream.self_s"] == pytest.approx(0.2)
    assert m["quadrature.integrate.evaluations"] == 200
    assert m["moments.enumerate_exact.leaves"] == 0


def test_tracer_wraps_every_binding_and_nests_spans():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    inner_mod.leaf = leaf
    outer_mod.leaf = leaf  # bound at import, like ``from .inner import leaf``
    outer_mod.top = lambda x: outer_mod.leaf(x) * 2
    outer_mod.top.__name__ = "top"
    sys.modules.update({"fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod})
    try:
        assert tracer.wrap("fakepkg", inner_mod, "leaf",
                           attrs=lambda a, k, r: {"result": r}) == 2
        assert tracer.wrap("fakepkg", outer_mod, "top") == 1
        assert outer_mod.top(3) == 8
        names = [s[tracing.NAME] for s in tracer.spans]
        assert names == ["outer.top", "inner.leaf"]
        assert tracer.spans[1][tracing.PARENT] == 0
        assert tracer.spans[1][tracing.ATTRS] == {"result": 4}
        # clock ticks: top opens 0, leaf 1..2, top closes 3
        assert tracing.self_times(tracer.spans) == [2.0, 1.0]
        tracer.uninstall()
        assert inner_mod.leaf is leaf and outer_mod.leaf is leaf
    finally:
        del sys.modules["fakepkg.inner"], sys.modules["fakepkg.outer"]


def test_span_closes_when_the_call_raises():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            raise ValueError("boom")
    with tracer.span("next"):
        pass
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, -1]
