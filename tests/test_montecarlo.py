import hashlib
import itertools
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dihedral_erw
from dihedral_erw import _philox, _stages, montecarlo
from dihedral_erw.coupling import CoupledState, advance, coupled_states_along, encode_increment
from dihedral_erw.group import MemoryParams, simulate_walk, step_prob_a
from dihedral_erw.moments import h_moment, r_norm
from dihedral_erw.montecarlo import (
    LIL_START,
    ks_normal_test,
    replication_stream,
    sample_paths,
    t2_rate_fit,
)
from oracles import qsl_statistic

SEED = 2


class TestStreams:
    def test_streams_are_reproducible(self):
        a = replication_stream(5, 3).random(8)
        b = replication_stream(5, 3).random(8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_indices(self):
        a = replication_stream(5, 0).random(8)
        b = replication_stream(5, 1).random(8)
        assert not np.array_equal(a, b)

    def test_block_draws_match_scalar_draws(self):
        # the engine consumes chunked draws; they must equal scalar ones
        s1 = replication_stream(9, 4)
        s2 = replication_stream(9, 4)
        chunked = np.concatenate([s1.random(5), s1.random(3)])
        scalar = np.array([s2.random() for _ in range(8)])
        assert np.array_equal(chunked, scalar)

    @pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**32 + 7, 2**64 + 1, 2**130 + 5))
    def test_keys_match_numpy_seed_sequence(self, seed):
        # numpy's SeedSequence is the oracle of the vectorised key derivation;
        # 1023 and 1024 sit on either side of a key block's edge, 2^32 - 1 is
        # in the last block, and 2^130 + 5 has more words than the pool
        _philox._block.cache_clear()
        for i in (0, 1, 127, 128, 1023, 1024, 9999, 2**32 - 1):
            ref = np.random.SeedSequence(seed, spawn_key=(i,))
            expect = np.random.Generator(np.random.Philox(ref)).random(64)
            assert np.array_equal(replication_stream(seed, i).random(64), expect), i
        assert np.array_equal(replication_stream(seed, 2**32 - 1).random(64), expect)  # cached

    def test_refuses_negative_seed_and_wide_index(self):
        for seed, index in ((-1, 0), (0, -1), (0, 2**32)):
            with pytest.raises(ValueError):
                replication_stream(seed, index)

    def test_import_leaves_numpy_random_unloaded(self):
        # a process that builds no stream, such as an exact computation,
        # loads neither numpy.random nor the stream module, nor the stages one
        probe = ("import sys\nimport dihedral_erw, dihedral_erw.cli, dihedral_erw.montecarlo\n"
                 "print(sorted(m for m in sys.modules\n"
                 "             if m.startswith(('numpy.random', 'dihedral_erw._philox',\n"
                 "                              'dihedral_erw._stages', 'subprocess'))))")
        src = str(Path(dihedral_erw.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"


FIELDS = ("W", "S", "Xi", "Ztilde", "QV", "qsl_sum", "lil_pos", "lil_neg",
          "doob_resid_max", "qv_resid_max")


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty ensemble store for one test; the process-wide one comes back after."""
    monkeypatch.setattr(montecarlo, "_ENSEMBLES", {})
    return lambda: montecarlo._ENSEMBLES.clear()


def digest(ens) -> str:
    """sha256 over every field and snapshot of an ensemble, with their names."""
    h = hashlib.sha256()
    for name in FIELDS:
        a = getattr(ens, name)
        if a is not None:
            h.update(name.encode())
            h.update(a.tobytes())
    for m in sorted(ens.snapshots):
        h.update(str(m).encode())
        h.update(ens.snapshots[m].tobytes())
    return h.hexdigest()


def assert_same_rows(a, b):
    """Every field and snapshot of ensemble b equals the first rows of a, bit for bit."""
    rows = b.reps
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x[:rows].tobytes() == y.tobytes(), name
    assert set(a.snapshots) >= set(b.snapshots)
    for m, snap in b.snapshots.items():
        assert a.snapshots[m][:rows].tobytes() == snap.tobytes(), m


class TestEngine:
    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 1.0])
    def test_matches_scalar_state_chain_exactly(self, q):
        # q = 0 and q = +-1 are the edge cases of the engine's fixed
        # Neumaier branch; the scalar chain takes the general branchy form
        params = MemoryParams.from_q(q)
        snap_steps = (1, 2, 150, 299, 300)
        ens = sample_paths(q, 300, 4, SEED, collect=("qsl", "lil", "doob"),
                           snapshot_steps=snap_steps)
        for i in range(4):
            st = CoupledState()
            stream = replication_stream(SEED, i)
            qsl = 0.0
            lil_pos = lil_neg = -math.inf
            for m in range(1, 301):
                g = "a" if stream.random() < step_prob_a(q, st.W, m - 1) else "b"
                st = advance(st, g, params)
                qsl += (st.S / m) ** 2
                if m >= LIL_START:
                    ratio = st.S * (1.0 / math.sqrt(2.0 * m * math.log(math.log(m))))
                    lil_pos, lil_neg = max(lil_pos, ratio), max(lil_neg, -ratio)
                if m in snap_steps:
                    assert st.S == ens.snapshots[m][i]
            assert st.W == ens.W[i] and st.S == ens.S[i]
            assert st.Xi == ens.Xi[i]
            assert st.Ztilde == ens.Ztilde[i]
            assert st.QV == ens.QV[i]
            assert qsl == ens.qsl_sum[i]
            assert (lil_pos, lil_neg) == (ens.lil_pos[i], ens.lil_neg[i])

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 1.0])
    def test_public_chain_matches_engine(self, q):
        # simulate_walk + coupled_states_along, the scalar reference, on the
        # engine's row streams; and coupled_states_along against advance,
        # field by field by repr, which tells 0.0 from -0.0 and 1 from 1.0
        params = MemoryParams.from_q(q)
        steps, snap_steps = 2000, (1, 2, 999, 1999, 2000)
        ens = sample_paths(q, steps, 3, SEED, snapshot_steps=snap_steps)
        for i in range(3):
            trace = simulate_walk(params, steps, replication_stream(SEED, i))
            states = coupled_states_along(trace)
            last = states[-1]
            assert ((last.W, last.S, last.Xi, last.Ztilde, last.QV)
                    == (ens.W[i], ens.S[i], ens.Xi[i], ens.Ztilde[i], ens.QV[i]))
            for m in snap_steps:
                assert states[m - 1].S == ens.snapshots[m][i]
            st = CoupledState()
            chain = []
            for g, state in zip(trace.letters, states, strict=True):
                st = advance(st, g, params)
                assert repr(st) == repr(state)
                chain.append(st)
            assert len(states) == steps
            for k in (0, 1, steps // 2, steps - 1, -1, -2, -steps):
                assert repr(states[k]) == repr(chain[k])
            for k in (steps, -steps - 1):
                with pytest.raises(IndexError):
                    states[k]

    @pytest.mark.parametrize("q", (-0.5, 0.3, 0.8))
    def test_splits_exactly_at_step_prob_a(self, monkeypatch, fresh_store, q):
        # feed the engine uniforms sitting exactly on the shared step law's
        # threshold (b) or one ulp below it (a): a last-bit difference
        # between the engine and step_prob_a flips a letter
        steps = 600
        choose = np.random.default_rng(1).random(steps) < 0.5
        u, s_path, w = np.empty(steps), [], 0
        for n in range(steps):
            p = step_prob_a(q, w, n)
            u[n] = np.nextafter(p, 0.0) if choose[n] else p
            w += 1 if choose[n] else -1
            s_path.append((s_path[-1] if n else 0) + encode_increment(n + 1, "a" if choose[n] else "b"))

        class Uniforms:
            def random(self, out):
                out[:] = u[:out.size]

        monkeypatch.setattr(montecarlo, "replication_stream", lambda seed, index: Uniforms())
        ens = sample_paths(q, steps, 1, SEED, snapshot_steps=range(1, steps + 1))
        assert ens.W[0] == w
        assert [int(ens.snapshots[m][0]) for m in range(1, steps + 1)] == s_path

    # Pinned bits of the engine.  At 100 rows a uniform chunk ends every 1024
    # steps (8192 is one such edge), and the snapshots sit on and next to it.
    # They also sit on the edges of the 655-step collector blocks of a 2^16
    # cell budget, which these digests were pinned with; the 2^14 cell
    # budget (_BLOCK_CELLS) ends a block at step 162 and every 163 after it.
    @pytest.mark.parametrize("q, steps, reps, collect, snaps, expect", [
        (0.5, 20_000, 100, ("qsl", "lil", "doob"),
         (1, 653, 654, 655, 656, 1309, 1310, 8191, 8192, 8193, 19_999, 20_000),
         "05757b90d4711d41f5126503515039679e3b42cb5165515586a6a7a54f456666"),
        (-1.0, 5000, 513, ("qsl", "lil", "doob"), (),
         "b661e7d74170cc10149391a10f76f8ecdb948f0b0fe59bc4e2167a65d1cebf2e"),
        (0.8, 3000, 2000, (), (1, 1500, 2999, 3000),
         "9a6887ca21f551a34697f9c80c6cd853edf369ec5e65f487d7838772812c6c7f"),
        # pinned before the Kahan and Neumaier sums were stacked into one
        # array: one row with an odd number of steps, bare and with
        # collectors (its 1024-step chunk is also the ring); q = -1, where
        # q w is -0.0 whenever W = 0; and q = 1, where e + q w can be 0
        (0.3, 2049, 1, (), (1, 2, 1023, 1024, 1025, 2048, 2049),
         "8a53fd7bc0c98c5ed05dc7fb013d31455706d3d42f8d96d16ff8cb404adf25cd"),
        (0.7, 3001, 1, ("qsl", "lil", "doob"), (1, 1024, 1025, 2048, 2049, 3001),
         "428a2f3402df37f60b2189f81f4829c8cc4fdd53b4194bb581587cf8490f52d0"),
        (-1.0, 4001, 7, (), (1, 2, 3, 2000, 4001),
         "e3a18e87d98f1fdf8e8e4f97fbfe1ce8e8fd3fe971a42acc2fda7651aac0aab8"),
        (1.0, 3001, 3, ("qsl", "lil", "doob"), (1, 2, 3001),
         "df5aa8b78bdc97d69d15f931470299950820a42b31a5349b6a4b22ab9dba7471"),
        # pinned before narrow passes ran as two stages: 3 rows of 50,001
        # steps run in two processes, with blocks of 5461 steps
        (0.6, 50_001, 3, ("qsl", "lil", "doob"),
         (1, 2, 1024, 1025, 5461, 5462, 10_922, 10_923, 49_999, 50_001),
         "2b13cf569fb8ceee8a27917090b06a8312ccfc02559a6091489bca1164a04839"),
    ])
    def test_golden_digests(self, monkeypatch, fresh_store, q, steps, reps, collect, snaps,
                            expect):
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)   # two stages on any host
        assert digest(sample_paths(q, steps, reps, 3, collect=collect,
                                   snapshot_steps=snaps)) == expect

    def test_tile_and_chunk_edges_match_scalar_chain(self, monkeypatch, fresh_store):
        # 300 rows end in a partial staging tile, and 2100 steps cross two
        # uniform chunk edges; rows sit on and next to the first tile edge
        monkeypatch.setattr(montecarlo, "_UNIFORMS", np.empty(0))
        q, steps, reps, tile = 0.3, 2100, 300, montecarlo._TILE
        snap_steps = (1, 1023, 1024, 1025, 2047, 2048, 2049, steps)
        ens = sample_paths(q, steps, reps, SEED, snapshot_steps=snap_steps)
        for i in (0, tile - 1, tile, tile + 1, reps - 1):
            trace = simulate_walk(MemoryParams.from_q(q), steps, replication_stream(SEED, i))
            states = coupled_states_along(trace)
            last = states[-1]
            assert (repr((last.W, last.S, last.Xi, last.Ztilde, last.QV))
                    == repr((int(ens.W[i]), int(ens.S[i]), float(ens.Xi[i]),
                             float(ens.Ztilde[i]), float(ens.QV[i])))), i
            assert [states[m - 1].S for m in snap_steps] == [ens.snapshots[m][i] for m in snap_steps]
        # no larger than the column-by-column fill's buffer at this width
        assert montecarlo._UNIFORMS.size <= max(64, min(8192, 2**22 // reps)) * reps

    def test_fill_seconds_include_stream_construction(self, monkeypatch, fresh_store):
        real = montecarlo.replication_stream

        def slow(seed, index):
            time.sleep(0.002)
            return real(seed, index)

        monkeypatch.setattr(montecarlo, "replication_stream", slow)
        assert sample_paths(0.3, 50, 16, SEED).seconds["fill"] >= 0.032

    @pytest.mark.parametrize("steps", (2, LIL_START - 1, LIL_START))
    def test_collectors_at_short_horizons(self, fresh_store, steps):
        # below LIL_START a collector pass leaves lil out and keeps the rest
        collect = ("qsl", "doob", "lil") if steps >= LIL_START else ("qsl", "doob")
        ens = sample_paths(0.3, steps, 3, 1, collect=collect, snapshot_steps=range(1, steps + 1))
        for i in range(3):
            qsl, lil_pos, lil_neg = 0.0, -math.inf, -math.inf
            for m in range(1, steps + 1):
                s_m = float(ens.snapshots[m][i])
                qsl += (s_m / m) ** 2
                if m >= LIL_START:
                    ratio = s_m * (1.0 / math.sqrt(2.0 * m * math.log(math.log(m))))
                    lil_pos, lil_neg = max(lil_pos, ratio), max(lil_neg, -ratio)
            assert ens.qsl_sum[i] == qsl
            if "lil" in collect:
                assert (ens.lil_pos[i], ens.lil_neg[i]) == (lil_pos, lil_neg)
        assert (ens.lil_pos is not None) == ("lil" in collect)
        assert ens.doob_resid_max.max() < 1e-12 and ens.qv_resid_max.max() < 1e-12

    def test_deterministic_and_prefix_invariant(self, fresh_store):
        # row i depends only on stream i: a narrower ensemble is a prefix
        kw = dict(collect=("qsl", "lil", "doob"), snapshot_steps=(100, 500))
        wide = sample_paths(0.5, 500, 32, 7, **kw)
        fresh_store()
        again = sample_paths(0.5, 500, 32, 7, **kw)
        fresh_store()
        narrow = sample_paths(0.5, 500, 8, 7, **kw)
        assert_same_rows(wide, again)
        assert_same_rows(wide, narrow)

    def test_parity_invariants(self):
        ens = sample_paths(-0.5, 999, 50, 3)
        assert np.all((ens.S - 999) % 2 == 0)
        assert np.all((ens.W - 999) % 2 == 0)
        assert np.all(np.abs(ens.S) <= 999)
        assert np.all(np.abs(ens.W) <= 999)

    def test_doob_residuals_stay_tiny(self):
        for q in (-1.0, 0.8):
            ens = sample_paths(q, 20_000, 50, 11, collect=("doob",))
            assert ens.doob_resid_max.max() < 1e-12
            assert ens.qv_resid_max.max() < 1e-12

    def test_memoryless_quadratic_variation_is_time(self):
        ens = sample_paths(0.0, 1000, 20, 13)
        assert np.all(ens.QV == 1000.0)
        assert np.array_equal(ens.Xi, ens.S.astype(float))

    def test_martingale_mean_near_zero(self):
        # increments are bounded by 2, so the empirical mean of Xi over R
        # paths stays within 4 * 2 sqrt(n) / sqrt(R) of zero
        n, reps = 10_000, 10_000
        ens = sample_paths(0.5, n, reps, SEED)
        assert abs(ens.Xi.mean()) <= 4 * 2 * math.sqrt(n) / math.sqrt(reps)

    def test_mean_drift_vanishes_by_symmetry(self):
        n, reps = 10_000, 10_000
        ens = sample_paths(0.0, n, reps, SEED)
        frac = ens.S / n
        assert abs(frac.mean()) <= 4 * frac.std(ddof=1) / math.sqrt(reps)

    def test_collect_validation(self):
        with pytest.raises(ValueError):
            sample_paths(0.0, 10, 2, 1, collect=("bogus",))
        with pytest.raises(ValueError):
            sample_paths(0.0, 10, 2, 1, snapshot_steps=(99,))
        for steps in ((2.7,), (3, 4.5), (float("nan"),), (float("inf"),)):
            with pytest.raises(ValueError, match="snapshot steps must be integers"):
                sample_paths(0.0, 10, 2, 1, snapshot_steps=steps)
        got = sample_paths(0.0, 10, 2, 1, snapshot_steps=(np.int64(3), 5.0, *range(6, 8)))
        assert sorted(got.snapshots) == [3, 5, 6, 7]
        with pytest.raises(ValueError):
            sample_paths(0.0, LIL_START - 1, 2, 1, collect=("lil",))
        with pytest.raises(ValueError):                 # log 1 = 0, as in qsl_statistic
            sample_paths(0.3, 1, 3, 1, collect=("qsl",))

    def test_a_bare_string_names_one_collector(self, fresh_store):
        by_name = sample_paths(0.3, 200, 10, 1, collect="doob")
        fresh_store()
        by_tuple = sample_paths(0.3, 200, 10, 1, collect=("doob",))
        for key in ("W", "S", "Xi", "Ztilde", "QV", "qsl_sum", "lil_pos", "lil_neg",
                    "doob_resid_max", "qv_resid_max"):
            assert np.array_equal(getattr(by_name, key), getattr(by_tuple, key)), key

    def test_integral_steps_and_reps(self, fresh_store):
        expect = sample_paths(0.5, 100, 3, 1)
        for steps, reps in ((100.0, 3), (100, 3.0), (np.int64(100), np.int64(3))):
            fresh_store()
            got = sample_paths(0.5, steps, reps, 1)
            assert (type(got.steps), type(got.reps)) == (int, int)
            assert_same_rows(expect, got)
        with pytest.raises(ValueError, match="steps must be integers"):
            sample_paths(0.5, 100.5, 3, 1)
        with pytest.raises(ValueError, match="reps must be integers"):
            sample_paths(0.5, 100, 3.5, 1)
        with pytest.raises(ValueError):
            sample_paths(0.5, 100, 3, -1)

    def test_numpy_float_q_is_the_float_q(self, fresh_store):
        # q is taken as float(q), as MemoryParams.from_q takes it: a float32 q
        # steps, and is stored, as the double it stands for
        q, steps, reps = np.float32(0.3), 3000, 50
        ens = sample_paths(q, steps, reps, SEED)
        assert type(ens.q) is float and ens.q == float(q)
        assert [type(key[0]) for key in montecarlo._ENSEMBLES] == [float]
        for i in range(reps):
            trace = simulate_walk(MemoryParams.from_q(q), steps, replication_stream(SEED, i))
            last = coupled_states_along(trace)[-1]
            assert ((last.W, last.S, last.Xi, last.Ztilde, last.QV)
                    == (ens.W[i], ens.S[i], ens.Xi[i], ens.Ztilde[i], ens.QV[i])), i
        for bad in ("q", 1.5, np.float32(-1.5), float("nan")):
            with pytest.raises(ValueError):
                sample_paths(bad, 10, 2, 1)
        assert digest(sample_paths(np.float64(1.0), 10, 2, 1)) == digest(sample_paths(1, 10, 2, 1))


class TestEnsembleStore:
    ALL = ("qsl", "lil", "doob")
    KW = dict(collect=ALL, snapshot_steps=(120, 400))

    def test_mutating_a_result_leaves_later_results_unchanged(self, fresh_store):
        expect = sample_paths(0.3, 400, 16, 5, **self.KW)
        fresh_store()
        for _ in range(2):                  # the computed result, then a stored one
            got = sample_paths(0.3, 400, 16, 5, **self.KW)
            for name in FIELDS:
                getattr(got, name)[:] = 0
            for snap in got.snapshots.values():
                snap[:] = 0
        assert_same_rows(expect, sample_paths(0.3, 400, 16, 5, **self.KW))
        assert_same_rows(expect, sample_paths(0.3, 400, 4, 5, **self.KW))

    # first: the collectors of the earlier request, whose snapshots are KW's
    @pytest.mark.parametrize("reps, collect, snaps, first", [
        (5, ("qsl", "lil", "doob"), (120, 400), ALL),    # fewer rows
        (16, ("lil",), (400,), ALL),                     # fewer collectors and snapshots
        (7, (), (), ALL),                                # bare prefix
        (40, ("qsl", "lil", "doob"), (120, 400), ALL),   # more rows
        (16, ("qsl", "doob"), (1, 120, 400), ALL),       # another snapshot step
        (16, ("doob",), (), ("lil",)),                   # another collector
        (9, ("qsl",), (120,), ("lil",)),                 # another collector, fewer rows
        (16, ("doob",), (120,), ()),                     # a collector after a bare pass
    ])
    def test_subset_and_superset_requests_equal_fresh(self, fresh_store, reps, collect, snaps,
                                                       first):
        sample_paths(0.5, 400, 16, 5, collect=first, snapshot_steps=self.KW["snapshot_steps"])
        kw = dict(collect=collect, snapshot_steps=snaps)
        served = sample_paths(0.5, 400, reps, 5, **kw)
        fresh_store()
        assert_same_rows(sample_paths(0.5, 400, reps, 5, **kw), served)

    def test_one_collector_returns_all_collectors(self, fresh_store):
        one = sample_paths(0.3, 400, 6, 5, collect=("doob",))
        fresh_store()
        assert_same_rows(sample_paths(0.3, 400, 6, 5, collect=self.ALL), one)
        short = sample_paths(0.3, 50, 3, 5, collect=("doob",))    # below LIL_START
        assert short.qsl_sum is not None and short.lil_pos is None and short.lil_neg is None
        assert short.doob_resid_max is not None and short.qv_resid_max is not None

    def test_hits_open_no_streams(self, fresh_store, monkeypatch):
        opened = []
        real = montecarlo.replication_stream

        def counting(seed, index):
            opened.append(index)
            return real(seed, index)

        monkeypatch.setattr(montecarlo, "replication_stream", counting)
        computed = sample_paths(0.5, 400, 16, 5, collect=("lil",))
        assert set(computed.seconds) == {"fill", "steps", "collectors"}
        assert all(t >= 0.0 for t in computed.seconds.values())
        assert sample_paths(0.5, 400, 10, 5, collect=("lil",)).seconds == {}
        # one collector pass holds every collector
        sample_paths(0.5, 400, 16, 5, collect=("doob",))
        sample_paths(0.5, 400, 12, 5, collect=("qsl",))
        assert len(opened) == 16
        # a narrower miss adds its snapshot and keeps the wider rows
        sample_paths(0.5, 400, 4, 5, snapshot_steps=(200,))
        sample_paths(0.5, 400, 16, 5, collect=("lil",))
        assert len(opened) == 20


@pytest.fixture
def children(monkeypatch):
    """Every process that sample_paths starts, in order."""
    started = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


class TestSplitPass:
    # two parts of _MIN_PART_WORK path-steps (and at least _MIN_PART_ROWS rows) each
    REPS = 2048
    STEPS = 2 * montecarlo._MIN_PART_WORK // REPS

    def test_split_pass_is_bit_identical(self, monkeypatch, fresh_store, children):
        q, snaps = 0.6, (1, 1024, 1025, self.STEPS // 2, self.STEPS)
        kw = dict(collect=("qsl", "lil", "doob"), snapshot_steps=snaps)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        split = sample_paths(q, self.STEPS, self.REPS, SEED, **kw)
        assert len(children) == 1 and children[0].returncode == 0
        fresh_store()
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 1)
        whole = sample_paths(q, self.STEPS, self.REPS, SEED, **kw)
        assert len(children) == 1
        assert digest(split) == digest(whole)
        assert set(split.seconds) == {"fill", "steps", "collectors"}
        h = self.REPS // 2                             # the first row of the child's part
        for i in (h - 1, h, h + 1):
            trace = simulate_walk(MemoryParams.from_q(q), self.STEPS, replication_stream(SEED, i))
            states = coupled_states_along(trace)
            last = states[-1]
            assert (repr((last.W, last.S, last.Xi, last.Ztilde, last.QV))
                    == repr((int(split.W[i]), int(split.S[i]), float(split.Xi[i]),
                             float(split.Ztilde[i]), float(split.QV[i])))), i
            assert [states[m - 1].S for m in snaps] == [split.snapshots[m][i] for m in snaps]

    def test_part_rule(self, monkeypatch, children):
        plan, rows = montecarlo._plan, montecarlo._MIN_PART_ROWS
        work, floor = montecarlo._MIN_PART_WORK, montecarlo._MIN_STAGE_STEPS
        assert plan(100, 10**5, 2) == (1, 2)           # the mc_long pass: two stages
        assert plan(100, 10**5, 1) == (1, 1)           # one usable CPU
        monkeypatch.setattr(_stages, "cgroup_cpus", lambda: 1)
        assert plan(100, 10**5, _stages.usable_cpus()) == (1, 1)    # a CPU quota of 1
        assert plan(100, floor - 1, 2) == (1, 1)       # just under the steps floor
        assert plan(100, floor, 2) == (1, 2)
        assert plan(rows - 1, 10**6, 2) == (1, 2)
        assert plan(rows, 10**6, 2) == (1, 1)          # as wide as a part
        assert plan(2000, 50, 2) == (1, 1)             # wide, but too little work
        assert plan(10_000, 10_000, 1) == (1, 1)       # one usable CPU
        assert plan(10_000, 10_000, 2) == (2, 1)       # the mc_wide benchmark pass
        assert plan(1000, 10**5, 2) == (2, 1)          # criterion 5
        assert plan(self.REPS, self.STEPS, 2) == (2, 1)
        assert plan(self.REPS, self.STEPS - 1, 2) == (1, 1)
        assert plan(2 * rows, 2 * work // (2 * rows), 2) == (2, 1)
        assert plan(2 * rows - 1, 2 * work, 2) == (1, 1)
        # many CPUs: each part still gets at least the work floor
        assert plan(10_000, 10_000, 64) == (10**8 // work, 1) == (5, 1)
        assert plan(10**6, 10**4, 4096) == (10**10 // work, 1)
        for reps, steps, cpus in itertools.product((1, rows - 1, rows, 3 * rows, 10**4, 10**6),
                                                   (1, 10**4, floor, 10**6), (1, 2, 3, 64, 4096)):
            n, stages = plan(reps, steps, cpus)
            assert n == 1 or 1 < n <= min(cpus, reps // rows, reps * steps // work), \
                (reps, steps, cpus)
            assert stages == (2 if n == 1 and cpus > 1 and reps < rows and steps >= floor
                              else 1), (reps, steps, cpus)
        assert children == []

    def test_cpu_quota_bounds_the_cpus(self, monkeypatch):
        quota = _stages.quota_cpus
        assert quota("max 100000\n") == math.inf
        assert quota("50000 100000\n") == 1
        assert quota("150000 100000\n") == 2
        assert quota("400000 100000\n") == 4
        assert 1 <= _stages.usable_cpus() <= (os.cpu_count() or 1)
        monkeypatch.setattr(_stages, "cgroup_cpus", lambda: 1)
        assert _stages.usable_cpus() == 1

    def test_child_ignores_a_package_in_its_working_directory(self, monkeypatch, tmp_path,
                                                              fresh_store, children):
        shadow = tmp_path / "dihedral_erw"
        shadow.mkdir()
        (shadow / "__init__.py").write_text("raise ImportError('the shadowing package')\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(montecarlo, "_MIN_PART_WORK", 1)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        reps = 2 * montecarlo._MIN_PART_ROWS
        split = sample_paths(0.3, 50, reps, SEED, collect=("doob",))
        assert len(children) == 1 and children[0].returncode == 0
        fresh_store()
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 1)
        assert digest(sample_paths(0.3, 50, reps, SEED, collect=("doob",))) == digest(split)
        # and the child of a pass in two stages
        fresh_store()
        monkeypatch.setattr(montecarlo, "_MIN_STAGE_STEPS", 1)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        staged = sample_paths(0.3, 500, 7, SEED, collect=("doob",))
        assert len(children) == 2 and children[1].returncode == 0
        fresh_store()
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 1)
        assert digest(sample_paths(0.3, 500, 7, SEED, collect=("doob",))) == digest(staged)

    @pytest.mark.parametrize("command, status", [
        (("-c", "import sys; sys.stderr.write('part failed'); sys.exit(3)"), 3),
        (("-c", "import sys; sys.stdin.buffer.read(); sys.stderr.write('part failed')"), 0),
    ])
    def test_failed_part_raises_and_stores_nothing(self, monkeypatch, fresh_store, children,
                                                   command, status):
        monkeypatch.setattr(_stages, "COMMAND", command)
        monkeypatch.setattr(montecarlo, "_MIN_PART_WORK", 1)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match=f"status {status} .*part failed"):
            sample_paths(0.3, 10, 3 * montecarlo._MIN_PART_ROWS, SEED, snapshot_steps=(5,))
        assert len(children) == 2 and all(c.returncode is not None for c in children)
        assert not any(montecarlo._ENSEMBLES.values())

    def test_interrupted_pass_leaves_no_child(self, monkeypatch, fresh_store, children):
        # the caller is interrupted while the child is still starting: it is killed and reaped
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_evolve", interrupted)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        with pytest.raises(KeyboardInterrupt):
            sample_paths(0.3, 10**5, self.REPS, SEED)
        assert len(children) == 1 and children[0].returncode == -signal.SIGKILL
        assert not any(montecarlo._ENSEMBLES.values())


class TestStagePass:
    # a pass narrower than a row part and at least _MIN_STAGE_STEPS long runs
    # as two processes: the caller's walk, and a child's compensated sums
    @pytest.mark.parametrize("q", (-1.0, 0.6, 1.0))
    def test_stage_pass_is_bit_identical(self, monkeypatch, fresh_store, children, q):
        # 37 rows make blocks of _BLOCK_CELLS // 37 = 442 steps and uniform
        # chunks of 1024; 2000 steps end in a partial block, and the
        # snapshots sit on and next to the edges of both
        reps, steps = 37, 2000
        block = montecarlo._BLOCK_CELLS // reps
        snaps = (1, 2, block - 1, block, block + 1, 2 * block, 1023, 1024, 1025, steps - 1, steps)
        assert steps % block and reps < montecarlo._MIN_PART_ROWS
        monkeypatch.setattr(montecarlo, "_MIN_STAGE_STEPS", steps)
        for kw in (dict(collect=("qsl", "lil", "doob"), snapshot_steps=snaps),
                   dict(snapshot_steps=snaps)):
            fresh_store()
            monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
            staged = sample_paths(q, steps, reps, SEED, **kw)
            assert children[-1].returncode == 0
            assert set(staged.seconds) == {"fill", "steps", "collectors"}
            fresh_store()
            monkeypatch.setattr(_stages, "usable_cpus", lambda: 1)
            assert digest(sample_paths(q, steps, reps, SEED, **kw)) == digest(staged)
        assert len(children) == 2
        for i in (0, reps - 1):
            trace = simulate_walk(MemoryParams.from_q(q), steps, replication_stream(SEED, i))
            states = coupled_states_along(trace)
            last = states[-1]
            assert (repr((last.W, last.S, last.Xi, last.Ztilde, last.QV))
                    == repr((int(staged.W[i]), int(staged.S[i]), float(staged.Xi[i]),
                             float(staged.Ztilde[i]), float(staged.QV[i])))), i
            assert [states[m - 1].S for m in snaps] == [staged.snapshots[m][i] for m in snaps]

    def test_narrow_pass_below_the_floor_loads_no_split(self):
        probe = ("import sys\nfrom dihedral_erw import montecarlo\n"
                 "montecarlo.sample_paths(0.3, montecarlo._MIN_STAGE_STEPS - 1, 2, 0)\n"
                 "print(sorted(m for m in sys.modules\n"
                 "             if m.startswith('subprocess')))")
        src = str(Path(dihedral_erw.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command, status", [
        (("-c", "import sys; sys.stderr.write('part failed'); sys.exit(3)"), 3),
        (("-c", "import sys; sys.stdin.buffer.read(5000); sys.stderr.write('part failed');"
                " sys.exit(4)"), 4),
        (("-c", "import sys; sys.stdin.buffer.read(); sys.stderr.write('part failed')"), 0),
        # a child blocked on a full stderr pipe would block the caller too
        (("-c", "import sys; sys.stderr.write('x' * 10**6 + 'part failed');"
                " sys.stdin.buffer.read()"), 0),
    ], ids=["exits-before-reading", "dies-mid-stream", "no-result", "floods-stderr"])
    def test_failed_stage_raises_and_stores_nothing(self, monkeypatch, fresh_store, children,
                                                    command, status):
        monkeypatch.setattr(_stages, "COMMAND", command)
        monkeypatch.setattr(montecarlo, "_MIN_STAGE_STEPS", 1)
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        sent, send = [], _stages.Child.send
        monkeypatch.setattr(_stages.Child, "send",
                            lambda child, data: sent.append(send(child, data)) or sent[-1])
        with pytest.raises(RuntimeError, match=f"status {status} .*part failed"):
            sample_paths(0.3, 20_000, 100, SEED, collect=("doob",), snapshot_steps=(5,))
        assert len(children) == 1 and children[0].returncode == status
        assert not any(montecarlo._ENSEMBLES.values())
        if status:                                  # the caller's write met a closed pipe
            assert sent[-1] is False

    def test_interrupt_while_writing_leaves_no_child(self, monkeypatch, fresh_store, children):
        # the child reads nothing, so the caller blocks writing once the pipe
        # is full; an interrupt there leaves the child killed and reaped
        monkeypatch.setattr(_stages, "COMMAND", ("-c", "import time; time.sleep(60)"))
        monkeypatch.setattr(_stages, "usable_cpus", lambda: 2)
        writing, send = [], _stages.Child.send

        def tracked(child, data):
            writing.append(True)
            ok = send(child, data)
            writing[-1] = False
            return ok

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(_stages.Child, "send", tracked)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                sample_paths(0.3, 10**6, 100, SEED)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert writing[-1]
        assert len(children) == 1 and children[0].returncode == -signal.SIGKILL
        assert not any(montecarlo._ENSEMBLES.values())


class TestKS:
    def test_calibration_on_synthetic_normals(self):
        # self-test at alpha = 0.01 over 100 repetitions: expect >= 95 passes
        passes = 0
        for i in range(100):
            x = replication_stream(1000 + i, 0).standard_normal(10_000)
            passes += ks_normal_test(x, alpha=0.01).passed
        assert passes >= 95

    def test_constant_samples_fail(self):
        res = ks_normal_test(np.zeros(1000), alpha=0.01)
        assert res.statistic == pytest.approx(0.5, abs=1e-12)
        assert not res.passed

    def test_shifted_samples_fail(self):
        x = replication_stream(4, 0).standard_normal(10_000) + 0.2
        assert not ks_normal_test(x).passed

    def test_small_samples_refused(self):
        with pytest.raises(ValueError):
            ks_normal_test(np.zeros(99))
        with pytest.raises(ValueError):
            ks_normal_test([])

    def test_unknown_alpha_refused(self):
        with pytest.raises(ValueError):
            ks_normal_test(np.zeros(200), alpha=0.2)

    @staticmethod
    def kolmogorov_critical(alpha):
        """c with P(K > c) = alpha, K Kolmogorov: 2 sum_k (-1)^(k-1) exp(-2 k^2 c^2) = alpha."""
        def tail(x):
            return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
                                   for k in range(1, 101))

        lo, hi = 0.5, 3.0  # the tail falls from 0.96 to 3e-8 over [lo, hi]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("alpha", sorted(montecarlo.KS_CRITICAL))
    def test_threshold_is_the_kolmogorov_quantile(self, alpha):
        c = self.kolmogorov_critical(alpha)
        assert abs(montecarlo.KS_CRITICAL[alpha] - c) < 5e-4, c
        for r in (100, 1000, 10_000):
            res = ks_normal_test(replication_stream(4, 0).standard_normal(r), alpha=alpha)
            assert res.threshold == pytest.approx(c / math.sqrt(r), abs=5e-4 / math.sqrt(r))

    def test_statistic_against_normal_dist(self):
        # the distance of the empirical CDF from N(0, 1), each side of every jump, in plain Python
        x = sorted(replication_stream(7, 0).standard_normal(1000).tolist())
        cdf = statistics.NormalDist().cdf
        r = len(x)
        want = max(max((i + 1) / r - cdf(v), cdf(v) - i / r) for i, v in enumerate(x))
        res = ks_normal_test(x)
        assert res.statistic == pytest.approx(want, abs=1e-12)
        assert res.passed == (res.statistic < res.threshold)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_samples_refused(self, bad):
        x = replication_stream(4, 0).standard_normal(500)
        x[17] = bad
        with pytest.raises(ValueError, match="finite"):
            ks_normal_test(x)


class TestQSL:
    def test_deterministic_divergent_input_is_flagged_by_value(self):
        n = 1000
        s = np.arange(1, n + 1)  # S_k = k: statistic grows like n / log n
        val = qsl_statistic(s)
        assert val > 100.0

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            qsl_statistic([1])

    def test_engine_agrees_with_direct_formula(self):
        ens = sample_paths(0.3, 500, 3, 17, collect=("qsl",))
        trace = simulate_walk(MemoryParams.from_q(0.3), 500, replication_stream(17, 0))
        s_path = [st.S for st in coupled_states_along(trace)]
        assert qsl_statistic(s_path) == pytest.approx(ens.qsl()[0], rel=1e-12)


class TestSummaries:
    def test_ztilde_sample_variance_matches_quadrature(self):
        # terminal Ztilde variance against the limit integral, and the finite-n
        # moments against the exact layer, each in a 4 stderr band
        from dihedral_erw.moments import h_moment_table, var_ztilde_exact
        from dihedral_erw.quadrature import var_ztilde_infinity

        q, n, reps = 0.5, 100_000, 1000
        ens = sample_paths(q, n, reps, SEED)
        z = ens.Ztilde
        s2 = float(np.var(z, ddof=1))
        m4 = float(np.mean((z - z.mean()) ** 4))
        stderr_s2 = math.sqrt(max(m4 - s2**2, 0.0) / reps)
        assert abs(s2 - var_ztilde_infinity(q)) <= 4 * stderr_s2
        assert abs(s2 - var_ztilde_exact(n - 1, q)) <= 4 * stderr_s2   # E[Ztilde_n^2]
        # E[W_n^2] = H_n, and E[QV_n] = n - q^2 sum_{k<n} H_k/k^2; at q = 0 both are n,
        # so a wrong or sign-flipped q in the step law shows here
        h = h_moment_table(n, q)
        qv_exact = n - q * q * math.fsum(h[1:n] / np.arange(1, n) ** 2)
        for x, exact in ((ens.W.astype(float) ** 2, h[n]), (ens.QV, qv_exact)):
            mean, sd = float(np.mean(x)), float(np.std(x, ddof=1)) / math.sqrt(reps)
            assert abs(mean - exact) <= 4 * sd, (mean, exact, sd)
            assert abs(mean - n) >= 10 * sd, (mean, n, sd)


class TestLargeScaleExamples:
    def test_qv_over_n_band_at_large_horizon(self):
        # long-horizon check: <Xi>_n / n concentrates just below 1
        ens = sample_paths(0.5, 1_000_000, 100, SEED)
        ratio = ens.QV / 1_000_000
        assert 0.98 <= ratio.mean() <= 1.0
        assert ratio.min() > 0.97

    def test_qsl_bands(self):
        ens0 = sample_paths(0.0, 1_000_000, 100, SEED, collect=("qsl",))
        m0 = float(ens0.qsl().mean())
        assert 0.9 <= m0 <= 1.1
        ens5 = sample_paths(0.5, 1_000_000, 100, SEED, collect=("qsl",))
        m5 = float(ens5.qsl().mean())
        assert 0.85 <= m5 <= 1.15


class TestLilScan:
    def test_band_and_flags(self):
        ens = sample_paths(0.0, 100_000, 50, SEED, collect=("lil",))
        assert 0.5 <= ens.lil_pos.mean() <= 1.5
        assert 0.5 <= ens.lil_neg.mean() <= 1.5


class TestT2RateFit:
    def test_memory_rates(self):
        for q, target in ((0.5, -0.5), (-0.5, -1.0)):
            fit = t2_rate_fit(q, (100, 1000, 10_000, 100_000))
            assert abs(fit.fitted_slope - target) <= 0.15
            assert fit.theoretical_slope == target
            assert not fit.dropped

    def test_memoryless_even_horizons_dropped(self):
        # T2 vanishes identically at even n without memory; odd horizons
        # carry the n^-1 rate (the analytic bound's log factor is not seen)
        fit = t2_rate_fit(0.0, (101, 1001, 10_001, 100_001))
        assert abs(fit.fitted_slope - (-1.0)) <= 0.15
        with pytest.raises(ValueError):
            t2_rate_fit(0.0, (100, 1000, 10_000, 100_000))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            t2_rate_fit(0.5, (100, 1000, 10_000))
        with pytest.raises(ValueError):
            t2_rate_fit(0.5, (100, 200, 400, 800))


class TestWRegimeScan:
    """|W_n| over r_n and over n / r_n, the almost-sure scale of W_n."""

    @staticmethod
    def scaled_w(p, n, reps):
        w_abs = np.abs(sample_paths(MemoryParams.from_p(p).q, n, reps, SEED).W)
        r = r_norm(n, p)
        return w_abs / r, w_abs / (n / r)

    def test_diffusive_half_normal_moments(self):
        x, scaled = self.scaled_w(0.5, 10_000, 2000)
        expect = math.sqrt(2.0 / math.pi)  # mean of |N(0,1)|
        assert abs(x.mean() - expect) <= 4 * math.sqrt(x.var(ddof=1) / x.size)
        # below the critical memory both normalisations coincide
        assert scaled.mean() == x.mean()

    def test_regimes_stay_bounded(self):
        n = 100_000
        for p in (0.5, 0.75, 0.9):
            x, _ = self.scaled_w(p, n, 200)
            # nondegenerate spread with no runaway outliers at fixed n
            assert x.var(ddof=1) > 0.0
            assert x.max() <= 10.0 * (x.mean() + 1.0)
            # and the scale itself: the sample mean of W_n^2 within 4 standard errors of the
            # exact H(n, q); each other p of the three is 9.8 or more standard errors off
            w2 = (x * r_norm(n, p)) ** 2
            assert abs(w2.mean() - h_moment(n, MemoryParams.from_p(p).q)) <= 4.0 * math.sqrt(
                w2.var(ddof=1) / w2.size)

    def test_superdiffusive_scale_is_stable(self):
        # |W_n| / n^q settles onto a nondegenerate random level above the
        # critical memory parameter
        _, scaled = self.scaled_w(0.9, 100_000, 200)
        assert 0.1 < scaled.mean() < 10.0
        assert scaled.var(ddof=1) > 0.0
