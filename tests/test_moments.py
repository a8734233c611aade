import decimal
import hashlib
import math
from itertools import product

import numpy as np
import pytest

from dihedral_erw.coupling import encode_increment
from dihedral_erw.group import MemoryParams, step_prob_a
from dihedral_erw.moments import (
    MomentTable,
    enumerate_exact,
    h_moment,
    h_moment_table,
    r_norm,
    t1,
    t2,
    var_ztilde_exact,
)
from dihedral_erw.quadrature import gauss_2f1, i_factor_table, j2
from oracles import cov_w, h_closed_form, s_moments, var_ztilde_double_sum

Q_GRID = (-1.0, -0.5, 0.0, 0.3, 0.5, 0.8)


class TestH:
    def test_first_moment_is_one_for_all_q(self):
        for q in np.linspace(-1, 0.99, 41):
            assert h_moment(1, q) == 1.0

    def test_half_memory_harmonic_form(self):
        assert h_moment(3, 0.5) == pytest.approx(5.5, abs=1e-14)

    def test_two_steps(self):
        for q in Q_GRID:
            assert h_moment(2, q) == pytest.approx(2 + 2 * q, abs=1e-14)

    def test_memoryless_is_linear(self):
        for k in (1, 2, 17, 400):
            assert h_moment(k, 0.0) == float(k)

    def test_antipersistent_boundary(self):
        # q = -1 forces W_2 = 0 almost surely
        assert h_moment(2, -1.0) == 0.0
        res = enumerate_exact(2, MemoryParams.from_q(-1.0))
        assert res.e_w2 == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            h_moment(0, 0.5)
        with pytest.raises(ValueError):
            h_moment(3, 1.0)

    def test_table_matches_scalar(self):
        # k = 3 ends the one-step part; blocks of 4096 start at k = 3, 4099, 8195
        for q in Q_GRID:
            tab = h_moment_table(8200, q)
            for k in (1, 2, 3, 4, 7, 50, 4098, 4099, 4100, 8195, 8200):
                assert tab[k] == h_moment(k, q)
        tab = h_moment_table(8200, 0.0)
        assert all(tab[k] == float(k) for k in (3, 4, 4098, 4099, 4100, 8195, 8200))

    def test_against_40_digit_closed_form(self):
        # the gamma-ratio form (k * harmonic number at q = 1/2) in mpmath at
        # pole-free q; a one-step float recursion was 4e-12 off at q = -0.9
        mpmath = pytest.importorskip("mpmath")
        ks = (4, 4099, 100_000, 1_000_000)
        with mpmath.workdps(40):
            for q in (-0.9, -0.6, -0.2, 0.3, 0.5, 0.7, 0.95):
                tab = h_moment_table(ks[-1], q)
                mq = mpmath.mpf(q)
                for k in ks:
                    if q == 0.5:
                        want = k * mpmath.harmonic(k)
                    else:
                        ratio = mpmath.gammaprod([k + 2 * mq], [k + 1, 2 * mq])
                        want = k / (2 * mq - 1) * (ratio - 1)
                    assert tab[k] == pytest.approx(float(want), rel=2e-13), (q, k)

    def test_closed_form_cross_check(self):
        # agreement to 1e-10 relative, including q where Pochhammer factors vanish
        for q in (-1.0, -0.9, -0.6, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8):
            for k in (1, 2, 3, 10, 97, 500):
                rec = h_moment(k, q)
                assert h_closed_form(k, q) == pytest.approx(rec, rel=1e-10)

    def test_closed_form_pole_handling(self):
        # where the gamma-ratio form meets poles, the running product is exact
        assert h_closed_form(1, -0.5) == 1.0
        for k in range(1, 501):
            assert h_closed_form(k, -1.0) == pytest.approx(h_moment(k, -1.0), rel=1e-13, abs=0.0)


class TestIFactor:
    def test_memoryless(self):
        for k in (1, 2, 9):
            assert i_factor_table(k, 0.0)[k] == pytest.approx(k, rel=1e-14)

    def test_half_memory_value(self):
        assert i_factor_table(1, 0.5)[1] == pytest.approx(2 / math.pi, rel=1e-14)

    def test_negative_memory_value(self):
        assert i_factor_table(2, -0.5)[2] == pytest.approx(8 / math.pi, rel=1e-14)

    def test_pole_convention(self):
        assert i_factor_table(1, -1.0)[1] == 0.0

    def test_against_40_digit_gamma_ratio(self):
        # exp of a log-gamma difference misses rel 1e-11 (1.5e-10 at k = 1e5)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for q in (-1.0, -0.9, -0.5, 0.3, 0.8):
                tab = i_factor_table(100_000, q)
                mq = mpmath.mpf(q)
                for k in (1, 2, 3, 4097, 100_000):
                    want = mpmath.gammaprod([k + 1], [k + mq, 1 - mq])
                    assert tab[k] == pytest.approx(float(want), rel=1e-11), (q, k)

    def test_positive(self):
        for q in Q_GRID:
            for k in (2, 5, 30):
                assert i_factor_table(k, q)[k] > 0


class TestCovW:
    def test_diagonal_is_h(self):
        for q in Q_GRID:
            assert cov_w(4, 4, q) == h_moment(4, q)

    def test_adjacent_value(self):
        for q in Q_GRID:
            assert cov_w(1, 2, q) == pytest.approx(1 + q, abs=1e-14)

    def test_symmetry(self):
        assert cov_w(3, 7, 0.3) == cov_w(7, 3, 0.3)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_against_enumeration(self, q):
        pairs = ((1, 2), (2, 5), (3, 7), (2, 8))
        res = enumerate_exact(8, MemoryParams.from_q(q), cov_pairs=pairs)
        for pair in pairs:
            assert res.cov_w_pairs[pair] == pytest.approx(cov_w(*pair, q), abs=1e-12)


def _var_ztilde_decimal(n, q, horizons):
    """E[Ztilde_{m+1}^2] for m in horizons by the H and G recursions in 30-digit decimals."""
    out = {}
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        dq = decimal.Decimal(q)
        h, g, total = decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(0)
        for k in range(1, n + 1):
            sign = 1 if k % 2 == 0 else -1
            total += h / (k * k) + 2 * sign * g / k
            if k in horizons:
                out[k] = float(total)
            g = (1 + dq / k) * (g + sign * h / k)
            h = (1 + 2 * dq / k) * h + 1
    return out


class TestVarZtildeExact:
    def test_one_step(self):
        for q in Q_GRID:
            assert var_ztilde_exact(1, q) == 1.0

    def test_two_steps_closed_form(self):
        for q in Q_GRID:
            assert var_ztilde_exact(2, q) == pytest.approx((1 - q) / 2, abs=1e-14)

    def test_memoryless_two_steps(self):
        assert var_ztilde_exact(2, 0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_recursion_equals_direct_double_sum(self, q):
        for n in (3, 17, 137, 400):
            assert var_ztilde_exact(n, q) == pytest.approx(
                var_ztilde_double_sum(n, q), abs=1e-11
            )

    @pytest.mark.parametrize("q", Q_GRID)
    def test_block_edges_against_30_digit_recursion(self, q):
        # G blocks start at k = 2, 4098, 8194, ...; H blocks at k = 3, 4099, 8195, ...
        horizons = (2, 3, 4097, 4098, 8193, 20000)
        want = _var_ztilde_decimal(max(horizons), q, horizons)
        for n in horizons:
            assert var_ztilde_exact(n, q) == pytest.approx(want[n], rel=1e-13, abs=0.0), n


class TestBlockEdgeBits:
    """H and E[Ztilde^2] on both sides of the solver's block edges, pinned bit for bit.

    H blocks start at k = 3, 4099, 8195 (a table to 12291 ends at the next edge) and G
    blocks at k = 2, 4098, 8194, so these horizons end a block, start one, or sit one
    step inside one.  The values were computed before the two block loops became one
    solver.
    """

    VAR_N = (4097, 4098, 4099, 4100, 8194, 8195)
    GOLDEN = (
        (-1.0, ('0x1.23e0931d78dc0p+0', '0x1.23e092c833845p+0', '0x1.23e09372a8e65p+0',
                '0x1.23e0931d78d9fp+0', '0x1.23e1e80d84307p+0', '0x1.23e1e83828313p+0'),
         '5355edc18819285211e720f18b0ae5ac36c6ec49753551f7f79ce6fef021c24d'),
        (-0.5, ('0x1.cd4a736b9635ap-1', '0x1.cd4a1de7753ebp-1', '0x1.cd4a73e36b5cap-1',
                '0x1.cd4a1e6f4aecep-1', '0x1.cd4c3937565afp-1', '0x1.cd4c579b09e06p-1'),
         '2794ff6747083bda8a6367f83d94f97dfffd56c19c437488fe854200f888cfaa'),
        (0.0, ('0x1.62f42e6fc39ccp-1', '0x1.62d4326f43acbp-1', '0x1.62f42c706376dp-1',
               '0x1.62d4346e63f6ap-1', '0x1.62dc308f979fdp-1', '0x1.62ec2f0fbb9c8p-1'),
         'ba412df15135966d47b76a0bf53d66037a7301b8f8343c5d39953ead1d6221af'),
        (0.3, ('0x1.2743add1c05b0p-1', '0x1.2597fa7d01e6ep-1', '0x1.274399b50b2eap-1',
               '0x1.25980bc3e843bp-1', '0x1.25e4748d8dbb1p-1', '0x1.26ebc26102c49p-1'),
         '17c151979d599c03ad561de4974e37bbb39f99d53a7e7e56fd1bd3f6c805e463'),
        (0.5, ('0x1.020651e316238p-1', '0x1.f22bf819655dap-2', '0x1.0206038a8f1c6p-1',
               '0x1.f22c793141e17p-2', '0x1.f49051bcea8fap-2', '0x1.009a5e031267cp-1'),
         '3a0fac68a49c28b4747c08662ca13551e71203033901064ed5a9d346a5150c12'),
        (0.7, ('0x1.d5ad2b53ae358p-2', '0x1.7956d7ea7871ep-2', '0x1.d5ab194abb118p-2',
               '0x1.79583b8e507c2p-2', '0x1.80719dacd27bcp-2', '0x1.cb72a7eeb903fp-2'),
         '2260a62d65649e5ec335c188f7596e5640104f897ea7f9a936d0f77cdb1cd1b0'),
        (0.8, ('0x1.eb42af941d158p-2', '0x1.1be0e224171acp-2', '0x1.eb3f4260b18ccp-2',
               '0x1.1be2a314e509cp-2', '0x1.253a28ae353d9p-2', '0x1.d9c4924dfe892p-2'),
         '6460ad73aaac9ef6a717858d71cbfb829d1fd1e5d3593051c6209531ea5b9ef8'),
        (0.95, ('0x1.7c76d00e5ecd2p-1', '0x1.20fc1dcb17b15p-4', '0x1.7c74f0222d128p-1',
                '0x1.20fe529ad41a6p-4', '0x1.2d90122263e05p-4', '0x1.724ebe44f072bp-1'),
         '2035d48543428103d7555935cfd60bec2dc5a1f8b659bbeaf1287933c1bdf0c4'),
    )

    @pytest.mark.parametrize("q, var_hex, h_sha", GOLDEN, ids=[str(row[0]) for row in GOLDEN])
    def test_golden_bits(self, q, var_hex, h_sha):
        assert tuple(var_ztilde_exact(n, q).hex() for n in self.VAR_N) == var_hex
        assert hashlib.sha256(h_moment_table(12291, q).tobytes()).hexdigest() == h_sha


class TestHorizonDomain:
    def test_exact_sums_reject_empty_horizon(self):
        # the check lives in h_moment_table, which each sum calls first; t2 keeps its own,
        # since its table runs to n + 1
        for f in (var_ztilde_exact, var_ztilde_double_sum, t1, t2):
            with pytest.raises(ValueError, match=r"^n must be at least 1$"):
                f(0, 0.3)


class TestT1T2:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_identity_small_horizons(self, q):
        for n in (1, 4, 25):
            lhs = var_ztilde_exact(n, q)
            assert t1(n, q) + 2 * t2(n, q) == pytest.approx(lhs, abs=1e-10)

    @pytest.mark.parametrize("n, qs", ((10, Q_GRID), (5000, (-0.5, 0.8))))
    def test_t1_equals_termwise_fsum(self, n, qs):
        # one array call of gauss_2f1 gives the same terms as a scalar call per k
        for q in qs:
            h = h_moment_table(n, q)
            want = math.fsum(
                h[k] / k**2 * (1.0 - q) / (k + 1) * gauss_2f1(1.0, k + q, k + 2.0, -1.0)
                for k in range(1, n + 1)
            )
            assert t1(n, q) == want

    def test_single_term_sums_to_one(self):
        for q in Q_GRID:
            assert t1(1, q) + 2 * t2(1, q) == pytest.approx(1.0, abs=1e-12)

    def test_t2_beta_envelope(self):
        from dihedral_erw.quadrature import j2

        # the beta envelope B(n+q+1, 1-q) is 1/I(n+1, q); J2 over it is a Gauss factor in (1/2, 1)
        for q in (-0.5, 0.0, 0.3, 0.7):
            envelope = 1.0 / i_factor_table(51, q)[51]
            assert 0.5 < j2(50, q) / envelope <= 1.0
            budget = envelope * float(np.sum(np.abs(MomentTable.build(50, q).a)))
            assert abs(t2(50, q)) <= budget

    @pytest.mark.parametrize("n", (1, 2, 25, 4097, 4098, 100_000))
    def test_t2_is_j2_times_the_alternating_sum(self, n):
        # one table to n + 1 gives the n-row table's a_k and J2's I(n+1) bit for bit
        for q in Q_GRID:
            signed = MomentTable.build(n, q).a
            signed[-2::-2] *= -1.0
            assert t2(n, q) == j2(n, q) * math.fsum(signed.tolist()), q

    def test_t2_builds_one_i_table(self, monkeypatch):
        from dihedral_erw import moments, quadrature

        calls = []
        original = moments.i_factor_table

        def counted(n, q):
            calls.append(n)
            return original(n, q)

        for module in (moments, quadrature):
            if hasattr(module, "i_factor_table"):
                monkeypatch.setattr(module, "i_factor_table", counted)
        for n, q in ((1, -1.0), (50, 0.3), (5000, 0.8)):
            calls.clear()
            t2(n, q)
            assert calls == [n + 1], (n, q)

    def test_t2_vanishes_at_even_horizons_without_memory(self):
        # a_k = 1 identically at q = 0, so the alternating sum telescopes
        assert t2(10, 0.0) == 0.0
        assert t2(11, 0.0) != 0.0


class TestRNorm:
    def test_diffusive(self):
        assert r_norm(100, 0.5) == 10.0

    def test_critical_log_scale(self):
        assert r_norm(math.e, 0.75) == pytest.approx(math.sqrt(math.e), rel=1e-15)

    def test_superdiffusive_exponent(self):
        assert r_norm(16, 0.9) == pytest.approx(16 ** 0.2, rel=1e-15)
        assert r_norm(16, 0.9) == pytest.approx(1.7411011266, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_norm(10, 1.0)
        with pytest.raises(ValueError):
            r_norm(0.5, 0.5)
        with pytest.raises(ValueError):
            r_norm(math.nan, 0.5)

    def test_critical_needs_positive_log(self):
        # log 1 = 0, so at p = 3/4 the scale needs n > 1; below p = 3/4, n = 1 is fine
        with pytest.raises(ValueError, match="3/4"):
            r_norm(1, 0.75)
        assert r_norm(1, 0.5) == 1.0


class TestEnumeration:
    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            enumerate_exact(0, MemoryParams.from_p(0.5))
        with pytest.raises(ValueError):
            enumerate_exact(4, MemoryParams.from_p(0.5), cov_pairs=((2, 5),))

    def test_rejects_full_memory(self):
        # the exact layer's q domain is [-1, 1); q = -1.5 is already rejected by MemoryParams
        with pytest.raises(ValueError, match=r"^q must lie in \[-1, 1\), got 1.0$"):
            enumerate_exact(2, MemoryParams.from_q(1.0))

    def test_half_memory_w2(self):
        res = enumerate_exact(3, MemoryParams.from_p(0.75))
        assert res.e_w2 == pytest.approx(5.5, abs=1e-12)

    def test_one_step_default_has_no_covariance_pairs(self):
        res = enumerate_exact(1, MemoryParams.from_q(0.3))
        assert res.e_w2 == 1.0 and res.cov_w_pairs == {} and res.coupling_ok
        with pytest.raises(ValueError, match=r"cov pair \(1,2\) out of range for n=1"):
            enumerate_exact(1, MemoryParams.from_q(0.3), cov_pairs=((1, 2),))

    def test_probabilities_sum_to_one(self):
        for q in Q_GRID:
            res = enumerate_exact(12, MemoryParams.from_q(q))
            assert res.prob_total == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_case_s_second_moment(self):
        res = enumerate_exact(9, MemoryParams.from_p(0.5))
        assert res.e_s2 == pytest.approx(9.0, abs=1e-12)

    def test_s_mean_vanishes(self):
        for q in Q_GRID:
            res = enumerate_exact(11, MemoryParams.from_q(q))
            assert abs(res.e_s) < 1e-13

    @pytest.mark.parametrize("q", Q_GRID)
    def test_w2_matches_h_at_every_horizon(self, q):
        res = enumerate_exact(12, MemoryParams.from_q(q))
        for k in range(1, 13):
            assert res.e_w2_by_step[k] == pytest.approx(h_moment(k, q), abs=1e-11)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_ztilde_matches_double_sum_at_every_horizon(self, q):
        res = enumerate_exact(12, MemoryParams.from_q(q))
        for k in range(1, 13):
            assert res.e_ztilde2_by_step[k] == pytest.approx(
                var_ztilde_exact(k, q), abs=1e-11
            )

    def test_coupling_flag(self):
        res = enumerate_exact(12, MemoryParams.from_q(0.3))
        assert res.coupling_ok


def _literal_enumeration(n, q, cov_pairs):
    """Every field of EnumerationResult by a sum over all 2^n letter sequences."""
    terms = {key: [[] for _ in range(n + 1)] for key in ("w2", "s", "s2", "zt2")}
    prob_terms, cov_terms = [], {pair: [] for pair in cov_pairs}
    for seq in product("ab", repeat=n):
        prob, a_cnt, s, zt, w_path, path = 1.0, 0, 0, 0.0, [0], []
        for k, g in enumerate(seq, start=1):
            pa = 0.5 if k == 1 else step_prob_a(q, 2 * a_cnt - (k - 1), k - 1)
            prob *= pa if g == "a" else 1.0 - pa
            a_cnt += g == "a"
            w = 2 * a_cnt - k
            s += encode_increment(k, g)
            zt += (-1.0) ** k * w / k
            w_path.append(w)
            path.append((("w2", w * w), ("s", s), ("s2", s * s), ("zt2", zt * zt)))
        for k, values in enumerate(path, start=1):
            for key, x in values:
                terms[key][k].append(prob * x)
        prob_terms.append(prob)
        for k, l in cov_pairs:
            cov_terms[k, l].append(prob * w_path[k] * w_path[l])
    by_step = {key: np.array([np.nan] + [math.fsum(t) for t in rows[1:]])
               for key, rows in terms.items()}
    cov = {pair: math.fsum(t) for pair, t in cov_terms.items()}
    return math.fsum(prob_terms), by_step, cov


class TestLiteralOracle:
    """The forward pass against a literal sum over every letter sequence."""

    PAIRS = ((1, 2), (2, 5), (3, 7), (2, 8), (4, 4))

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", (8, 10))
    def test_every_field(self, q, n):
        pairs = tuple(pair for pair in self.PAIRS if max(pair) <= n)
        res = enumerate_exact(n, MemoryParams.from_q(q), cov_pairs=pairs)
        prob, by_step, cov = _literal_enumeration(n, q, pairs)
        assert res.n == n and res.q == q and res.coupling_ok
        assert abs(res.prob_total - prob) <= 1e-13
        for key, arr in (("w2", res.e_w2_by_step), ("s", res.e_s_by_step),
                         ("s2", res.e_s2_by_step), ("zt2", res.e_ztilde2_by_step)):
            assert len(arr) == n + 1 and np.isnan(arr[0])
            assert np.max(np.abs(arr[1:] - by_step[key][1:])) <= 1e-13
        for field, key in (("e_w2", "w2"), ("e_s", "s"), ("e_s2", "s2"), ("e_ztilde2", "zt2")):
            assert abs(getattr(res, field) - by_step[key][n]) <= 1e-13
            assert getattr(res, field) == getattr(res, f"{field}_by_step")[n]
        assert res.cov_w_pairs.keys() == cov.keys()
        for pair in pairs:
            assert abs(res.cov_w_pairs[pair] - cov[pair]) <= 1e-13


class TestLongHorizon:
    @pytest.mark.parametrize("q", (-0.5, 0.8))
    def test_matches_recursion_double_sum_and_covariance(self, q):
        n = 500
        pairs = ((1, 500), (17, 300), (250, 250), (499, 2))
        res = enumerate_exact(n, MemoryParams.from_q(q), cov_pairs=pairs)
        assert res.coupling_ok
        assert res.prob_total == pytest.approx(1.0, abs=1e-13)
        h = h_moment_table(n, q)
        for k in range(1, n + 1):
            assert res.e_w2_by_step[k] == pytest.approx(h[k], rel=1e-12)
        for k in (1, 2, 3, 50, 199, 200, 499, 500):
            assert res.e_ztilde2_by_step[k] == pytest.approx(var_ztilde_exact(k, q), rel=1e-12)
        for pair in pairs:
            assert res.cov_w_pairs[pair] == pytest.approx(cov_w(*pair, q), rel=1e-12)
        v, _ = s_moments(n, q)
        for k in range(1, n + 1):
            assert res.e_s2_by_step[k] == pytest.approx(v[k], rel=1e-12), k


class TestMomentTable:
    def test_first_row_fields(self):
        table = MomentTable.build(4, 0.5)
        assert len(table.k) == len(table.H) == len(table.I) == len(table.a) == 4
        assert (table.k[0], table.H[0]) == (1, 1.0)
        assert table.I[0] == pytest.approx(2 / math.pi, rel=1e-11)

    def test_envelope_bounded_ratio(self):
        # a_k tracks k^-q below the critical memory, k^-q log k at it, and
        # k^(q-1) above; the ratio to the envelope must stay bounded
        for q, envelope in (
            (-0.5, lambda k: k ** 0.5),
            (0.3, lambda k: k ** -0.3),
            (0.5, lambda k: np.log(k) / np.sqrt(k)),
            (0.8, lambda k: k ** -0.2),
        ):
            a = MomentTable.build(100_000, q).a
            ks = np.array([10, 100, 1000, 10_000, 100_000])
            ratios = np.array([a[k - 1] / envelope(k) for k in ks])
            assert ratios.max() / ratios.min() < 3.0

    def test_variance_envelope_bounded(self):
        # H(n, q) r_n^2 / n^2 stays bounded in n for each memory parameter
        for p in (0.3, 0.5, 0.75, 0.9):
            q = 2 * p - 1
            h = h_moment_table(1_000_000, q)
            ns = np.array([10, 100, 1000, 10_000, 100_000, 1_000_000])
            vals = np.array([h[n] * r_norm(n, p) ** 2 / n**2 for n in ns])
            assert np.all(np.isfinite(vals))
            assert vals.max() < 10.0
