import hashlib
import math
from itertools import product

import numpy as np
import pytest
from oracles import phi_integrand, var_ztilde_series

from dihedral_erw.moments import t2, var_ztilde_exact
from dihedral_erw.quadrature import (
    QuadratureError,
    _node,
    _phi_level,
    figure_grid,
    gauss_2f1,
    i_factor_table,
    integrate,
    j1,
    j2,
    var_z_infinity,
    var_ztilde_infinity,
    var_ztilde_infinity_result,
)


class TestIntegrate:
    def test_smooth_log(self):
        res = integrate(lambda u, um1: 1.0 / (2.0 - u), tol=1e-12)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert res.abs_err_estimate >= 0

    def test_algebraic_endpoint_singularity(self):
        res = integrate(lambda u, um1: um1 ** -0.5, tol=1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_log_endpoint_singularity(self):
        res = integrate(lambda u, um1: -math.log(u), tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_level_cap_failure_is_loud(self):
        # 12 levels cannot resolve 1.6e4 periods: a difference of 1.3e-4 remains
        with pytest.raises(QuadratureError, match="12 refinement levels"):
            integrate(lambda u, um1: math.cos(1e5 * u))

    def test_non_finite_integrand_is_loud(self):
        with pytest.raises(QuadratureError):
            integrate(lambda u, um1: float("nan"), tol=1e-10)

    def test_reports_acceptance_level(self):
        # two level differences within tol are needed, so level 2 is the
        # earliest, even at tol = inf; at tol 1e-10 the level differences of
        # a constant are 1.6e-2, 3.4e-6, 3.7e-14 and 1e-16, so it is accepted
        # at level 4
        assert integrate(lambda u, um1: 1.0, tol=math.inf).levels == 2
        assert integrate(lambda u, um1: 1.0, tol=0.1).levels == 2
        assert integrate(lambda u, um1: 1.0, tol=1e-10).levels == 4
        assert var_ztilde_infinity_result(0.5).levels >= 2

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be positive"):
                integrate(lambda u, um1: 1.0, tol=tol)

    def test_narrow_peak_is_not_missed(self):
        # the J1 integrand at k = 5000, q = -1/2 peaks in a sliver near
        # u = 1 that the first levels miss alike; a stop rule satisfied by
        # one small level difference returned 2.630e-10 here
        k, q = 5000, -0.5

        def f(u, um1):
            log_u = math.log1p(-um1) if u > 0.5 else math.log(u)
            return math.exp((k + q - 1.0) * log_u + (1.0 - q) * math.log(um1)) / (1.0 + u)

        res = integrate(f, tol=1e-10)
        assert res.value == pytest.approx(3.7604123636082086e-10, abs=1e-10)


def _peak(u, um1):  # the J1 integrand of TestIntegrate.test_narrow_peak_is_not_missed
    log_u = math.log1p(-um1) if u > 0.5 else math.log(u)
    return math.exp((5000 - 0.5 - 1.0) * log_u + 1.5 * math.log(um1)) / (1.0 + u)


class TestQuadratureBits:
    """Quadrature results pinned bit for bit: value and error estimate as hex, plus levels
    and evaluations.  The values were computed with one scalar tanh-sinh pass per integral,
    before every integral of a batch shared one pass.
    """

    VAR = (
        (-1.0, "0x1.23e33d5d8385ep+0", "0x0.0p+0", 4, 193),
        (-0.5, "0x1.cd4e483f8e98cp-1", "0x0.0p+0", 4, 193),
        (0.0, "0x1.62e42fefa39f0p-1", "0x0.0p+0", 4, 193),
        (0.3, "0x1.26624c2d3e23ap-1", "0x0.0p+0", 4, 193),
        (0.5 - 1e-6, "0x1.fa9dffc5cc77ap-2", "0x0.0p+0", 4, 193),
        (0.5, "0x1.fa9de4377dd36p-2", "0x1.0000000000000p-54", 4, 193),
        (0.5 + 1e-6, "0x1.fa9dc8a92e9bap-2", "0x0.0p+0", 4, 193),
        (0.8, "0x1.7297797649029p-2", "0x0.0p+0", 4, 193),
        (0.95, "0x1.1fefde9dd20d4p-2", "0x1.0000000000000p-53", 4, 193),
    )

    @staticmethod
    def bits(res):
        return res.value.hex(), res.abs_err_estimate.hex(), res.levels, res.evaluations

    @pytest.mark.parametrize("q, value, err, levels, evals", VAR, ids=[str(row[0]) for row in VAR])
    def test_limit_variance_bits(self, q, value, err, levels, evals):
        assert self.bits(var_ztilde_infinity_result(q)) == (value, err, levels, evals)

    def test_figure_grid_digest(self):
        rows = figure_grid(-1.0, 0.95, 0.005)
        assert len(rows) == 391
        text = "\n".join(f"{r.q.hex()} {r.var_z_infinity.hex()} {r.abs_err.hex()} {r.ok}" for r in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8650c3b1dd17830311e1237490db472f9bca5dd323af3cbf7b5a0c63db2bb1ed")

    INTEGRATE = (
        (lambda u, um1: 1.0 / (2.0 - u), 1e-12, ("0x1.62e42fefa39efp-1", "0x1.0000000000000p-53", 5, 385)),
        (lambda u, um1: um1 ** -0.5, 1e-10, ("0x1.0000000000000p+1", "0x0.0p+0", 4, 193)),
        (lambda u, um1: -math.log(u), 1e-10, ("0x1.0000000000000p+0", "0x0.0p+0", 4, 193)),
        (lambda u, um1: 1.0, math.inf, ("0x1.00000000000a6p+0", "0x1.c2e9f90c00000p-19", 2, 49)),
        (lambda u, um1: 1.0, 0.1, ("0x1.00000000000a6p+0", "0x1.c2e9f90c00000p-19", 2, 49)),
        (lambda u, um1: 1.0, 1e-10, ("0x1.0000000000000p+0", "0x0.0p+0", 4, 193)),
        (_peak, 1e-10, ("0x1.9d7632c04f33ap-32", "0x1.475a298000000p-59", 5, 385)),
    )

    @pytest.mark.parametrize("f, tol, want", INTEGRATE)
    def test_integrate_bits(self, f, tol, want):
        assert self.bits(integrate(f, tol)) == want

    @pytest.mark.parametrize("f, message", (
        (lambda u, um1: math.cos(1e5 * u), "no convergence to tol=1e-10 after 12 refinement levels "
                                           "(last level difference 1.312e-04)"),
        (lambda u, um1: float("nan"), "integrand not finite at u=0.5"),
        # the first node in summation order: t = 2 at level 0
        (lambda u, um1: math.inf if um1 < 1e-3 else 1.0, "integrand not finite at u=0.9999887385962308"),
        # t = 4 comes before t = -4
        (lambda u, um1: math.inf if min(u, um1) < 1e-30 else 1.0, "integrand not finite at u=1.0"),
    ))
    def test_failure_messages(self, f, message):
        with pytest.raises(QuadratureError) as exc:
            integrate(f)
        assert str(exc.value) == message

    def test_limit_variance_failure_message(self):
        for q, last in ((0.0, "4.441e-16"), (0.3, "8.882e-16")):
            with pytest.raises(QuadratureError) as exc:
                var_ztilde_infinity_result(q, tol=1e-17)
            assert str(exc.value) == (f"no convergence to tol=1e-17 after 12 refinement levels "
                                      f"(last level difference {last})")


class TestPhiIntegrand:
    """The scalar form in tests/oracles.py, and the package's batched rows against it."""

    def test_batched_rows_match_the_scalar_form(self):
        # the package evaluates the integrand a slab at a time; every value must be the
        # scalar form's float, on the nodes of the first four levels and at u near 0 and 1
        qs = (-1.0, -0.5, 0.0, 0.3, 0.5 - 1e-6, 0.5, 0.5 + 1e-6, 0.8, 0.95)
        t = np.arange(-6.0, 6.0 + 1e-9, 0.125)
        u, um1, _ = zip(*map(_node, t))
        u, um1 = u + (1e-300, 0.5, 1.0), um1 + (1.0, 0.5, 1e-300)
        got = _phi_level(qs)(u, um1)(np.arange(len(qs)))
        want = [[phi_integrand(q, a, b) for a, b in zip(u, um1)] for q in qs]
        assert got.shape == (len(qs), len(u))
        assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in want]

    def test_memoryless_reduces_to_rational(self):
        # at q=0 the integrand collapses to 1/(2-u)
        for u in (0.1, 0.25, 0.5, 0.9):
            assert phi_integrand(0.0, u) == pytest.approx(1.0 / (2.0 - u), rel=1e-13)

    def test_left_endpoint_limits(self):
        # limit (q-1)/(2(2q-1)); the approach rate is u^(1-2q), so the probe
        # point moves closer for memory parameters nearer the branch point
        for q, u in ((-1.0, 1e-9), (-0.5, 1e-9), (0.0, 1e-9), (0.3, 1e-23)):
            lim = (q - 1.0) / (2.0 * (2.0 * q - 1.0))
            assert phi_integrand(q, u) == pytest.approx(lim, abs=1e-8)

    def test_right_endpoint_limits(self):
        for q in (-1.0, -0.5, 0.0, 0.3, 0.49, 0.8):
            lim = 2.0 ** (1.0 - q) - 1.0
            assert phi_integrand(q, 1.0 - 1e-10) == pytest.approx(lim, abs=1e-8)
        assert phi_integrand(0.5, 1.0 - 1e-10) == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-8
        )

    def test_rejects_outside_unit_interval(self):
        for u in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                phi_integrand(0.3, u)

    def test_positive_on_interior(self):
        for q in (-1.0, -0.3, 0.2, 0.5, 0.9):
            for u in (1e-6, 0.2, 0.5, 0.8, 1 - 1e-6):
                assert phi_integrand(q, u) > 0.0


class TestLimitVariance:
    def test_memoryless_closed_form(self):
        assert var_ztilde_infinity(0.0, tol=1e-10) == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_tol_checked_before_the_memoryless_shortcut(self):
        for tol in (-1.0, float("nan")):
            for call in (lambda: var_z_infinity(0.0, tol=tol), lambda: var_z_infinity(0.3, tol=tol),
                         lambda: figure_grid(0.0, 0.0, 1.0, tol=tol),
                         lambda: figure_grid(0.1, 0.3, 0.1, tol=tol)):
                with pytest.raises(ValueError, match="tol must be positive"):
                    call()

    def test_memoryless_limit_is_integrated_too(self):
        # q = 0 has no shortcut: below the reachable tolerance it fails like any q
        with pytest.raises(QuadratureError):
            var_z_infinity(0.0, tol=1e-17)
        assert not figure_grid(0.0, 0.0, 1.0, tol=1e-17)[0].ok

    def test_prefactor_of_z(self):
        assert var_z_infinity(0.0) == 0.0
        q = -1.0
        assert var_z_infinity(q) == pytest.approx(var_ztilde_infinity(q), rel=1e-12)
        q = 0.5
        assert var_z_infinity(q) == pytest.approx(0.25 * var_ztilde_infinity(q), rel=1e-12)

    def test_nonnegative_across_grid(self):
        for q in np.linspace(-1.0, 0.9, 20):
            assert var_ztilde_infinity(float(q)) >= 0.0

    def test_branch_continuity(self):
        # the symmetric probe cancels the smooth q-derivative (about -0.41
        # near the branch point) and isolates the branch mismatch itself
        mid = var_ztilde_infinity(0.5)
        lo = var_ztilde_infinity(0.5 - 1e-4)
        hi = var_ztilde_infinity(0.5 + 1e-4)
        assert abs(0.5 * (lo + hi) - mid) <= 1e-5
        # one-sided probes at 1e-4 measure derivative * offset; they stay
        # within 1e-4, and tighten to 1e-5 once the offset shrinks to 1e-6
        assert abs(lo - mid) <= 1e-4 and abs(hi - mid) <= 1e-4
        assert abs(var_ztilde_infinity(0.5 - 1e-6) - mid) <= 1e-5
        assert abs(var_ztilde_infinity(0.5 + 1e-6) - mid) <= 1e-5

    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.3, 0.5, 0.7])
    def test_truncated_sum_converges_to_limit(self, q):
        # gap must shrink monotonically and track the alternating-tail
        # decay: n^(q-1) with memory, n^-1 log n without
        limit = var_ztilde_infinity(q)
        ns = (100, 1000, 10_000, 100_000)
        gaps = [abs(var_ztilde_exact(n, q) - limit) for n in ns]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        rate = (lambda n: n ** (q - 1.0)) if q > 0 else (lambda n: math.log(n) / n)
        assert gaps[-1] <= 5.0 * rate(ns[-1])

    @pytest.mark.parametrize("q", (-1.0, -0.5, 0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95))
    def test_against_series_oracle(self, q):
        # an independent route to the paper's limit constant: the power series of
        # oracles.var_ztilde_series at 30 digits, which shares no code with the quadrature
        pytest.importorskip("mpmath")
        assert abs(var_ztilde_infinity(q) - var_ztilde_series(q)) <= 1e-14

    def test_rejects_q_of_one(self):
        with pytest.raises(ValueError):
            var_ztilde_infinity(1.0)

    @pytest.mark.parametrize("q", (1.0, -1.5))
    def test_one_q_domain_with_the_exact_layer(self, q):
        from dihedral_erw.moments import h_moment, t1

        calls = (lambda: phi_integrand(q, 0.5), lambda: var_ztilde_infinity(q),
                 lambda: j1(2, q), lambda: j2(2, q), lambda: h_moment(2, q),
                 lambda: var_ztilde_exact(2, q), lambda: t1(2, q), lambda: t2(2, q))
        for call in calls:
            with pytest.raises(ValueError, match=r"^q must lie in \[-1, 1\), got "):
                call()


class TestJ1J2:
    def test_j1_closed_form(self):
        assert j1(1, 0.0) == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-11)

    def test_j2_closed_form(self):
        assert j2(1, 0.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-11)

    def test_j2_beta_envelope(self):
        # the beta envelope B(n+q+1, 1-q) is 1/I(n+1, q); J2 over it is a Gauss factor in (1/2, 1)
        for q in (-0.9, -0.5, 0.0, 0.4, 0.8):
            for n in (1, 10, 1000, 100_000):
                assert 0.5 < j2(n, q) * i_factor_table(n + 1, q)[n + 1] <= 1.0

    def test_domains(self):
        with pytest.raises(ValueError):
            j1(1, -1.0)  # k + q = 0 diverges
        with pytest.raises(ValueError):
            j2(0, 0.5)

    # 40-digit references from mpmath 1.3 (mp.dps = 40), computed as
    # beta(b, c - b) * hyp2f1(1, b, c, -1) with the b, c of each kernel;
    # the J1 values also agree with mpmath.quad of the integrand itself.
    # The t2 values are that J2 times the alternating sum of H I/k^2, with
    # H and I from their recursions run at 40 digits
    MPMATH_TABLE = (
        (j1, 5000, -0.5, 3.7604123636082086e-10),
        (j1, 20000, 0.3, 2.2161784101107933e-8),
        (j1, 5000, 0.0, 1.9999999600000032e-8),
        (j2, 100_000, 0.3, 2.0523963516190262e-4),
        (j2, 100_000, 0.5, 2.8024850988688967e-3),
        (j2, 100_000, 0.7, 4.7300738276276844e-2),
        (j2, 100_000, -0.5, 1.4012425493819019e-8),
        (t2, 2001, -0.5, 6.432543436676997e-5),
        (t2, 2001, 0.3, 1.6493642925493567e-3),
        (t2, 2001, 0.8, 8.051978020791734e-2),
        (t2, 100_000, -0.5, 1.2446931933942084e-6),
        (t2, 100_000, 0.3, -8.096391098381616e-5),
        (t2, 100_000, 0.8, -2.2066672213412516e-2),
    )

    @pytest.mark.parametrize("fn, n, q, want", MPMATH_TABLE,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_against_mpmath(self, fn, n, q, want):
        assert fn(n, q) == pytest.approx(want, rel=1e-11)

    def test_j1_positive_and_decreasing_in_k(self):
        vals = [j1(k, 0.3) for k in (1, 2, 5, 20)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGauss2F1:
    def test_empty_tail(self):
        assert gauss_2f1(0.7, 1.3, 2.4, 0.0) == 1.0

    def test_log_series_identity(self):
        for z in (-1.0, -0.5, 0.3, 0.9):
            assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
                -math.log(1.0 - z) / z, rel=1e-12
            )

    def test_closed_form_identity_on_grid(self):
        worst = 0.0
        for q in np.arange(0.1, 0.95, 0.1):
            for lam in np.arange(0.1, 1.05, 0.1):
                got = gauss_2f1(q, 1.0, 2.0, -lam)
                want = ((1 + lam) ** (1 - q) - 1) / ((1 - q) * lam)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-10

    def test_against_euler_integral(self):
        # Euler form: Gamma(c) / (Gamma(b) Gamma(c-b)) * integral of
        # t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a); valid for c > b > 0.  The
        # J1 (b = k+q) and J2 (b = k+q+1) triples at z = -1 and small k
        # cross-check the closed forms j1 and j2 by quadrature
        cases = [(a, b, c, z)
                 for a, b, c in ((0.4, 0.7, 1.9), (1.0, 1.0, 2.0), (2.2, 0.5, 2.7))
                 for z in (-1.0, -0.4, 0.0, 0.35, 0.8)]
        cases += [(1.0, k + q + shift, k + 2.0, -1.0)
                  for k in (1, 2, 5) for q in (-0.5, 0.3, 0.8) for shift in (0.0, 1.0)]
        for a, b, c, z in cases:
            pref = math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))
            res = integrate(
                lambda u, um1: u ** (b - 1) * um1 ** (c - b - 1) * (1 - z * u) ** (-a),
                tol=1e-12,
            )
            assert gauss_2f1(a, b, c, z) == pytest.approx(
                pref * res.value, abs=1e-10
            )

    def test_array_arguments_match_scalar_calls(self):
        # the J1 Gauss factors of t1: each element stops where its scalar series does
        k = np.arange(1, 5001)
        for q in (-1.0, 0.3):
            got = gauss_2f1(1.0, k + q, k + 2.0, -1.0)
            assert got.shape == k.shape
            want = [gauss_2f1(1.0, kk + q, kk + 2.0, -1.0) for kk in range(1, 5001)]
            assert got.tolist() == want
        grid = gauss_2f1(1.0, np.array([[1.0], [2.0]]), np.array([3.0, 4.0, 5.0]), 0.5)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == gauss_2f1(1.0, 2.0, 5.0, 0.5)

    def test_scalar_calls_match_one_element_arrays(self):
        # a scalar call sums in Python floats, an array call elementwise in numpy: same bits,
        # on t2's (1, n+q+1; n+2) and on parameters whose series stop after a few terms
        cases = [(1.0, n + q + 1.0, n + 2.0) for n in (1, 7, 1000, 10**6) for q in (-1.0, 0.0, 0.3, 0.95)]
        cases += [(0.4, 0.7, 1.9), (2.2, 0.5, 2.7), (0.3, -1.0, 2.0), (1.5, 3.0, 0.5)]
        for (a, b, c), z in product(cases, (-1.0, -0.5, 0.0, 0.5)):
            got = gauss_2f1(a, b, c, z)
            assert type(got) is float
            assert got.hex() == gauss_2f1(a, np.array([b]), np.array([c]), z)[0].hex()

    def test_non_convergence_raises(self):
        # near z = 1 the first element needs far more than 10,000 terms, the second few
        with pytest.raises(QuadratureError):
            gauss_2f1(1.0, 1.0, 2.0, 0.999)
        with pytest.raises(QuadratureError):
            gauss_2f1(1.0, np.array([1.0, 1.0]), np.array([2.0, 30.0]), 0.999)

    def test_domains(self):
        with pytest.raises(ValueError):
            gauss_2f1(0.5, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(0.5, np.array([1.0, 1.0]), np.array([2.5, -2.0]), 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(0.5, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            gauss_2f1(0.5, 1.0, 2.0, -1.5)


class TestFigureGrid:
    def test_rows_and_flags(self):
        rows = figure_grid(-1.0, 0.9, 0.1)
        assert len(rows) == 20
        assert all(r.ok for r in rows)
        assert all(r.var_z_infinity >= 0 for r in rows)
        zero = [r for r in rows if r.q == 0.0]
        assert len(zero) == 1 and zero[0].var_z_infinity == 0.0

    def test_grid_snapping_hits_exact_zero(self):
        rows = figure_grid(-1.0, 1e-12, 0.05)
        assert rows[-1].q == 0.0

    def test_zero_from_below_is_positive_zero(self):
        # -0.9 + 3 * 0.3 snaps to -0.0; the row must still print as 0, not -0
        zero = [r for r in figure_grid(-0.9, 0.9, 0.3) if r.q == 0.0]
        assert len(zero) == 1 and math.copysign(1.0, zero[0].q) == 1.0
        assert zero[0].var_z_infinity == 0.0 and zero[0].abs_err == 0.0

    def test_domain_guard(self):
        for step in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="step must be positive"):
                figure_grid(0.0, 0.2, step)
        for q_min, q_max in ((-1.2, 0.5), (0.0, 0.995), (math.nan, 0.5), (0.0, math.nan)):
            with pytest.raises(ValueError, match=r"grid must stay within \[-1, 0.99\]"):
                figure_grid(q_min, q_max, 0.1)
        with pytest.raises(ValueError, match="empty grid"):
            figure_grid(0.5, 0.2, 0.1)
