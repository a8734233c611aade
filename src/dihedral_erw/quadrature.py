"""Tanh-sinh quadrature on (0, 1), the limiting-variance integrals, and J1/J2.

Every integral in this package lives on the open unit interval with at
worst an integrable algebraic or logarithmic singularity at an endpoint,
which is exactly the situation the double-exponential (tanh-sinh) node
transform handles: nodes cluster towards the endpoints double-exponentially
and no node ever lands on 0 or 1.

Integrands receive both u and 1-u.  The node map computes the two
coordinates separately through exp, so each is accurate in its own scale
even when the other has rounded to 1.  One engine, _tanh_sinh, integrates
a batch of integrands (a grid of q, or integrate's one scalar integrand)
level by level over shared nodes.

The kernels J1 and J2 of the T1 + 2 T2 split are Euler integrals of the
Gauss function (DLMF 15.6.1), so they are evaluated in closed form: a beta
prefactor times a 2F1 series at z = -1, which the Pfaff transformation
(DLMF 15.8.1) turns into a geometric series at z = 1/2.  Both beta
prefactors are values of the normaliser I(k, q) of i_factor_table, the
package's one implementation of gamma ratios.  Quadrature of the same
integrands serves only as a small-k cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import _check_int, _check_q

DEFAULT_TOL = 1e-10
_T_MAX = 6.0  # exp(pi*sinh(6)) stays inside double range
_MAX_LEVEL = 12
_SLAB_CELLS = 1 << 12  # integrand values per slab of _tanh_sinh
_SERIES_TOL = 1e-15  # gauss_2f1 stops at the first term <= this times max(1, |sum|)
_SERIES_TERMS = 10_000


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_err_estimate: float
    evaluations: int
    levels: int  # refinement level at which the result was accepted, 2 at the earliest


def _node(t: float):
    """Map t on the real line to (u, 1-u, weight) on (0, 1).

    u(t) = (1 + tanh((pi/2) sinh t)) / 2.  Writing x = (pi/2) sinh t,
    u = 1/(1 + e^(-2x)) and 1-u = e^(-2x)/(1 + e^(-2x)); each side is
    computed through the exponential that stays below 1, and the weight
    du/dt = pi cosh(t) u (1-u) inherits that stability.
    """
    x = 0.5 * math.pi * math.sinh(t)
    if x >= 0.0:
        em = math.exp(-2.0 * x)
        u = 1.0 / (1.0 + em)
        um1 = em / (1.0 + em)
    else:
        ep = math.exp(2.0 * x)
        u = ep / (1.0 + ep)
        um1 = 1.0 / (1.0 + ep)
    w = math.pi * math.cosh(t) * u * um1
    return u, um1, w


def integrate(f: Callable[[float, float], float], tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate f over (0, 1) with tanh-sinh level refinement.

    The integrand is called as f(u, one_minus_u) and is never evaluated at
    the endpoints.  Levels halve the mesh in the transformed variable and
    reuse previous nodes; the error estimate is the difference between the
    last two levels.  A level is accepted only once two consecutive level
    differences are both within tol, so two coarse levels that miss the
    same narrow peak cannot end the refinement.  Failure to converge within
    _MAX_LEVEL levels (49,153 evaluations) raises, it is never silent.
    Nodes stop at |t| = _T_MAX, where u, 1-u and the weight (about 4e-273)
    are still positive.
    """
    return _one(lambda u, um1: lambda rows: [list(map(f, u, um1))], tol)  # one row, f node by node


def _one(integrand, tol: float) -> QuadratureResult:
    res = _tanh_sinh(integrand, 1, tol)[0]
    if isinstance(res, QuadratureError):
        raise res
    return res


def _tanh_sinh(integrand, n_rows: int, tol: float) -> list:
    """The tanh-sinh rule for n_rows integrals at once, one refinement level at a time.

    integrand(u, um1) takes a level's nodes, as sequences in summation order, and returns a
    function from an array of row indices to those rows' integrand values (rows x nodes).
    Rows are evaluated in slabs of about _SLAB_CELLS values.  Each row stops on its own,
    by integrate's rule, and gets a QuadratureResult or the QuadratureError it failed with.
    Every row sums in node order, f(0) and then the pairs f(jh) + f(-jh) one after the
    other, and math's own functions make the nodes, so the floats do not depend on the
    batch.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    out = [None] * n_rows
    # level 0 has no earlier value and level 1 no earlier difference, so level 2 is the earliest accepted
    live, prev, err = np.arange(n_rows), None, np.full(n_rows, np.nan)
    evals = 0
    for level in range(_MAX_LEVEL + 1):
        if not len(live):
            break
        h = 0.5 ** level
        t = [s * j * h for j in range(1, int(_T_MAX / h) + 1, 2 if level else 1) for s in (1, -1)]
        u, um1, w = zip(*map(_node, [0.0] * (level == 0) + t))
        evals += len(u)
        rows_of, w = integrand(u, um1), np.array(w)
        slab = max(1, _SLAB_CELLS // len(u))
        total, ok = np.empty(len(live)), np.ones(len(live), dtype=bool)
        for lo in range(0, len(live), slab):
            vals = w * np.asarray(rows_of(live[lo:lo + slab]), dtype=float)
            bad = ~np.isfinite(vals)
            for i in np.flatnonzero(bad.any(axis=1)):  # the first bad node in summation order
                ok[lo + i] = False
                out[live[lo + i]] = QuadratureError(f"integrand not finite at u={u[bad[i].argmax()]!r}")
            k = 1 if level == 0 else 0  # f(0) leads level 0; a finer level's sum starts from 0.0
            start = vals[:, :1] if k else np.zeros((len(vals), 1))
            pairs = vals[:, k::2] + vals[:, k + 1::2]  # f(jh) + f(-jh)
            total[lo:lo + slab] = np.add.accumulate(np.hstack((start, pairs)), axis=1)[:, -1]
        value = 0.5 * prev + h * total if level else total
        new_err = np.abs(value - prev) if level else err
        done = ok & (new_err <= tol) & (err <= tol)
        for i in np.flatnonzero(done):
            out[live[i]] = QuadratureResult(float(value[i]), float(new_err[i]), evals, level)
        keep = ok & ~done
        live, prev, err = live[keep], value[keep], new_err[keep]
    for r, e in zip(live, err):
        out[r] = QuadratureError(f"no convergence to tol={tol} after {_MAX_LEVEL} refinement levels "
                                 f"(last level difference {e:.3e})")
    return out


def _expm1(x: np.ndarray) -> np.ndarray:
    """math.expm1 elementwise: numpy's vector expm1 can differ from it in the last bit."""
    return np.fromiter(map(math.expm1, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _phi_level(qs):
    """The level builder of _tanh_sinh for the limit-variance integrand at each q of qs.

    General branch (q != 1/2):
        (1/(2q-1)) * (u^(1-2q) - 1)/(1 - u) * ((1 - u/2)^(q-1) - 1)/u
    Log branch (q = 1/2):
        (-ln u)/(1 - u) * ((1 - u/2)^(-1/2) - 1)/u

    Both difference quotients are formed with expm1/log1p so the 0/0
    shapes at the endpoints cancel without a series switch; the limits are
    (q-1)/(2(2q-1)) at u = 0 (for q < 1/2) and 2^(1-q) - 1 at u = 1.  A
    level's q-free factors, log u (log1p(-(1-u)) above 1/2) and log1p(-u/2),
    are formed once; each slab then makes the operations of the scalar form
    (tests/oracles.phi_integrand) in its order, elementwise over rows x nodes.
    """
    q = np.asarray(qs, dtype=float)[:, None]

    def level(u, um1):
        log_u = np.array([math.log1p(-b) if a > 0.5 else math.log(a) for a, b in zip(u, um1)])
        log_half = np.array([math.log1p(-0.5 * a) for a in u])
        u, um1 = np.array(u), np.array(um1)
        lead = -log_u / um1  # the log branch's first factor

        def rows(idx):
            qr, half = q[idx], q[idx] == 0.5
            second = _expm1((qr - 1.0) * log_half) / u
            first = np.where(half, lead, _expm1((1.0 - 2.0 * qr) * log_u) / um1)
            return first * second / np.where(half, 1.0, 2.0 * qr - 1.0)
        return rows
    return level


def var_ztilde_infinity_result(q: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Limit variance of the alternating series Ztilde, with error estimate."""
    return _one(_phi_level([_check_q(q)]), tol)


def var_ztilde_infinity(q: float, tol: float = DEFAULT_TOL) -> float:
    return var_ztilde_infinity_result(q, tol).value


def var_z_infinity(q: float, tol: float = DEFAULT_TOL) -> float:
    """Limit variance of the predictable part Z = q * Ztilde: q^2 times the integral."""
    return q * q * var_ztilde_infinity(q, tol)


def i_factor_table(n: int, q: float) -> np.ndarray:
    """Normaliser I(k, q) = Gamma(k+1) / (Gamma(k+q) Gamma(1-q)) for k = 1..n (index 0 is nan).

    The gamma value I(2) = 2/(Gamma(2+q) Gamma(1-q)) has no pole for q in [-1, 1), and
    i_factor_block runs the product from it.  The product keeps I within 1e-11 of the 40-digit
    value for k <= 1e5; exp of a log-gamma difference was 1.5e-10 off there.
    """
    n, q = _check_int(n, "n"), _check_q(q)
    out = np.empty(n + 1)
    out[0] = np.nan
    i2 = 2.0 * math.exp(-math.lgamma(2.0 + q) - math.lgamma(1.0 - q))
    out[1:], _ = i_factor_block(np.arange(1.0, n + 1), q, i2, 1.0)
    return out


def i_factor_block(k: np.ndarray, q: float, i2: float, carry: float):
    """I(k, q) over an array of consecutive k, and the carry that the next array takes.

    I(1) = I(2) (1+q)/2, exactly 0 at q = -1, the pole of Gamma(k+q), and I(2) = i2 is
    i_factor_table's gamma value.  From there I(k) = I(k-1) k/(k-1+q) is one running product:
    carry is I(k)/I(2) at the k before the array (1.0 up to k = 2), and a cumprod over
    [carry r_0, r_1, ...] makes the multiplications of one cumprod over every k, so no value
    depends on how k is cut into arrays.  At q = 0, I(k) = k exactly.
    """
    if q == 0.0:
        return k + 0.0, carry  # Gamma(k+1)/Gamma(k)
    low = (i2 * (1.0 + q) / 2.0, i2)[int(k[0]) - 1:][:len(k)]  # I(1), I(2) where k has them
    r = k[len(low):] / ((k[len(low):] - 1.0) + q)
    if len(r):
        r[0] *= carry
        r = np.cumprod(r)
        carry = float(r[-1])
    return np.concatenate((low, i2 * r)), carry


def j1(k: int, q: float) -> float:
    """Integral of u^(k+q-1) (1-u)^(1-q) / (1+u) over (0, 1).

    Closed form B(k+q, 2-q) * 2F1(1, k+q; k+2; -1), by DLMF 15.6.1.  By
    Gamma(x+1) = x Gamma(x) the beta function is (1-q)/((k+1) I(k, q)),
    with I(1, -1) = 0 at its pole.  moments.t1 forms the same terms.
    """
    k, q = _check_int(k, "k"), _check_q(q)
    if k + q <= 0.0:
        raise ValueError(f"need k + q > 0, got k={k}, q={q}")
    return (1.0 - q) / ((k + 1) * float(i_factor_table(k, q)[k])) * gauss_2f1(1.0, k + q, k + 2.0, -1.0)


def j2(n: int, q: float) -> float:
    """Integral of u^(n+q) (1-u)^(-q) / (1+u) over (0, 1).

    Closed form B(n+q+1, 1-q) * 2F1(1, n+q+1; n+2; -1), by DLMF 15.6.1,
    and B(n+q+1, 1-q) = 1/I(n+1, q).  The 2F1 factor lies in (1/2, 1), so
    1/I(n+1, q) is the envelope of J2.  moments.t2 forms the same value.
    """
    n, q = _check_int(n, "n"), _check_q(q)
    return gauss_2f1(1.0, n + q + 1.0, n + 2.0, -1.0) / float(i_factor_table(n + 1, q)[n + 1])


def gauss_2f1(a: float, b: float | np.ndarray, c: float | np.ndarray,
              z: float) -> float | np.ndarray:
    """Gauss hypergeometric series 2F1(a, b; c; z) for |z| < 1 plus z = -1.

    Negative arguments are routed through the Pfaff transformation
    2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), which maps
    z in [-1, 0) to [1/2, 0) and turns the marginally convergent
    alternating series at z = -1 into a geometrically convergent one.

    b and c may be arrays (broadcast together); the result is then an
    array, each element equal to the float the scalar call returns.  A
    scalar call sums in Python floats, with the same operations.
    """
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    if np.any((c <= 0.0) & (c == np.floor(c))):
        raise ValueError(f"c must not be a nonpositive integer, got {c}")
    if not (-1.0 <= z < 1.0):
        raise ValueError(f"need -1 <= z < 1, got {z}")
    if b.ndim == 0:
        b, c = float(b), float(c)
    if z < 0.0:
        out = (1.0 - z) ** (-a) * _hyp_series(a, c - b, c, z / (z - 1.0))
    else:
        out = _hyp_series(a, b, c, z)
    return float(out) if np.ndim(out) == 0 else out


def _hyp_series(a: float, b, c, z: float):
    """Sum the series; each element of an array stops at its own first small term."""
    if isinstance(b, float):
        term = total = 1.0
        for n in range(_SERIES_TERMS):
            term, total, small = _hyp_step(a, b, c, z, n, term, total, max)
            if small:
                return total
    else:
        total = np.ones(b.shape)
        term = np.ones(b.shape)
        live = np.ones(b.shape, dtype=bool)  # elements still summing
        for n in range(_SERIES_TERMS):
            term[live], total[live], small = _hyp_step(a, b[live], c[live], z, n, term[live],
                                                       total[live], np.fmax)
            live[live] = ~small
            if not live.any():
                return total
    raise QuadratureError(f"hypergeometric series did not converge at z={z}")


def _hyp_step(a, b, c, z, n, term, total, fmax):
    """Term n + 1, the sum through it, and whether the term is small: the one series step."""
    t = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0)) * z)
    s = total + t
    # a nan term never counts as small; fmax, like max, passes over a nan total
    return t, s, abs(t) <= _SERIES_TOL * fmax(1.0, abs(s))


@dataclass(frozen=True)
class FigureRow:
    q: float
    var_z_infinity: float
    abs_err: float
    ok: bool = True


def figure_grid(q_min: float, q_max: float, step: float, tol: float = DEFAULT_TOL):
    """Rows (q, limit variance of Z, abs error) over a q grid.

    Grid points are snapped to 12 decimals so accumulated float drift
    cannot miss exact values such as q = 0 or the q = 1/2 branch point;
    adding 0.0 turns a snapped -0.0 into 0.0, so q = 0 always prints as 0.
    The whole grid is one batch of _tanh_sinh, each row the float that
    var_ztilde_infinity_result gives at its q.  Per-point quadrature failures
    are flagged on the row, not raised.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not -1.0 <= q_min or not q_max <= 0.99:  # written so that nan fails
        raise ValueError("grid must stay within [-1, 0.99]")
    if not q_min <= q_max:
        raise ValueError("empty grid")
    count = int(round((q_max - q_min) / step))
    qs = [round(q_min + i * step, 12) + 0.0 for i in range(count + 1)]
    qs = [qv for qv in qs if qv <= q_max + 1e-12]
    return [FigureRow(qv, math.nan, math.inf, ok=False) if isinstance(res, QuadratureError)
            else FigureRow(qv, qv * qv * res.value, qv * qv * res.abs_err_estimate)
            for qv, res in zip(qs, _tanh_sinh(_phi_level(qs), len(qs), tol))]
