"""Tanh-sinh quadrature on (0, 1), the limiting-variance integrals, and J1/J2.

Every integral in this package lives on the open unit interval with at
worst an integrable algebraic or logarithmic singularity at an endpoint,
which is exactly the situation the double-exponential (tanh-sinh) node
transform handles: nodes cluster towards the endpoints double-exponentially
and no node ever lands on 0 or 1.

Integrands receive both u and 1-u.  The node map computes the two
coordinates separately through exp, so each is accurate in its own scale
even when the other has rounded to 1.

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
_SERIES_TOL = 1e-15  # gauss_2f1 stops at the first term <= this times max(1, |sum|)


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
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    evals = 0

    def call(t: float) -> float:
        nonlocal evals
        u, um1, w = _node(t)
        evals += 1
        val = w * f(u, um1)
        if math.isnan(val) or math.isinf(val):
            raise QuadratureError(f"integrand not finite at u={u!r}")
        return val

    h = 1.0
    total = call(0.0)
    j = 1
    while j * h <= _T_MAX:
        total += call(j * h) + call(-j * h)
        j += 1
    value = h * total
    prev = value
    err = math.nan  # level 1 has no earlier difference, so level 2 is the earliest accepted

    for level in range(1, _MAX_LEVEL + 1):
        prev_err = err
        h *= 0.5
        odd_sum = 0.0
        j = 1
        while j * h <= _T_MAX:
            odd_sum += call(j * h) + call(-j * h)
            j += 2
        value = 0.5 * prev + h * odd_sum
        err = abs(value - prev)
        prev = value
        if err <= tol and prev_err <= tol:
            return QuadratureResult(value, err, evals, level)

    raise QuadratureError(
        f"no convergence to tol={tol} after {_MAX_LEVEL} refinement levels "
        f"(last level difference {err:.3e})"
    )


def phi_integrand(q: float, u: float, um1: float = None) -> float:
    """Integrand of the limiting Ztilde variance at memory parameter q.

    General branch (q != 1/2):
        (1/(2q-1)) * (u^(1-2q) - 1)/(1 - u) * ((1 - u/2)^(q-1) - 1)/u
    Log branch (q = 1/2):
        (-ln u)/(1 - u) * ((1 - u/2)^(-1/2) - 1)/u

    Both difference quotients are formed with expm1/log1p so the 0/0
    shapes at the endpoints cancel without a series switch; the limits are
    (q-1)/(2(2q-1)) at u = 0 (for q < 1/2) and 2^(1-q) - 1 at u = 1.
    """
    q = _check_q(q)
    if um1 is None:
        um1 = 1.0 - u
    # u and um1 are validated separately: near an endpoint one of them may
    # round to 1.0 while the other still resolves the distance to it
    if not (0.0 < u <= 1.0 and 0.0 < um1 <= 1.0):
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")

    log_u = math.log1p(-um1) if u > 0.5 else math.log(u)
    second = math.expm1((q - 1.0) * math.log1p(-0.5 * u)) / u
    if q == 0.5:
        first = -log_u / um1
        return first * second
    first = math.expm1((1.0 - 2.0 * q) * log_u) / um1
    return first * second / (2.0 * q - 1.0)


def var_ztilde_infinity_result(q: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Limit variance of the alternating series Ztilde, with error estimate."""
    q = _check_q(q)
    return integrate(lambda u, um1: phi_integrand(q, u, um1), tol=tol)


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
    array, each element equal to the float the scalar call returns.
    """
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    if np.any((c <= 0.0) & (c == np.floor(c))):
        raise ValueError(f"c must not be a nonpositive integer, got {c}")
    if not (-1.0 <= z < 1.0):
        raise ValueError(f"need -1 <= z < 1, got {z}")
    if z < 0.0:
        out = (1.0 - z) ** (-a) * _hyp_series(a, c - b, c, z / (z - 1.0))
    else:
        out = _hyp_series(a, b, c, z)
    return float(out) if out.ndim == 0 else out


def _hyp_series(a: float, b: np.ndarray, c: np.ndarray, z: float) -> np.ndarray:
    """Sum the series elementwise; each element stops at its own first small term."""
    total = np.ones(b.shape)
    term = np.ones(b.shape)
    live = np.ones(b.shape, dtype=bool)  # elements still summing
    for n in range(10_000):
        t = term[live] * ((a + n) * (b[live] + n) / ((c[live] + n) * (n + 1.0)) * z)
        s = total[live] + t
        term[live], total[live] = t, s
        # a nan term never counts as small; fmax, like max, passes over a nan total
        live[live] = ~(np.abs(t) <= _SERIES_TOL * np.fmax(1.0, np.abs(s)))
        if not live.any():
            return total
    raise QuadratureError(f"hypergeometric series did not converge at z={z}")


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
    Per-point quadrature failures are flagged on the row, not raised.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not -1.0 <= q_min or not q_max <= 0.99:  # written so that nan fails
        raise ValueError("grid must stay within [-1, 0.99]")
    if not q_min <= q_max:
        raise ValueError("empty grid")
    rows = []
    count = int(round((q_max - q_min) / step))
    for i in range(count + 1):
        qv = round(q_min + i * step, 12) + 0.0
        if qv > q_max + 1e-12:
            break
        try:
            res = var_ztilde_infinity_result(qv, tol)
            rows.append(FigureRow(qv, qv * qv * res.value, qv * qv * res.abs_err_estimate))
        except QuadratureError:
            rows.append(FigureRow(qv, math.nan, math.inf, ok=False))
    return rows
