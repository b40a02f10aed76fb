"""Rigorous evaluation of the analytic kernels: digamma, j, F3, F4.

Scalar entry points return balls built from ball arithmetic end to end.
The digamma witness (`batch.build_coefficients` and `batch.direct_sum`,
which the tests check the records against) needs digamma at every unit
n/q of a conductor, so a vectorized numpy path is provided alongside,
carrying an analytic error envelope that the test suite validates
against the scalar ball version and against high-precision oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ball import _EPS, Ball, BallDomainError, LOG2, PI


class ToleranceError(ValueError):
    """Requested tolerance cannot be met in double precision."""

    def __init__(self, requested: float, achieved: float, q: int | None = None):
        self.requested = requested
        self.achieved = achieved
        self.q = q
        msg = f"requested radius {requested:.3e} unattainable; achieved {achieved:.3e}"
        super().__init__(msg if q is None else f"q={q}: {msg}")

    def __reduce__(self):
        # a sweep worker process sends the exception back pickled, and the
        # default reduction would call __init__ with the message alone
        return type(self), (self.requested, self.achieved, self.q)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature hit its depth limit before converging."""

    def __init__(self, achieved: Ball):
        self.achieved = achieved
        super().__init__(f"quadrature depth limit reached, achieved radius {achieved.rad:.3e}")


def _ball_from_fraction(fr: Fraction) -> Ball:
    m = float(fr)
    err = abs(fr - Fraction(m))
    return Ball(m, float(err) * (1.0 + 2.0 ** -40) + 1e-300)


# B_{2k} for 2k = 2..22
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
]

# digamma asymptotic series coefficients B_{2k}/(2k), k = 1..10
_PSI_COEFF = [_ball_from_fraction(b / (2 * k))
              for k, b in enumerate(_BERNOULLI[:10], start=1)]
# first omitted term at the shift point w >= 10: |B_22| / (22 * w^22)
_PSI_TAIL_AT_10 = float(abs(_BERNOULLI[10]) / 22) / 10.0 ** 22 * 1.001

_PSI_SHIFT = 10


def digamma(x: float, tol: float = 1e-12) -> Ball:
    """psi(x) for x > 0 with radius at most tol.

    Upward recurrence psi(x+1) = psi(x) + 1/x to a shift point >= 10,
    then the asymptotic series through the B_20 term; the first omitted
    Bernoulli term bounds the truncation error (the series alternates).
    """
    if not x > 0.0:
        raise BallDomainError(f"digamma requires x > 0, got {x}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    xb = Ball.exact(x)
    acc = Ball(0.0, 0.0)
    steps = 0 if x >= _PSI_SHIFT else math.ceil(_PSI_SHIFT - x)
    for j in range(steps):
        acc = acc + 1 / (xb + j)
    w = xb + steps
    r = 1 / (w * w)
    series = Ball(0.0, 0.0)
    for c in reversed(_PSI_COEFF):
        series = (series + c) * r
    res = w.log() - 1 / (2 * w) - series - acc
    res = res.widen(_PSI_TAIL_AT_10)
    if res.rad > tol:
        raise ToleranceError(tol, res.rad)
    return res


_PSI_COEFF_F = np.array([float(c.mid) for c in _PSI_COEFF])


def digamma_points(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized psi at an array of positive abscissae.

    Returns (midpoints, radii) in the shape of xs.  A uniform 10-step
    recurrence keeps the computation branch-free; the radius is the
    analytic envelope eps*(20/x + 120) plus the series tail, which the
    tests check against the scalar ball digamma across random inputs.
    """
    xs = np.asarray(xs, dtype=np.float64)
    acc = np.zeros_like(xs)
    for j in range(_PSI_SHIFT):
        acc += 1.0 / (xs + j)
    w = xs + float(_PSI_SHIFT)
    r = 1.0 / (w * w)
    series = np.zeros_like(xs)
    for c in _PSI_COEFF_F[::-1]:
        series = (series + c) * r
    mids = np.log(w) - 0.5 / w - series - acc
    rads = _EPS * (20.0 / xs + 120.0) + _PSI_TAIL_AT_10
    return mids, rads


# trigamma asymptotic: psi'(w) = 1/w + 1/(2w^2) + sum B_{2k} w^{-2k-1}, k=1..7
_TRI_COEFF_F = np.array([float(b) for b in _BERNOULLI[:7]])
_TRI_TAIL_AT_10 = float(abs(_BERNOULLI[7])) / 10.0 ** 17 * 1.001


def trigamma_points(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized psi'(x) (trigamma) with analytic error envelope."""
    xs = np.asarray(xs, dtype=np.float64)
    acc = np.zeros_like(xs)
    for j in range(_PSI_SHIFT):
        acc += 1.0 / (xs + j) ** 2
    w = xs + float(_PSI_SHIFT)
    r = 1.0 / (w * w)
    series = np.zeros_like(xs)
    for b in _TRI_COEFF_F[::-1]:
        series = (series + b) * r
    mids = 1.0 / w + 0.5 * r + series / w + acc
    rads = _EPS * (24.0 / xs ** 2 + 80.0) + _TRI_TAIL_AT_10
    return mids, rads


# -- even zeta values for the cotangent series ------------------------------

def _zeta_even_table(count: int) -> list[Ball]:
    # zeta(2k) = (2pi)^(2k) |B_2k| / (2 (2k)!) for the tabulated Bernoullis;
    # beyond them, partial sums with an integral tail are plenty.
    out = []
    for k in range(1, count + 1):
        if k <= len(_BERNOULLI):
            num = abs(_BERNOULLI[k - 1]) * Fraction(2) ** (2 * k - 1)
            coeff = _ball_from_fraction(num / math.factorial(2 * k))
            out.append(coeff * PI ** (2 * k))
        else:
            s = sum(Fraction(1, j) ** (2 * k) for j in range(1, 5))
            tail = Fraction(4) ** (1 - 2 * k) / (2 * k - 1)
            out.append(_ball_from_fraction(s).widen(float(tail) * 1.001))
    return out


_ZETA_EVEN = _zeta_even_table(40)


def cot_pi_residual(u: float) -> Ball:
    """h(u) = pi*cot(pi*u) - 1/u on |u| <= 1/2, via h = -2 sum zeta(2k) u^{2k-1}.

    h extends analytically through u = 0 with h(0) = 0.
    """
    if abs(u) > 0.5:
        raise BallDomainError("cot_pi_residual defined for |u| <= 1/2")
    if u == 0.0:
        return Ball(0.0, 0.0)
    ub = Ball.exact(u)
    u2 = ub * ub
    acc = Ball(0.0, 0.0)
    pw = ub
    au = abs(u)
    apw = au
    k = 0
    while k < len(_ZETA_EVEN):
        acc = acc + _ZETA_EVEN[k] * pw
        k += 1
        apw *= au * au
        if apw * 2.0 < 1e-18 and k >= 3:
            break
        pw = pw * u2
    # tail: 2 sum_{j>k} zeta(2j) |u|^{2j-1} <= 2*zeta(2k+2)*|u|^{2k+1}/(1-u^2)
    tail = 2.02 * apw / (1.0 - u * u)
    return (-2 * acc).widen(tail)


def ball_sinc(x: Ball) -> Ball:
    """sin(x)/x as a ball, with sinc(0) = 1; series branch near zero."""
    hi = abs(x.mid) + x.rad
    if hi < 0.5:
        # 1 - x^2/6 + x^4/120 - ... alternating, first omitted term bounds
        x2 = x * x
        acc = Ball(1.0, 0.0)
        pw = Ball(1.0, 0.0)
        for k in range(1, 8):
            pw = pw * x2
            c = Fraction(-1 if k % 2 else 1, math.factorial(2 * k + 1))
            acc = acc + _ball_from_fraction(c) * pw
        tail = hi ** 16 / math.factorial(17) * 1.001
        return acc.widen(tail)
    return x.sin() / x


def f4(t: float) -> Ball:
    """F4(t) = 1 - (sin(pi t)/(pi t))^2; F4(0) = 0 by the limit."""
    if t == 0.0:
        return Ball(0.0, 0.0)
    s = ball_sinc(PI * Ball.exact(t))
    return 1 - s * s


def f3(t: float, terms: int | None = None) -> Ball:
    """F3(t) = (sin(pi t)/pi)^2 (2/t + sum_m sgn(m)/(t-m)^2) for t > 0.

    Positive integers are the removable singularities where F3 = 1
    exactly.  The symmetric sum is truncated at M with the remainder
    bounded by 2/(M-t); sgn(0) = 0 so m = 0 contributes nothing.
    """
    if not t > 0.0:
        raise BallDomainError(f"f3 requires t > 0, got {t}")
    if float(t).is_integer():
        return Ball(1.0, 0.0)
    M = terms if terms is not None else max(100, math.ceil(10.0 / t))
    M = max(M, math.ceil(2.0 * t) + 10)
    m = np.arange(1, M + 1, dtype=np.float64)
    neg = 1.0 / (t - m) ** 2
    pos = 1.0 / (t + m) ** 2
    s = 2.0 / t + math.fsum(neg) - math.fsum(pos)
    # each float term carries ~3 ulp relative error; fsum adds one rounding
    env = 4.0 * _EPS * (2.0 / t + float(np.sum(neg) + np.sum(pos))) + 2.0 ** -45
    tail = 2.0 / (M - t)
    sin_over_pi = (PI * Ball.exact(t)).sin() / PI
    return sin_over_pi * sin_over_pi * Ball(s, env + tail)


# -- adaptive quadrature -----------------------------------------------------

def _simpson(a: float, b: float, fa: Ball, fm: Ball, fb: Ball) -> Ball:
    return (fa + 4 * fm + fb) * (Ball.exact(b) - Ball.exact(a)) / 6


def integrate(f, a: float, b: float, tol: float = 1e-9,
              max_depth: int = 48) -> Ball:
    """Integrate a ball-valued integrand over [a, b].

    Adaptive Simpson; the Richardson error estimate of each accepted
    panel, inflated by a safety factor of 10, is promoted into the
    radius.  Ball radii of the integrand propagate through the Simpson
    sums.  Raises QuadratureError (carrying the achieved ball) if the
    depth limit is hit and the final radius still exceeds tol.
    """
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return Ball(0.0, 0.0)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    total = Ball(0.0, 0.0)
    exhausted = False
    stack = [(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), float(tol), max_depth)]
    while stack:
        a0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        sl = _simpson(a0, m0, fa0, flm, fm0)
        sr = _simpson(m0, b0, fm0, frm, fb0)
        s2 = sl + sr
        corr = (s2 - s0) / 15
        est = abs(corr.mid) + corr.rad
        collapsed = not (a0 < lm < m0 < rm < b0)
        if 10.0 * est <= tol0 or depth <= 0 or collapsed:
            if 10.0 * est > tol0:
                exhausted = True
            total = total + (s2 + corr).widen(10.0 * est)
        else:
            stack.append((a0, m0, fa0, flm, fm0, sl, 0.5 * tol0, depth - 1))
            stack.append((m0, b0, fm0, frm, fb0, sr, 0.5 * tol0, depth - 1))
    if exhausted and total.rad > tol:
        raise QuadratureError(total)
    return total


# -- the function j of the even-character expansion --------------------------

def _j_smooth_upper(v: float) -> Ball:
    # integrand of j on (1/2, 1] after u -> 1-v:  g(1-v) = -v*h(v)
    return -Ball.exact(v) * cot_pi_residual(v)


@lru_cache(maxsize=32)
def _j_half_const(tol: float) -> Ball:
    # K = integral_0^{1/2} (-v h(v)) dv, shared by all j(t) with t < 1/2
    return integrate(_j_smooth_upper, 0.0, 0.5, tol)


def j_func(t: float, tol: float = 1e-10) -> Ball:
    """j(t) = 2 * integral_t^1 (pi(1-u)cot(pi u) + 1) du for 0 < t <= 1.

    The integrand equals 1/u + (1-u)h(u) with h the analytic cotangent
    residual, so the 1/u part integrates in closed form and only smooth
    remainders are quadrated; j diverges logarithmically at t = 0, which
    the caller must avoid.
    """
    if not 0.0 < t <= 1.0:
        raise BallDomainError(f"j_func requires 0 < t <= 1, got {t}")
    if t == 1.0:
        return Ball(0.0, 0.0)
    if t >= 0.5:
        return 2 * integrate(_j_smooth_upper, 0.0, 1.0 - t, 0.5 * tol)
    w = integrate(lambda u: (1 - Ball.exact(u)) * cot_pi_residual(u),
                  t, 0.5, 0.25 * tol)
    logt = Ball.exact(t).log()
    return 2 * (-LOG2 - logt + w + _j_half_const(0.25 * tol))
