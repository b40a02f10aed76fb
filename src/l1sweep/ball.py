"""Midpoint-radius (ball) arithmetic over IEEE-754 doubles.

Every rigorous real quantity in this package is a :class:`Ball`: a float
midpoint plus a non-negative absolute error radius.  Operations round the
radius outward, so the exact result of an operation applied to any points
inside the input balls lies inside the output ball.

The outward rounding model: one IEEE double operation on the midpoint
contributes at most ``|result| * 2**-53``; we charge a full ``2**-52``
per operation, inflate the radius arithmetic by a multiplicative slop,
and add a sub-underflow floor.  Elementary functions (log, sin, sqrt,
hypot) are charged a few extra ulps on top of their Lipschitz
radius propagation; containment is exercised against exact rational and
high-precision oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 2.0 ** -52
# a single op does at most a handful of radius-arithmetic roundings, each
# contributing <= 2^-53 relative; 2^-46 covers that with a wide margin
_SLOP = 1.0 + 2.0 ** -46
_TINY = 1e-290


class BallDomainError(ValueError):
    """Input ball extends outside the function's domain."""


def _out(mid: float, rad: float) -> "Ball":
    if not (math.isfinite(mid) and math.isfinite(rad)):
        raise ArithmeticError("ball operation produced a non-finite value")
    return Ball(mid, (rad + abs(mid) * _EPS) * _SLOP + _TINY)


def _out_array(mid: np.ndarray, rad: np.ndarray) -> np.ndarray:
    """Entry by entry the radius `_out(mid, rad)` gives, as a float64 array:
    the same formula in the same operation order, so every entry is
    bit-identical to the scalar result."""
    if not (np.isfinite(mid).all() and np.isfinite(rad).all()):
        raise ArithmeticError("ball operation produced a non-finite value")
    return (rad + np.abs(mid) * _EPS) * _SLOP + _TINY


def _coerce(x) -> "Ball":
    if isinstance(x, Ball):
        return x
    if isinstance(x, (int, float)):
        return Ball(float(x), 0.0)
    return NotImplemented


@dataclass(frozen=True, slots=True)
class Ball:
    """A real number known to lie in [mid - rad, mid + rad]."""

    mid: float
    rad: float = 0.0

    def __post_init__(self):
        if not (self.rad >= 0.0):
            raise ValueError(f"radius must be non-negative, got {self.rad}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(x) -> "Ball":
        return Ball(float(x), 0.0)

    @staticmethod
    def from_interval(lo: float, hi: float) -> "Ball":
        if hi < lo:
            raise ValueError("empty interval")
        mid = 0.5 * (lo + hi)
        rad = max(hi - mid, mid - lo)
        return _out(mid, rad)

    # -- queries -----------------------------------------------------------

    def lower(self) -> float:
        """Conservative (rounded-down) lower endpoint."""
        v = self.mid - self.rad
        return v - abs(v) * _EPS - _TINY

    def upper(self) -> float:
        v = self.mid + self.rad
        return v + abs(v) * _EPS + _TINY

    def contains(self, x: float) -> bool:
        return abs(self.mid - x) <= (self.rad + abs(self.mid) * _EPS) * _SLOP + _TINY

    def overlaps(self, other: "Ball") -> bool:
        gap = abs(self.mid - other.mid)
        return gap <= (self.rad + other.rad) * _SLOP + abs(gap) * _EPS + _TINY

    def is_positive(self) -> bool:
        """Provably > 0."""
        return self.lower() > 0.0

    def is_negative(self) -> bool:
        return self.upper() < 0.0

    def widen(self, extra: float) -> "Ball":
        return _out(self.mid, self.rad + extra)

    def __repr__(self) -> str:
        return f"Ball({self.mid!r} +/- {self.rad:.3e})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _out(self.mid + o.mid, self.rad + o.rad)

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad)

    def __sub__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _out(self.mid - o.mid, self.rad + o.rad)

    def __rsub__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _out(o.mid - self.mid, self.rad + o.rad)

    def __mul__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        rad = abs(self.mid) * o.rad + abs(o.mid) * self.rad + self.rad * o.rad
        return _out(self.mid * o.mid, rad)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        den_lo = abs(o.mid) - o.rad
        if den_lo <= 0.0:
            raise ZeroDivisionError("division by a ball containing zero")
        mid = self.mid / o.mid
        rad = (self.rad + abs(mid) * o.rad) / den_lo
        return _out(mid, rad)

    def __rtruediv__(self, other) -> "Ball":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int) -> "Ball":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Ball(1.0, 0.0)
        for _ in range(n):
            out = out * self
        return out

    # -- elementary functions ----------------------------------------------

    def abs(self) -> "Ball":
        if self.rad <= abs(self.mid):
            return Ball(abs(self.mid), self.rad)
        hi = abs(self.mid) + self.rad
        return _out(0.5 * hi, 0.5 * hi)

    def sqrt(self) -> "Ball":
        lo = self.mid - self.rad
        if lo < 0.0:
            raise BallDomainError("sqrt of a ball extending below zero")
        slo = math.sqrt(lo)
        shi = math.sqrt(self.mid + self.rad)
        return _out(0.5 * (slo + shi), 0.5 * (shi - slo) + shi * _EPS)

    def log(self) -> "Ball":
        lo = self.mid - self.rad
        if lo <= 0.0:
            raise BallDomainError("log of a ball touching zero")
        mid = math.log(self.mid)
        # |log x - log m| <= rad / (m - rad); one extra ulp for libm
        return _out(mid, self.rad / lo + 2.0 * _EPS * (abs(mid) + 1.0))

    def exp(self) -> "Ball":
        elo = math.exp(self.mid - self.rad)
        ehi = math.exp(self.mid + self.rad)
        return _out(0.5 * (elo + ehi), 0.5 * (ehi - elo) + ehi * _EPS)

    def sin(self) -> "Ball":
        # glibc sin stays within ~2 ulp of the true result for all
        # double arguments; charge 4 ulp of unity plus Lipschitz-1 radius.
        s = math.sin(self.mid)
        return _out(s, self.rad + 4.0 * _EPS)


PI = Ball(math.pi, 2.0 ** -52)
TWO_PI = Ball(2.0 * math.pi, 2.0 ** -51)
LOG2 = Ball(math.log(2.0), 2.0 ** -53)


def ball_hypot(re: Ball, im: Ball) -> Ball:
    """|re + i*im| as a ball: hypot of midpoints, radii added outward."""
    h = math.hypot(re.mid, im.mid)
    return _out(h, re.rad + im.rad + 2.0 * _EPS * h)


@dataclass(frozen=True, slots=True)
class ComplexBall:
    re: Ball
    im: Ball

    @staticmethod
    def exact(re: float, im: float = 0.0) -> "ComplexBall":
        return ComplexBall(Ball.exact(re), Ball.exact(im))

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "ComplexBall":
        if isinstance(other, ComplexBall):
            return ComplexBall(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        b = _coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return ComplexBall(self.re * b, self.im * b)

    __rmul__ = __mul__

    def abs(self) -> Ball:
        return ball_hypot(self.re, self.im)

    def __repr__(self) -> str:
        return f"ComplexBall({self.re.mid!r} + {self.im.mid!r}j, rad<={max(self.re.rad, self.im.rad):.3e})"
