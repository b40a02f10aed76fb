"""Explicit constants for the |L(1,chi)| <= (1/3)log q + C bound, 3 | q.

The theorem fixes the constants 0.368296 (even chi) and 0.838374 (odd
chi); they are stored as exact decimal literals, not recomputed.  The
sharper per-conductor functions C_even(q), C_odd(q) and their limits are
provided alongside for the tabulated comparisons.

`excess_margin` is the theorem check itself: the margin C - excess and
its three-valued verdict, computed on plain floats with the rounding of
the Ball operations it stands for.  A sweep row and a `check_theorem`
report both take their margin from it, and neither builds a Ball.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .ball import _EPS, _SLOP, _TINY, Ball, PI
from .batch import LValueRecord


def _decimal_ball(text: str) -> Ball:
    fr = Fraction(text)
    mid = float(fr)
    return Ball(mid, float(abs(fr - Fraction(mid))) * 1.001 + 1e-300)


THEOREM_EVEN = _decimal_ball("0.368296")
THEOREM_ODD = _decimal_ball("0.838374")


def theorem_constant(parity: str) -> Ball:
    """The theorem's additive constant for one parity."""
    if parity == "even":
        return THEOREM_EVEN
    if parity == "odd":
        return THEOREM_ODD
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def c_even(q: int) -> Ball:
    """(1/3)log 3 + (5/3 log 2 + log 5 + 4/3 log pi - 4/3) / sqrt(q)."""
    if q < 3:
        raise ValueError("c_even requires q >= 3")
    log2 = Ball.exact(2).log()
    log5 = Ball.exact(5).log()
    logpi = PI.log()
    inner = Ball.exact(5) / 3 * log2 + log5 + Ball.exact(4) / 3 * logpi - Ball.exact(4) / 3
    return Ball.exact(3).log() / 3 + inner / Ball.exact(q).sqrt()


def c_odd(q: int) -> Ball:
    """5/3 - (1/3)log 12 + (pi/2 + 2/3 + 14 pi^2/9 - 14 pi^3/(9 sqrt(q))) / q."""
    if q < 3:
        raise ValueError("c_odd requires q >= 3")
    base = Ball.exact(5) / 3 - Ball.exact(12).log() / 3
    inner = (PI / 2 + Ball.exact(2) / 3 + 14 * PI * PI / 9
             - 14 * PI ** 3 / (9 * Ball.exact(q).sqrt()))
    return base + inner / q


def c_even_limit() -> Ball:
    """lim C_even(q) as q -> infinity: (1/3)log 3."""
    return Ball.exact(3).log() / 3


def c_odd_limit() -> Ball:
    """lim C_odd(q) as q -> infinity: 5/3 - (1/3)log 12."""
    return Ball.exact(5) / 3 - Ball.exact(12).log() / 3


class BoundReport(NamedTuple):
    """Outcome of comparing one L-value record against the theorem.

    Every field is a plain int, str, float or bool, so a report is one
    tuple.  `margin_mid`, `margin_rad` and `verdict` come from
    `excess_margin`, the formula behind the sweep's row margins, so a
    report and a row agree to the bit.  The balls are built only when a
    property is read: `margin` is Ball(margin_mid, margin_rad) and
    `constant` is `theorem_constant(parity)` itself.
    """

    q: int
    parity: str
    margin_mid: float        # constant - (|L| - (1/3) log q), outward rounded
    margin_rad: float
    verdict: str             # "pass" | "fail" | "indeterminate"
    theorem_applies: bool    # 3 | q, so Theorem constants formally cover it

    @property
    def constant(self) -> Ball:
        return theorem_constant(self.parity)

    @property
    def margin(self) -> Ball:
        return Ball(self.margin_mid, self.margin_rad)


# BoundReport._make without its per-report Python call and length check:
# `check_theorem` passes exactly the six fields
_new_report = partial(tuple.__new__, BoundReport)

# parity -> (mid, rad) of its theorem constant, the floats `excess_margin` reads
_THEOREM = {"even": (THEOREM_EVEN.mid, THEOREM_EVEN.rad),
            "odd": (THEOREM_ODD.mid, THEOREM_ODD.rad)}


def excess_margin(excess_mid: float, excess_rad: float,
                  parity: str) -> tuple[float, float, str]:
    """(margin_mid, margin_rad, verdict) of the margin C - excess, for the
    excess ball (excess_mid, excess_rad) of |L| - (1/3) log q and the
    theorem constant C of `parity`.

    The one margin formula: every sweep row and every `check_theorem`
    report gets its margin here.  It builds no Ball: the floats are
    bit-identical to the midpoint and radius of `theorem_constant(parity)
    - Ball(excess_mid, excess_rad)`, by the operations of `_out` in their
    order, and the verdict is "pass" when that ball `is_positive`, "fail"
    when it `is_negative`, by those of `Ball.lower` and `Ball.upper`, and
    "indeterminate" otherwise.  Like that expression it raises ValueError
    on an unknown parity, ArithmeticError on a non-finite midpoint or
    radius, and ValueError on a negative radius.
    """
    try:
        c_mid, c_rad = _THEOREM[parity]
    except KeyError:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}") from None
    mid = c_mid - excess_mid
    rad = c_rad + excess_rad
    if not (math.isfinite(mid) and math.isfinite(rad)):
        raise ArithmeticError("ball operation produced a non-finite value")
    rad = (rad + abs(mid) * _EPS) * _SLOP + _TINY
    if not (rad >= 0.0):
        raise ValueError(f"radius must be non-negative, got {rad}")
    lo = mid - rad
    if lo - abs(lo) * _EPS - _TINY > 0.0:
        return mid, rad, "pass"
    hi = mid + rad
    if hi + abs(hi) * _EPS + _TINY < 0.0:
        return mid, rad, "fail"
    return mid, rad, "indeterminate"


def check_theorem(rec: LValueRecord) -> BoundReport:
    """Three-valued comparison of |L(1,chi)| against (1/3)log q + C, with
    the theorem's constant C for the record's parity.

    The margin and verdict are one `excess_margin` call on the record's
    `excess_mid` and `excess_rad`, the sweep rows' formula; no Ball is
    built.  The report records whether 3 | q, i.e. whether the theorem
    formally applies to this conductor.
    """
    q, parity = rec.q, rec.parity
    mid, rad, verdict = excess_margin(rec.excess_mid, rec.excess_rad, parity)
    return _new_report((q, parity, mid, rad, verdict, q % 3 == 0))
