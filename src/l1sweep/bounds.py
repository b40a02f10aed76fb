"""Explicit constants for the |L(1,chi)| <= (1/3)log q + C bound, 3 | q.

The theorem fixes the constants 0.368296 (even chi) and 0.838374 (odd
chi); they are stored as exact decimal literals, not recomputed.  The
sharper per-conductor functions C_even(q), C_odd(q) and their limits are
provided alongside for the tabulated comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ball import Ball, PI, _out
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
    return Ball.exact(3).log() / 3


def c_odd_limit() -> Ball:
    return Ball.exact(5) / 3 - Ball.exact(12).log() / 3


class BoundReport(NamedTuple):
    """Outcome of comparing one L-value record against the theorem.

    `margin` and `verdict` come from `excess_margin`, the formula behind
    the sweep's row margins, so a report and a row agree to the bit."""

    q: int
    parity: str
    constant: Ball           # the theorem constant for this parity
    margin: Ball             # constant - (|L| - (1/3) log q)
    verdict: str             # "pass" | "fail" | "indeterminate"
    theorem_applies: bool    # 3 | q, so Theorem constants formally cover it


def _verdict(margin: Ball) -> str:
    if margin.is_positive():
        return "pass"
    if margin.is_negative():
        return "fail"
    return "indeterminate"


def excess_margin(excess_mid: float, excess_rad: float,
                  parity: str) -> tuple[Ball, str]:
    """Margin C - excess and its verdict, for the excess ball
    (excess_mid, excess_rad) of |L| - (1/3) log q and the theorem
    constant C of `parity`.

    The one margin formula: every sweep row and every `check_theorem`
    report gets its margin here.  The margin is the only Ball it builds,
    bit-identical to `theorem_constant(parity) - Ball(excess_mid,
    excess_rad)`.
    """
    const = theorem_constant(parity)
    margin = _out(const.mid - excess_mid, const.rad + excess_rad)
    return margin, _verdict(margin)


def check_theorem(rec: LValueRecord) -> BoundReport:
    """Three-valued comparison of |L(1,chi)| against (1/3)log q + C, with
    the theorem's constant C for the record's parity.

    The margin is `excess_margin` on the record's `excess_mid` and
    `excess_rad`, the sweep rows' formula, so it is the one Ball built
    per record.  The report records whether 3 | q, i.e. whether the
    theorem formally applies to this conductor.
    """
    margin, verdict = excess_margin(rec.excess_mid, rec.excess_rad, rec.parity)
    return BoundReport(rec.q, rec.parity, theorem_constant(rec.parity), margin,
                       verdict, rec.q % 3 == 0)
