"""Explicit constants for the |L(1,chi)| <= (1/3)log q + C bound, 3 | q.

The theorem fixes the constants 0.368296 (even chi) and 0.838374 (odd
chi); they are stored as exact decimal literals, not recomputed.  The
sharper per-conductor functions C_even(q), C_odd(q) and their limits are
provided alongside for the tabulated comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .ball import Ball, PI, _out
from .batch import LValueRecord


def _decimal_ball(text: str) -> Ball:
    fr = Fraction(text)
    mid = float(fr)
    return Ball(mid, float(abs(fr - Fraction(mid))) * 1.001 + 1e-300)


THEOREM_EVEN = _decimal_ball("0.368296")
THEOREM_ODD = _decimal_ball("0.838374")


def theorem_constant(parity: str,
                     constants: tuple[Ball, Ball] | None = None) -> Ball:
    """The additive constant for one parity, taken from the (even, odd)
    pair `constants`, by default the theorem's fixed literals."""
    even_c, odd_c = constants if constants is not None else (THEOREM_EVEN, THEOREM_ODD)
    if parity == "even":
        return even_c
    if parity == "odd":
        return odd_c
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
    """Outcome of comparing one L-value record against a bound constant."""

    q: int
    parity: str
    constant: Ball           # the additive constant used
    bound: Ball              # (1/3) log q + constant
    margin: Ball             # bound - |L|
    verdict: str             # "pass" | "fail" | "indeterminate"
    theorem_applies: bool    # 3 | q, so Theorem constants formally cover it


def _verdict(margin: Ball) -> str:
    if margin.is_positive():
        return "pass"
    if margin.is_negative():
        return "fail"
    return "indeterminate"


@lru_cache(maxsize=64)
def _bound(q: int, const: Ball) -> Ball:
    """(1/3) log q + const, computed once per (conductor, constant)."""
    return Ball.exact(q).log() / 3 + const


def check_theorem(rec: LValueRecord,
                  constants: tuple[Ball, Ball] | None = None) -> BoundReport:
    """Three-valued comparison of |L(1,chi)| against (1/3)log q + C.

    `constants` selects the (even, odd) pair; default is the theorem's
    fixed literals.  Pass (c_even(q), c_odd(q)) for the sharper per-q
    comparison.  The report records whether 3 | q, i.e. whether the
    theorem formally applies to this conductor.

    The bound is cached per (q, constant), so the records of one
    conductor share one bound ball.  The margin is the one Ball built
    per record: it is computed from the record's `abs_mid` and `abs_rad`
    floats by the operation sequence of `bound - rec.abs_value`, so every
    float of the report is bit-identical to computing
    `Ball.exact(q).log() / 3 + const - rec.abs_value` afresh for each
    record.
    """
    const = theorem_constant(rec.parity, constants)
    bound = _bound(rec.q, const)
    margin = _out(bound.mid - rec.abs_mid, bound.rad + rec.abs_rad)
    return BoundReport(rec.q, rec.parity, const, bound, margin,
                       _verdict(margin), rec.q % 3 == 0)


def excess_margin(excess: Ball, parity: str) -> tuple[Ball, str]:
    """Margin and verdict against the theorem constant directly from an
    excess ball (|L| - log(q)/3)."""
    margin = theorem_constant(parity) - excess
    return margin, _verdict(margin)
