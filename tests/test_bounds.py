"""Constants C_even/C_odd, their limits, and the three-valued bound check."""

import math
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l1sweep import bounds
from l1sweep.ball import _TINY, Ball, _out
from l1sweep.batch import l_values
from l1sweep.bounds import (THEOREM_EVEN, THEOREM_ODD, c_even, c_even_limit,
                            c_odd, c_odd_limit, check_theorem, excess_margin,
                            theorem_constant)
from l1sweep.sweep import _load_resume, sweep

mp.mp.dps = 40

# published reference table; the entries are upward 6-decimal roundings
# (they are quoted as upper bounds "C <= ...")
TABLE = {
    10 ** 4: ("0.395781", "0.840076"),
    10 ** 5: ("0.375558", "0.838539"),
    10 ** 6: ("0.369162", "0.838382"),
    2 * 10 ** 6: ("0.368296", "0.838374"),
}


def _mp_c_even(q):
    return mp.log(3) / 3 + (mp.mpf(5) / 3 * mp.log(2) + mp.log(5)
                            + mp.mpf(4) / 3 * mp.log(mp.pi) - mp.mpf(4) / 3) / mp.sqrt(q)


def _mp_c_odd(q):
    return (mp.mpf(5) / 3 - mp.log(12) / 3
            + (mp.pi / 2 + mp.mpf(2) / 3 + 14 * mp.pi ** 2 / 9
               - 14 * mp.pi ** 3 / (9 * mp.sqrt(q))) / q)


def test_constants_contain_high_precision_values():
    for q in list(TABLE) + [3, 9, 249, 1009]:
        assert c_even(q).contains(float(_mp_c_even(q)))
        assert c_odd(q).contains(float(_mp_c_odd(q)))
        assert c_even(q).rad < 1e-13
        assert c_odd(q).rad < 1e-13
    for q in TABLE:
        assert c_even(q).rad < 1e-14
        assert c_odd(q).rad < 1e-14


def test_table_values_are_upward_roundings():
    # each published entry equals the 6-decimal ceiling of the constant,
    # equivalently: value - 1e-6 < C(q) <= value
    for q, (te, to) in TABLE.items():
        for fn, text in ((c_even, te), (c_odd, to)):
            published = float(text)
            ball = fn(q)
            assert ball.upper() <= published + 1e-12, (q, text)
            assert ball.lower() > published - 1e-6, (q, text)


def test_limits():
    assert c_even_limit().contains(float(mp.log(3) / 3))
    assert c_odd_limit().contains(float(mp.mpf(5) / 3 - mp.log(12) / 3))
    assert abs(c_even_limit().mid - 0.366205) < 1e-6
    assert abs(c_odd_limit().mid - 0.838365) < 1e-6
    # constants tend to their limits from above
    assert c_even(10 ** 9).mid > c_even_limit().mid
    assert c_odd(10 ** 9).mid > c_odd_limit().mid


def test_c_even_strictly_decreasing():
    qs = [3, 5, 9, 17, 50, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    vals = [c_even(q) for q in qs]
    for a, b in zip(vals, vals[1:]):
        assert a.lower() > b.upper()


def test_c_odd_decreasing_from_17_with_initial_hump():
    # the -14 pi^3/(9 sqrt q) term dominates up to q ~ 16.9, so c_odd
    # *increases* on [9, 16] before decreasing for q >= 17
    assert c_odd(16).mid > c_odd(9).mid
    qs = [17, 18, 20, 25, 50, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    vals = [c_odd(q) for q in qs]
    for a, b in zip(vals, vals[1:]):
        assert a.lower() > b.upper()


def test_constants_above_limits_for_large_q():
    for q in (10 ** 3, 10 ** 4, 10 ** 6, 10 ** 8):
        assert c_even(q).lower() > c_even_limit().upper()
        assert c_odd(q).lower() > c_odd_limit().upper()


def test_theorem_constants_are_decimal_literals():
    assert THEOREM_EVEN.contains(0.368296) and THEOREM_EVEN.rad < 1e-15
    assert THEOREM_ODD.contains(0.838374) and THEOREM_ODD.rad < 1e-15
    assert theorem_constant("even") is THEOREM_EVEN
    assert theorem_constant("odd") is THEOREM_ODD
    with pytest.raises(ValueError):
        theorem_constant("both")


def test_check_theorem_q3():
    rec = l_values(3)[0]
    rep = check_theorem(rec)
    assert rep.verdict == "pass" and rep.theorem_applies
    # margin = 0.838374 - (|L| - (1/3)log 3) computed from pi/(3 sqrt 3)
    want = 0.838374 - (math.pi / (3 * math.sqrt(3)) - math.log(3) / 3)
    assert abs(rep.margin.mid - want) < 1e-12
    assert abs(want - 0.5999783081446306) < 1e-15


def test_check_theorem_observed_maxima():
    rec249 = max((r for r in l_values(249) if r.parity == "even"),
                 key=lambda r: r.excess.mid)
    rep = check_theorem(rec249)
    assert rep.verdict == "pass"
    assert rec249.excess.upper() < 0.271789
    rec111 = max((r for r in l_values(111) if r.parity == "odd"),
                 key=lambda r: r.excess.mid)
    rep = check_theorem(rec111)
    assert rep.verdict == "pass"
    assert rec111.excess.upper() < 0.815651


def test_check_theorem_records_applicability():
    rec = l_values(5)[0]
    rep = check_theorem(rec)
    assert not rep.theorem_applies  # 3 does not divide 5
    assert rep.verdict == "pass"


def test_three_valued_verdicts():
    rec = l_values(3)[0]
    fat = rec._replace(excess_rad=5.0)
    assert check_theorem(fat).verdict == "indeterminate"
    big = rec._replace(excess_mid=10.0, excess_rad=1e-12)
    assert check_theorem(big).verdict == "fail"


def test_check_theorem_with_per_q_constants():
    # the sharper per-q constants also hold at the observed maxima for
    # large-ish conductors
    rec = max((r for r in l_values(996) if r.parity == "even"),
              key=lambda r: r.excess.mid)
    assert (c_even(996) - rec.excess).is_positive()


def _hex(b: Ball) -> tuple[str, str]:
    return b.mid.hex(), b.rad.hex()


def _ball_margin(excess_mid: float, excess_rad: float, parity: str) -> tuple[str, str, str]:
    """The margin C - excess as the Ball expression `excess_margin` stands
    for, with its verdict: the reference its floats are checked against.
    Ball(excess_mid, excess_rad) refuses a negative radius, so below 0,
    where C's radius cancels the excess's, it is the `_out` call the
    subtraction makes."""
    const = theorem_constant(parity)
    margin = (const - Ball(excess_mid, excess_rad) if excess_rad >= 0.0 else
              _out(const.mid - excess_mid, const.rad + excess_rad))
    verdict = ("pass" if margin.is_positive() else
               "fail" if margin.is_negative() else "indeterminate")
    return margin.mid.hex(), margin.rad.hex(), verdict


@st.composite
def _excesses(draw):
    """(excess_mid, excess_rad, parity): an excess equal to C, within one
    radius of C, or anywhere in [-20, 20]; radii 0, near _TINY, near the
    double floor of a record, up to 10, or down to minus C's radius, so
    that the margin's radius before rounding is 0 or near it."""
    parity = draw(st.sampled_from(("even", "odd")))
    const = theorem_constant(parity)
    rad = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3 * _TINY), st.floats(0.0, 1e-9),
                         st.floats(0.0, 10.0), st.just(-const.rad),
                         st.floats(-1.0, 0.0).map(lambda t: t * const.rad)))
    c = const.mid
    mid = draw(st.one_of(st.just(c),
                         st.floats(-1.0, 1.0).map(lambda t: c + t * rad),
                         st.floats(-20.0, 20.0)))
    return mid, rad, parity


@given(_excesses())
@settings(max_examples=2000)
@example((THEOREM_EVEN.mid, 0.0, "even"))             # margin 0: indeterminate
@example((THEOREM_ODD.mid, 10.0, "odd"))
@example((THEOREM_EVEN.mid, _TINY, "even"))
@example((THEOREM_ODD.mid - 2 * _TINY, _TINY, "odd"))
@example((THEOREM_EVEN.mid, -THEOREM_EVEN.rad, "even"))  # radius _TINY
@example((THEOREM_ODD.mid, -THEOREM_ODD.rad, "odd"))
@example((THEOREM_EVEN.mid + 3.0, 3.0, "even"))        # margin -3 +/- 3
@example((THEOREM_ODD.mid - 10.0, 10.0, "odd"))
@example((THEOREM_EVEN.mid - 1e-6, 1e-6, "even"))
@example((THEOREM_EVEN.mid - 0.5, 1e-12, "even"))     # pass
@example((THEOREM_ODD.mid + 0.5, 1e-12, "odd"))       # fail
def test_excess_margin_is_the_ball_expression(case):
    # the floats and verdict of excess_margin are, to the bit, those of
    # C - Ball(excess_mid, excess_rad) and its is_positive/is_negative
    mid, rad, verdict = excess_margin(*case)
    assert (mid.hex(), rad.hex(), verdict) == _ball_margin(*case)


@pytest.mark.parametrize("excess_mid, excess_rad, parity, error", [
    (0.1, 1e-12, "both", ValueError),
    (0.1, 1e-12, "", ValueError),
    (math.nan, 1e-12, "both", ValueError),
    (math.nan, 1e-12, "even", ArithmeticError),
    (math.inf, 1e-12, "odd", ArithmeticError),
    (-math.inf, 1e-12, "even", ArithmeticError),
    (0.1, math.nan, "odd", ArithmeticError),
    (0.1, math.inf, "even", ArithmeticError),
    (0.1, -math.inf, "odd", ArithmeticError),
    (0.1, -1.0, "even", ValueError),
    (0.1, -1.0, "odd", ValueError),
])
def test_excess_margin_error_contract(excess_mid, excess_rad, parity, error):
    # an unknown parity, a non-finite excess and a negative margin radius
    # raise, through the margin formula and through a record's report
    with pytest.raises(error):
        excess_margin(excess_mid, excess_rad, parity)
    rec = l_values(3)[0]._replace(excess_mid=excess_mid, excess_rad=excess_rad,
                                  parity=parity)
    with pytest.raises(error):
        check_theorem(rec)


def test_excess_margin_matches_check_theorem(tmp_path):
    # an lvalue report's margin is the sweep row's C - excess to the bit
    for q in (3, 9, 249, 996, 9999):
        for rec in l_values(q):
            mid, rad, verdict = excess_margin(rec.excess_mid, rec.excess_rad, rec.parity)
            rep = check_theorem(rec)
            assert (rep.margin_mid.hex(), rep.margin_rad.hex()) == (mid.hex(), rad.hex()), \
                (q, rec.index)
            assert _hex(rep.margin) == _hex(theorem_constant(rec.parity) - rec.excess)
            assert _hex(rep.constant) == _hex(theorem_constant(rec.parity))
            assert rep.verdict == verdict
    path = tmp_path / "rows.csv"
    sweep(3, 2000, threads=1, out_path=str(path))
    with open(path, "rb") as fh:
        rows = [r for _, r in _load_resume(fh)]
    assert len(rows) > 900
    for r in rows:
        mid, rad, verdict = excess_margin(r.excess_mid, r.excess_rad, r.parity)
        assert (r.margin_mid.hex(), r.margin_rad.hex()) == (mid.hex(), rad.hex()), \
            (r.q, r.parity)
        assert r.verdict == verdict


def test_excess_margin_called_once_per_row_and_per_record(monkeypatch, tmp_path):
    # the benchmark's bounds.excess_margin_ms is timed from these calls,
    # so a path that bypassed the function would read 0; the wrapper goes
    # into every l1sweep namespace that holds the function, as the
    # benchmark's tracer puts its own
    calls = []
    original = bounds.excess_margin

    def counted(*args):
        calls.append(args)
        return original(*args)
    for name, module in list(sys.modules.items()):
        if name == "l1sweep" or name.startswith("l1sweep."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    path = tmp_path / "rows.csv"
    sweep(3, 300, threads=1, out_path=str(path))
    n_rows = path.read_bytes().count(b"\n") - 1
    assert n_rows > 100 and len(calls) == n_rows
    calls.clear()
    recs = l_values(249)
    for rec in recs:
        check_theorem(rec)
    assert len(calls) == len(recs) == 81
