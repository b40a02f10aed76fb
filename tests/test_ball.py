"""Containment tests for the ball arithmetic core.

Field operations are checked against exact rational arithmetic; the
elementary functions against mpmath at 40 digits.  The exact value must
always lie inside the output ball.
"""

import math
import zlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sweep.ball import (Ball, BallDomainError, ComplexBall, PI, _out, _out_array,
                          ball_hypot)

mp.mp.dps = 40

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
small_rad = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _sample_inside(rng, b: Ball) -> Fraction:
    t = rng.uniform(-1.0, 1.0)
    return Fraction(b.mid) + Fraction(t) * Fraction(b.rad)


def test_field_ops_contain_exact_rational_results():
    rng = np.random.default_rng(42)
    ops = 0
    while ops < 100_000:
        scale = 10.0 ** rng.uniform(-12, 12)
        a = Ball(rng.uniform(-1, 1) * scale, abs(rng.uniform(0, 1e-6)) * scale)
        b = Ball(rng.uniform(-1, 1) * scale, abs(rng.uniform(0, 1e-6)) * scale)
        xa, xb = _sample_inside(rng, a), _sample_inside(rng, b)
        for res, exact in ((a + b, xa + xb), (a - b, xa - xb), (a * b, xa * xb)):
            lo = Fraction(res.mid) - Fraction(res.rad)
            hi = Fraction(res.mid) + Fraction(res.rad)
            assert lo <= exact <= hi
            ops += 1
        if abs(b.mid) > b.rad + 1e-30:
            res, exact = a / b, xa / xb
            lo = Fraction(res.mid) - Fraction(res.rad)
            hi = Fraction(res.mid) + Fraction(res.rad)
            assert lo <= exact <= hi
            ops += 1


@given(finite, small_rad, finite, small_rad)
@settings(max_examples=300)
def test_addition_containment_hypothesis(m1, r1, m2, r2):
    a, b = Ball(m1, r1), Ball(m2, r2)
    res = a + b
    exact = Fraction(m1) + Fraction(m2)
    assert Fraction(res.mid) - Fraction(res.rad) <= exact + Fraction(r1) + Fraction(r2)
    assert Fraction(res.mid) + Fraction(res.rad) >= exact - Fraction(r1) - Fraction(r2)
    # endpoints of the exact interval stay inside
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            pt = exact + s1 * Fraction(r1) + s2 * Fraction(r2)
            assert Fraction(res.mid) - Fraction(res.rad) <= pt <= Fraction(res.mid) + Fraction(res.rad)


@pytest.mark.parametrize("fn,mpfn,domain", [
    ("sqrt", mp.sqrt, (0.0, 1e10)),
    ("log", mp.log, (1e-12, 1e10)),
    ("exp", mp.exp, (-50.0, 50.0)),
    ("sin", mp.sin, (-30.0, 30.0)),
])
def test_elementary_functions_contain_true_value(fn, mpfn, domain):
    rng = np.random.default_rng(zlib.crc32(fn.encode()))
    for _ in range(2000):
        x = rng.uniform(*domain)
        if fn == "log" and x <= 0:
            continue
        b = getattr(Ball.exact(x), fn)()
        true = float(mpfn(mp.mpf(x)))
        assert b.contains(true), (fn, x, b, true)


def test_sqrt_log_domain_errors():
    with pytest.raises(BallDomainError):
        Ball(1.0, 2.0).sqrt()
    with pytest.raises(BallDomainError):
        Ball(0.5, 0.5).log()
    with pytest.raises(ZeroDivisionError):
        Ball.exact(1.0) / Ball(0.1, 0.2)


def test_radius_propagation_through_log():
    b = Ball(2.0, 1e-6).log()
    # worst case |log(2 +/- 1e-6) - log 2| ~ 5e-7
    assert b.contains(math.log(2.0 + 1e-6))
    assert b.contains(math.log(2.0 - 1e-6))
    assert b.rad < 1e-6


def test_abs_and_interval():
    assert Ball(-3.0, 0.5).abs().contains(3.2)
    b = Ball(0.1, 0.5).abs()
    assert b.contains(0.0) and b.contains(0.6) and b.lower() >= -1e-12
    iv = Ball.from_interval(1.0, 2.0)
    assert iv.contains(1.0) and iv.contains(2.0)


def test_pi_ball_contains_pi():
    assert PI.contains(float(mp.pi)) and PI.rad < 1e-15
    hi = float(mp.mpf(math.pi) - mp.pi)
    assert abs(hi) <= PI.rad


def test_complex_ball_abs_is_outward():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        re = Ball(rng.uniform(-5, 5), rng.uniform(0, 1e-3))
        im = Ball(rng.uniform(-5, 5), rng.uniform(0, 1e-3))
        h = ball_hypot(re, im)
        # worst corner of the box lies inside
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                corner = math.hypot(re.mid + s1 * re.rad, im.mid + s2 * im.rad)
                assert h.contains(corner) or h.rad >= abs(corner - h.mid)


def test_complex_multiplication_containment():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = ComplexBall(Ball(rng.uniform(-2, 2), 1e-9), Ball(rng.uniform(-2, 2), 1e-9))
        b = ComplexBall(Ball(rng.uniform(-2, 2), 1e-9), Ball(rng.uniform(-2, 2), 1e-9))
        z = a * b
        exact = complex(a.re.mid, a.im.mid) * complex(b.re.mid, b.im.mid)
        assert z.re.contains(exact.real)
        assert z.im.contains(exact.imag)


def test_positivity_predicates():
    assert Ball(1.0, 0.5).is_positive()
    assert not Ball(1.0, 1.5).is_positive()
    assert Ball(-1.0, 0.5).is_negative()
    assert not Ball(0.0, 0.1).is_positive()


def test_out_array_matches_scalar_out():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1074 * 3, 2.2250738585072014e-308 / 3,
               1e-290, 1e300, -1e300, 1.0, -1.0]
    randoms = (rng.uniform(-1, 1, 2000) * 10.0 ** rng.uniform(-300, 300, 2000)).tolist()
    mids = special * len(special) + randoms
    rads = [abs(r) for r in special for _ in special] + np.abs(
        rng.uniform(0, 1, 2000) * 10.0 ** rng.uniform(-300, 300, 2000)).tolist()
    got = _out_array(np.array(mids), np.array(rads))
    assert got.dtype == np.float64
    for m, r, g in zip(mids, rads, got.tolist()):
        assert g.hex() == _out(m, r).rad.hex(), (m, r)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_out_array_rejects_non_finite(bad):
    ok = np.array([1.0, 2.0, 3.0])
    for mid, rad in ((np.array([1.0, bad, 3.0]), ok), (ok, np.array([1.0, bad, 3.0]))):
        with pytest.raises(ArithmeticError):
            _out_array(mid, rad)
        with pytest.raises(ArithmeticError):
            _out(float(mid[1]), float(rad[1]))
