"""Digamma, j, F3, F4 and the adaptive quadrature, against independent oracles.

Oracles used here: the Gauss digamma theorem for rational arguments,
mpmath at 40 digits for real arguments and reference quadratures, and
raw truncated sums for F3.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from l1sweep.arith import unit_group
from l1sweep.ball import Ball, BallDomainError
from l1sweep.special import (QuadratureError, ToleranceError, ball_sinc,
                             cot_pi_residual, digamma, digamma_points, f3, f4,
                             integrate, j_func, trigamma_points)

mp.mp.dps = 40

EULER_GAMMA = 0.5772156649015328606


def gauss_digamma(p: int, q: int) -> float:
    """psi(p/q) by the Gauss digamma theorem, in plain floats."""
    assert 0 < p < q
    val = -EULER_GAMMA - math.log(2 * q) - (math.pi / 2) / math.tan(math.pi * p / q)
    for n in range(1, (q - 1) // 2 + 1):
        val += 2 * math.cos(2 * math.pi * n * p / q) * math.log(math.sin(math.pi * n / q))
    return val


def test_digamma_known_points():
    # psi(1) = -gamma: z = 0 in the series psi(1+z) = -gamma + sum z/(n(n+z))
    assert digamma(1.0).contains(-EULER_GAMMA)
    # psi(1/2) = -gamma - 2 log 2
    assert digamma(0.5).contains(-EULER_GAMMA - 2 * math.log(2))
    assert abs(digamma(0.5).mid - (-1.9635100260214235)) < 1e-13
    # psi(1/4) = -gamma - 3 log 2 - pi/2, cross-checked by Gauss's theorem
    b = digamma(0.25)
    assert b.contains(-EULER_GAMMA - 3 * math.log(2) - math.pi / 2)
    assert abs(b.mid - gauss_digamma(1, 4)) < 1e-12
    assert abs(b.mid - (-4.2274535333762655)) < 1e-12


def test_digamma_vs_gauss_theorem_rationals():
    for q in (3, 4, 5, 7, 9, 12, 30):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            b = digamma(p / q, tol=1e-11)
            assert abs(b.mid - gauss_digamma(p, q)) < 5e-12, (p, q)


def test_digamma_recurrence_consistency():
    for k in range(1, 100):
        x = k / 10.0
        res = digamma(x + 1.0) - digamma(x) - 1 / Ball.exact(x)
        assert res.contains(0.0), x


def test_digamma_reflection():
    # psi(1-x) - psi(x) = pi cot(pi x)
    for x in (0.1, 0.23, 0.35, 0.42, 0.49):
        lhs = digamma(1.0 - x) - digamma(x)
        rhs = float(mp.pi / mp.tan(mp.pi * mp.mpf(x)))
        assert lhs.contains(rhs), x


def test_digamma_domain_and_tolerance_errors():
    with pytest.raises(BallDomainError):
        digamma(0.0)
    with pytest.raises(BallDomainError):
        digamma(-1.5)
    with pytest.raises(ToleranceError) as exc:
        digamma(0.37, tol=1e-30)
    assert exc.value.achieved > 1e-30  # achievable radius is reported


def test_digamma_radius_meets_default_tolerance():
    for x in (0.01, 0.1, 0.9, 5.0, 42.0):
        assert digamma(x).rad <= 1e-12
    # below ~1e-3 the magnitude of psi ~ 1/x pushes the attainable
    # absolute radius above 1e-12; the scaled request must still be met
    assert digamma(1e-6, tol=1e-8).rad <= 1e-8


def test_digamma_points_envelope_contains_scalar_ball():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(1e-6, 1.0, 400), rng.uniform(1.0, 80.0, 100)])
    mids, rads = digamma_points(xs)
    for x, m, r in zip(xs, mids, rads):
        sb = digamma(float(x), tol=1e-9)
        # vector ball must contain the scalar ball (which contains psi(x))
        assert abs(m - sb.mid) + sb.rad <= r, (x, m, r, sb)


def test_digamma_points_keeps_the_input_shape():
    # every shape gives, bit for bit, the evaluation of its flattened points
    rng = np.random.default_rng(11)
    inputs = [rng.uniform(1e-7, 1.0, n) for n in (0, 1, 5, 8191, 8192, 8193, 24593)]
    grid = rng.uniform(1e-7, 80.0, (3, 5000))
    inputs += [grid, grid.T, np.float64(0.25)]
    inputs += [unit_group(q).lattice / float(q) for q in (3, 4, 999, 98613, 999999)]
    for xs in inputs:
        got, flat = digamma_points(xs), digamma_points(np.ravel(xs))
        for a, b in zip(got, flat):
            assert np.shape(a) == np.shape(xs)
            assert np.array_equal(np.ravel(a).view(np.int64), b.view(np.int64))


def test_trigamma_points_vs_mpmath():
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(1e-4, 1.0, 300), rng.uniform(1.0, 1e4, 200)])
    mids, rads = trigamma_points(xs)
    for x, m, r in zip(xs, mids, rads):
        true = float(mp.polygamma(1, mp.mpf(float(x))))
        assert abs(m - true) <= r, (x, abs(m - true), r)


def test_cot_residual_containment():
    for u in (1e-9, 1e-4, 0.05, 0.2, 0.35, 0.49, 0.5):
        b = cot_pi_residual(u)
        true = float(mp.pi / mp.tan(mp.pi * mp.mpf(u)) - 1 / mp.mpf(u))
        assert b.contains(true), (u, b, true)
    assert cot_pi_residual(0.0).mid == 0.0
    with pytest.raises(BallDomainError):
        cot_pi_residual(0.7)


def test_ball_sinc():
    assert ball_sinc(Ball.exact(0.0)).contains(1.0)
    for x in (1e-8, 0.01, 0.4, 0.5, 2.0, 3.1, 10.0):
        b = ball_sinc(Ball.exact(x))
        true = float(mp.sin(mp.mpf(x)) / mp.mpf(x))
        assert b.contains(true), x
        assert b.rad < 1e-13


# -- F3 / F4 -------------------------------------------------------------------

def _f3_raw(t: float, M: int) -> float:
    """Plain-float truncated definition of F3, the brute-force oracle."""
    s = 2.0 / t
    for m in range(1, M + 1):
        s += 1.0 / (t - m) ** 2 - 1.0 / (t + m) ** 2
    return (math.sin(math.pi * t) / math.pi) ** 2 * s


def test_f3_at_integers_is_one():
    for n in (1, 2, 3, 7, 100):
        b = f3(float(n))
        assert b.mid == 1.0 and b.rad == 0.0


def test_f3_value_at_half():
    # telescoping gives sum sgn(m)/(1/2-m)^2 = 4, so F3(1/2) = 8/pi^2
    b = f3(0.5, terms=200_000)
    assert b.contains(8.0 / math.pi ** 2)
    assert abs(b.mid - 8.0 / math.pi ** 2) < 1e-5
    # direct truncation oracle at the same cutoff
    assert abs(b.mid - _f3_raw(0.5, 200_000)) < 1e-9


def test_f3_matches_raw_truncation():
    for t in (0.1, 0.77, 1.5, 2.9, 12.3):
        b = f3(t, terms=50_000)
        assert abs(b.mid - _f3_raw(t, 50_000)) <= b.rad + 1e-9, t


def test_one_minus_f3_nonnegative_dense():
    for k in range(1, 30):
        t = k / 10.0
        b = f3(t, terms=100_000)
        assert b.mid <= 1.0 + b.rad, t
        assert 1.0 - b.mid >= -b.rad, t


def test_f3_rejects_nonpositive():
    with pytest.raises(BallDomainError):
        f3(0.0)
    with pytest.raises(BallDomainError):
        f3(-2.5)


def test_f4_values():
    assert f4(0.0).mid == 0.0 and f4(0.0).rad == 0.0
    assert f4(1.0).contains(1.0) and f4(1.0).rad < 1e-14
    assert f4(0.5).contains(1.0 - 4.0 / math.pi ** 2)
    for t in (0.3, 1.7, 4.2):
        true = float(1 - (mp.sin(mp.pi * t) / (mp.pi * t)) ** 2)
        assert f4(t).contains(true), t


# -- quadrature ------------------------------------------------------------------

def test_integrate_exact_polynomials():
    one = integrate(lambda x: Ball.exact(1.0), 0.0, 1.0, 1e-12)
    assert one.contains(1.0) and one.rad < 1e-12
    tw = integrate(lambda x: (1 - Ball.exact(x)) * Ball.exact(x) ** 2, 0.0, 1.0, 1e-12)
    assert tw.contains(1.0 / 12.0) and tw.rad < 1e-12


def test_integrate_vs_mpmath():
    cases = [
        (lambda x: Ball.exact(x).exp(), 0.0, 2.0, float(mp.exp(2) - 1)),
        (lambda x: (1 + Ball.exact(x)).log(), 0.0, 1.0, float(2 * mp.log(2) - 1)),
        (lambda x: Ball.exact(x).sin(), 0.0, 3.0, float(1 - mp.cos(3))),
    ]
    for f, a, b, true in cases:
        res = integrate(f, a, b, 1e-10)
        assert res.contains(true)
        assert res.rad <= 1e-10 * 1.01


def test_integrate_doubled_depth_consistency():
    f = lambda x: (Ball.exact(x) * 7).sin() * Ball.exact(x).exp()
    coarse = integrate(f, 0.0, 2.0, 1e-6)
    fine = integrate(f, 0.0, 2.0, 1e-12)
    assert abs(coarse.mid - fine.mid) <= coarse.rad + fine.rad
    assert fine.rad < coarse.rad


def test_integrate_depth_exhaustion_reports_achieved():
    f = lambda x: Ball.exact(abs(x - 0.123456) ** 0.1)
    with pytest.raises(QuadratureError) as exc:
        integrate(f, 0.0, 1.0, 1e-14, max_depth=4)
    assert exc.value.achieved.rad > 1e-14


def test_integrate_empty_and_bad_range():
    assert integrate(lambda x: Ball.exact(1.0), 2.0, 2.0).mid == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: Ball.exact(1.0), 1.0, 0.0)


# -- j ---------------------------------------------------------------------------

def _j_oracle(t: float) -> float:
    """Adaptive mpmath quadrature of the raw defining integrand."""
    val = mp.quad(lambda u: mp.pi * (1 - u) / mp.tan(mp.pi * u) + 1, [t, 1])
    return float(2 * val)


def test_j_endpoint_zero():
    b = j_func(1.0)
    assert b.mid == 0.0 and b.rad == 0.0


def test_j_values_against_oracle():
    # frozen oracle values (mpmath quad of the raw integrand, 40 digits)
    frozen = {
        0.01: 7.5349130434627579,
        0.1: 2.9602216875270559,
        0.3: 0.97611806658654417,
        0.5: 0.30685281944005469,
        0.9: 0.0022019625921508747,
    }
    for t, want in frozen.items():
        b = j_func(t)
        assert abs(b.mid - want) <= b.rad + 1e-12, t
        assert abs(b.mid - _j_oracle(t)) <= b.rad + 1e-12, t


def test_j_sandwich_at_half():
    b = j_func(0.5)
    lower = -2 * math.log(0.5) - 2 * (math.log(2 * math.pi) - 1)  # -0.289460
    upper = -2 * math.log(0.5)                                    # 1.386294
    assert lower < b.mid < upper
    assert abs(lower - (-0.2894597716988001)) < 1e-15
    assert abs(upper - 1.3862943611198906) < 1e-15


def test_j_monotone_nonincreasing():
    ts = [k / 50 for k in range(1, 50)]
    vals = [j_func(t) for t in ts]
    for a, b in zip(vals, vals[1:]):
        assert a.mid + a.rad >= b.mid - b.rad


def test_j_rejects_out_of_domain():
    for t in (0.0, -0.2, 1.5):
        with pytest.raises(BallDomainError):
            j_func(t)
