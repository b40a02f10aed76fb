"""Lemma validation suite: identities to tolerance, inequalities with margin."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from l1sweep.ball import Ball
from l1sweep.lemmas import (check_even_inner_sum, check_f3_identity,
                            check_f4_identity, check_inner_sum_bound,
                            check_j_integral, check_j_sandwich, check_lemma26,
                            check_lemma32, inner_sum_bound_margins,
                            one_minus_f3_points)
from l1sweep.special import f3, integrate, j_func

mp.mp.dps = 30


def test_j_integral_residual_small():
    res = check_j_integral()
    assert res.contains(0.0)
    assert abs(res.mid) + res.rad <= 1e-8


def test_j_integral_coarse_tolerance_still_contains_zero():
    res = check_j_integral(tol=1e-5)
    assert res.contains(0.0)


def test_j_partial_integral_strictly_below_one():
    # integral over [0.5, 1] only: j >= 0 on (0,1], so the result must fall
    # strictly short of 1
    part = integrate(lambda t: j_func(t, 1e-9), 0.5, 1.0, 1e-8)
    assert part.upper() < 1.0
    assert part.lower() > 0.0


def test_j_sandwich_default_grid():
    pts = check_j_sandwich()
    assert len(pts) == 99
    for t, lo, hi in pts:
        assert lo.is_positive(), (t, lo)
        assert hi.is_positive(), (t, hi)


def test_j_sandwich_tight_values():
    # margins at t = 0.5 against the frozen quadrature value of j(0.5)
    [(t, lo, hi)] = check_j_sandwich([0.5])
    assert abs((hi.mid + lo.mid) - (2 * (math.log(2 * math.pi) - 1))) < 1e-9
    j_half = 0.30685281944005469
    assert abs(hi.mid - (1.3862943611198906 - j_half)) < 1e-9


def test_j_sandwich_endpoint_equality():
    # at t = 1 both j and the upper bound vanish
    assert j_func(1.0).mid == 0.0
    assert -2 * math.log(1.0) == 0.0


def test_f3_identity_values():
    # delta = 1: both sides vanish (F3 = 1 at the integers)
    r = check_f3_identity(1.0)
    assert r.contains(0.0) and abs(r.mid) + r.rad < 1e-9
    # delta = 1/2: RHS = log 2 - 1/2
    r = check_f3_identity(0.5)
    assert r.contains(0.0) and abs(r.mid) + r.rad < 1e-8
    assert abs((-math.log(0.5) - 1 + 0.5) - 0.19314718055994531) < 1e-15
    # delta = 0.1: RHS = log 10 - 0.9
    r = check_f3_identity(0.1)
    assert r.contains(0.0)
    assert abs((-math.log(0.1) - 1 + 0.1) - 1.4025850929940457) < 1e-15


def test_f3_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        check_f3_identity(0.0)
    with pytest.raises(ValueError):
        check_f3_identity(0.5, n_terms=10)


def test_one_minus_f3_envelope_vs_direct_op():
    # the trigamma-based fast path must agree with the direct truncated
    # sum of the definition within combined radii
    ts = np.array([0.13, 0.5, 0.9, 1.5, 2.25, 7.8, 33.3])
    mids, rads = one_minus_f3_points(ts)
    for t, m, r in zip(ts, mids, rads):
        direct = 1 - f3(float(t), terms=400_000)
        assert abs(m - direct.mid) <= r + direct.rad, t


def test_one_minus_f3_closed_form_vs_mpmath():
    for t in (0.2, 0.5, 1.3, 4.7):
        got, rad = one_minus_f3_points(np.array([t]))
        true = float((mp.sin(mp.pi * t) / mp.pi) ** 2
                     * (2 * mp.polygamma(1, mp.mpf(t)) - 2 / mp.mpf(t) - 1 / mp.mpf(t) ** 2))
        assert abs(got[0] - true) <= rad[0], t


def test_f4_identity_values():
    for delta in (0.5, 0.25, 0.1):
        r = check_f4_identity(delta)
        assert r.contains(0.0), delta
        assert abs(r.mid) + r.rad < 1e-6, delta


def test_lemma26_margins():
    for delta in (0.5, 0.25, 0.05):
        m = check_lemma26(delta)
        assert m.is_positive(), delta
    # the integral term alone at delta = 1/2 stays below pi^3/48
    m = check_lemma26(0.5)
    bound = math.pi ** 3 / 48
    assert abs(bound - 0.6459640975062462) < 1e-12
    assert m.mid < bound  # margin is bound minus a positive integral


def test_lemma32_margins_and_quadratic_scaling():
    m5 = check_lemma32(0.5)
    assert m5.is_positive()
    m1 = check_lemma32(0.1)
    m2 = check_lemma32(0.05)
    assert m1.is_positive() and m2.is_positive()
    # LHS = O(delta^2): the ratio LHS/delta^2 is stable between the points
    bound = lambda d: math.pi ** 3 * d * d / 36 + math.pi ** 2 * d * d / 27
    lhs1 = (bound(0.1) - m1.mid) / 0.1 ** 2
    lhs2 = (bound(0.05) - m2.mid) / 0.05 ** 2
    assert abs(lhs1 - lhs2) < 0.02
    # near zero the LHS itself is within tolerance of 0
    m = check_lemma32(1e-3)
    assert abs(bound(1e-3) - m.mid) < 1e-5


def test_inner_sum_bound_worked_example():
    # dq = 6: exact sum 46/36, bound 4/3 - 7/18 + 7/9, margin 4/9
    margin = check_inner_sum_bound(6)
    assert margin == Fraction(4, 9)
    brute = sum(Fraction(m, 6) ** 2 - 2 * Fraction(m, 6) + 1
                for m in (1, 2, 4, 5))
    assert brute == Fraction(46, 36)
    bound = Fraction(2 * 6, 9) - Fraction(14, 36) + Fraction(14, 18)
    assert bound - brute == margin


def test_inner_sum_bound_small_and_large():
    assert check_inner_sum_bound(5) >= 0
    assert check_inner_sum_bound(100) >= 0
    with pytest.raises(ValueError):
        check_inner_sum_bound(4)


def test_inner_sum_closed_form_matches_brute_force():
    for x in list(range(5, 200)) + [999, 5000]:
        brute = sum((x - m) ** 2 for m in range(1, x + 1) if m % 3 != 0)
        margin = check_inner_sum_bound(x)
        assert margin == Fraction(2 * x ** 3 + 42 * x - 126 - 9 * brute, 9 * x ** 2)


def test_inner_sum_bound_exhaustive():
    nums = inner_sum_bound_margins(5, 10 ** 4)
    assert int(nums.min()) > 0


def test_even_inner_sum_samples():
    for x in (5, 6, 10, 25, 50):
        m = check_even_inner_sum(x)
        assert m.is_positive(), x


def test_grid_refinement_does_not_flip_verdicts():
    # every check on a grid and its 2x refinement; shorter series suffice
    # for the identities at these deltas
    for n in (20, 40):
        for k in range(1, n):
            d = k / (2 * n)  # delta in (0, 1/2)
            assert check_lemma26(d, tol=1e-8).is_positive()
            assert check_lemma32(d, tol=1e-8).is_positive()
            r4 = check_f4_identity(d, n_terms=10 ** 5)
            assert r4.contains(0.0) and abs(r4.mid) + r4.rad < 1e-6
        for k in range(1, n):
            t = k / n
            r3 = check_f3_identity(t, n_terms=10 ** 5)
            assert r3.contains(0.0) and abs(r3.mid) + r3.rad < 1e-6
            if t < 1.0:
                [(_, lo, hi)] = check_j_sandwich([t])
                assert lo.is_positive() and hi.is_positive()


def test_run_all_passes(lemma_results):
    results = lemma_results
    assert all(r.verdict == "pass" for r in results), [r.line() for r in results]
    names = {r.name for r in results}
    assert {"j-integral", "j-sandwich", "f3-identity", "f4-identity",
            "lemma26-bound", "lemma32-bound", "inner-sum-bound",
            "even-j-sum-bound"} <= names
