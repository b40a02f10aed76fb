"""Character algebra: enumeration, values, conductors, Gauss sums, counts."""

import math
from functools import reduce

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sweep.arith import dlog, unit_group, units
from l1sweep.ball import ComplexBall
from l1sweep.characters import (character_from_exps, chi_value, conjugate_index,
                                count_primitive, enumerate_characters, gauss_sum,
                                parity_mask, primitive_mask, roots_of_unity)

mp.mp.dps = 40


def test_roots_of_unity_tables_contain_true_roots():
    for m in (1, 2, 3, 4, 5, 7, 8, 12, 60, 97, 256, 360, 1009):
        c, s = roots_of_unity(m)
        ks = range(m) if m <= 64 else np.random.default_rng(m).integers(0, m, 64)
        for k in ks:
            k = int(k)
            assert abs(float(c[k]) - float(mp.cos(2 * mp.pi * k / m))) <= 2.0 ** -51
            assert abs(float(s[k]) - float(mp.sin(2 * mp.pi * k / m))) <= 2.0 ** -51


def test_enumeration_counts():
    # (q, phi(q), primitive count): primitive counts by brute-force induction
    for q, n, nprim in ((3, 2, 1), (9, 6, 4), (4, 2, 1)):
        chars = enumerate_characters(unit_group(q))
        assert len(chars) == n
        assert sum(c.primitive for c in chars) == nprim
        assert chars[0].exps == tuple([0] * len(chars[0].exps))
        assert chars[0].conductor == 1 and not chars[0].primitive


def test_enumeration_is_lexicographic_and_complete():
    g = unit_group(35)
    chars = enumerate_characters(g)
    seen = [c.exps for c in chars]
    assert seen == sorted(seen)
    assert len(set(seen)) == g.phi


@pytest.mark.parametrize("q", [3, 8, 35, 96, 240, 4095, 65520])
def test_conjugate_index_negates_every_exponent(q):
    g = unit_group(q)
    exps = np.unravel_index(np.arange(g.phi), g.orders)
    neg = np.ravel_multi_index([(-k) % o for k, o in zip(exps, g.orders)], g.orders)
    assert [conjugate_index(g, i) for i in range(g.phi)] == neg.tolist()


def test_chi_value_examples():
    g9 = unit_group(9)
    principal = enumerate_characters(g9)[0]
    v = chi_value(principal, 2)
    assert v.re.contains(1.0) and v.im.contains(0.0)

    quad3 = enumerate_characters(unit_group(3))[1]
    v = chi_value(quad3, 2)
    assert v.re.contains(-1.0) and v.im.contains(0.0)

    # 2 is a quadratic non-residue mod 5 (squares are {1,4})
    g5 = unit_group(5)
    quad5 = [c for c in enumerate_characters(g5) if c.exps == (2,)][0]
    v = chi_value(quad5, 2)
    assert v.re.contains(-1.0) and v.im.contains(0.0)


def test_chi_value_zero_on_non_units():
    g = unit_group(12)
    chi = enumerate_characters(g)[1]
    for n in (0, 2, 3, 4, 6, 9):
        v = chi_value(chi, n)
        assert v.re.mid == 0.0 and v.im.mid == 0.0 and v.re.rad == 0.0


def test_conductor_examples():
    g12 = unit_group(12)
    assert enumerate_characters(g12)[0].conductor == 1

    # the mod-9 character induced by the quadratic mod-3 character has
    # exponent 3 on the order-6 generator (values +/-1, nontrivial on 2)
    g9 = unit_group(9)
    ch = character_from_exps(g9, (3,))
    assert ch.conductor == 3 and not ch.primitive

    g5 = unit_group(5)
    quad5 = character_from_exps(g5, (2,))
    assert quad5.conductor == 5 and quad5.primitive


def test_conductor_brute_force_cross_check():
    # conductor = smallest f | q such that chi(n) = chi(m) whenever
    # n = m (mod f) with both units; compare against the kernel method
    for q in (12, 16, 21, 24, 36, 40, 45):
        g = unit_group(q)
        for chi in enumerate_characters(g):
            best = None
            for f in sorted(d for d in range(1, q + 1) if q % d == 0):
                vals = {}
                ok = True
                for n in units(q):
                    n = int(n)
                    key = n % f
                    pn = chi.phase_num(n)
                    if key in vals and vals[key] != pn:
                        ok = False
                        break
                    vals[key] = pn
                if ok:
                    best = f
                    break
            assert chi.conductor == best, (q, chi.exps)


def test_parity_flag_equals_sign_at_minus_one():
    for q in range(3, 61):
        for chi in enumerate_characters(unit_group(q)):
            v = chi_value(chi, q - 1)
            expected = 1.0 if chi.parity == "even" else -1.0
            assert v.re.contains(expected)
            assert v.im.contains(0.0)


@given(st.integers(min_value=3, max_value=100), st.data())
@settings(max_examples=200, deadline=None)
def test_multiplicativity(q, data):
    g = unit_group(q)
    us = [int(u) for u in units(q)]
    chars = enumerate_characters(g)
    chi = chars[data.draw(st.integers(0, len(chars) - 1))]
    m = data.draw(st.sampled_from(us))
    n = data.draw(st.sampled_from(us))
    lhs = chi_value(chi, (m * n) % q)
    rhs = chi_value(chi, m) * chi_value(chi, n)
    assert abs(lhs.re.mid - rhs.re.mid) <= lhs.re.rad + rhs.re.rad
    assert abs(lhs.im.mid - rhs.im.mid) <= lhs.im.rad + rhs.im.rad


def test_orthogonality_sum_over_units_vanishes():
    for q in range(3, 101):
        for chi in enumerate_characters(unit_group(q)):
            if chi.conductor == 1:
                continue
            acc = ComplexBall.exact(0.0)
            for n in units(q):
                acc = acc + chi_value(chi, int(n))
            assert acc.re.contains(0.0), (q, chi.exps)
            assert acc.im.contains(0.0), (q, chi.exps)


def test_gauss_sum_examples():
    quad3 = enumerate_characters(unit_group(3))[1]
    t3 = gauss_sum(quad3)
    assert t3.re.contains(0.0)
    assert t3.im.contains(math.sqrt(3.0))

    quad4 = enumerate_characters(unit_group(4))[1]
    t4 = gauss_sum(quad4)
    assert t4.re.contains(0.0) and t4.im.contains(2.0)

    quad5 = character_from_exps(unit_group(5), (2,))
    t5 = gauss_sum(quad5)
    assert t5.re.contains(math.sqrt(5.0)) and t5.im.contains(0.0)


def test_gauss_sum_rejects_imprimitive():
    principal = enumerate_characters(unit_group(5))[0]
    with pytest.raises(ValueError):
        gauss_sum(principal)


def test_gauss_sum_modulus_direct_to_60():
    for q in range(3, 61):
        for chi in enumerate_characters(unit_group(q)):
            if not chi.primitive:
                continue
            mod = gauss_sum(chi).abs()
            assert mod.contains(math.sqrt(q)), (q, chi.exps, mod)


def test_masks_match_enumeration():
    # beyond 3..100: a part 2^3 beside a part 3^3 (216), a part 5^3 (375)
    # and a part 2^7, whose <5> axis has length 32 (384)
    for q in list(range(3, 101)) + [216, 375, 384]:
        g = unit_group(q)
        chars = enumerate_characters(g)
        pm = parity_mask(g)
        prm = primitive_mask(g)
        for i, ch in enumerate(chars):
            assert pm[i] == (ch.parity == "odd")
            assert prm[i] == ch.primitive


def test_masks_match_dlog_parity_and_primitive_count():
    # chi(-1) from the exponents of -1 = q - 1, as exact phases over the
    # lcm of the orders, and the multiplicative count phi*(q)
    for q in (31752, 999999, 1999995):
        g = unit_group(q)
        L = reduce(math.lcm, g.orders)
        phases = [np.arange(c.order, dtype=np.int64) * k * (L // c.order) % L
                  for c, k in zip(g.components, dlog(g, q - 1))]
        phase = reduce(np.add.outer, phases).ravel() % L
        assert np.isin(phase, (0, L // 2)).all(), q
        assert np.array_equal(parity_mask(g), phase == L // 2), q
        assert int(primitive_mask(g).sum()) == count_primitive(q, q), q


def test_character_labels_roundtrip():
    g = unit_group(45)
    for chi in enumerate_characters(g):
        q, n = chi.label()
        assert q == 45 and math.gcd(n, q) == 1
        assert dlog(g, n) == chi.exps


def test_count_primitive_examples():
    # mod 6 admits no primitive character (q = 2 mod 4), so the restricted
    # count to 9 is phi*(3) + phi*(9) = 1 + 4
    assert count_primitive(9, 3) == 5
    assert count_primitive(4) == 3
    assert count_primitive(1) == 1
    assert count_primitive(2) == 1  # q=2 contributes nothing


def test_count_primitive_matches_brute_force_to_500():
    # conductor-test brute force where affordable, the enumeration-validated
    # mask beyond (the two agree on [3, 100] by test_masks_match_enumeration)
    brute = np.zeros(501, dtype=np.int64)
    brute[1] = 1
    for q in range(3, 201):
        brute[q] = sum(c.primitive for c in enumerate_characters(unit_group(q)))
    for q in range(201, 501):
        brute[q] = int(primitive_mask(unit_group(q)).sum())
    for q_max in range(1, 501):
        assert count_primitive(q_max) == int(brute[:q_max + 1].sum())
        sel = np.arange(q_max + 1) % 3 == 0
        sel[0] = False
        assert count_primitive(q_max, 3) == int(brute[:q_max + 1][sel[:q_max + 1]].sum())


def test_count_primitive_divisor_variants():
    assert count_primitive(100, 4) == sum(
        int(primitive_mask(unit_group(q)).sum()) for q in range(4, 101, 4))
