"""Batch L(1,chi) engine: coefficients, transform vs direct sums, records.

Closed-form oracles: pi/(3 sqrt 3) for the quadratic character mod 3
(reflection formula), pi/4 for mod 4 (Leibniz), and the class-number
value (2/sqrt 5) log((1+sqrt 5)/2) for the even character mod 5.  The
transform is further checked against an exact mpmath DFT on mixed sizes.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from l1sweep import arith
from l1sweep.arith import unit_group, units
from l1sweep.ball import Ball, ComplexBall
from l1sweep import batch
from l1sweep.batch import (batch_maxima, build_coefficients, character_sums,
                           direct_sum, l_values)
from l1sweep.characters import (chi_value, conjugate_index,
                                enumerate_characters, primitive_mask)
from l1sweep.special import ToleranceError, digamma, digamma_points

mp.mp.dps = 40


def leibniz_pi_over_4(terms: int = 200_000) -> float:
    """Oracle for L(1, chi_-4): alternating Leibniz series with midpoint
    acceleration (average of consecutive partial sums)."""
    s = 0.0
    sign = 1.0
    for n in range(1, 2 * terms, 2):
        s += sign / n
        sign = -sign
    s_next = s + sign / (2 * terms + 1)
    return 0.5 * (s + s_next)


def test_build_coefficients_match_scalar_digamma():
    for q in (3, 4, 5, 12, 30):
        c = build_coefficients(q, 1e-10)
        for n, mid, rad in zip(c.g.lattice, c.mids, c.rads):
            ref = -digamma(int(n) / q, tol=1e-11) / q
            assert abs(mid - ref.mid) <= rad + ref.rad, (q, n)


def test_coefficient_reflection_identity_q4():
    # a(1) - a(3) = (psi(3/4) - psi(1/4))/4 = pi/4 by the reflection formula
    c = build_coefficients(4, 1e-12)
    diff = c.mids[0] - c.mids[1]
    assert abs(diff - math.pi / 4) <= c.rads[0] + c.rads[1] + 1e-15


def test_build_coefficients_tolerance_contract():
    c = build_coefficients(1000, 1e-12)
    assert float(c.rads.max()) <= 1e-12
    with pytest.raises(ToleranceError) as exc:
        build_coefficients(1000, 1e-22)
    assert exc.value.achieved > 1e-22


def test_transform_indicator_vectors():
    g = unit_group(21)
    us = g.lattice
    n_units = len(us)
    # indicator of n = 1: every character sum is exactly 1
    vals = np.zeros(n_units, dtype=np.complex128)
    vals[0] = 1.0  # the lattice starts at the zero exponent, n=1
    spec, env = character_sums(g.orders, vals, np.zeros(n_units))
    assert np.allclose(spec, 1.0, atol=1e-12)
    # indicator of n0: sums enumerate chi(n0)
    chars = enumerate_characters(g)
    for pos, n0 in ((3, int(us[3])), (7, int(us[7]))):
        vals = np.zeros(n_units, dtype=np.complex128)
        vals[pos] = 1.0
        spec, env = character_sums(g.orders, vals, np.zeros(n_units))
        for i, chi in enumerate(chars):
            want = chi_value(chi, n0)
            assert abs(spec[i].real - want.re.mid) <= env + want.re.rad + 1e-13
            assert abs(spec[i].imag - want.im.mid) <= env + want.im.rad + 1e-13


def test_l_values_closed_forms():
    r3 = l_values(3)
    assert len(r3) == 1 and r3[0].parity == "odd"
    assert abs(r3[0].abs_value.mid - math.pi / (3 * math.sqrt(3))) < 1e-13
    assert r3[0].abs_value.contains(math.pi / (3 * math.sqrt(3)))

    r4 = l_values(4)
    assert len(r4) == 1 and r4[0].parity == "odd"
    assert abs(r4[0].abs_value.mid - math.pi / 4) < 1e-13
    assert abs(r4[0].abs_value.mid - leibniz_pi_over_4()) < 1e-11

    r5 = l_values(5)
    even = [r for r in r5 if r.parity == "even"]
    assert len(r5) == 3 and len(even) == 1
    golden = (2 / math.sqrt(5)) * math.log((1 + math.sqrt(5)) / 2)
    assert abs(even[0].abs_value.mid - golden) < 1e-13
    assert even[0].abs_value.contains(golden)


def test_l_values_empty_for_2_mod_4():
    for q in (6, 10, 14, 22, 30):
        assert l_values(q) == []


def _patch_everywhere(monkeypatch, original, replacement):
    """Put `replacement` wherever an l1sweep module holds `original`, as
    the benchmark's tracer puts its wrappers."""
    for name, module in list(sys.modules.items()):
        if name == "l1sweep" or name.startswith("l1sweep."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_units_enumerated_once_per_conductor(monkeypatch):
    # the coefficients are built on the unit lattice, so the units are
    # generated once, by unit_group, and never sieved by units()
    want_maxima, want_records = batch_maxima(999), l_values(999)

    def no_units(q):
        raise AssertionError("units() sieved on the production path")

    _patch_everywhere(monkeypatch, arith.units, no_units)
    built = []
    original = arith.unit_group

    def counted_unit_group(q):
        built.append(q)
        return original(q)

    _patch_everywhere(monkeypatch, original, counted_unit_group)
    assert batch_maxima(999) == want_maxima
    assert built == [999]
    built.clear()
    assert l_values(999) == want_records
    assert built == [999]


def test_spectrum_needs_no_dlog_matrix(monkeypatch):
    # the coefficients are built in lattice order and the masks read each
    # axis's prime-power part, so no discrete log is taken and q is
    # factored only by unit_group and euler_phi; dlog and dlog_matrix
    # serve the oracles
    want_maxima, want_records = batch_maxima(999), l_values(999)

    def no_dlog(*args):
        raise AssertionError("discrete log taken on the production path")

    _patch_everywhere(monkeypatch, arith.dlog_matrix, no_dlog)
    _patch_everywhere(monkeypatch, arith.dlog, no_dlog)
    factored = []
    factorize = arith.factorize

    def counted_factorize(n):
        factored.append(n)
        return factorize(n)

    _patch_everywhere(monkeypatch, factorize, counted_factorize)
    assert batch_maxima(999) == want_maxima
    assert factored.count(999) <= 2
    factored.clear()
    assert l_values(999) == want_records
    assert factored.count(999) <= 2


def test_spectrum_builds_no_residue_index(monkeypatch):
    # the length-q residue index serves only the discrete logs; q = 996
    # folds both its order-2 axes, q = 999 none
    want = {q: (batch_maxima(q), l_values(q)) for q in (996, 999)}

    def no_index(g):
        raise AssertionError("residue index built on the production path")

    monkeypatch.setattr(arith.UnitGroupStructure, "index", property(no_index))
    for q, (maxima, records) in want.items():
        assert batch_maxima(q) == maxima
        assert l_values(q) == records


def test_no_spectrum_without_primitive_characters(monkeypatch):
    # q = 2 mod 4 has no primitive character: no unit group, no
    # coefficients, no transform
    def no_digamma(x):
        raise AssertionError("digamma evaluated for a conductor with no primitive character")

    def no_unit_group(q):
        raise AssertionError("unit group built for a conductor with no primitive character")

    monkeypatch.setattr(batch, "digamma_points", no_digamma)
    monkeypatch.setattr(batch, "unit_group", no_unit_group)
    for q in (30, 6):
        assert batch_maxima(q) == ([], 0)
        assert l_values(q) == []


def _bits(rec):
    balls = (rec.value.re, rec.value.im, rec.abs_value, rec.excess)
    return (rec.q, rec.index, rec.parity) + tuple(x.hex() for b in balls for x in (b.mid, b.rad))


@pytest.mark.parametrize("q", [3, 5, 9, 12, 249, 996, 4096, 9999])
def test_l_values_match_scalar_path(q):
    # the per-record Ball arithmetic, kept as the reference for the array pass
    _, spec, env, index, prim, odd, log3 = batch._spectrum(q, 1e-9)
    want = []
    for i in np.flatnonzero(prim).tolist():
        value = ComplexBall(Ball(float(spec[i].real), env), Ball(float(spec[i].imag), env))
        a = value.abs()
        e = a - log3
        want.append(batch.LValueRecord(q, int(index[i]), "odd" if odd[i] else "even",
                                       value.re.mid, value.im.mid, env, a.mid, a.rad,
                                       e.mid, e.rad))
    got = l_values(q)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]


def test_records_build_balls_only_when_read(monkeypatch):
    from l1sweep import bounds

    built = []
    post_init = Ball.__post_init__

    def counted(ball):
        built.append(ball)
        post_init(ball)

    monkeypatch.setattr(Ball, "__post_init__", counted)
    batch._spectrum(249, 1e-9)
    per_conductor = len(built)      # the (1/3) log q ball
    built.clear()
    recs = l_values(249)
    assert len(recs) == 81 and len(built) == per_conductor
    for rec in recs:                # warm-up
        bounds.check_theorem(rec)
    built.clear()
    for rec in recs:
        bounds.check_theorem(rec)
    assert len(built) == len(recs)  # the margin
    built.clear()
    rec = recs[0]
    rec.value, rec.abs_value, rec.excess
    assert len(built) == 4


def _character_sums_reference(g, us, unit_values):
    """The transform as conj(fftn(conj(lattice))), with both conjugates
    taken as copies."""
    lattice = np.zeros(g.phi, dtype=np.complex128)
    lattice[g.index[us]] = unit_values
    return np.conj(np.fft.fftn(np.conj(lattice.reshape(g.orders)))).ravel()


def test_character_sums_bit_identical_to_conjugate_copies():
    # the in-place conjugates must keep every bit, the sign of each zero
    # included: conjugating a real entry gives it a -0.0 imaginary part,
    # and a +0.0 there changes the sign of some zero outputs
    rng = np.random.default_rng(5)
    for q in (21, 59, 360):
        g = unit_group(q)
        us = g.lattice
        vals = rng.standard_normal(len(us)) + 1j * rng.standard_normal(len(us))
        vals[::3] = vals[::3].real          # some +0.0 imaginary parts
        spec, _ = character_sums(g.orders, vals, np.zeros(len(us)))
        want = _character_sums_reference(g, us, vals)
        assert np.array_equal(spec.view(np.int64), want.view(np.int64)), q


def test_lattice_coefficients_bit_identical_to_ascending_scatter():
    # digamma evaluated in lattice order and transformed in place gives
    # every bit of the spectrum that digamma evaluated on the ascending
    # units and scattered into the lattice gives
    for q in list(range(3, 1000, 3)) + [98613]:
        g = unit_group(q)
        c = build_coefficients(q, 1e-9 / (2 * g.phi))
        spec, _ = character_sums(g.orders, c.mids, c.rads)
        us = units(q)
        want = _character_sums_reference(g, us, -digamma_points(us / float(q))[0] / q)
        assert np.array_equal(spec.view(np.int64), want.view(np.int64)), q


def test_l_values_rejects_small_q():
    with pytest.raises(ValueError):
        l_values(2)


def test_records_only_for_primitive_characters():
    for q in range(3, 101):
        recs = l_values(q)
        chars = enumerate_characters(unit_group(q))
        want = {i for i, c in enumerate(chars) if c.conductor == q}
        assert {r.index for r in recs} == want, q


def test_dft_direct_equivalence_spot():
    for q in (7, 16, 24, 45, 59, 60):
        g = unit_group(q)
        c = build_coefficients(q, 1e-9 / (2 * g.phi))
        spec, env = character_sums(g.orders, c.mids, c.rads)
        for i, chi in enumerate(enumerate_characters(g)):
            d = direct_sum(g, c, chi)
            assert abs(spec[i].real - d.re.mid) <= env + d.re.rad, (q, i)
            assert abs(spec[i].imag - d.im.mid) <= env + d.im.rad, (q, i)


def test_transform_against_exact_dft_reference():
    """FFT midpoints and envelope vs an exact high-precision DFT at mixed
    lengths (prime, prime power, and Bluestein-exercising sizes)."""
    rng = np.random.default_rng(17)
    for q in (16, 27, 59, 97):
        g = unit_group(q)
        us = g.lattice
        vals = rng.standard_normal(len(us)) + 1j * rng.standard_normal(len(us))
        spec, env = character_sums(g.orders, vals, np.zeros(len(us)))
        chars = enumerate_characters(g)
        L = 1
        for comp in g.components:
            L = L * comp.order // math.gcd(L, comp.order)
        zeta = [mp.e ** (2j * mp.pi * k / L) for k in range(L)]
        for i, chi in enumerate(chars):
            acc = mp.mpc(0)
            for n, v in zip(us, vals):
                acc += mp.mpc(v) * zeta[chi.phase_num(int(n))]
            err = abs(complex(acc) - complex(spec[i]))
            assert err <= env, (q, i, err, env)


def test_fft_envelope_has_headroom_on_small_sizes():
    # the envelope should dominate observed FFT error by a wide margin
    rng = np.random.default_rng(23)
    worst_ratio = 0.0
    for q in (5, 7, 11, 13, 23, 29, 37, 47, 53, 61):
        g = unit_group(q)
        us = g.lattice
        vals = rng.standard_normal(len(us)) + 1j * rng.standard_normal(len(us))
        spec, env = character_sums(g.orders, vals, np.zeros(len(us)))
        chars = enumerate_characters(g)
        cos_sin = None
        for i, chi in enumerate(chars):
            acc = mp.mpc(0)
            for n, v in zip(us, vals):
                L = 1
                for comp in g.components:
                    L = L * comp.order // math.gcd(L, comp.order)
                acc += mp.mpc(v) * mp.e ** (2j * mp.pi * chi.phase_num(int(n)) / L)
            err = abs(complex(acc) - complex(spec[i]))
            worst_ratio = max(worst_ratio, err / env)
    assert worst_ratio < 0.5, worst_ratio


def test_conjugation_symmetry():
    for q in (7, 9, 13, 35, 45):
        g = unit_group(q)
        recs = {r.index: r for r in l_values(q)}
        for i, r in recs.items():
            j = conjugate_index(g, i)
            assert j in recs
            other = recs[j]
            assert abs(r.value.re.mid - other.value.re.mid) <= r.value.re.rad + other.value.re.rad
            assert abs(r.value.im.mid + other.value.im.mid) <= r.value.im.rad + other.value.im.rad


def test_batch_maxima_agree_with_records():
    # each parity's maximum is the l_values record of its argmax, float
    # for float, and no other record's excess is separably larger
    for q in (9, 13, 45, 96, 100, 249, 999):
        maxima, n_prim = batch_maxima(q)
        recs = {r.index: r for r in l_values(q)}
        assert n_prim == len(recs)
        assert [rec.parity for rec, _ in maxima] == ["even", "odd"]
        for rec, _ in maxima:
            assert _bits(rec) == _bits(recs[rec.index])
            best = max((r for r in recs.values() if r.parity == rec.parity),
                       key=lambda r: r.excess_mid)
            assert rec.index == best.index or rec.excess.overlaps(best.excess)


def test_batch_maxima_ambiguity_skips_conjugate_pairs():
    # a(n) is real, so chi and its conjugate have the same |L|: only a
    # candidate outside the argmax's conjugate pair makes a row ambiguous
    def maximum(q, parity):
        return next(m for m in batch_maxima(q)[0] if m[0].parity == parity)

    # q=9 has exactly two primitive even characters, complex conjugates
    rec, ambiguous = maximum(9, "even")
    assert conjugate_index(unit_group(9), rec.index) != rec.index and not ambiguous
    # a real-character maximum is not flagged (q=249, the global even max)
    rec, ambiguous = maximum(249, "even")
    assert conjugate_index(unit_group(249), rec.index) == rec.index and not ambiguous
    # q=96 odd: the argmax 3 ties its conjugate 15, and 7 and 11 overlap too
    rec, ambiguous = maximum(96, "odd")
    assert (rec.index, conjugate_index(unit_group(96), rec.index)) == (3, 15)
    recs = {r.index: r for r in l_values(96)}
    assert all(recs[i].excess.overlaps(rec.excess) for i in (7, 11))
    assert ambiguous


def test_fold_keeps_every_primitive_character():
    # the fold drops only the exponent 0 of each folded axis, on which no
    # character is primitive: the folded lattice holds every primitive
    # character, and is half (3 || q or 4 || q) or a quarter (both) of phi
    for q in list(range(3, 20_001)) + [999999, 1999995]:
        if q % 4 == 2:
            continue
        g = unit_group(q)
        shape, values, _, index = batch.fold(g, np.zeros(g.phi), np.zeros(g.phi))
        prim = primitive_mask(g)
        assert int(prim[index].sum()) == int(prim.sum()), q
        halvings = (q % 3 == 0 and q % 9 != 0) + (q % 4 == 0 and q % 8 != 0)
        assert values.size == math.prod(shape) == index.size == g.phi >> halvings, q
        assert (np.diff(index) > 0).all(), q


def test_folded_sums_agree_with_the_unfolded_transform():
    # each part of each folded output lies within both envelopes of the
    # unfolded character sum at its enumeration index
    for q in range(3, 3001, 3):
        if q % 4 == 2:
            continue
        g, spec, env, index, prim, odd, _ = batch._spectrum(q, 1e-9)
        c = build_coefficients(q, 1e-9 / (2 * g.phi))
        full, full_env = character_sums(g.orders, c.mids, c.rads)
        assert np.array_equal(prim, primitive_mask(g)[index]), q
        dev = spec - full[index]
        assert max(np.abs(dev.real).max(), np.abs(dev.imag).max()) <= env + full_env, q
        # the fold transforms at most half the lattice and its envelope
        # is never the larger
        if index.size < g.phi:
            assert env <= full_env, q


@pytest.mark.parametrize("q, want, parity", [
    (3, math.pi / (3 * math.sqrt(3)), "odd"),
    (4, math.pi / 4, "odd"),
    # Q(sqrt 3): class number 1, fundamental unit 2 + sqrt 3
    (12, math.log(2 + math.sqrt(3)) / math.sqrt(3), "even"),
])
def test_single_point_folds_match_closed_forms(q, want, parity):
    # every axis folds, so the lattice is one 1-d point: L(1, chi) is the
    # signed sum of the coefficients
    g, spec, env, index, prim, odd, _ = batch._spectrum(q, 1e-9)
    assert spec.shape == index.shape == (1,) and prim.tolist() == [True]
    assert index.tolist() == [g.phi - 1]
    assert ("odd" if odd[0] else "even") == parity
    assert abs(spec[0].real - want) <= env and spec[0].imag == 0.0
    (rec,) = l_values(q)
    assert rec.index == g.phi - 1 and rec.parity == parity
    assert rec.abs_value.contains(want)
