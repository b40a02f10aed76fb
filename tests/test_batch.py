"""Batch L(1,chi) engine: coefficients, transform vs direct sums, records.

Closed-form oracles: pi/(3 sqrt 3) for the quadratic character mod 3
(reflection formula), pi/4 for mod 4 (Leibniz), and the class-number
value (2/sqrt 5) log((1+sqrt 5)/2) for the even character mod 5.  The
transform's two kernels, rfftn and the packed half-length path, are
further checked against an exact mpmath DFT at lengths that reach each of
pocketfft's real and complex kernels, and at two production lengths.
"""

import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import full_spectrum, radius_sum
from l1sweep import arith
from l1sweep.arith import unit_group, units
from l1sweep.ball import Ball, ComplexBall
from l1sweep import batch
from l1sweep.batch import (batch_maxima, build_coefficients, character_sums,
                           direct_sum, l_value, l_values)
from l1sweep.characters import (chi_value, conjugate_index, count_primitive,
                                enumerate_characters, parity_mask, primitive_mask)
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
    # no radius is at most NaN, so a NaN tolerance is refused too
    with pytest.raises(ToleranceError):
        build_coefficients(9, math.nan)


def test_transform_indicator_vectors():
    g = unit_group(21)
    us = g.lattice
    n_units = len(us)
    # indicator of n = 1: every character sum is exactly 1
    vals = np.zeros(n_units)
    vals[0] = 1.0  # the lattice starts at the zero exponent, n=1
    spec, env = character_sums(g.orders, vals, 0.0)
    assert np.allclose(spec, 1.0, atol=1e-12)
    # indicator of n0: sums enumerate chi(n0)
    chars = enumerate_characters(g)
    for pos, n0 in ((3, int(us[3])), (7, int(us[7]))):
        vals = np.zeros(n_units)
        vals[pos] = 1.0
        half, env = character_sums(g.orders, vals, 0.0)
        spec = full_spectrum(g.orders, half)
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


def test_spectrum_builds_half_the_lattice(monkeypatch):
    # the coefficients read only the first half of axis 0 of the unit
    # lattice, the half unit_group builds: neither the full lattice nor the
    # residue index is built on the production path
    built = []
    original = arith.unit_group

    def kept(q):
        built.append(original(q))
        return built[-1]

    _patch_everywhere(monkeypatch, original, kept)
    qs = (3, 12, 96, 144, 996, 999, 4096, 99999)
    for q in qs:
        batch_maxima(q)
        l_values(q)
    assert [g.q for g in built] == [q for q in qs for _ in range(2)]
    assert not any({"lattice", "index"} & set(vars(g)) for g in built)


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
    def no_coefficients(g):
        raise AssertionError("coefficients built for a conductor with no primitive character")

    def no_unit_group(q):
        raise AssertionError("unit group built for a conductor with no primitive character")

    monkeypatch.setattr(batch, "_log_sine_coefficients", no_coefficients)
    monkeypatch.setattr(batch, "_phase_coefficients", no_coefficients)
    monkeypatch.setattr(batch, "unit_group", no_unit_group)
    for q in (30, 6):
        assert batch_maxima(q) == ([], 0)
        assert l_values(q) == []


def _bits(rec):
    """A record's fields, its floats by their bits (None where
    `batch_maxima` leaves the value out)."""
    return tuple(rec[:3]) + tuple(None if x is None else x.hex() for x in rec[3:])


def _abs_bits(rec):
    """The fields a sweep row reads, |L| and the excess by their bits."""
    return (rec.q, rec.index, rec.parity) + tuple(
        x.hex() for x in (rec.abs_mid, rec.abs_rad, rec.excess_mid, rec.excess_rad))


@pytest.mark.parametrize("q", [3, 5, 9, 12, 249, 996, 4096, 9999])
def test_l_values_match_scalar_path(q, monkeypatch):
    # the per-record scalar arithmetic, kept as the reference for the array
    # pass: |L| = |S|/sqrt(q) in Ball arithmetic, then minus (1/3) log q;
    # the value -T conj(S)/q in Python floats from the sums T that
    # _spectrum transforms, with the conductor's one product radius; the
    # second member of each conjugate class takes the first's S and
    # L(1, chi), conjugated
    phase = {}
    values = batch._values

    def kept(q, s, env, t, t_env):
        phase.update(t=t.tolist(), t_env=t_env)
        return values(q, s, env, t, t_env)

    monkeypatch.setattr(batch, "_values", kept)
    sp = batch._spectrum(q, phase=True)
    env, t_env, sums = sp.env, phase["t_env"], sp.spec.tolist()
    s1 = max(abs(s.real) + abs(s.imag) for s in sums)
    t1 = max(abs(t.real) + abs(t.imag) for t in phase["t"])
    rad = ((s1 * (t_env + 2.0 * batch._EPS * t1) + math.sqrt(2 * q) * (1.0 + batch._EPS) * env)
           / q * (1.0 + 2.0 ** -40))
    want = []
    for s, t, i, odd, real in zip(sums, phase["t"], sp.index.tolist(), sp.odd, sp.real):
        value = complex((t.real * s.real + t.imag * s.imag) / -q,
                        (t.real * s.imag - t.imag * s.real) / q)
        members = [(s, value, i)]
        if not real:
            members.append((s.conjugate(), value.conjugate(), conjugate_index(sp.g, i)))
        for s, value, i in members:
            a = ComplexBall(Ball(s.real, env), Ball(s.imag, env)).abs() / sp.root
            e = a - sp.log3
            want.append(batch.LValueRecord(q, i, "odd" if odd else "even", value.real,
                                           value.imag, rad, a.mid, a.rad, e.mid, e.rad))
    want.sort(key=lambda r: r.index)
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
    batch._spectrum(249)
    per_conductor = len(built)      # the (1/3) log q ball
    built.clear()
    recs = l_values(249)
    assert len(recs) == 81 and len(built) == per_conductor
    for rec in recs:                # warm-up
        bounds.check_theorem(rec)
    built.clear()
    reps = [bounds.check_theorem(rec) for rec in recs]
    assert len(built) == 0          # the margin is floats
    assert all(rep.constant is (bounds.THEOREM_EVEN if rep.parity == "even" else
                                bounds.THEOREM_ODD) for rep in reps)
    reps[0].margin
    assert len(built) == 1
    built.clear()
    rec = recs[0]
    rec.value, rec.abs_value, rec.excess
    assert len(built) == 4


def test_batch_maxima_builds_no_ball(monkeypatch):
    # both argmax records come from the array pass that builds l_values:
    # beyond the (1/3) log q ball of _spectrum, no Ball or ComplexBall
    built = []
    post_init, complex_init = Ball.__post_init__, ComplexBall.__init__

    def counted(ball):
        built.append(ball)
        post_init(ball)

    def counted_complex(ball, *args, **kwargs):
        built.append(ball)
        complex_init(ball, *args, **kwargs)

    monkeypatch.setattr(Ball, "__post_init__", counted)
    monkeypatch.setattr(ComplexBall, "__init__", counted_complex)
    for q in (9, 96, 249, 996, 4096):
        batch_maxima(q)                 # warm-up
        built.clear()
        batch._spectrum(q)
        per_conductor = len(built)
        built.clear()
        maxima, _ = batch_maxima(q)
        assert len(maxima) == 2 and len(built) == per_conductor, q


def _character_sums_reference(g, us, unit_values):
    """The transform as conj(rfftn(lattice)) on a real lattice scattered
    from the units, with the conjugate taken as a copy."""
    lattice = np.zeros(g.phi)
    lattice[g.index[us]] = unit_values
    return np.conj(np.fft.rfftn(lattice.reshape(g.orders))).ravel()


def test_character_sums_bit_identical_to_conjugate_copies():
    # the conjugate taken in place keeps every bit of a copy's, the sign
    # of each zero included
    rng = np.random.default_rng(5)
    for q in (21, 59, 360):
        g = unit_group(q)
        us = g.lattice
        vals = rng.standard_normal(len(us))
        vals[::3] = 0.0                     # some zero inputs
        spec, _ = character_sums(g.orders, vals, 0.0)
        want = _character_sums_reference(g, us, vals)
        assert np.array_equal(spec.view(np.int64), want.view(np.int64)), q


def test_lattice_coefficients_bit_identical_to_ascending_scatter():
    # digamma evaluated in lattice order and transformed in place gives
    # every bit of the spectrum that digamma evaluated on the ascending
    # units and scattered into the lattice gives
    for q in list(range(3, 1000, 3)) + [98613]:
        g = unit_group(q)
        c = build_coefficients(q, 1e-9 / (2 * g.phi))
        spec, _ = character_sums(g.orders, c.mids, radius_sum(c.rads))
        us = units(q)
        want = _character_sums_reference(g, us, -digamma_points(us / float(q))[0] / q)
        assert np.array_equal(spec.view(np.int64), want.view(np.int64)), q


def test_l_values_rejects_small_q():
    for q in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            l_values(q)
        with pytest.raises(ValueError):
            batch_maxima(q)
        with pytest.raises(ValueError):
            build_coefficients(q, 1e-9)


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
        half, env = character_sums(g.orders, c.mids, radius_sum(c.rads))
        spec = full_spectrum(g.orders, half)
        for i, chi in enumerate(enumerate_characters(g)):
            d = direct_sum(g, c, chi)
            assert abs(spec[i].real - d.re.mid) <= env + d.re.rad, (q, i)
            assert abs(spec[i].imag - d.im.mid) <= env + d.im.rad, (q, i)


def _exact_half_dft(shape, values):
    """sum_k x[k] e(j.k/n) at rfftn's half of a real lattice of `shape`, in
    40-digit mpmath: one exact 1-d DFT per axis, the last axis first and
    cut to its exponents 0..n//2."""
    x = np.array([mp.mpf(float(v)) for v in values], dtype=object).reshape(shape)
    for axis in reversed(range(len(shape))):
        n = shape[axis]
        rows = n // 2 + 1 if axis == len(shape) - 1 else n
        roots = np.array([mp.expjpi(mp.mpf(2 * m) / n) for m in range(n)], dtype=object)
        w = roots[np.outer(np.arange(rows), np.arange(n)) % n]
        x = np.moveaxis(np.tensordot(w, x, axes=([1], [axis])), 0, axis)
    return x.ravel()


# Lattice shapes whose axis lengths reach each of pocketfft's kernels, and
# the kernel `character_sums` takes on each.  On rfftn the real transform
# along the last axis factors its length into radix-4, 2, 3 and 5 passes
# and a generic pass for any other prime, and the complex passes along the
# other axes do the same.  A length of at least 50 whose largest prime
# factor p has p^2 > length goes to Bluestein when its cost model says so:
# 358 = 2 * 179 (real) and 166 = 2 * 83 (complex) are the smallest such p - 1.
# An even last axis with a prime factor above batch._PACK_PRIME takes the
# packed path, a complex FFT of half its length (Bluestein on 307) and the
# unpack: 614 = 2 * 307 is the smallest such length.
KERNEL_SHAPES = [
    ((16,), "rfftn"),          # real radix 4 (q = 17)
    ((18,), "rfftn"),          # real radix 2 and 3 (q = 19, 27)
    ((20,), "rfftn"),          # real radix 4 and 5 (q = 25)
    ((42,), "rfftn"),          # real radix 2, 3 and generic 7 (q = 43, 49)
    ((2, 8), "rfftn"),         # complex radix 2, real radix 4 and 2 (q = 32)
    ((6, 22), "rfftn"),        # complex radix 2 and 3, real generic 11 (q = 7 * 23)
    ((358,), "rfftn"),         # real Bluestein (q = 359, 3 * 359 folded)
    ((166, 6), "rfftn"),       # complex Bluestein, real radix 2 and 3
    ((2, 358), "rfftn"),       # complex radix 2, real Bluestein (q = 4 * 359)
    ((614,), "packed"),        # complex Bluestein on 307, the unpack
    ((2, 614), "packed"),      # the same, then complex radix 2
]


def test_kernel_shapes_take_their_kernels():
    for shape, kernel in KERNEL_SHAPES:
        assert batch._packed(shape[-1]) == (kernel == "packed"), shape
    # the production lengths of test_transform_at_production_lengths
    assert batch._packed(666466) and not batch._packed(882)


def test_transform_against_exact_dft_reference():
    """FFT midpoints and envelope vs an exact high-precision DFT on real
    inputs, at the lattices of q = 16, 27, 59, 97 and at lengths that reach
    every real and complex kernel of both paths."""
    rng = np.random.default_rng(17)
    for shape in [unit_group(q).orders for q in (16, 27, 59, 97)] + [s for s, _ in KERNEL_SHAPES]:
        vals = rng.standard_normal(math.prod(shape))
        spec, env = character_sums(shape, vals, 0.0)
        exact = _exact_half_dft(shape, vals)
        assert spec.size == exact.size, shape
        for s, e in zip(spec, exact):
            assert abs(s.real - float(e.real)) <= env, shape
            assert abs(s.imag - float(e.imag)) <= env, shape


def test_fft_envelope_has_headroom_on_small_sizes():
    # the envelope should dominate observed FFT error by a wide margin, on
    # the small unit lattices and on every kernel's lengths, the packed
    # path's included under its own envelope
    rng = np.random.default_rng(23)
    worst_ratio = 0.0
    for shape in [unit_group(q).orders for q in (5, 7, 11, 13, 23, 29, 37, 47, 53, 61)] \
            + [s for s, _ in KERNEL_SHAPES]:
        vals = rng.standard_normal(math.prod(shape))
        spec, env = character_sums(shape, vals, 0.0)
        for s, e in zip(spec, _exact_half_dft(shape, vals)):
            worst_ratio = max(worst_ratio, abs(complex(e) - s) / env)
    assert worst_ratio < 0.5, worst_ratio


@pytest.mark.parametrize("n", [614, 718, 6 * 2003, 666466])
def test_unpack_weights_against_mpmath(n):
    # each weight w_k = (1 + i e(k/n))/2 of the packed path lies within its
    # stated radius of the 40-digit value, with room: at k = 0, n/8, n/4,
    # 3n/8, n/2 and their neighbours, and at random k (every k when n < 1000)
    w, rad = batch._unpack_weights(n)
    h = n // 2
    assert w.shape == (h + 1,) and rad == 7.1 * 2.0 ** -53
    ks = set(range(h + 1)) if n < 1000 else (
        {k + d for k in (0, n // 8, n // 4, 3 * n // 8, h) for d in (-1, 0, 1)}
        | set(np.random.default_rng(n).integers(0, h + 1, 400).tolist()))
    worst = 0.0
    for k in sorted(k for k in ks if 0 <= k <= h):
        exact = (1 + 1j * mp.expjpi(mp.mpf(2 * k) / n)) / 2
        err = abs(mp.mpc(complex(w[k])) - exact)
        worst = max(worst, float(err / rad))
    assert worst < 0.5, (n, worst)


def _exact_outputs(shape, m, outputs):
    """sum_k m_k e(j.k/n) at each multi-index j of `outputs`, over the
    integer lattice m (|m| < 2^40) of `shape`, within 2^-100 of exact
    for N = m.size below 2^20.  Each
    phase j.k/n is r/L exactly, L the lcm of the axis lengths: the m_k are
    summed exactly per r, and e(r/L) = e(r1 B/L) e(r0/L), r = r1 B + r0,
    comes from two tables of about sqrt(L) roots in 60-digit mpmath, held
    as integers scaled by 2^160, so each output is an exact integer sum."""
    L = math.lcm(*shape)
    B = math.isqrt(L) + 1
    scale = 2 ** 160

    def table(count, step):
        with mp.workdps(60):
            roots = [mp.expjpi(mp.mpf(2 * i * step) / L) for i in range(count)]
            return (np.array([int(mp.nint(z.real * scale)) for z in roots], dtype=object),
                    np.array([int(mp.nint(z.imag * scale)) for z in roots], dtype=object))

    (c0, s0), (c1, s1) = table(B, 1), table(-(-L // B), B)
    k = np.indices(shape).reshape(len(shape), -1)
    out = []
    for j in outputs:
        r = sum(int(ji) * (L // n) * ki for ji, n, ki in zip(j, shape, k)) % L
        a = np.zeros(c1.size * B, dtype=np.int64)
        np.add.at(a, r, m)
        a = a.reshape(-1, B).astype(object)
        re0, im0 = a.dot(c0), a.dot(s0)
        out.append(mp.mpc(mp.mpf(int((re0 * c1 - im0 * s1).sum())),
                          mp.mpf(int((re0 * s1 + im0 * c1).sum()))) / scale ** 2)
    return out


@pytest.mark.slow
@pytest.mark.parametrize("shape", [
    (666466,),          # q = 3 * 666467 folded, 666466 = 2 * 333233: packed
    (4, 150, 882),      # q = 1999995 folded, every axis 7-smooth: rfftn
])
def test_transform_at_production_lengths(shape):
    # ten outputs of character_sums, against single-output exact DFTs of
    # the same lattice: (0, ..., 0), the last axis's n/2, and random ones.
    # Random inputs test the envelope at production lengths; they do not
    # prove it, as no finite set of inputs can
    rng = np.random.default_rng(math.prod(shape))
    m = rng.integers(-2 ** 40, 2 ** 40, math.prod(shape))
    spec, env = character_sums(shape, m * 2.0 ** -40, 0.0)
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    outputs = [(0,) * len(shape), (0,) * (len(shape) - 1) + (shape[-1] // 2,)] + [
        tuple(int(rng.integers(0, n)) for n in half) for _ in range(8)]
    worst = 0.0
    for j, e in zip(outputs, _exact_outputs(shape, m, outputs)):
        s, e = spec[np.ravel_multi_index(j, half)], e * mp.mpf(2) ** -40
        for got, want in ((s.real, e.real), (s.imag, e.imag)):
            assert abs(got - want) <= env, (shape, j)
            worst = max(worst, float(abs(got - want)) / env)
    assert worst < 0.5, (shape, worst)


def test_l_values_conjugate_pairs_are_exact():
    # each record's conjugate record has the same real part and the
    # negated imaginary part, to the bit, whether it was rebuilt outside
    # rfftn's half or both lie in it (on the last axis's exponents 0 and
    # n/2); 45 and 63 have two transformed axes, 4096 the <-1> axis
    for q in list(range(3, 3001, 3)) + [45, 63, 4096, 9999]:
        g = unit_group(q)
        recs = l_values(q)
        by_index = {r.index: r for r in recs}
        conj = conjugate_index(g, np.array([r.index for r in recs]))
        for r, j in zip(recs, conj.tolist()):
            if j == r.index:                # a real character
                continue
            other = by_index[j]
            assert other.re.hex() == r.re.hex(), (q, r.index)
            assert other.im.hex() == (-r.im).hex(), (q, r.index)
            assert other.abs_mid == r.abs_mid and other.abs_rad == r.abs_rad, (q, r.index)


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
    # each parity's maximum has the |L| and excess of the l_values record
    # of its argmax, float for float, and no value (batch_maxima computes
    # no T); no other record's excess is separably larger
    # 249 folds 3 || q, 100 and 108 fold 4 || q, 996 and 1020 fold both,
    # and 96 and 4096 have 8 | q; at 45 and 63 an argmax is a conjugate of
    # the half's candidate, built from its conjugated sum
    for q in (9, 13, 45, 63, 96, 100, 108, 249, 996, 999, 1020, 4096, 9999):
        maxima, n_prim = batch_maxima(q)
        recs = {r.index: r for r in l_values(q)}
        assert n_prim == len(recs)
        assert [rec.parity for rec, _ in maxima] == ["even", "odd"]
        for rec, _ in maxima:
            assert _abs_bits(rec) == _abs_bits(recs[rec.index])
            assert rec.re is rec.im is rec.env is None
            best = max((r for r in recs.values() if r.parity == rec.parity),
                       key=lambda r: r.excess_mid)
            assert rec.index == best.index or rec.excess.overlaps(best.excess)


# the ambiguous rows of sweep(3, 20000): (q, parity)
AMBIGUOUS_ROWS = [(96, "odd"), (144, "odd"), (180, "odd"), (360, "odd"), (819, "odd"),
                  (1260, "odd")]


def _upper(mid, rad):
    return Fraction(mid) + Fraction(rad)


def test_argmax_record_covers_every_record_of_its_parity():
    # each row's |L| and excess upper ends, compared exactly, reach those
    # of every l_values record of its parity, over 3 | q <= 3000, which
    # holds every ambiguous row of 3..2e4
    ambiguous = []
    for q in range(3, 3001, 3):
        records = l_values(q)
        for rec, amb in batch_maxima(q)[0]:
            same = [r for r in records if r.parity == rec.parity]
            for ball in ((lambda r: (r.abs_mid, r.abs_rad)), (lambda r: (r.excess_mid, r.excess_rad))):
                mid, rad = ball(rec)
                # only upper ends within 1e-12 in floats can reach the row's
                near = [ball(r) for r in same if sum(ball(r)) >= mid + rad - 1e-12]
                assert all(_upper(mid, rad) >= _upper(*b) for b in near), (q, rec.parity)
            if amb:
                ambiguous.append((q, rec.parity))
    assert ambiguous == AMBIGUOUS_ROWS
    # q = 144 odd: the argmax, index 7, is not the class with the largest
    # midpoint, index 32, and its own record's upper end is below that
    # class's; the row's widened ball reaches it
    (rec, amb), = [m for m in batch_maxima(144)[0] if m[0].parity == "odd"]
    records = {r.index: r for r in l_values(144)}
    own, top = records[7], records[32]
    assert rec.index == 7 and amb and own.abs_mid < top.abs_mid
    assert own.abs_mid + own.abs_rad < top.abs_mid + top.abs_rad
    assert _upper(rec.abs_mid, rec.abs_rad) >= _upper(top.abs_mid, top.abs_rad)
    assert (rec.abs_mid, rec.excess_mid) == (own.abs_mid, own.excess_mid)
    assert rec.abs_rad > own.abs_rad and rec.excess_rad > own.excess_rad


def test_batch_maxima_ambiguity_skips_conjugate_pairs():
    # x(a) is real, so chi and its conjugate have the same |L|: only a
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
    # q=65 odd: rfftn's half holds the candidates 29 and 38, whose
    # conjugates are 31 and 22; the argmax is the smallest of the four, the
    # conjugate of the second candidate, with its conjugated sum
    rec, ambiguous = maximum(65, "odd")
    assert (rec.index, conjugate_index(unit_group(65), rec.index)) == (22, 38) and ambiguous
    assert _abs_bits(rec) == _abs_bits(next(r for r in l_values(65) if r.index == 22))


def test_fold_keeps_every_primitive_character():
    # the fold drops only the exponent 0 of each folded axis, on which no
    # character is primitive: the folded lattice holds every primitive
    # character, and is half (3 || q or 4 || q) or a quarter (both) of phi
    for q in list(range(3, 20_001)) + [999999, 1999995]:
        if q % 4 == 2:
            continue
        g = unit_group(q)
        shape, values, _, exps = batch.fold(g, np.zeros(g.phi), 0.0)
        index = np.ravel_multi_index(np.ix_(*exps), g.orders).ravel()
        prim = primitive_mask(g)
        assert int(prim[index].sum()) == int(prim.sum()), q
        halvings = (q % 3 == 0 and q % 9 != 0) + (q % 4 == 0 and q % 8 != 0)
        assert values.size == math.prod(shape) == index.size == g.phi >> halvings, q
        assert (np.diff(index) > 0).all(), q


def test_folded_sums_agree_with_the_unfolded_transform():
    # each part of each folded sum lies within both envelopes of the
    # unfolded character sum at its enumeration index, and _spectrum keeps
    # exactly the first member of each primitive conjugate class in
    # rfftn's half, with rfftn's own sum and its parity
    for q in range(3, 3001, 3):
        if q % 4 == 2:
            continue
        g = unit_group(q)
        x, r = batch._log_sine_coefficients(g)
        shape, values, rad, exps = batch.fold(g, x, r)
        half, env = character_sums(shape, values, rad)
        full, full_env = character_sums(g.orders, x, r)
        full = full_spectrum(g.orders, full)
        index = np.ravel_multi_index(np.ix_(*exps), g.orders).ravel()
        dev = full_spectrum(shape, half) - full[index]
        assert max(np.abs(dev.real).max(), np.abs(dev.imag).max()) <= env + full_env, q
        sp = batch._spectrum(q)
        half_index = index.reshape(shape)[..., :shape[-1] // 2 + 1].ravel()
        conj = conjugate_index(g, half_index)
        first = (half_index <= conj) | ~np.isin(conj, half_index)
        keep = primitive_mask(g)[half_index] & first
        assert np.array_equal(sp.index, half_index[keep]) and sp.env == env, q
        assert np.array_equal(sp.odd, parity_mask(g)[sp.index]), q
        assert np.array_equal(sp.spec.view(np.int64), half[keep].view(np.int64)), q
        # the fold transforms at most half the lattice and its envelope
        # is never the larger
        if index.size < g.phi:
            assert env <= full_env, q


def test_spectrum_holds_each_conjugate_class_once():
    # the kept indices and their conjugates are every primitive character,
    # no kept index is another's conjugate, `real` marks the self-conjugate
    # ones, and the count of batch_maxima counts both members of a class
    for q in [45, 63, 96, 4096, 9999, 999999] + [q for q in range(3, 3001, 3) if q % 4 != 2]:
        sp = batch._spectrum(q)
        conj = conjugate_index(sp.g, sp.index)
        assert np.array_equal(np.union1d(sp.index, conj),
                              np.flatnonzero(primitive_mask(sp.g))), q
        other = conj != sp.index
        assert not np.isin(conj[other], sp.index).any(), q
        assert np.array_equal(sp.real, ~other), q
        assert batch_maxima(q)[1] == count_primitive(q, q), q


def test_rfft_half_agrees_with_the_complex_transform():
    # the real-input transform of each folded lattice agrees with the
    # complex one, conj(fftn(conj(lattice))), on rfftn's half, within the
    # two transforms' envelopes (the same formula, so twice the envelope)
    for q in range(3, 3001, 3):
        if q % 4 == 2:
            continue
        g = unit_group(q)
        c = build_coefficients(q, 1e-9 / (2 * g.phi))
        shape, values, rad, _ = batch.fold(g, c.mids, radius_sum(c.rads))
        half, env = character_sums(shape, values, rad)
        lattice = np.conj(values.astype(np.complex128)).reshape(shape)
        full = np.conj(np.fft.fftn(lattice))[..., :shape[-1] // 2 + 1].ravel()
        dev = half - full
        assert max(np.abs(dev.real).max(), np.abs(dev.imag).max()) <= 2.0 * env, q


def test_half_masks_equal_the_gathered_full_masks():
    # the masks built on the transformed axes of rfftn's half (a folded
    # axis held at its exponent 1, the last transformed axis cut to
    # 0..n//2) are the full masks gathered at the half's indices
    for q in list(range(3, 20_001, 3)) + [999999, 1999995]:
        if q % 4 == 2:
            continue
        g = unit_group(q)
        shape, _, _, exps = batch.fold(g, np.zeros(g.phi), 0.0)
        half = batch._half(exps)
        index = np.ravel_multi_index(np.ix_(*half), g.orders).ravel()
        assert index.size == math.prod(shape[:-1]) * (shape[-1] // 2 + 1), q
        assert np.array_equal(primitive_mask(g, half), primitive_mask(g)[index]), q
        assert np.array_equal(parity_mask(g, half), parity_mask(g)[index]), q


def test_spectrum_runs_one_transform_per_conductor(monkeypatch):
    # every conductor with a primitive character goes through one
    # transform in batch_maxima and the sweep, and two in l_values and
    # l_value (S and T), whichever kernel runs: rfftn, or the packed path's
    # complex FFT of half the last axis, the one call of np.fft.fft it
    # makes; the digamma kernel is never reached
    from l1sweep import special
    from l1sweep.sweep import conductor_range, sweep

    def no_digamma(*args, **kwargs):
        raise AssertionError("digamma_points on the production path")

    calls = []

    def counted(kernel, original):
        def run(*args, **kwargs):
            calls.append(kernel)
            return original(*args, **kwargs)
        return run

    for kernel in ("rfftn", "fft"):
        monkeypatch.setattr(np.fft, kernel, counted(kernel, getattr(np.fft, kernel)))
    _patch_everywhere(monkeypatch, special.digamma_points, no_digamma)
    sweep(3, 300, threads=1)
    assert calls == ["rfftn"] * sum(q % 4 != 2 for q in conductor_range(3, 300, 3)) \
        == ["rfftn"] * 75
    # 999 folds to (18, 36) and 99999 to (6, 40, 270), rfftn; 2157 = 3 *
    # 719 to (718,), 718 = 2 * 359, packed
    for q, kernel in ((999, "rfftn"), (2157, "fft")):
        calls.clear()
        records = l_values(q)
        assert len(records) == count_primitive(q, q) and calls == [kernel] * 2
        calls.clear()
        assert l_value(q, records[1].index) == records[1] and calls == [kernel] * 2
    for q, kernel in ((99999, "rfftn"), (2157, "fft")):
        calls.clear()
        assert batch_maxima(q)[1] == count_primitive(q, q) and calls == [kernel]


def test_l_value_is_the_l_values_record():
    # one record built alone is the l_values record of its index, bit for
    # bit, inside rfftn's half or outside it (rebuilt by conjugation); an
    # index that is not a primitive character's is refused
    for q in (3, 9, 45, 63, 96, 249, 996, 4096):
        recs = {r.index: r for r in l_values(q)}
        for i in range(-1, unit_group(q).phi + 1):
            if i in recs:
                assert _bits(l_value(q, i)) == _bits(recs[i]), (q, i)
            else:
                with pytest.raises(ValueError, match="no primitive character"):
                    l_value(q, i)
    assert l_value(30, 1) is None


def test_l_value_builds_one_record(monkeypatch):
    # `lvalue --index` reads one sum of the spectrum, not every record
    sizes = []
    records = batch._records

    def counted(sp, spec, *args):
        sizes.append(spec.size)
        return records(sp, spec, *args)

    monkeypatch.setattr(batch, "_records", counted)
    for q, i in ((45, 5), (45, 11), (9999, 2798)):
        l_value(q, i)
    assert sizes == [1, 1, 1]


@pytest.mark.parametrize("q, want, parity", [
    (3, math.pi / (3 * math.sqrt(3)), "odd"),
    (4, math.pi / 4, "odd"),
    # Q(sqrt 3): class number 1, fundamental unit 2 + sqrt 3
    (12, math.log(2 + math.sqrt(3)) / math.sqrt(3), "even"),
])
def test_single_point_folds_match_closed_forms(q, want, parity):
    # every axis folds, so the lattice is one 1-d point: S(chi) is the
    # signed sum of the coefficients, and |L(1, chi)| = |S(chi)|/sqrt(q)
    # _spectrum keeps primitive characters only: the one point is primitive
    sp = batch._spectrum(q)
    g, spec, env, index, odd, real = sp[:6]
    assert spec.shape == index.shape == odd.shape == real.shape == (1,) and real[0]
    assert index.tolist() == [g.phi - 1]
    assert ("odd" if odd[0] else "even") == parity
    assert abs(abs(spec[0].real) - want * math.sqrt(q)) <= env and spec[0].imag == 0.0
    (rec,) = l_values(q)
    assert rec.index == g.phi - 1 and rec.parity == parity
    assert rec.abs_value.contains(want)
