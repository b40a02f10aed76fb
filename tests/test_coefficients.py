"""The elementary coefficients x and w of the modulus transform: their
stated per-entry radii against 40-digit mpmath, the one radius sum per
lattice that bounds them, the tolerance contract on the reported |L|
radius, and the digamma direct sum as an independent witness of the
records.

x(a) = log(2 sin(pi a'/q)) + pi (a/q - 1/2) with a' = min(a, q - a), and
w(a) = cos(2 pi a/q) + sin(2 pi a/q) (see the `batch` module docstring).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from l1sweep import batch
from l1sweep.arith import unit_group
from l1sweep.batch import batch_maxima, build_coefficients, direct_sum, l_values
from l1sweep.characters import count_primitive, enumerate_characters
from l1sweep.special import ToleranceError

mp.mp.dps = 40

BOUND_QS = (3, 4, 12, 999, 98613, 999999, 1999995)
U = 2.0 ** -53


def _x(a, q):
    ap = min(a, q - a)
    return mp.log(2 * mp.sin(mp.pi * ap / q)) + mp.pi * (mp.mpf(a) / q - mp.mpf(1) / 2)


def _w(a, q):
    return mp.cos(2 * mp.pi * a / q) + mp.sin(2 * mp.pi * a / q)


def _extreme_positions(g, count=40, seed=0):
    """Lattice positions of a = 1 and q - 1, of the units nearest q/2 from
    below and from above (floor(q/2) and ceil(q/2) when q is odd), and of
    `count` random units."""
    q = g.q
    below = next(a for a in range(q // 2, 0, -1) if math.gcd(a, q) == 1)
    above = next(a for a in range(-(-q // 2), q) if math.gcd(a, q) == 1)
    where = {int(a): k for k, a in enumerate(g.lattice)} if g.phi < 5000 else None
    picked = []
    for a in (1, q - 1, below, above):
        picked.append(where[a] if where else int(np.flatnonzero(g.lattice == a)[0]))
    rng = np.random.default_rng(seed)
    return sorted(set(picked) | set(rng.integers(0, g.phi, min(count, g.phi)).tolist()))


def _folded_terms(g):
    """For each entry of `batch.fold`'s lattice, C order: the unfolded
    lattice positions and signs whose signed sum it is."""
    folded = [i for i, c in enumerate(g.components) if c.order == 2 and c.modulus in (3, 4)]
    terms = [(np.arange(g.phi).reshape(g.orders), 1)]
    for axis in reversed(folded):
        terms = [(p.take(k, axis), s * (-1) ** k) for p, s in terms for k in (0, 1)]
    return [(p.ravel(), s) for p, s in terms]


def _entry_radii(x, w):
    """The per-entry radii the `batch` docstrings state: u (19 + 6 |x(a)|)
    for x and 25u for w."""
    return np.abs(x) * (6.0 * U) + 19.0 * U, np.full(w.size, 25.0 * U)


def _folded_entry_radii(g, mids, rads):
    """`batch.fold` on per-entry radii: each folded entry b has the radius
    (r0 + r1 + 2u |b|)(1 + 8u).  Returns the folded midpoints and radii."""
    orders = list(g.orders)
    mids, rads = mids.reshape(orders), rads.reshape(orders)
    for axis in reversed([i for i, c in enumerate(g.components)
                          if c.order == 2 and c.modulus in (3, 4)]):
        at = (slice(None),) * axis
        b = mids[at + (0,)] - mids[at + (1,)]
        rads = (rads[at + (0,)] + rads[at + (1,)] + 2.0 * U * np.abs(b)) * (1.0 + 8.0 * U)
        mids = b
        del orders[axis]
    return mids.ravel(), rads.ravel()


@pytest.mark.parametrize("q", BOUND_QS)
def test_coefficient_radii_against_mpmath(q):
    # each entry of x and w lies within its stated radius of the 40-digit
    # value at a = 1 (where the logarithm is about log(2 pi/q)), at the
    # units nearest q/2, and at random units; so does each folded
    # difference, with the radius fold states
    g = unit_group(q)
    x, _ = batch._log_sine_coefficients(g)
    w, _ = batch._phase_coefficients(g)
    xr, wr = _entry_radii(x, w)
    worst = 0.0
    for k in _extreme_positions(g):
        a = int(g.lattice[k])
        for mids, rads, exact in ((x, xr, _x(a, q)), (w, wr, _w(a, q))):
            err = abs(mp.mpf(float(mids[k])) - exact)
            assert err <= rads[k], (q, a, float(err), rads[k])
            worst = max(worst, float(err / mp.mpf(float(rads[k]))))
    for mids, rads, value in ((x, xr, _x), (w, wr, _w)):
        b, br = _folded_entry_radii(g, mids, rads)
        assert np.array_equal(b, batch.fold(g, mids, 0.0)[1])
        terms = _folded_terms(g)
        picks = {0, b.size - 1} | set(np.random.default_rng(1).integers(0, b.size, 20).tolist())
        for j in sorted(picks):
            exact = sum(s * value(int(g.lattice[p[j]]), q) for p, s in terms)
            err = abs(mp.mpf(float(b[j])) - exact)
            assert err <= br[j], (q, j, float(err), br[j])
    # the radii are bounds with room, not estimates
    assert worst < 0.5, worst


def test_radius_sum_bounds_the_entry_radii():
    # the one radius per lattice that the builders and the fold carry is
    # at least the math.fsum of the per-entry radii they stand for, and
    # within 1e-12 of it relative: an upper bound, and no looser
    for q in list(range(3, 3001, 3)) + [99999, 999999, 1999995]:
        g = unit_group(q)
        (x, x_rad), (w, w_rad) = batch._log_sine_coefficients(g), batch._phase_coefficients(g)
        assert w_rad == 25.0 * U * g.phi, q
        for mids, rad, rads in zip((x, w), (x_rad, w_rad), _entry_radii(x, w)):
            for got, want in ((rad, math.fsum(rads)),
                              (batch.fold(g, mids, rad)[2],
                               math.fsum(_folded_entry_radii(g, mids, rads)[1]))):
                assert want <= got <= want * (1.0 + 1e-12), (q, got, want)


@pytest.mark.parametrize("builder", [batch._log_sine_coefficients, batch._phase_coefficients])
def test_elementary_coefficients_tolerance_contract(builder):
    # a builder's folded radius sum R reaches the radius it feeds through
    # the transform's envelope: x feeds each |L| radius, at least 2R/sqrt(q),
    # so a tol of 2R/sqrt(q) is refused with the conductor named; w feeds
    # the value radius, at least |S| R/q, which tol does not bound, so the
    # largest |L| radius passes as tol though the value radius exceeds it
    for q in (999, 1000):
        g = unit_group(q)
        _, _, rad, _ = batch.fold(g, *builder(g))
        records = l_values(q)
        floor = max(r.abs_rad for r in records)
        assert 0.0 < rad and floor <= 1e-9, (q, rad, floor)
        if builder is batch._log_sine_coefficients:
            at = 2.0 * rad / math.sqrt(q)
            assert all(r.abs_rad > at for r in records), q
            with pytest.raises(ToleranceError) as exc:
                l_values(q, at)
            assert exc.value.q == q and exc.value.achieved > exc.value.requested
        else:
            low = max(r.abs_mid - r.abs_rad for r in records) * rad / math.sqrt(q)
            assert all(r.env >= low for r in records) and records[0].env > floor, q
            assert l_values(q, floor) == records
        with pytest.raises(ToleranceError):
            l_values(q, math.nan)


def test_tol_bounds_the_reported_radius():
    # tol is compared with the |L| radius of each record a conductor
    # reports: the largest is the floor, which passes, and half of it, 0,
    # or NaN is refused with the conductor named; at q = 144 the odd row
    # reports its widened radius, above that of every l_values record
    for q in (144, 1000):
        records = l_values(q)
        floor = max(r.abs_rad for r in records)
        assert l_values(q, floor) == records
        maxima = batch_maxima(q)
        row_floor = max(r.abs_rad for r, _ in maxima[0])
        assert batch_maxima(q, row_floor) == maxima
        assert (row_floor > floor) == (q == 144)
        for run, at in ((l_values, floor), (batch_maxima, row_floor)):
            for tol in (at / 2, 0.0, math.nan):
                with pytest.raises(ToleranceError) as exc:
                    run(q, tol)
                assert exc.value.q == q and exc.value.achieved <= at, (run, tol)
                assert not exc.value.achieved <= tol, (run, tol)


def test_default_tol_reaches_the_paper_range():
    # the reported |L| radii, about 1e-10 at the top of the range, are far
    # below the default tol, where the digamma coefficients were refused
    for q in (300003, 999999, 1999995):
        maxima, _ = batch_maxima(q)
        assert len(maxima) == 2 and all(r.abs_rad < 2e-10 for r, _ in maxima), q


def test_digamma_direct_sum_witnesses_every_record():
    # every primitive chi of 3 | q <= 300, the argmax characters of q = 249
    # (even) and q = 111 (odd) among them: the record's value ball overlaps
    # the O(phi) direct sum of the digamma coefficients -psi(a/q)/q, which
    # shares no coefficient code with the transform, and so does its |L|
    checked = 0
    for q in range(3, 301, 3):
        recs = l_values(q)
        if not recs:
            continue
        g = unit_group(q)
        coeffs = build_coefficients(q, 1e-9 / (2 * g.phi))
        chars = enumerate_characters(g)
        for rec in recs:
            d = direct_sum(g, coeffs, chars[rec.index])
            v = rec.value
            assert v.re.overlaps(d.re) and v.im.overlaps(d.im), (q, rec.index)
            assert rec.abs_value.overlaps(d.abs()), (q, rec.index)
            checked += 1
    assert checked == count_primitive(300, 3)
