"""The elementary coefficients x and w of the modulus transform: their
stated per-entry radii against 40-digit mpmath, their tolerance contract,
and the digamma direct sum as an independent witness of the records.

x(a) = log(2 sin(pi a'/q)) + pi (a/q - 1/2) with a' = min(a, q - a), and
w(a) = cos(2 pi a/q) + sin(2 pi a/q) (see the `batch` module docstring).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from l1sweep import batch
from l1sweep.arith import unit_group
from l1sweep.batch import build_coefficients, direct_sum, l_values
from l1sweep.characters import count_primitive, enumerate_characters
from l1sweep.special import ToleranceError

mp.mp.dps = 40

BOUND_QS = (3, 4, 12, 999, 98613, 999999, 1999995)


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


@pytest.mark.parametrize("q", BOUND_QS)
def test_coefficient_radii_against_mpmath(q):
    # each entry of x and w lies within its stated radius of the 40-digit
    # value at a = 1 (where the logarithm is about log(2 pi/q)), at the
    # units nearest q/2, and at random units; so does each folded
    # difference, with the radius fold states
    g = unit_group(q)
    x, xr = batch._log_sine_coefficients(g, 1.0)
    w, wr = batch._phase_coefficients(g, 1.0)
    assert (wr == 25.0 * 2.0 ** -53).all()
    worst = 0.0
    for k in _extreme_positions(g):
        a = int(g.lattice[k])
        for mids, rads, exact in ((x, xr, _x(a, q)), (w, wr, _w(a, q))):
            err = abs(mp.mpf(float(mids[k])) - exact)
            assert err <= rads[k], (q, a, float(err), rads[k])
            worst = max(worst, float(err / mp.mpf(float(rads[k]))))
    for mids, rads, value in ((x, xr, _x), (w, wr, _w)):
        _, b, br, _ = batch.fold(g, mids, rads)
        terms = _folded_terms(g)
        picks = {0, b.size - 1} | set(np.random.default_rng(1).integers(0, b.size, 20).tolist())
        for j in sorted(picks):
            exact = sum(s * value(int(g.lattice[p[j]]), q) for p, s in terms)
            err = abs(mp.mpf(float(b[j])) - exact)
            assert err <= br[j], (q, j, float(err), br[j])
    # the radii are bounds with room, not estimates
    assert worst < 0.5, worst


@pytest.mark.parametrize("builder", [batch._log_sine_coefficients, batch._phase_coefficients])
def test_elementary_coefficients_tolerance_contract(builder):
    # every entry radius over sqrt(q) is at most tol/(2 phi); a tol below
    # that floor is refused with the conductor named, and so is NaN
    g = unit_group(1000)
    _, rads = builder(g, 1e-9)
    floor = 2 * g.phi * float(rads.max()) / math.sqrt(g.q)
    assert floor <= 1e-9
    builder(g, 2 * floor)
    with pytest.raises(ToleranceError) as exc:
        builder(g, floor / 2)
    assert exc.value.q == 1000 and exc.value.achieved > exc.value.requested
    with pytest.raises(ToleranceError):
        builder(g, math.nan)


def test_default_tol_reaches_the_paper_range():
    # the floor 2 phi max(r)/sqrt(q) is far below the default tol at the
    # top of the range, where the digamma coefficients were refused
    for q in (300003, 999999, 1999995):
        g = unit_group(q)
        _, rads = batch._log_sine_coefficients(g, 1e-9)
        assert 2 * g.phi * float(rads.max()) / math.sqrt(q) < 1e-10, q


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
