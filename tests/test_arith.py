"""Unit-group structure: factorization, generators, dlog round trips."""

import numpy as np
import pytest

from l1sweep import batch
from l1sweep.arith import (dlog, dlog_matrix, euler_phi, factorize, reconstruct,
                           smallest_primitive_root, unit_group, units)


def _phi_sieve(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(3).factors == ((3, 1),)
    assert factorize(2_000_000).factors == ((2, 7), (5, 6))
    assert factorize(1).factors == ()
    assert factorize(9973).factors == ((9973, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_roundtrip_bulk():
    for q in range(1, 3000):
        fac = factorize(q)
        prod = 1
        prev = 0
        for p, e in fac.factors:
            assert p > prev and e >= 1
            prev = p
            prod *= p ** e
        assert prod == q


def test_unit_group_examples():
    g9 = unit_group(9)
    assert [(c.modulus, c.generator, c.order) for c in g9.components] == [(9, 2, 6)]
    g8 = unit_group(8)
    assert [(c.modulus, c.generator, c.order) for c in g8.components] == [(8, 7, 2), (8, 5, 2)]
    g15 = unit_group(15)
    assert [(c.modulus, c.generator, c.order) for c in g15.components] == [(3, 2, 2), (5, 2, 4)]


def test_unit_group_rejects_small_q():
    for q in (0, 1, 2):
        with pytest.raises(ValueError):
            unit_group(q)


def test_unit_group_rejects_q_from_2_to_the_31():
    # the int64 lattice products and the int32 index are exact below 2^31;
    # the refusal comes before any array is built
    for q in (2**31, 2**31 + 1, 3 * 2**40):
        with pytest.raises(ValueError, match="2\\^31"):
            unit_group(q)


def test_generator_orders_are_exact():
    # brute-force order check of each component generator inside its part
    for q in (9, 8, 15, 16, 32, 27, 25, 49, 121, 243):
        for comp in unit_group(q).components:
            n = comp.generator % comp.modulus
            k, acc = 1, n
            while acc != 1:
                acc = acc * n % comp.modulus
                k += 1
            # <-1> and <5> generate the 2-part jointly; each has exact order
            assert k == comp.order, (q, comp)


def test_dlog_examples():
    g9 = unit_group(9)
    assert dlog(g9, 1) == (0,)
    assert dlog(g9, 4) == (2,)
    g15 = unit_group(15)
    assert dlog(g15, 14) == (1, 2)
    assert reconstruct(g15, (1, 2)) == 14


def test_dlog_rejects_non_units():
    g = unit_group(12)
    for n in (0, 2, 3, 4, 6, 8, 9, 10):
        with pytest.raises(ValueError):
            dlog(g, n)
    with pytest.raises(ValueError):
        dlog_matrix(g, np.array([1, 5, 6]))


def test_dlog_roundtrip_exhaustive_to_1000():
    phi = _phi_sieve(1000)
    for q in range(3, 1001):
        g = unit_group(q)
        prod = 1
        for c in g.components:
            prod *= c.order
        assert prod == g.phi == int(phi[q]) == euler_phi(q)
        for n in units(q):
            assert reconstruct(g, dlog(g, int(n))) == int(n), (q, n)


def test_unit_group_deterministic():
    a, b = unit_group(360), unit_group(360)
    assert a.components == b.components
    assert np.array_equal(a.lattice, b.lattice)
    assert np.array_equal(a.index, b.index)


def test_unit_group_builds_half_of_axis_0():
    # unit_group builds only the units whose axis-0 exponent is below half
    # that axis's order, lattice[:phi // 2]; the full lattice is built on
    # its first read
    for q in list(range(3, 3001)) + [999999, 1000000, 1000003, 1999995, 1999998, 2000000]:
        g = unit_group(q)
        assert "lattice" not in vars(g) and g.half.size == g.phi // 2, q
        assert np.array_equal(g.half, g.lattice[:g.phi // 2]), q


def test_unit_group_index_is_int32():
    # positions are below phi(q) < 2^31; half the bytes of an int64 index
    g = unit_group(999999)
    assert g.index.dtype == np.int32 and g.index.nbytes == 4 * 999999
    assert np.array_equal(g.index[g.lattice], np.arange(g.phi))


def _gcd_units(q: int) -> np.ndarray:
    # the definition, kept as the oracle for the sieve and the lattice
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


# 3..1000, and 3 2^e p, whose <5> axis (e >= 3) takes no half swap
_LATTICE_QS = pytest.mark.parametrize("qs", [
    range(3, 1001),
    [3 * 2 ** e * p for e in range(11) for p in (1, 5, 7, 11, 13)],
], ids=["3..1000", "3*2^e*p"])


@_LATTICE_QS
def test_unit_lattice_against_definitions(qs):
    for q in qs:
        g = unit_group(q)
        want = _gcd_units(q)
        assert np.array_equal(units(q), want), q
        assert np.array_equal(np.sort(g.lattice), want), q
        assert np.array_equal(g.index[g.lattice], np.arange(g.phi)), q
        assert np.array_equal(np.flatnonzero(g.index >= 0), want), q
        # lattice position k holds prod_i generator_i^k_i in every part
        ks = np.unravel_index(np.arange(g.phi), g.orders)
        for m in {c.modulus for c in g.components}:
            local = np.ones(g.phi, dtype=np.int64)
            for c, k in zip(g.components, ks):
                if c.modulus == m:
                    pows = np.array([pow(c.generator, e, m) for e in range(c.order)])
                    local = local * pows[k] % m
            assert np.array_equal(g.lattice % m, local), (q, m)
        # -half[k] sits in the second half where the half-swap view puts k
        h = g.phi // 2
        assert np.array_equal(g.index[q - g.half], h + g.half_swap(np.arange(h)).ravel()), q


@_LATTICE_QS
def test_mirror_writes_both_signs_where_the_units_sit(qs):
    rng = np.random.default_rng(7)
    for q in qs:
        g = unit_group(q)
        h = g.phi // 2
        f, v = rng.standard_normal(h), rng.standard_normal(h)
        out = np.empty(g.phi)
        out[:h] = f
        batch._mirror(g, out, v)
        assert np.array_equal(out[:h].view(np.int64), (f + v).view(np.int64)), q
        assert np.array_equal(out[g.index[q - g.half]].view(np.int64),
                              (f - v).view(np.int64)), q


def test_smallest_primitive_root_known_values():
    known = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 23: 5, 41: 6, 71: 7, 191: 19}
    for p, g in known.items():
        assert smallest_primitive_root(p) == g
