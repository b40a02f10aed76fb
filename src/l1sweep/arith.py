"""Unit-group structure of (Z/qZ)^*: factorization, generators, discrete logs.

The multiplicative group mod q is decomposed into cyclic components, one
per odd prime-power factor (generated by the smallest suitable primitive
root) and one or two for the 2-part: nothing for 2, a single order-2
component generated by 3 for 4, and <-1> x <5> for 2^e with e >= 3.
The units are generated forward from the CRT-lifted generators, in C
order over half the exponent lattice (all of it on first use); a
residue-indexed inverse, built on first use, gives discrete logs.
This module alone decides where -a sits: -1 has the exponent order/2 on
every axis but <5> (`Component.minus_one`), so -a lies in the second half
at a view with those axes' halves swapped (`UnitGroupStructure.half_swap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True, slots=True)
class Factorization:
    q: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= (p - 1) * p ** (e - 1)
        return out


def factorize(q: int) -> Factorization:
    """Trial-division factorization; total on positive integers."""
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    n = q
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    p = 5
    step = 2  # alternate +2, +4 to skip multiples of 2 and 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    return Factorization(q, tuple(factors))


def euler_phi(q: int) -> int:
    """phi(q) = prod p^(e-1) (p - 1) over the prime powers p^e || q."""
    return factorize(q).phi()


def smallest_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    order_factors = [r for r, _ in factorize(p - 1).factors]
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
        g += 1


def _prime_power_generator(p: int, e: int) -> int:
    """Generator of (Z/p^e Z)^* for odd p: smallest primitive root mod p,
    bumped by p if it fails to have full order mod p^2."""
    g = smallest_primitive_root(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True, slots=True)
class Component:
    """One cyclic factor of the unit group."""
    modulus: int    # the prime-power part p^e this component lives in
    prime: int      # its prime p
    generator: int  # residue mod `modulus`
    order: int

    @property
    def minus_one(self) -> int:
        """The exponent of -1 on this axis: 0 on the <5> axis of a part 2^e
        (e >= 3), else order/2, the one element of order 2 in a cyclic group."""
        return 0 if self.prime == 2 and self.generator == 5 else self.order // 2


@dataclass(frozen=True)
class UnitGroupStructure:
    q: int
    phi: int
    components: tuple[Component, ...]
    # lattice[k] is the unit at flat position k (C order) of the exponent
    # lattice, prod_i G_i^{k_i} mod q with G_i the CRT lift of component
    # i's generator; half is lattice[:phi // 2]
    half: np.ndarray = field(repr=False)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.order for c in self.components)

    def half_swap(self, a: np.ndarray) -> np.ndarray:
        """The view of `a`, contiguous and laid out like `half`, whose entry k
        (C order) sits where -half[k] does in the second half of axis 0: each
        axis but 0 and <5> (where minus_one is 0) has its halves swapped."""
        shape = [-1]
        for c in self.components[1:]:
            shape += [2, c.minus_one] if c.minus_one else [1, c.order]
        return np.flip(a.reshape(shape), axis=tuple(range(1, len(shape), 2)))

    @cached_property
    def lattice(self) -> np.ndarray:
        """Built on first read, by the discrete logs and the oracles only: the
        second half holds q - half at the positions of -half (`half_swap`)."""
        lattice = np.concatenate([self.half, self.half])
        neg = self.half_swap(lattice[self.phi // 2:])
        np.subtract(self.q, self.half.reshape(neg.shape), out=neg)
        return lattice

    @cached_property
    def index(self) -> np.ndarray:
        """index[n] (int32) is the lattice position of n, or -1 on a non-unit.

        Built from `lattice` on first read and kept for the object's life;
        only the discrete logs read it, so a spectrum never builds it.
        """
        # positions are below phi(q) < q < 2^31, so int32 holds them
        index = np.full(self.q, -1, dtype=np.int32)
        index[self.lattice] = np.arange(self.lattice.size, dtype=np.int32)
        return index


def _powers(g: int, order: int, modulus: int) -> np.ndarray:
    """g^k mod modulus for k = 0..order-1, exact for modulus < 2^31.

    Built baby-step/giant-step so the Python-level loop is O(sqrt(order)).
    """
    m = math.isqrt(order) + 1
    baby = [1] * m
    for i in range(1, m):
        baby[i] = baby[i - 1] * g % modulus
    big = baby[m - 1] * g % modulus  # g^m
    giant = [1] * m
    for i in range(1, m):
        giant[i] = giant[i - 1] * big % modulus
    grid = (np.array(giant, dtype=np.int64)[:, None]
            * np.array(baby, dtype=np.int64)[None, :]) % modulus
    return grid.ravel()[:order]


def unit_group(q: int) -> UnitGroupStructure:
    """Deterministic cyclic decomposition of (Z/qZ)^*, with its units laid
    out on the first half of the lattice's axis 0 (of even order).  q < 2^31
    keeps the lattice's int64 products and the int32 `index` exact."""
    if not 3 <= q < 2 ** 31:
        raise ValueError(f"unit_group requires 3 <= q < 2^31, got {q}")
    fac = factorize(q)
    comps: list[Component] = []
    for p, e in fac.factors:
        if p == 2:
            if e == 2:
                comps.append(Component(4, 2, 3, 2))
            elif e >= 3:
                mod = 1 << e
                comps += [Component(mod, 2, mod - 1, 2), Component(mod, 2, 5, 1 << (e - 2))]
        else:
            comps.append(Component(p ** e, p, _prime_power_generator(p, e),
                                   (p - 1) * p ** (e - 1)))
    lattice = np.ones(1, dtype=np.int64)
    for i, c in enumerate(comps):
        rest = q // c.modulus
        # the generator mod its part, 1 mod the rest of q
        lift = (1 + (c.generator - 1) * rest * pow(rest, -1, c.modulus)) % q
        lattice = np.multiply.outer(lattice, _powers(lift, c.order // (2 if i == 0 else 1), q))
        lattice = np.remainder(lattice, q, out=lattice).ravel()
    return UnitGroupStructure(q, fac.phi(), tuple(comps), lattice)


def dlog(g: UnitGroupStructure, n: int) -> tuple[int, ...]:
    """Exponent tuple of n against the group's generators."""
    n %= g.q
    k = int(g.index[n])
    if k < 0:
        raise ValueError(f"{n} is not a unit mod {g.q}")
    return tuple(int(e) for e in np.unravel_index(k, g.orders))


def reconstruct(g: UnitGroupStructure, exps: tuple[int, ...]) -> int:
    """Inverse of dlog: the unit residue with the given exponent tuple."""
    if len(exps) != len(g.components):
        raise ValueError("exponent tuple has wrong length")
    k = np.ravel_multi_index(tuple(int(e) % o for e, o in zip(exps, g.orders)), g.orders)
    return int(g.lattice[k])


def units(q: int) -> np.ndarray:
    """Ascending array of unit residues in [1, q)."""
    keep = np.ones(q, dtype=bool)
    keep[:1] = False
    for p, _ in factorize(q).factors:
        keep[::p] = False
    return np.flatnonzero(keep)


def dlog_matrix(g: UnitGroupStructure, ns: np.ndarray) -> list[np.ndarray]:
    """Vectorized dlog: one exponent array per component, aligned with ns;
    raises ValueError if any of ns is not a unit mod g.q."""
    k = g.index[ns % g.q]
    if (k < 0).any():
        raise ValueError(f"dlog_matrix given a non-unit mod {g.q}")
    return list(np.unravel_index(k, g.orders))
