"""Dirichlet character algebra over the unit-group decomposition.

A character mod q is an exponent tuple against the group's generators;
its value at a unit n is e(sum_i exps[i]*dlog(n)[i]/order[i]).  Phases
are carried as exact integers over a common denominator (the lcm of the
component orders), so parity, conductor and orthogonality tests are
exact; only the final root of unity is a floating-point ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .arith import UnitGroupStructure, dlog, reconstruct, units
from .ball import Ball, ComplexBall

_ROOT_RAD = 2.0 ** -51  # two ulps of unity; see roots_of_unity


@lru_cache(maxsize=256)
def roots_of_unity(m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin midpoint arrays for e(k/m), k = 0..m-1, radius <= 2 ulp.

    k/m is folded into [0, 1/8] by exact integer octant arithmetic before
    any floating-point trig, so the evaluated angle is at most pi/4 and
    no accuracy is lost to range reduction.
    """
    if m < 1:
        raise ValueError("denominator must be positive")
    k = np.arange(m, dtype=np.int64)
    j8 = 8 * k
    o = j8 // m                      # octant index 0..7
    rem = j8 - o * m                 # position within octant, in units of 1/(8m)
    f_num = np.where(o % 2 == 1, m - rem, rem)
    theta = (math.pi * f_num) / (4.0 * m)
    c = np.cos(theta)
    s = np.sin(theta)
    cos_out = np.choose(o, [c, s, -s, -c, -c, -s, s, c])
    sin_out = np.choose(o, [s, c, c, s, -s, -c, -c, -s])
    cos_out.setflags(write=False)
    sin_out.setflags(write=False)
    return cos_out, sin_out


def root_ball(num: int, den: int) -> ComplexBall:
    """e(num/den) as a complex ball."""
    cos_t, sin_t = roots_of_unity(den)
    i = num % den
    return ComplexBall(Ball(float(cos_t[i]), _ROOT_RAD),
                       Ball(float(sin_t[i]), _ROOT_RAD))


def _lcm_orders(g: UnitGroupStructure) -> int:
    return reduce(math.lcm, (c.order for c in g.components), 1)


@dataclass(frozen=True)
class Character:
    """A Dirichlet character mod q, encoded by its generator exponents."""

    q: int
    exps: tuple[int, ...]
    parity: str              # "even" | "odd"
    conductor: int
    primitive: bool
    group: UnitGroupStructure = field(repr=False, compare=False)

    def phase_num(self, n: int) -> int:
        """Exact numerator of the phase of chi(n) over lcm(orders)."""
        L = _lcm_orders(self.group)
        ks = dlog(self.group, n)
        return sum(e * k * (L // c.order)
                   for e, k, c in zip(self.exps, ks, self.group.components)) % L

    def label(self) -> tuple[int, int]:
        """(q, n) cross-reference label: n is the unit whose dlog pairing
        reproduces this character's exponents."""
        return (self.q, reconstruct(self.group, self.exps))


def chi_value(chi: Character, n: int) -> ComplexBall:
    """chi(n) as a complex ball; exactly zero on non-units."""
    n %= chi.q
    if math.gcd(n, chi.q) != 1:
        return ComplexBall.exact(0.0)
    L = _lcm_orders(chi.group)
    return root_ball(chi.phase_num(n), L)


def _parity_of(g: UnitGroupStructure, exps: tuple[int, ...]) -> str:
    m1 = dlog(g, g.q - 1)
    L = _lcm_orders(g)
    num = sum(e * k * (L // c.order)
              for e, k, c in zip(exps, m1, g.components)) % L
    if num == 0:
        return "even"
    if 2 * num == L:
        return "odd"
    raise AssertionError("chi(-1) must be +/-1")


def _conductor_of(g: UnitGroupStructure, exps: tuple[int, ...]) -> int:
    """Divisor-wise induction test: the smallest f | q such that chi is
    trivial on every unit n = 1 (mod f).  Exact integer phase arithmetic
    throughout; for f = 1 the kernel is all units, so conductor 1 means
    principal."""
    q = g.q
    L = _lcm_orders(g)
    weights = [L // c.order for c in g.components]
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        ok = True
        for n in range(1, q, f):
            if math.gcd(n, q) != 1:
                continue
            ks = dlog(g, n)
            if sum(e * k * w for e, k, w in zip(exps, ks, weights)) % L != 0:
                ok = False
                break
        if ok:
            return f
    raise AssertionError("conductor search exhausted all divisors")


def character_from_exps(g: UnitGroupStructure, exps: tuple[int, ...]) -> Character:
    exps = tuple(int(e) % c.order for e, c in zip(exps, g.components))
    cond = _conductor_of(g, exps)
    return Character(g.q, exps, _parity_of(g, exps), cond, cond == g.q, g)


def enumerate_characters(g: UnitGroupStructure) -> list[Character]:
    """All phi(q) characters in lexicographic exponent order (index 0 is
    the principal character)."""
    out = []
    for exps in np.ndindex(*g.orders):
        out.append(character_from_exps(g, tuple(int(e) for e in exps)))
    return out


def gauss_sum(chi: Character) -> ComplexBall:
    """tau(chi) = sum_a chi(a) e(a/q); requires chi primitive so that the
    modulus-sqrt(q) contract holds."""
    if not chi.primitive:
        raise ValueError("Gauss sum modulus contract requires a primitive character")
    q = chi.q
    L = _lcm_orders(chi.group)
    cL, sL = roots_of_unity(L)
    cq, sq = roots_of_unity(q)
    re_terms, im_terms = [], []
    rad_budget = 0.0
    for a in units(q):
        a = int(a)
        num = chi.phase_num(a)
        cr, ci = float(cL[num]), float(sL[num])
        er, ei = float(cq[a]), float(sq[a])
        re_terms.append(cr * er - ci * ei)
        im_terms.append(cr * ei + ci * er)
        # product of two unit-modulus balls: radius <= 2*(rad + rad^2) per
        # part, plus rounding of the 2-term dot products
        rad_budget += 4.0 * _ROOT_RAD + 8.0 * 2.0 ** -52
    re = math.fsum(re_terms)
    im = math.fsum(im_terms)
    rad = rad_budget * (1.0 + 2.0 ** -40) + 2.0 ** -49 * (abs(re) + abs(im) + 1.0)
    return ComplexBall(Ball(re, rad), Ball(im, rad))


# -- vectorized grids for the batch engine ----------------------------------

def _over_lattice(op: np.ufunc, axis_masks: list[np.ndarray]) -> np.ndarray:
    """op combined over the outer product of one boolean vector per axis,
    flattened in C order."""
    return reduce(op.outer, axis_masks).ravel()


def _exponents(g: UnitGroupStructure, exps) -> list[np.ndarray]:
    """One exponent vector per axis of g: `exps`, or by default every
    exponent of each axis, whose outer product is the enumeration order."""
    return [np.arange(c.order) for c in g.components] if exps is None else list(exps)


def parity_mask(g: UnitGroupStructure, exps=None) -> np.ndarray:
    """Boolean array over the sub-lattice whose axis i holds the exponents
    exps[i] (default: every character, in enumeration order), flattened in
    C order: True where chi is odd.

    -1 has the exponent m_i = `Component.minus_one` on axis i (order_i/2,
    or 0 on the <5> axis of a part 2^e, from `arith`), so axis i contributes
    e(k_i m_i/order_i) = +/-1 to chi(-1): -1 exactly when k_i m_i is not a
    multiple of order_i.  An axis held at the single exponent 1 (a folded
    order-2 axis) flips the parity of the rest.
    """
    return _over_lattice(np.logical_xor, [
        k * c.minus_one % c.order != 0 for c, k in zip(g.components, _exponents(g, exps))])


def primitive_mask(g: UnitGroupStructure, exps=None) -> np.ndarray:
    """Boolean array over the sub-lattice whose axis i holds the exponents
    exps[i] (default: every character, in enumeration order), flattened in
    C order: True where chi is primitive.

    chi is primitive iff each local factor is, so the mask is the and of
    one predicate per axis, on its exponent k:
      odd part p^e: k % p != 0 if e >= 2, and k != 0 if e = 1;
      part 4: k != 0;
      part 2^e, e >= 3: any k on the <-1> axis, odd k on the <5> axis;
    and q = 2 (mod 4) admits no primitive character at all.  Every rule
    but the <-1> one is k % p != 0, since k < p - 1 when e = 1 and k < 2
    on the part 4.
    """
    exps = _exponents(g, exps)
    if g.q % 4 == 2:
        return np.zeros(math.prod(k.size for k in exps), dtype=bool)
    return _over_lattice(np.logical_and, [
        np.ones(k.size, dtype=bool) if c.modulus > 4 and c.generator == c.modulus - 1
        else k % c.prime != 0
        for c, k in zip(g.components, exps)])


def conjugate_index(g: UnitGroupStructure, index):
    """Enumeration index of the complex conjugate: every exponent negated.
    `index` is an int or an integer array, elementwise."""
    conj, stride = 0, 1
    for order in reversed(g.orders):
        index, e = divmod(index, order)
        conj += (-e % order) * stride
        stride *= order
    return conj


# -- primitive-character counting --------------------------------------------

def count_primitive(q_max: int, divisor: int | None = None) -> int:
    """Number of primitive characters with conductor q <= q_max, optionally
    restricted to divisor | q.

    phi*(q) is multiplicative, with phi*(p) = p - 2 and phi*(p^e) =
    p^(e-2) (p-1)^2 for e >= 2, so it is sieved one prime p <= sqrt(q_max)
    at a time.  Once those primes are divided out, what is left of q is 1
    or a single prime p > sqrt(q_max), which contributes p - 2.  q = 1
    contributes its single (trivial) character when unrestricted.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    n = q_max
    phistar = np.ones(n + 1, dtype=np.int64)
    phistar[0] = 0
    rest = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if rest[p] != p:  # a smaller prime divides p
            continue
        ppart = np.full(n // p, p, dtype=np.int64)  # p-part of q = (i + 1) p
        pe = p
        while pe <= n // p:
            ppart[pe - 1::pe] *= p
            pe *= p
        rest[p::p] //= ppart
        phistar[p::p] *= np.where(ppart == p, p - 2, (p - 1) ** 2 * (ppart // (p * p)))
    phistar *= np.where(rest > 1, rest - 2, 1)
    return int(phistar.sum() if divisor is None else phistar[::abs(divisor)].sum())
