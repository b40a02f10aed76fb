"""Batch evaluation of L(1,chi) for all primitive characters of one conductor.

The coefficient vector a(n) = -psi(n/q)/q is evaluated on the units laid
out on the exponent lattice of the unit group and transformed by one FFT
per cyclic component, which evaluates sum_n a(n) chi(n) for every
character at once in O(phi(q) log q).  Before the transform the lattice
is folded on the order-2 axis of the part 3 (3 || q) and of the part 4
(4 || q), where only the exponent 1 gives primitive characters: the
difference of the axis's two halves is transformed instead, so those
conductors transform a half or a quarter of the lattice, and each output
keeps its full enumeration index.  numpy's pocketfft supplies
mixed-radix and Bluestein kernels for arbitrary axis lengths; rigor is
preserved by computing on midpoints and adding a single certified error
envelope per output (roundoff-growth bound plus the summed input radii,
the fold's rounding included), validated against exact small-length DFTs
and the direct per-character sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .arith import UnitGroupStructure, dlog_matrix, euler_phi, unit_group
from .ball import Ball, ComplexBall, _out_array
from .characters import (Character, _lcm_orders, conjugate_index, parity_mask,
                         primitive_mask, roots_of_unity)
from .special import ToleranceError, digamma_points

_EPS = 2.0 ** -52
_U = 2.0 ** -53
# FFT roundoff envelope constant: |error| <= C log2(N) u N max|a|.  The
# classical backward-stability bound for power-of-two FFTs has C ~ 3; the
# factor below also covers pocketfft's Bluestein path with a wide margin
# (see the small-N validation tests).
_FFT_C = 4.0


@dataclass(frozen=True)
class CoefficientVector:
    """a(n) = -psi(n/q)/q as midpoint/radius arrays, at n = g.lattice: entry
    k belongs to the unit at flat position k of g's exponent lattice."""

    g: UnitGroupStructure
    mids: np.ndarray
    rads: np.ndarray


def build_coefficients(q: int, tol: float) -> CoefficientVector:
    """Digamma coefficient vector on unit_group(q)'s lattice, with per-entry
    radius at most tol."""
    if q < 3:
        raise ValueError(f"build_coefficients requires q >= 3, got {q}")
    g = unit_group(q)
    psi_mid, psi_rad = digamma_points(g.lattice / float(q))
    mids = -psi_mid / q
    rads = psi_rad / q * (1.0 + 2.0 ** -40) + 2.0 * _EPS * np.abs(mids)
    worst = float(rads.max())
    if worst > tol:
        raise ToleranceError(tol, worst, q)
    return CoefficientVector(g, mids, rads)


def character_sums(shape: tuple[int, ...], values: np.ndarray,
                   rads: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_n a(n) chi(n) for every character of a lattice of `shape`.

    `values` and `rads` are the flattened lattice in C order.  Returns the
    complex midpoint array (flattened, C order, which is exactly the
    lexicographic character order) and one envelope radius valid for each
    output's real and imaginary parts: the FFT roundoff bound on N =
    values.size points plus the summed input radii.  A float sum of N
    nonnegative terms, in any order, is at least (1 - (N - 1)u) times the
    exact sum, so scaling it by 1 + 2Nu (exact in binary) leaves an upper
    bound after the product's own rounding, however numpy sums.
    """
    n = values.size
    # conj(fftn(conj(lattice))), both conjugates taken in place; a real
    # entry's conjugate keeps the -0.0 imaginary part a copy would give
    lattice = values.astype(np.complex128)
    np.conj(lattice, out=lattice)
    spectrum = np.fft.fftn(lattice.reshape(shape))
    np.conj(spectrum, out=spectrum)
    max_mag = float(np.max(np.abs(values)))
    envelope = (_FFT_C * math.log2(max(n, 2)) * _U * n * max_mag
                + float(np.sum(rads)) * (1.0 + 2.0 * n * _U))
    return spectrum.ravel(), envelope


def fold(g: UnitGroupStructure, mids: np.ndarray, rads: np.ndarray):
    """The coefficient lattice reduced to its primitive slice on each axis
    where only the exponent j = 1 is primitive: the order-2 axis of the
    part 3 when 3 || q, and of the part 4 when 4 || q.

    On an order-2 axis chi(g^k) = (-1)^(jk), so the characters with j = 1
    there are the transform over the other axes of x[k=0] - x[k=1].  Each
    fold replaces the lattice by that difference b and drops the axis.  b
    is rounded once, so its entry's radius is r0 + r1 + u |b| / (1 - u),
    at most r0 + r1 + 2u |b|; the factor 1 + 8u covers the three
    roundings of computing that.

    Returns (shape, values, rads, index): the folded lattice's shape, its
    flattened midpoints and radii, and the full enumeration index of each
    folded position, which increases along the flattened lattice.  With
    every axis folded (q = 3, 4, 12) the lattice is one point of shape
    (1,).
    """
    orders = list(g.orders)
    mids, rads = mids.reshape(orders), rads.reshape(orders)
    index = np.arange(g.phi).reshape(orders)
    folded = [i for i, c in enumerate(g.components) if c.order == 2 and c.modulus in (3, 4)]
    for axis in reversed(folded):
        at = (slice(None),) * axis
        b = mids[at + (0,)] - mids[at + (1,)]
        rads = (rads[at + (0,)] + rads[at + (1,)] + 2.0 * _U * np.abs(b)) * (1.0 + 8.0 * _U)
        mids, index = b, index[at + (1,)]
        del orders[axis]
    return tuple(orders) or (1,), mids.ravel(), rads.ravel(), index.ravel()


def direct_sum(g: UnitGroupStructure, coeffs: CoefficientVector,
               chi: Character) -> ComplexBall:
    """Naive O(phi(q)) evaluation of sum_n a(n) chi(n); the oracle the
    transform is checked against."""
    if g.q != coeffs.g.q:
        raise ValueError("coefficient vector and group have different conductors")
    L = _lcm_orders(g)
    weights = [L // c.order for c in g.components]
    coords = dlog_matrix(g, coeffs.g.lattice)
    nums = np.zeros(g.phi, dtype=np.int64)
    for e, k, w in zip(chi.exps, coords, weights):
        nums += int(e) * k * w
    nums %= L
    cos_t, sin_t = roots_of_unity(L)
    c = cos_t[nums]
    s = sin_t[nums]
    re = math.fsum(coeffs.mids * c)
    im = math.fsum(coeffs.mids * s)
    root_rad = 2.0 ** -51
    per_term = (np.abs(coeffs.mids) * root_rad + coeffs.rads * (1.0 + root_rad)
                + 2.0 * _EPS * np.abs(coeffs.mids))
    rad = float(np.sum(per_term)) * (1.0 + 2.0 ** -40) + _EPS * (abs(re) + abs(im) + 1.0)
    return ComplexBall(Ball(re, rad), Ball(im, rad))


class LValueRecord(NamedTuple):
    """One primitive character's L(1,chi) and its excess over (log q)/3.

    Every field is a plain int, str or float, so a record is one tuple.
    The balls are built only when a property is read: `value` is
    ComplexBall(Ball(re, env), Ball(im, env)), `abs_value` is
    Ball(abs_mid, abs_rad) and `excess` is Ball(excess_mid, excess_rad),
    each bit-identical to the ball the scalar path computes.
    """

    q: int
    index: int           # position in the character enumeration
    parity: str          # "even" | "odd"
    re: float            # L(1, chi) midpoint, real part
    im: float            # L(1, chi) midpoint, imaginary part
    env: float           # radius of both parts of L(1, chi)
    abs_mid: float       # |L(1, chi)|, outward rounded
    abs_rad: float
    excess_mid: float    # |L| - (1/3) log q
    excess_rad: float

    @property
    def value(self) -> ComplexBall:
        return ComplexBall(Ball(self.re, self.env), Ball(self.im, self.env))

    @property
    def abs_value(self) -> Ball:
        return Ball(self.abs_mid, self.abs_rad)

    @property
    def excess(self) -> Ball:
        return Ball(self.excess_mid, self.excess_rad)


def _spectrum(q: int, tol: float):
    """The unit group, the character sums of the folded lattice (see
    `fold`) and their envelope, each sum's enumeration index, the
    primitive and parity masks at those indices, and (1/3) log q of one
    conductor.  None when q has no primitive character (q = 2 mod 4), in
    which case neither the unit group, the coefficients nor the transform
    are built."""
    if q % 4 == 2:
        return None
    coeffs = build_coefficients(q, tol / (2.0 * euler_phi(q)))
    g = coeffs.g
    shape, values, rads, index = fold(g, coeffs.mids, coeffs.rads)
    spec, env = character_sums(shape, values, rads)
    return (g, spec, env, index, primitive_mask(g)[index], parity_mask(g)[index],
            Ball.exact(q).log() / 3)


def l_values(q: int, tol: float = 1e-9) -> list[LValueRecord]:
    """L(1,chi) records for every primitive character mod q.

    Conductors with no primitive characters (q = 2 mod 4) yield an empty
    list.  Records appear in character enumeration order.

    The ball arithmetic runs on arrays, once per conductor, and every
    float of every record is bit-identical to the scalar path: the value
    ball's `.abs()` (ball_hypot, with math.hypot on each midpoint pair)
    for `abs_value`, then `abs_value - log3` for `excess`.  Each record
    is one tuple of those floats; no Ball is built here.
    """
    if q < 3:
        raise ValueError(f"l_values requires q >= 3, got {q}")
    sp = _spectrum(q, tol)
    if sp is None:
        return []
    _, spec, env, index, prim, odd, log3 = sp
    idx = np.flatnonzero(prim)
    re, im = spec.real[idx].tolist(), spec.imag[idx].tolist()
    # math.hypot as in ball_hypot; np.hypot need not round the same way
    abs_mid = np.array(list(map(math.hypot, re, im)), dtype=np.float64)
    abs_rad = _out_array(abs_mid, env + env + 2.0 * _EPS * abs_mid)
    ex_mid = abs_mid - log3.mid
    ex_rad = _out_array(ex_mid, abs_rad + log3.rad)
    # the check Ball.__post_init__ would make on each radius
    if not (env >= 0.0 and (abs_rad >= 0.0).all() and (ex_rad >= 0.0).all()):
        raise ValueError(f"q={q}: negative radius in an L-value record")
    parity = map(("even", "odd").__getitem__, odd[idx].tolist())
    return list(map(LValueRecord._make, zip(
        repeat(q), index[idx].tolist(), parity, re, im, repeat(env), abs_mid.tolist(),
        abs_rad.tolist(), ex_mid.tolist(), ex_rad.tolist())))


def batch_maxima(q: int, tol: float = 1e-9) -> tuple[list[tuple[LValueRecord, bool]], int]:
    """Per-parity maxima of |L(1,chi)| - (log q)/3 over primitive chi.

    Returns ([(record, ambiguous) per parity that occurs], primitive
    character count).  The argmax is the smallest index whose `np.abs`
    midpoint lies within twice the |L| radius of the largest; its record
    is bit-identical to the `l_values` one.  It is ambiguous when another
    such candidate is not its conjugate (a(n) is real, so chi and its
    conjugate have the same |L|).

    A pass on this record covers every chi of the parity.  Each part of
    chi's computed midpoint s lies within env of L(1,chi), and env is the
    same for all chi, so |L(1,chi)| <= |s| + sqrt(2) env.  The record's |L|
    radius, at least 2 env + 3 eps |L| (2 eps from `ball_hypot`, eps from
    `_out`), grows with |L|, so a record with a smaller hypot midpoint has
    a smaller upper end.  `np.abs` and `math.hypot` may order near-equal
    midpoints differently, but each is within one ulp of |s|: |s| <=
    np.abs(s) + ulp <= np.abs(s_max) + ulp <= hypot(s_max) + 3 ulp, inside
    the 3 eps |L| slack.  So the record's upper end bounds every excess of
    the parity.
    """
    if q < 3:
        raise ValueError(f"batch_maxima requires q >= 3, got {q}")
    sp = _spectrum(q, tol)
    if sp is None:
        return [], 0
    g, spec, env, index, prim, odd, log3 = sp
    abs_mid = np.abs(spec)
    out = []
    for parity, sel in (("even", prim & ~odd), ("odd", prim & odd)):
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        mids = abs_mid[idx]
        top = float(mids.max())
        cands = idx[mids >= top - 2.0 * (2.0 * env + 2.0 * _EPS * top)]
        re, im = float(spec.real[cands[0]]), float(spec.imag[cands[0]])
        a = ComplexBall(Ball(re, env), Ball(im, env)).abs()
        e = a - log3
        best = int(index[cands[0]])      # positions and indices rise together
        rec = LValueRecord(q, best, parity, re, im, env, a.mid, a.rad, e.mid, e.rad)
        ambiguous = (cands.size > 1 and not set(index[cands].tolist())
                     <= {best, conjugate_index(g, best)})
        out.append((rec, ambiguous))
    return out, int(prim.sum())
