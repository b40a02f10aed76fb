"""Batch evaluation of L(1,chi) for all primitive characters of one conductor.

The coefficient vector a(n) = -psi(n/q)/q is evaluated on the units laid
out on the exponent lattice of the unit group and transformed by one FFT
per cyclic component, which evaluates sum_n a(n) chi(n) for every
character at once in O(phi(q) log q).  Before the transform the lattice
is folded on the order-2 axis of the part 3 (3 || q) and of the part 4
(4 || q), where only the exponent 1 gives primitive characters: the
difference of the axis's two halves is transformed instead, so those
conductors transform a half or a quarter of the lattice.  a(n) is real,
so the folded lattice goes through one real-input transform (rfftn),
which computes only the half spectrum, exponents 0..n//2 on its last axis:
every other character is the conjugate of one in that half, with the
conjugate sum and the same |L(1,chi)|.  numpy's pocketfft supplies
mixed-radix and Bluestein kernels for arbitrary axis lengths; rigor is
preserved by computing on midpoints and adding a single certified error
envelope per output (roundoff-growth bound plus the summed input radii,
the fold's rounding included), validated against exact DFTs and the
direct per-character sum.  The spectrum then keeps one entry per
primitive conjugate class, the first member in that half, with its full
enumeration index.  `batch_maxima` searches the classes; `l_values`
rebuilds each class's second member by exact conjugation, and one array
pass builds every L-value record, the two argmax records of
`batch_maxima` included.
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
    g = unit_group(q)                    # which refuses q < 3
    # -psi/q and psi_rad/q (1 + 2^-40) + 2 eps |mids|, in place
    mids, rads = digamma_points(g.lattice / float(q))
    np.divide(np.negative(mids, out=mids), q, out=mids)
    np.multiply(np.divide(rads, q, out=rads), 1.0 + 2.0 ** -40, out=rads)
    slack = np.abs(mids)
    rads += np.multiply(slack, 2.0 * _EPS, out=slack)
    worst = float(rads.max())
    if not worst <= tol:                 # a NaN tol attains nothing
        raise ToleranceError(tol, worst, q)
    return CoefficientVector(g, mids, rads)


def character_sums(shape: tuple[int, ...], values: np.ndarray,
                   rads: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_n a(n) chi(n) over a real lattice of `shape`, for the characters
    of rfftn's half: exponents 0..n//2 on the last axis (n its length) and
    every exponent on the others.

    `values` (real) and `rads` are the flattened lattice in C order.  The
    sum at the conjugate character is the conjugate sum, so the half
    holds at least one member of every conjugate class (see `_classes`).
    Returns the complex midpoints conj(rfftn(lattice)), flattened in C
    order, which is lexicographic character order, and one envelope
    radius valid for each output's real and imaginary parts: the FFT
    roundoff bound on N = values.size points plus the summed input radii.
    A float sum of N nonnegative terms, in any order, is at least
    (1 - (N - 1)u) times the exact sum, so scaling it by 1 + 2Nu (exact in
    binary) leaves an upper bound after the product's own rounding,
    however numpy sums.

    Real-kernel assumption: the roundoff bound C log2(N) u N max|a| is the
    one for the complex transform of N points (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 24.1), and it is assumed to
    hold for pocketfft's real-input path too: a real FFT along the last
    axis (radix 2, 3, 4, 5 and generic passes, or Bluestein for a large
    prime factor), then complex FFTs along the others.  The exact-DFT
    tests check it at lengths that reach each of those kernels.
    """
    n = values.size
    spectrum = np.fft.rfftn(values.reshape(shape))
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

    Returns (shape, values, rads, exps): the folded lattice's shape, its
    flattened midpoints and radii, and one exponent vector per axis of g,
    whose outer product is the folded lattice in C order: [1] on a folded
    axis, every exponent elsewhere.  With every axis folded (q = 3, 4, 12)
    the lattice is one point of shape (1,).
    """
    orders = list(g.orders)
    mids, rads = mids.reshape(orders), rads.reshape(orders)
    exps = [np.arange(order) for order in orders]
    folded = [i for i, c in enumerate(g.components) if c.order == 2 and c.modulus in (3, 4)]
    for axis in reversed(folded):
        at = (slice(None),) * axis
        b = mids[at + (0,)] - mids[at + (1,)]
        rads = (rads[at + (0,)] + rads[at + (1,)] + 2.0 * _U * np.abs(b)) * (1.0 + 8.0 * _U)
        mids = b
        exps[axis] = exps[axis][1:]
        del orders[axis]
    return tuple(orders) or (1,), mids.ravel(), rads.ravel(), exps


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


def _half(exps: list[np.ndarray]) -> list[np.ndarray]:
    """The exponent vectors of rfftn's half of the folded lattice `exps`
    (see `fold`): the last transformed axis, the last one holding more
    than one exponent (a folded axis holds only 1), cut to 0..n//2."""
    exps = list(exps)
    for axis in reversed(range(len(exps))):
        if exps[axis].size > 1:
            exps[axis] = exps[axis][:exps[axis].size // 2 + 1]
            break
    return exps


class Spectrum(NamedTuple):
    """The primitive characters of one conductor, one per conjugate class:
    the first member of each class in rfftn's half of the folded lattice
    (see `fold`, `character_sums` and `_classes`).  The other member has
    the conjugate sum and the same |L(1,chi)|."""

    g: UnitGroupStructure
    spec: np.ndarray         # the kept outputs' sums, rfftn's own
    env: float               # radius of both parts of every sum
    index: np.ndarray        # their enumeration indices, increasing
    odd: np.ndarray          # their parities, True for odd
    real: np.ndarray         # True where chi is its own conjugate
    log3: Ball               # (1/3) log q


def _classes(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Two masks over rfftn's half of a real lattice of `shape`, C order:
    `first`, False at the later member of each conjugate pair that the
    half holds twice, and `real`, True where chi is its own conjugate.

    The conjugate of the character at (r, j) is (-r, -j) (a folded axis
    holds the exponent 1, its own negative mod 2), so the half (j =
    0..n//2 on the last axis, n its length) holds both members only on
    the columns j = 0 and j = n/2, where it pairs r with -r.
    """
    rest, n = shape[:-1], shape[-1]
    flat = np.arange(math.prod(rest))
    neg = flat.reshape(rest)[np.ix_(*(-np.arange(m) % m for m in rest))].ravel()
    paired = np.zeros(n // 2 + 1, dtype=bool)
    paired[0] = True
    if n % 2 == 0:
        paired[-1] = True
    first = ~paired | (flat <= neg)[:, None]
    real = paired & (flat == neg)[:, None]
    return first.ravel(), real.ravel()


def _spectrum(q: int, tol: float) -> Spectrum | None:
    """The `Spectrum` of one conductor; None when q has no primitive
    character (q = 2 mod 4), in which case neither the unit group, the
    coefficients nor the transform are built."""
    if q < 3:
        raise ValueError(f"conductor q must be >= 3, got {q}")
    if q % 4 == 2:
        return None
    coeffs = build_coefficients(q, tol / (2.0 * euler_phi(q)))
    g = coeffs.g
    shape, values, rads, exps = fold(g, coeffs.mids, coeffs.rads)
    spec, env = character_sums(shape, values, rads)
    exps = _half(exps)
    first, real = _classes(shape)
    keep = primitive_mask(g, exps) & first
    index = np.ravel_multi_index(np.ix_(*exps), g.orders).ravel()[keep]
    return Spectrum(g, spec[keep], env, index, parity_mask(g, exps)[keep], real[keep],
                    Ball.exact(q).log() / 3)


def _records(q: int, spec: np.ndarray, env: float, index: np.ndarray,
             odd: np.ndarray, log3: Ball) -> list[LValueRecord]:
    """One L-value record per entry of `spec`, in one array pass.  Every
    float is bit-identical to the scalar path: the value ball's `.abs()`
    (ball_hypot, math.hypot on each midpoint pair), then `- log3`.  Each
    record is one tuple of those floats; no Ball is built here."""
    re, im = spec.real.tolist(), spec.imag.tolist()
    # math.hypot as in ball_hypot; np.hypot need not round the same way
    abs_mid = np.array(list(map(math.hypot, re, im)), dtype=np.float64)
    abs_rad = _out_array(abs_mid, env + env + 2.0 * _EPS * abs_mid)
    ex_mid = abs_mid - log3.mid
    ex_rad = _out_array(ex_mid, abs_rad + log3.rad)
    # the check Ball.__post_init__ would make on each radius
    if not (env >= 0.0 and (abs_rad >= 0.0).all() and (ex_rad >= 0.0).all()):
        raise ValueError(f"q={q}: negative radius in an L-value record")
    parity = map(("even", "odd").__getitem__, odd.tolist())
    return list(map(LValueRecord._make, zip(
        repeat(q), index.tolist(), parity, re, im, repeat(env), abs_mid.tolist(),
        abs_rad.tolist(), ex_mid.tolist(), ex_rad.tolist())))


def l_values(q: int, tol: float = 1e-9) -> list[LValueRecord]:
    """L(1,chi) records (see `_records`) for every primitive character
    mod q, in enumeration order; none when q = 2 mod 4.  The second member
    of each conjugate class takes the exact conjugate of the first's sum."""
    sp = _spectrum(q, tol)
    if sp is None:
        return []
    n, pair = sp.spec.size, np.flatnonzero(~sp.real)
    # at[i]: character i's entry among the kept sums and then their conjugates
    at = np.full(sp.g.phi, -1)
    at[sp.index] = np.arange(n)
    at[conjugate_index(sp.g, sp.index[pair])] = np.arange(n, n + pair.size)
    index = np.flatnonzero(at >= 0)
    at = at[index]
    spec = np.concatenate([sp.spec, np.conj(sp.spec[pair])])[at]
    odd = np.concatenate([sp.odd, sp.odd[pair]])[at]
    env, log3 = sp.env, sp.log3
    del sp, at              # the record pass then holds one copy of the sums
    return _records(q, spec, env, index, odd, log3)


def l_value(q: int, index: int, tol: float = 1e-9) -> LValueRecord | None:
    """The `l_values` record of the character with enumeration index
    `index`, built alone; None when q = 2 mod 4.  Raises ValueError when
    no primitive character mod q has that index."""
    sp = _spectrum(q, tol)
    if sp is None:
        return None
    if 0 <= index < sp.g.phi:
        for i, conj in ((index, False), (conjugate_index(sp.g, index), True)):
            at = np.searchsorted(sp.index, i)
            if at < sp.index.size and sp.index[at] == i:
                sums = sp.spec[at:at + 1]
                return _records(q, np.conj(sums) if conj else sums, sp.env,
                                np.array([index]), sp.odd[at:at + 1], sp.log3)[0]
    raise ValueError(f"no primitive character with index {index} mod {q}")


def batch_maxima(q: int, tol: float = 1e-9) -> tuple[list[tuple[LValueRecord, bool]], int]:
    """Per-parity maxima of |L(1,chi)| - (log q)/3 over primitive chi.

    Returns ([(record, ambiguous) per parity that occurs], primitive
    character count).  The search runs over the spectrum's conjugate
    classes: a(n) is real, so chi and its conjugate have conjugate sums
    and the same |L|.  The candidates are the classes whose `np.abs`
    midpoint lies within twice the |L| radius of the largest; the argmax
    is the smallest index among their members, and when that index is a
    kept entry's conjugate, its record is built from the conjugated sum,
    as `l_values` builds it.  Both parities' argmax records come from one
    `_records` call, so each is the `l_values` record of its character.
    It is ambiguous when there is another candidate class.

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
    sp = _spectrum(q, tol)
    if sp is None:
        return [], 0
    abs_mid = np.abs(sp.spec)
    sums, odd, best, ambiguous = [], [], [], []
    for sel in (~sp.odd, sp.odd):
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        mids = abs_mid[idx]
        top = float(mids.max())
        cands = idx[mids >= top - 2.0 * (2.0 * sp.env + 2.0 * _EPS * top)].tolist()
        # over the candidate classes, the smallest member: (its index,
        # whether it is the kept entry's conjugate, that entry)
        i, conj, at = min(min((j, False, k), (conjugate_index(sp.g, j), True, k))
                          for j, k in zip(sp.index[cands].tolist(), cands))
        s = complex(sp.spec[at])
        sums.append(s.conjugate() if conj else s)
        odd.append(bool(sp.odd[at]))
        best.append(i)
        ambiguous.append(len(cands) > 1)
    records = _records(q, np.array(sums), sp.env, np.array(best), np.array(odd), sp.log3)
    return list(zip(records, ambiguous)), 2 * sp.spec.size - int(sp.real.sum())
