"""Batch evaluation of L(1,chi) for all primitive characters of one conductor.

For primitive chi mod q the classical forms of L(1,chi) (Washington,
Introduction to Cyclotomic Fields, Thm 4.9) give

    L(1,chi) = e tau(chi) conj(S(chi)) / q,   S(chi) = sum_a chi(a) x(a),
    x(a) = log(2 sin(pi a'/q)) + pi (a/q - 1/2),   a' = min(a, q - a),

with e = -1 for even chi and e = i for odd chi: the log-sine part of x
sums to 0 over odd chi and the linear part over even chi, so one real
coefficient vector serves both parities.  |tau(chi)| = sqrt(q), so
|L(1,chi)| = |S(chi)| / sqrt(q).  The phase comes from T(chi) = sum_a
chi(a) w(a) with w(a) = cos(2 pi a/q) + sin(2 pi a/q), which is tau(chi)
for even chi and -i tau(chi) for odd chi, so L(1,chi) = -T(chi)
conj(S(chi)) / q for both parities.

x and w are evaluated on the units laid out on the exponent lattice of
the unit group, on half of them: x(-a) and w(-a), placed by `arith`'s
half-swap view, take the same tangent, logarithm, cosine and sine as
x(a) and w(a).  The lattice is transformed by one FFT per cyclic
component, which evaluates sum_a x(a) chi(a) for every character at once
in O(phi(q) log q).  Before the transform the lattice is folded on the
order-2 axis of the part 3 (3 || q) and of the part 4 (4 || q), where
only the exponent 1 gives primitive characters: the difference of the
axis's two halves is transformed instead, so those conductors transform
a half or a quarter of the lattice.  x and w are real, so the folded
lattice goes through one real-input transform, which computes only
rfftn's half spectrum, exponents 0..n//2 on its last axis: every other
character is the conjugate of one in that half, with the conjugate sums
and the same |L(1,chi)|.  That transform is rfftn itself, or, when the
last axis has even length and a prime factor above _PACK_PRIME, a
complex FFT of half that length with an O(n) unpack, in rfftn's layout
(`character_sums`).  numpy's pocketfft supplies mixed-radix and
Bluestein kernels for arbitrary axis lengths; rigor is preserved by
computing on midpoints and adding a single certified error envelope per
output (roundoff-growth bound plus one radius sum per lattice, see
`fold`), validated against exact DFTs and the direct per-character sum
of the digamma coefficients.  The spectrum then keeps
one entry per primitive conjugate class, the first member in that half,
with its full enumeration index.  `batch_maxima` searches the classes on
|S| alone, one transform per conductor; `l_values` adds the transform of
w, rebuilds each class's second member by exact conjugation, and one
array pass builds every L-value record, the two argmax records of
`batch_maxima` included; an |L| radius above tol refuses the conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .arith import UnitGroupStructure, dlog_matrix, factorize, unit_group
from .ball import _EPS, Ball, ComplexBall, _out_array
from .characters import (Character, _lcm_orders, conjugate_index, parity_mask,
                         primitive_mask, roots_of_unity)
from .special import ToleranceError, digamma_points

_U = 2.0 ** -53
# FFT roundoff envelope constant: |error| <= C log2(N) u N max|a|.  The
# classical backward-stability bound for power-of-two FFTs has C ~ 3; the
# factor below also covers pocketfft's Bluestein path with a wide margin
# (see the small-N validation tests).
_FFT_C = 4.0
# An even last axis whose length has a prime factor above this runs as a
# complex transform of half its length (see `character_sums`).  Timed per
# shape on a 2-vCPU AVX-512 host, this bound's total transform time came
# within 5% of the faster kernel's on 3 | q in 96000..97000 and on samples
# near 10^6 and 2 10^6
_PACK_PRIME = 300
# the unpack's rounding and weight error, in units of u n max|a| per output
# (see `character_sums`), and the radius of each `_unpack_weights` entry
_UNPACK_C = 11.0
_WEIGHT_RAD = 7.1 * _U


@dataclass(frozen=True)
class CoefficientVector:
    """a(n) = -psi(n/q)/q as midpoint/radius arrays, at n = g.lattice: entry
    k belongs to the unit at flat position k of g's exponent lattice."""

    g: UnitGroupStructure
    mids: np.ndarray
    rads: np.ndarray


def build_coefficients(q: int, tol: float) -> CoefficientVector:
    """Digamma coefficient vector on unit_group(q)'s lattice, with per-entry
    radius at most tol.

    L(1,chi) = sum_n a(n) chi(n) for these coefficients, so `direct_sum` of
    them is an independent witness of the records: the production path
    builds x and w instead (`_log_sine_coefficients`,
    `_phase_coefficients`) and never calls this."""
    g = unit_group(q)                    # which refuses q < 3
    psi_mid, psi_rad = digamma_points(g.lattice / float(q))
    mids = -psi_mid / q
    rads = psi_rad / q * (1.0 + 2.0 ** -40) + 2.0 * _EPS * np.abs(mids)
    worst = float(rads.max())
    if not worst <= tol:                 # a NaN tol attains nothing
        raise ToleranceError(tol, worst, q)
    return CoefficientVector(g, mids, rads)


def _abs_sum(a: np.ndarray) -> tuple[float, float]:
    """sum |a| in floats, by rows of m = isqrt(n) entries (n = a.size): a term
    meets d <= m + n // m - 1 roundings in any order, so with two more by
    the caller, 1 + 2(d + 3)u scales the result up to a bound, its own too."""
    a = np.abs(a.ravel())
    m = math.isqrt(a.size)
    k = a.size - a.size % m
    return (float(a[:k].reshape(-1, m).sum(axis=1).sum()) + float(a[k:].sum()),
            1.0 + 2.0 * (m + k // m + 2) * _U)


def _mirror(g: UnitGroupStructure, out: np.ndarray, v: np.ndarray) -> None:
    """Given f = out[:phi/2] and v at the units a of g.half, set out to
    f(a) + v(a) at a and to f(a) - v(a) at -a, the second half written
    through `g.half_swap`."""
    h = g.phi // 2
    f, neg = out[:h], g.half_swap(out[h:])
    np.subtract(f.reshape(neg.shape), v.reshape(neg.shape), out=neg)
    f += v


# Radius model of the elementary coefficients.  np.tan, np.sin, np.cos and
# np.log are assumed within 2 ulp (4u relative, u = 2^-53) of the exact
# function at the rounded argument; numpy's float64 kernels claim at most 1
# ulp, and the tests compare entries with 40-digit mpmath.
def _log_sine_coefficients(g: UnitGroupStructure) -> tuple[np.ndarray, float]:
    """x(a) = log(2 sin(pi a'/q)) + pi (a/q - 1/2), a' = min(a, q - a), on
    g's lattice: (midpoints, u (19 phi + 6 sum |x|)), the sum of r(a) = u (19 + 6 |x(a)|).

    2 sin(pi a'/q) = 4 tau/(1 + tau^2) with tau = tan s, s = pi a'/(2q) in
    (0, pi/4], so tau lies in (0, 1] and no np.sin runs.  With d = 2a - q
    exact and c = pi/(2q) rounded (relative error below 1.37u, fl(pi)
    included), the linear part v = d c and the angle s = (q - |d|) c/2 are
    each within 2.4u relative.  y = 4 tau/(1 + tau^2) = 2 sin 2s has
    d log y/d log s = 2s cot 2s <= 1, so y at the rounded s is within 2.4u
    relative of 2 sin(pi a'/q); d log y/d log tau = (1 - tau^2)/(1 + tau^2)
    lies in [0, 1), so np.tan adds at most 4u; the rounding of tau^2 moves
    1 + tau^2 by at most u/2 relative, and 1 + tau^2 and the quotient add u
    each: log(2 sin) at the computed y is within 8.9u of log(2 sin(pi
    a'/q)).  np.log adds 4u |log|, and the sum x = log + v one rounding
    u |x|.  With |log| <= |x| + |v| and |v| <= pi/2 (within 3.8u) the error
    is below u (18.96 + 5.02 |x|).  x(-a) = log - v takes the same
    logarithm, so tan and log run on g.half (`_mirror` places x(-a)).  The
    radius sum is rounded upward (`_abs_sum`; u is a power of two).
    """
    q, h = g.q, g.phi // 2
    c = math.pi / (2 * q)
    v = g.half * 2.0
    v -= q                              # d = 2a - q, at the units a of g.half
    x = np.empty(g.phi)
    ls, den = x[:h], x[h:]              # x[h:] is scratch until `_mirror`
    np.abs(v, out=ls)
    np.subtract(q, ls, out=ls)          # 2a'
    ls *= c / 2                         # s = pi a'/(2q)
    np.tan(ls, out=ls)                  # tau
    np.square(ls, out=den)
    den += 1.0
    ls *= 4.0
    np.divide(ls, den, out=ls)          # 4 tau/(1 + tau^2) = 2 sin(pi a'/q)
    np.log(ls, out=ls)
    v *= c                              # pi (a/q - 1/2)
    _mirror(g, x, v)
    total, scale = _abs_sum(x)
    return x, (19.0 * g.phi + 6.0 * total) * scale * _U


def _phase_coefficients(g: UnitGroupStructure) -> tuple[np.ndarray, float]:
    """w(a) = cos(2 pi a/q) + sin(2 pi a/q) on g's lattice: (midpoints,
    radius sum), every entry's radius 25u, so the sum 25u phi, exact.

    With theta = 2 pi a/q - pi = (2a - q) pi/q, w(a) = -(cos theta + sin
    theta) and w(-a) = -(cos theta - sin theta), so cos and sin run on
    g.half (`_mirror` places w(-a)).  theta is computed within 2.4u
    relative, so within 7.6u absolute (|theta| < pi); np.cos and np.sin
    each add 4u, and the sum one rounding u |w| <= 1.42u: below 24.7u in all.
    """
    theta = g.half * 2.0
    theta -= g.q
    theta *= math.pi / g.q
    w = np.empty(g.phi)
    np.cos(theta, out=w[:g.phi // 2])
    _mirror(g, w, np.sin(theta, out=theta))
    np.negative(w, out=w)
    return w, 25.0 * _U * g.phi


def _packed(n: int) -> bool:
    """Whether `character_sums` takes the packed path on a last axis of
    length n: n even, with a prime factor above _PACK_PRIME."""
    return n % 2 == 0 and factorize(n).factors[-1][0] > _PACK_PRIME


def _unpack_weights(n: int) -> tuple[np.ndarray, float]:
    """w_k = (1 + i e(k/n))/2 for k = 0..n/2 (n even), and a radius on
    |w_k - exact| for every k, built per call (no cache holds them).

    With phi = pi (n - 4k)/(4n) in [-pi/4, pi/4] and tau = tan phi, w_k =
    sin^2 phi + i sin phi cos phi = tau (tau + i)/(1 + tau^2).  n - 4k is
    exact, and phi is computed within 2.4u relative (fl(pi) included), so
    within 1.9u absolute, and both parts have derivatives at most 1 in phi.
    np.tan adds 4u relative (the radius model above), which moves the real
    part by at most 1/2 of that and the imaginary part by at most 1/4.
    tau^2, 1 + tau^2 and tau/(1 + tau^2) round the imaginary part by 2.5u
    relative, and the product by tau the real part by 3.5u; both parts are
    at most 1/2.  So the real part is within 5.64u and the imaginary part
    within 4.14u, and |w_k - exact| < 7.1u.  phi changes sign at n/2 - k,
    so w_n/2-k = conj w_k, and tan runs on k <= n/4 only.
    """
    h, m = n // 2, n // 4
    tau = np.tan((n - 4 * np.arange(m + 1)) * (math.pi / (4 * n)))
    w = np.empty(h + 1, dtype=np.complex128)
    lo = w[:m + 1]
    np.square(tau, out=lo.real)
    lo.real += 1.0
    np.divide(tau, lo.real, out=lo.imag)        # tau/(1 + tau^2)
    np.multiply(tau, lo.imag, out=lo.real)      # tau^2/(1 + tau^2)
    np.conj(w[h - m - 1::-1], out=w[m + 1:])
    return w, _WEIGHT_RAD


def _packed_rfftn(shape: tuple[int, ...], values: np.ndarray) -> np.ndarray:
    """conj(rfftn(lattice)) of the real lattice `values` of `shape`, whose
    last axis has even length n = 2h, by one complex FFT of h points along
    that axis, the unpack and complex FFTs along the others (see
    `character_sums`)."""
    h = shape[-1] // 2
    z = np.fft.fft(values.reshape(shape).view(np.complex128))
    zr = z[..., ::-1]                           # Z_{h-k} at k = 1..h
    out = np.empty(shape[:-1] + (h + 1,), dtype=np.complex128)
    np.conj(z, out=out[..., :h])
    out[..., h] = out[..., 0]                   # conj Z_k, k = 0..h
    np.subtract(out[..., 1:], zr, out=out[..., 1:])
    out[..., 0] -= z[..., 0]
    out *= _unpack_weights(shape[-1])[0]
    np.add(out[..., 1:], zr, out=out[..., 1:])
    out[..., 0] += z[..., 0]                    # conj X_k
    if len(shape) > 1:
        # conj(fftn(X)) over the other axes, as the unscaled backward FFT
        np.fft.ifftn(out, axes=range(len(shape) - 1), norm="forward", out=out)
    return out


def character_sums(shape: tuple[int, ...], values: np.ndarray,
                   rad: float) -> tuple[np.ndarray, float]:
    """sum_n a(n) chi(n) over a real lattice of `shape`, for the characters
    of rfftn's half: exponents 0..n//2 on the last axis (n its length) and
    every exponent on the others: S(chi) from the folded x, T(chi) from w.

    `values` (real) is the flattened lattice in C order, and `rad` an upper
    bound on the sum of its entries' radii.  The sum at the conjugate
    character is the conjugate sum, so the half holds at least one member
    of every conjugate class (see `_classes`).  Returns the complex
    midpoints conj(rfftn(lattice)), flattened in C order, which is
    lexicographic character order, and one envelope radius valid for each
    output's real and imaginary parts: the FFT roundoff bound on N =
    values.size points plus `rad` (the margin of C covers the sum's rounding).

    The roundoff bound of the complex transform of N points is C log2(N) u
    N max|a| (Higham, Accuracy and Stability of Numerical Algorithms, sec.
    24.1).  Two kernels compute the half, and the exact-DFT tests check
    each at lengths that reach each of its pocketfft kernels.

    rfftn, unless the last axis is packed (below).  Real-kernel assumption:
    the complex bound is assumed to hold for pocketfft's real-input path
    too, a real FFT along the last axis (radix 2, 3, 4, 5 and generic
    passes, or Bluestein for a prime factor up to _PACK_PRIME), then
    complex FFTs along the others.

    Packed, when n is even and has a prime factor above _PACK_PRIME, where
    the real FFT would run Bluestein (the half-length method of Sorensen
    et al., Real-valued fast Fourier transform algorithms, IEEE Trans.
    ASSP 35(6), 1987).  It runs complex kernels only, so it needs no
    assumption; its bound is (C log2(N/2) + 11) u N max|a|.  With h = n/2,
    m = max|a| and R = N/n:
    - Z, the complex FFT of h points of z_j = a_2j + i a_2j+1 along the
      last axis (the lattice viewed as complex, no copy), per row within
      C log2(h) u h sqrt(2) m of exact.
    - The unpack X_k = alpha_k Z_k + (1 - alpha_k) conj Z_h-k, k = 0..h,
      Z_h = Z_0 and alpha_k = (1 - i e(-k/n))/2, which gives rfft's X_k
      (X_0 and X_h are Re Z_0 +- Im Z_0).  |alpha| + |1 - alpha| <= sqrt 2,
      so Z's error reaches X at most sqrt 2 times: C log2(h) u n m.  It
      runs conjugated, conj X_k = Z_h-k + w_k (conj Z_k - Z_h-k), with w =
      conj alpha from `_unpack_weights`, within 7.1u.  The difference is
      conj(2i O_k), O the DFT of the odd entries, so at most n m, and
      rounds by u of that; |w| <= 1/sqrt 2, so the product adds 2u n m
      (Higham, Lemma 3.5), the weight error 7.1u n m and the difference's
      rounding 0.71u n m; the sum, at most n m, rounds by u n m: below
      10.81 u n m in all, and 11 covers second-order terms.
    - Complex FFTs of R points along the other axes: their exact sums
      carry each row's error R times, (C log2(h) + 11) u N m, and they add
      C log2(R) u R n m.  log2(h) + log2(R) = log2(N/2).
    """
    n = values.size
    max_mag = max(float(values.max()), -float(values.min()))
    if _packed(shape[-1]):
        spectrum = _packed_rfftn(shape, values)
        growth = _FFT_C * math.log2(n // 2) + _UNPACK_C
    else:
        spectrum = np.fft.rfftn(values.reshape(shape))
        np.conj(spectrum, out=spectrum)
        growth = _FFT_C * math.log2(max(n, 2))
    return spectrum.ravel(), growth * _U * n * max_mag + rad


def fold(g: UnitGroupStructure, mids: np.ndarray, rad: float):
    """The coefficient lattice reduced to its primitive slice on each axis
    where only the exponent j = 1 is primitive: the order-2 axis of the
    part 3 when 3 || q, and of the part 4 when 4 || q.

    On an order-2 axis chi(g^k) = (-1)^(jk), so the characters with j = 1
    there are the transform over the other axes of x[k=0] - x[k=1].  Each
    fold replaces the lattice by that difference b and drops the axis.  b
    is rounded once, so its entry's radius is r0 + r1 + u |b| / (1 - u),
    at most (r0 + r1 + 2u |b|)(1 + 8u).  The r0 + r1 over b are every
    radius once, so the radius sum R becomes (1 + 8u)(R + 2u sum |b|),
    rounded upward (`_abs_sum`).

    Returns (shape, values, rad, exps): the folded lattice's shape, its
    flattened midpoints, `rad` and one exponent vector per axis of g,
    whose outer product is the folded lattice in C order: [1] on a folded
    axis, every exponent elsewhere.  With every axis folded (q = 3, 4, 12)
    the lattice is one point of shape (1,).
    """
    orders, mids = list(g.orders), mids.reshape(g.orders)
    exps = [np.arange(order) for order in orders]
    folded = [i for i, c in enumerate(g.components) if c.order == 2 and c.modulus in (3, 4)]
    for axis in reversed(folded):
        at = (slice(None),) * axis
        mids = mids[at + (0,)] - mids[at + (1,)]       # b
        total, scale = _abs_sum(mids)
        rad = (rad + 2.0 * _U * total) * (1.0 + 8.0 * _U) * scale
        exps[axis] = exps[axis][1:]
        del orders[axis]
    return tuple(orders) or (1,), mids.ravel(), rad, exps


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
    Ball(abs_mid, abs_rad) and `excess` is Ball(excess_mid, excess_rad).
    |L| and the excess come from |S(chi)|/sqrt(q) (see the module
    docstring) and are bit-identical to the Ball expression `_records`
    names; the value is -T(chi) conj(S(chi))/q with the product radius
    `_values` states, one per conductor.  The records of `batch_maxima`
    carry no value: it computes no T, so their re, im and env are None.
    """

    q: int
    index: int           # position in the character enumeration
    parity: str          # "even" | "odd"
    re: float | None     # L(1, chi) midpoint, real part
    im: float | None     # L(1, chi) midpoint, imaginary part
    env: float | None    # radius of both parts of L(1, chi)
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


# LValueRecord._make without its per-record Python call and length check:
# `_records` zips exactly the ten fields
_new_record = partial(tuple.__new__, LValueRecord)


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
    the conjugate sums and the same |L(1,chi)|."""

    g: UnitGroupStructure
    spec: np.ndarray         # the kept outputs' S(chi), in rfftn's layout
    env: float               # radius of both parts of every S(chi)
    index: np.ndarray        # their enumeration indices, increasing
    odd: np.ndarray          # their parities, True for odd
    real: np.ndarray         # True where chi is its own conjugate
    log3: Ball               # (1/3) log q
    root: Ball               # sqrt(q)
    value: np.ndarray | None  # their L(1,chi) midpoints, when asked for
    value_env: float | None  # and one radius for both parts of each


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


def _spectrum(q: int, phase: bool = False) -> Spectrum | None:
    """The `Spectrum` of one conductor, with the values L(1,chi) when
    `phase` is set; None when q has no primitive character (q = 2 mod 4),
    in which case neither the unit group, the coefficients nor a transform
    are built.  One transform for S, and one more for T on the same folded
    lattice (see `character_sums` and `_values`)."""
    if q < 3:
        raise ValueError(f"conductor q must be >= 3, got {q}")
    if q % 4 == 2:
        return None
    g = unit_group(q)
    shape, values, rad, exps = fold(g, *_log_sine_coefficients(g))
    spec, env = character_sums(shape, values, rad)
    exps = _half(exps)
    first, real = _classes(shape)
    keep = primitive_mask(g, exps) & first
    spec = spec[keep]
    value = value_env = None
    if phase:
        _, values, rad, _ = fold(g, *_phase_coefficients(g))
        t, t_env = character_sums(shape, values, rad)
        value, value_env = _values(q, spec, env, t[keep], t_env)
    index = reduce(np.add.outer, [e * math.prod(g.orders[i + 1:])      # C order
                                  for i, e in enumerate(exps)]).ravel()[keep]
    return Spectrum(g, spec, env, index, parity_mask(g, exps)[keep], real[keep],
                    Ball.exact(q).log() / 3, Ball.exact(q).sqrt(), value, value_env)


def _values(q: int, s: np.ndarray, env: float, t: np.ndarray,
            t_env: float) -> tuple[np.ndarray, float]:
    """L(1,chi) = -T conj(S)/q from the sums s of S and t of T: the
    midpoints, and one radius for both parts of every one.

    re = (t.re s.re + t.im s.im)/(-q) and im = (t.re s.im - t.im s.re)/q.
    Each part of s and t lies within env and t_env of S and T, and |T| =
    |tau(chi)| = sqrt(q), so each part of T conj(S) lies within t_env
    (|s.re| + |s.im|) + sqrt(2q) env of t conj(s).  The two products,
    their sum and the division by q round by at most 3.01u (|t.re| +
    |t.im|)(|s.re| + |s.im|)/q, and 4u = 2 eps is charged.  The radius is
    that sum over q at the largest |s.re| + |s.im| and |t.re| + |t.im|,
    scaled by 1 + 2^-40 for its own roundings."""
    value = np.empty(s.shape, dtype=np.complex128)
    np.divide(t.real * s.real + t.imag * s.imag, -q, out=value.real)
    np.divide(t.real * s.imag - t.imag * s.real, q, out=value.imag)
    s1 = float((np.abs(s.real) + np.abs(s.imag)).max())
    t1 = float((np.abs(t.real) + np.abs(t.imag)).max())
    rad = ((s1 * (t_env + 2.0 * _EPS * t1) + math.sqrt(2 * q) * (1.0 + _EPS) * env)
           / q * (1.0 + 2.0 ** -40))
    return value, rad


def _records(sp: Spectrum, spec: np.ndarray, index: np.ndarray, odd: np.ndarray,
             tol: float, value: np.ndarray | None = None) -> list[LValueRecord]:
    """One L-value record per entry of `spec` (S(chi)) and of `value`
    (the L(1,chi) midpoints, or None for records without a value), in one
    array pass, the value's radius `sp.value_env` (see `_values`), or
    ToleranceError when an |L| radius exceeds tol (a NaN tol attains none).

    |L| and the excess are bit-identical to the Ball expression
    `ComplexBall(Ball(s.real, env), Ball(s.imag, env)).abs() / sp.root -
    sp.log3` (ball_hypot, math.hypot on each midpoint pair, then
    Ball.__truediv__ and Ball.__sub__).  Each record is one tuple of
    floats; no Ball is built here.
    """
    q, env, root, log3 = sp.g.q, sp.env, sp.root, sp.log3
    # math.hypot as in ball_hypot; np.hypot need not round the same way
    h = np.array(list(map(math.hypot, spec.real.tolist(), spec.imag.tolist())),
                 dtype=np.float64)
    h_rad = _out_array(h, env + env + 2.0 * _EPS * h)
    abs_mid = np.divide(h, root.mid, out=h)
    abs_rad = _out_array(abs_mid, (h_rad + abs_mid * root.rad) / (root.mid - root.rad))
    del h_rad               # the record lists below set the pass's peak memory
    ex_mid = abs_mid - log3.mid
    ex_rad = _out_array(ex_mid, abs_rad + log3.rad)
    # the check Ball.__post_init__ would make on each radius
    if not (env >= 0.0 and (abs_rad >= 0.0).all() and (ex_rad >= 0.0).all()):
        raise ValueError(f"q={q}: negative radius in an L-value record")
    if not abs_rad.max() <= tol:
        raise ToleranceError(tol, float(abs_rad.max()), q)
    re = im = repeat(None)
    if value is not None:
        re, im = value.real.tolist(), value.imag.tolist()
    parity = map(("even", "odd").__getitem__, odd.tolist())
    return list(map(_new_record, zip(
        repeat(q), index.tolist(), parity, re, im, repeat(sp.value_env), abs_mid.tolist(),
        abs_rad.tolist(), ex_mid.tolist(), ex_rad.tolist())))


def l_values(q: int, tol: float = 1e-9) -> list[LValueRecord]:
    """L(1,chi) records (see `_records`) for every primitive character
    mod q, in enumeration order; none when q = 2 mod 4.  The second member
    of each conjugate class takes the exact conjugates of the first's S
    and L(1,chi)."""
    sp = _spectrum(q, phase=True)
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
    value = np.concatenate([sp.value, np.conj(sp.value[pair])])[at]
    odd = np.concatenate([sp.odd, sp.odd[pair]])[at]
    sp = sp._replace(spec=None, value=None)
    del at                  # the record pass then holds one copy of the sums
    return _records(sp, spec, index, odd, tol, value)


def l_value(q: int, index: int, tol: float = 1e-9) -> LValueRecord | None:
    """The `l_values` record of the character with enumeration index
    `index`, built alone; None when q = 2 mod 4.  Raises ValueError when
    no primitive character mod q has that index."""
    sp = _spectrum(q, phase=True)
    if sp is None:
        return None
    if 0 <= index < sp.g.phi:
        for i, conj in ((index, False), (conjugate_index(sp.g, index), True)):
            at = np.searchsorted(sp.index, i)
            if at < sp.index.size and sp.index[at] == i:
                value = sp.value[at:at + 1]     # the conjugate has the same |S|
                return _records(sp, sp.spec[at:at + 1], np.array([index]), sp.odd[at:at + 1],
                                tol, np.conj(value) if conj else value)[0]
    raise ValueError(f"no primitive character with index {index} mod {q}")


def _cover(mid: float, rad: float, balls: list[tuple[float, float]]) -> float:
    """The least float r >= rad at which the ball (mid, r) reaches the
    upper end of each of `balls`, exactly."""
    need = max([Fraction(m) + Fraction(r) - Fraction(mid) for m, r in balls], default=0)
    r = max(rad, float(need))
    return r if Fraction(r) >= need else math.nextafter(r, math.inf)


def batch_maxima(q: int, tol: float = 1e-9) -> tuple[list[tuple[LValueRecord, bool]], int]:
    """Per-parity maxima of |L(1,chi)| - (log q)/3 over primitive chi.

    Returns ([(record, ambiguous) per parity that occurs], primitive
    character count).  Each record carries q, index, parity, |L| and the
    excess, what the sweep and `check_theorem` read, and no value: only
    S(chi) is transformed.  The search runs over the spectrum's conjugate
    classes: x(a) is real, so chi and its conjugate have conjugate sums
    and the same |L|.  The candidates are the classes whose `np.abs`
    midpoint of S lies within twice the |S| radius of the largest; the
    argmax is the smallest index among their members, with the |L| and
    excess of its `l_values` record.  It is ambiguous when there is
    another candidate class, and then its radii are widened (`_cover`) to
    reach every candidate record's upper ends, the largest midpoint's
    included.  Raises ToleranceError when a widened |L| radius exceeds tol.

    A pass on this record covers every chi of the parity.  A candidate's
    |L| and excess lie in its record's balls.  Any other class has an
    `np.abs` midpoint below the largest, t, by over 2 (2 env + 2 eps t).
    Each part of chi's computed S midpoint s lies within env of S(chi),
    so |L(1,chi)| <= (|s| + sqrt(2) env)/sqrt(q), and `np.abs` and
    `math.hypot` are each within one ulp of |s|: so |L(1,chi)| < (h - 2
    env)/sqrt(q), h the `math.hypot` midpoint of t's class, whose record's
    upper end is at least (h + 2 env)/sqrt(q), its |L| radius at least (2
    env + 2 eps h)/sqrt(q) covering the rounding of h/sqrt(q).
    """
    sp = _spectrum(q)
    if sp is None:
        return [], 0
    abs_mid, picks = np.abs(sp.spec), []
    for sel in (~sp.odd, sp.odd):
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        mids = abs_mid[idx]
        top = float(mids.max())
        cands = idx[mids >= top - 2.0 * (2.0 * sp.env + 2.0 * _EPS * top)].tolist()
        # over the candidate classes, the smallest member: (its index, the
        # kept entry of its class)
        i, at = min(min((j, k), (conjugate_index(sp.g, j), k))
                    for j, k in zip(sp.index[cands].tolist(), cands))
        picks.append((i, [at] + [k for k in cands if k != at]))
    # one record pass over every candidate class, each parity's argmax first
    flat = [k for _, group in picks for k in group]
    records, maxima = iter(_records(sp, sp.spec[flat], sp.index[flat], sp.odd[flat], tol)), []
    for i, group in picks:
        rec, *others = islice(records, len(group))
        if others:      # fields 6, 7 are |L|'s mid and radius, 8, 9 the excess's
            abs_rad, ex_rad = (_cover(*rec[f:f + 2], [o[f:f + 2] for o in others]) for f in (6, 8))
            rec = rec._replace(abs_rad=abs_rad, excess_rad=ex_rad)
            if not abs_rad <= tol:
                raise ToleranceError(tol, abs_rad, q)
        maxima.append((rec._replace(index=i), bool(others)))
    return maxima, 2 * sp.spec.size - int(sp.real.sum())
