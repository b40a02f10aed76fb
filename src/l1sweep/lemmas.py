"""Numerical validation of the analytic lemmas behind the bound.

Identities are checked by producing a residual ball that must contain
zero within a stated tolerance; inequalities by a margin ball that must
be strictly positive beyond its radius.  Grids default to {k/100} clipped
to each lemma's open domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ball import _EPS, Ball, PI, TWO_PI
from .special import ball_sinc, integrate, j_func, trigamma_points


@dataclass(frozen=True)
class CheckResult:
    name: str
    grid_size: int
    worst_margin: float   # smallest proven margin (negative = failed)
    verdict: str          # "pass" | "fail"

    def line(self) -> str:
        return f"{self.name:<22} grid={self.grid_size:<6} worst_margin={self.worst_margin:+.6e}  {self.verdict}"


def _grid(n: int, lo_excl: float = 0.0, hi_incl: float = 1.0) -> list[float]:
    pts = [k / n for k in range(1, n)]
    return [t for t in pts if lo_excl < t <= hi_incl]


# -- j: integral normalization and sandwich ----------------------------------

def check_j_integral(tol: float = 3e-9) -> Ball:
    """Residual of integral_0^1 j(t) dt = 1.

    The -2 log t part of j integrates in closed form; j itself is
    evaluated pointwise on [delta, 1] and the head [0, delta] is enclosed
    by the logarithmic sandwich, so no quadrature node ever touches the
    singularity.
    """
    delta = 1e-9
    # head: j between -2 log t - 2(log 2pi - 1) and -2 log t
    # integral of -2 log t over [0, d] = 2 d (1 - log d)
    db = Ball.exact(delta)
    head_hi = 2 * db * (1 - db.log())
    slack = 2 * (TWO_PI.log() - 1) * db
    head = head_hi - slack / 2
    head = head.widen(slack.upper() / 2)
    # middle: closed-form log part plus smooth remainder R(t) = j(t) + 2 log t
    def antider(t: float) -> Ball:
        tb = Ball.exact(t)
        return 2 * (tb - tb * tb.log())
    log_part = antider(0.5) - antider(delta)
    remainder = integrate(
        lambda t: j_func(t, 2e-10) + 2 * Ball.exact(t).log(),
        delta, 0.5, tol / 3)
    # top: j is smooth and small on [1/2, 1]
    top = integrate(lambda t: j_func(t, 2e-10), 0.5, 1.0, tol / 3)
    return head + log_part + remainder + top - 1


def check_j_sandwich(grid: list[float] | None = None,
                     tol: float = 1e-9) -> list[tuple[float, Ball, Ball]]:
    """Margins of -2log t - 2(log 2pi - 1) <= j(t) <= -2log t per point."""
    pts = grid if grid is not None else _grid(100, 0.0, 0.9999)
    out = []
    for t in pts:
        jb = j_func(t, tol)
        neg2log = -2 * Ball.exact(t).log()
        lower = neg2log - 2 * (TWO_PI.log() - 1)
        out.append((t, jb - lower, neg2log - jb))
    return out


# -- F3/F4 series identities ---------------------------------------------------

def one_minus_f3_points(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 1 - F3(t) = (sin(pi t)/pi)^2 (2 psi'(t) - 2/t - 1/t^2).

    The partial-fraction identity sum_m sgn(m)/(t-m)^2 =
    pi^2/sin^2(pi t) - 1/t^2 - 2 psi'(t) + 2/t^2 turns the defining sum
    into a trigamma evaluation; equivalence with the direct truncated sum
    is property-tested.  Returns (midpoints, radii).
    """
    ts = np.asarray(ts, dtype=np.float64)
    tri_m, tri_r = trigamma_points(ts)
    bracket = 2.0 * tri_m - 2.0 / ts - 1.0 / ts ** 2
    bracket_rad = 2.0 * tri_r + _EPS * (8.0 / ts ** 2 + 8.0 / ts + 4.0)
    s = np.sin(math.pi * ts) / math.pi
    s2 = s * s
    mids = s2 * bracket
    rads = s2 * bracket_rad + np.abs(bracket) * (8.0 * _EPS * (s2 + 0.02)) \
        + 4.0 * _EPS * np.abs(mids)
    return mids, rads


def check_f3_identity(delta: float, n_terms: int = 10 ** 6) -> Ball:
    """Residual of sum_n (1 - F3(delta n))/n = -log delta - 1 + delta."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta * n_terms < 10.0:
        raise ValueError("truncation too short for the tail envelope")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    ts = delta * n
    mids, rads = one_minus_f3_points(ts)
    terms = mids / n
    partial = float(np.sum(terms))
    env = float(np.sum(rads / n)) \
        + _EPS * (math.ceil(math.log2(n_terms)) + 4) * float(np.sum(np.abs(terms)) + 1.0)
    # 0 <= 1 - F3(t) <= 1/(3 pi^2 t^3) for t >= 1 (trigamma upper series)
    tail = 1.0 / (9.0 * math.pi ** 2 * (delta * n_terms) ** 3) * 1.01
    lhs = Ball(partial, env + tail)
    rhs = -Ball.exact(delta).log() - 1 + Ball.exact(delta)
    return lhs - rhs


def _log_sin_ratio_integral(delta: float, tol: float) -> Ball:
    """integral_0^1 (1-t) log(pi delta t / sin(pi delta t)) dt, delta <= 1/2."""
    pd = PI * Ball.exact(delta)

    def f(t: float) -> Ball:
        x = pd * Ball.exact(t)
        return -(1 - Ball.exact(t)) * ball_sinc(x).log()

    return integrate(f, 0.0, 1.0, tol)


def check_f4_identity(delta: float, n_terms: int = 10 ** 6,
                      tol: float = 1e-8) -> Ball:
    """Residual of sum_n (1-F4(delta n))/n =
    -log delta + 3/2 - log(2 pi) + 2 integral_0^1 (1-t) log|pi delta t / sin(pi delta t)| dt."""
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    x = math.pi * delta * n
    y = np.sin(x) ** 2 / (math.pi ** 2 * delta ** 2 * n ** 3)
    partial = float(np.sum(y))
    env = _EPS * (16.0 + math.ceil(math.log2(n_terms))) * float(np.sum(y) + 1.0)
    tail = 1.0 / (2.0 * math.pi ** 2 * delta ** 2 * n_terms ** 2) * 1.01
    lhs = Ball(partial, env + tail)
    rhs = (-Ball.exact(delta).log() + Ball.exact(3) / 2 - TWO_PI.log()
           + 2 * _log_sin_ratio_integral(delta, tol / 4))
    return lhs - rhs


def check_lemma26(delta: float, tol: float = 1e-9) -> Ball:
    """Margin of 2 integral_0^1 (1-t) log|pi delta t/sin(pi delta t)| dt <= pi^3 delta^2/12."""
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    d2 = Ball.exact(delta) ** 2
    return PI ** 3 * d2 / 12 - 2 * _log_sin_ratio_integral(delta, tol)


# -- Lemma 3.2: the twisted log-sine comparison -------------------------------

def _weighted_log_abs_one_minus(k: Ball) -> Ball:
    """A(k) = integral_0^1 (1-t) log|1-kt| dt in closed form:
    (k-1)^2/(2k^2) log|1-k| - 3/4 + 1/(2k)."""
    w = (1 - k).abs()
    if w.lower() > 1e-6:
        lead = (k - 1) ** 2 / (2 * k * k) * w.log()
    else:
        # |x^2 log x| <= hi^2 |log hi| for x <= hi < 1/e
        hi = w.upper()
        klo = k.lower()
        lead = Ball(0.0, hi * hi * abs(math.log(hi)) / (2.0 * klo * klo) + 1e-30)
    return lead - Ball.exact(3) / 4 + 1 / (2 * k)


def _sin_ratio_g(s: float) -> Ball:
    """G(s) = sin(pi s)/(pi s (1-s)(1+s)) on [0, 3/2]: smooth, positive."""
    sb = Ball.exact(s)
    if s <= 0.5:
        return ball_sinc(PI * sb) / ((1 - sb) * (1 + sb))
    v = 1 - sb
    return ball_sinc(PI * v) / (sb * (1 + sb))


def check_lemma32(delta: float, tol: float = 1e-9) -> Ball:
    """Margin of
    integral_0^1 (1-t)(log|pi d t/sin(pi d t)| - (1/3)log|3 pi d t/sin(3 pi d t)|) dt
    <= pi^3 d^2/36 + pi^2 d^2/27.

    The factor-3 term crosses the sin zero at t = 1/(3 delta) when
    delta >= 1/3; writing |sin(pi s)| = pi s |1-s|(1+s) G(s) isolates the
    log|1-s| piece, whose weighted integral has a closed form, leaving
    smooth quadratures only.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    l1 = _log_sin_ratio_integral(delta, tol)
    k = 3 * Ball.exact(delta)

    def smooth(t: float) -> Ball:
        s = 3.0 * delta * t
        tb = Ball.exact(t)
        return (1 - tb) * ((1 + k * tb).log() + _sin_ratio_g(s).log())

    l3 = -_weighted_log_abs_one_minus(k) - integrate(smooth, 0.0, 1.0, tol)
    lhs = l1 - l3 / 3
    d2 = Ball.exact(delta) ** 2
    bound = PI ** 3 * d2 / 36 + PI ** 2 * d2 / 27
    return bound - lhs


# -- section 3 inner-sum bounds (exact arithmetic) ----------------------------

def _sum_squares_coprime3(x):
    """T(x) = sum over 1 <= m <= x, 3 not | m, of (x - m)^2, exactly; on an
    int64 array, elementwise (exact while 2x^3 fits, x < 1.6e6)."""
    total = (x - 1) * x * (2 * x - 1) // 6
    p = x // 3
    by3 = p * x * x - 3 * x * p * (p + 1) + 3 * p * (p + 1) * (2 * p + 1) // 2
    return total - by3


def check_inner_sum_bound(dq: int) -> Fraction:
    """Exact margin of sum_{m<=dq, (m,3)=1} (m/dq - 1)^2 <= 2dq/9 - 14/(dq)^2 + 14/(3dq)."""
    if dq < 5:
        raise ValueError("dq must be at least 5 so both progressions are non-empty")
    t = _sum_squares_coprime3(dq)
    return Fraction(2 * dq ** 3 + 42 * dq - 126 - 9 * t, 9 * dq ** 2)


def inner_sum_bound_margins(lo: int = 5, hi: int = 10 ** 4) -> np.ndarray:
    """Vectorized exact numerators 2x^3 + 42x - 126 - 9T(x) for x in [lo, hi]."""
    x = np.arange(lo, hi + 1, dtype=np.int64)
    return 2 * x ** 3 + 42 * x - 126 - 9 * _sum_squares_coprime3(x)


def check_even_inner_sum(x: float, tol: float = 1e-9) -> Ball:
    """Margin of sum_{m<=x, (m,3)=1} j(m/x) <= 2x/3 + (5/3)log2 + log5 + (4/3)(log pi - 1)."""
    if x < 5:
        raise ValueError("x must be at least 5")
    acc = Ball(0.0, 0.0)
    for m in range(1, int(math.floor(x)) + 1):
        if m % 3 == 0:
            continue
        acc = acc + j_func(m / x, tol)
    xb = Ball.exact(x)
    bound = (2 * xb / 3 + Ball.exact(5) / 3 * Ball.exact(2).log()
             + Ball.exact(5).log() + Ball.exact(4) / 3 * (PI.log() - 1))
    return bound - acc


# -- suite driver --------------------------------------------------------------

def run_all(grid_n: int = 100) -> list[CheckResult]:
    """Run every lemma check on default grids; one result line per check."""
    if grid_n < 2:
        raise ValueError(f"grid must be at least 2, got {grid_n}")
    results = []

    res = check_j_integral()
    m = 1e-8 - (abs(res.mid) + res.rad)
    results.append(CheckResult("j-integral", 1, m, "pass" if m > 0 and res.contains(0.0) else "fail"))

    sand = check_j_sandwich(_grid(grid_n, 0.0, 0.9999))
    worst = min(min(lo.lower(), hi.lower()) for _, lo, hi in sand)
    results.append(CheckResult("j-sandwich", len(sand), worst,
                               "pass" if worst > 0 else "fail"))

    worst = math.inf
    ok = True
    pts = _grid(grid_n, 0.0, 1.0) + [1.0]
    for d in pts:
        r = check_f3_identity(d)
        worst = min(worst, 1e-6 - (abs(r.mid) + r.rad))
        ok = ok and r.contains(0.0)
    results.append(CheckResult("f3-identity", len(pts), worst,
                               "pass" if ok and worst > 0 else "fail"))

    worst = math.inf
    ok = True
    pts = _grid(grid_n, 0.0, 0.5)
    for d in pts:
        r = check_f4_identity(d)
        worst = min(worst, 1e-6 - (abs(r.mid) + r.rad))
        ok = ok and r.contains(0.0)
    results.append(CheckResult("f4-identity", len(pts), worst,
                               "pass" if ok and worst > 0 else "fail"))

    worst = min(check_lemma26(d).lower() for d in pts)
    results.append(CheckResult("lemma26-bound", len(pts), worst,
                               "pass" if worst > 0 else "fail"))

    worst = min(check_lemma32(d).lower() for d in pts)
    results.append(CheckResult("lemma32-bound", len(pts), worst,
                               "pass" if worst > 0 else "fail"))

    nums = inner_sum_bound_margins(5, 10 ** 4)
    worst_num = int(nums.min())
    results.append(CheckResult("inner-sum-bound", len(nums),
                               float(check_inner_sum_bound(5 + int(nums.argmin()))),
                               "pass" if worst_num > 0 else "fail"))

    samples = [5, 6, 8, 12, 20, 50]
    worst = min(check_even_inner_sum(x).lower() for x in samples)
    results.append(CheckResult("even-j-sum-bound", len(samples), worst,
                               "pass" if worst > 0 else "fail"))

    return results
