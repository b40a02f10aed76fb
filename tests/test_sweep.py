"""Sweep machinery: rows, files, resume, determinism, figure data."""

import hashlib
import importlib
import math
import os
from fractions import Fraction

import pytest

from l1sweep.batch import batch_maxima, direct_sum, build_coefficients, l_values
from l1sweep.arith import unit_group
from l1sweep.bounds import check_theorem
from l1sweep.characters import count_primitive, enumerate_characters
from l1sweep.special import ToleranceError
from l1sweep.sweep import (SweepRow, _load_resume, conductor_range,
                           emit_figure_data, summarize, sweep)

# the package exports the sweep function under the submodule's name
sweep_mod = importlib.import_module("l1sweep.sweep")


def read_rows(path):
    """The complete rows of a row file, through the reader a resume uses."""
    with open(path, "rb") as fh:
        return [row for _, row in _load_resume(fh)]


def test_conductor_range_restriction():
    assert conductor_range(3, 12, 3) == [3, 6, 9, 12]
    assert conductor_range(1, 5, 3) == [3]


def test_sweep_3_to_9(tmp_path):
    out = str(tmp_path / "rows.csv")
    summary = sweep(3, 9, 3, out_path=out)
    rows = read_rows(out)
    qs = {(r.q, r.parity) for r in rows}
    # q=3 has one odd primitive character; q=6 none; q=9 has both parities
    assert qs == {(3, "odd"), (9, "even"), (9, "odd")}
    r3 = [r for r in rows if r.q == 3][0]
    assert abs(r3.excess_mid - 0.2383956918553694) < 1e-10
    assert summary.verified
    assert summary.n_conductors == 3
    # q=9 contributes 4 primitive characters, q=3 one
    assert summary.n_characters == 5
    assert summary.maxima["odd"].q == 9


def test_sweep_counts_match_count_primitive(tmp_path):
    summary = sweep(3, 200, 3, out_path=str(tmp_path / "r.csv"))
    assert summary.n_characters == count_primitive(200, 3)


@pytest.mark.parametrize("divisor", [None, 1, 2, 4, 0, -3])
def test_sweep_refuses_conductors_without_3(divisor, tmp_path):
    # the theorem's constants do not apply when 3 does not divide q
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="multiple of 3"):
        sweep(3, 60, divisor, out_path=str(out))
    assert not out.exists()


def test_row_roundtrip():
    row = SweepRow(249, "even", 0.2717889643875824, 1.2e-12, 123,
                   0.368296, 0.0965, 1.3e-12, "pass", False)
    assert SweepRow.parse(row.line()) == row
    with pytest.raises(ValueError):
        SweepRow.parse("not,a,row")


def test_sweep_rows_match_l_values(tmp_path):
    out = str(tmp_path / "rows.csv")
    sweep(3, 60, 3, out_path=out)
    for row in read_rows(out):
        recs = [r for r in l_values(row.q) if r.parity == row.parity]
        best = max(recs, key=lambda r: r.excess.mid)
        assert abs(row.excess_mid - best.excess.mid) < 1e-12
        # and the direct-sum oracle agrees with the recorded maximum
        g = unit_group(row.q)
        coeffs = build_coefficients(row.q, 1e-11)
        chi = enumerate_characters(g)[row.index]
        d = direct_sum(g, coeffs, chi).abs()
        assert abs(d.mid - (row.excess_mid + __import__("math").log(row.q) / 3)) \
            <= d.rad + row.excess_rad + 1e-12


def test_file_determinism_across_thread_counts(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    sweep(3, 400, 3, threads=1, out_path=p1)
    sweep(3, 400, 3, threads=2, out_path=p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_resume_from_partial_file(tmp_path):
    full_path = str(tmp_path / "full.csv")
    sweep(3, 120, 3, out_path=full_path)
    with open(full_path, "rb") as fh:
        full_bytes = fh.read()

    partial_path = str(tmp_path / "partial.csv")
    lines = full_bytes.decode().split("\n")
    keep = len(lines) // 2
    # truncate mid-file, leaving a dangling partial row
    with open(partial_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:keep]) + "\n" + lines[keep][: len(lines[keep]) // 2])

    resumed = sweep(3, 120, 3, out_path=partial_path)
    with open(partial_path, "rb") as fh:
        assert fh.read() == full_bytes
    assert resumed.verified
    assert resumed.n_characters == count_primitive(120, 3)


def test_resume_noop_when_complete(tmp_path):
    path = str(tmp_path / "done.csv")
    sweep(3, 60, 3, out_path=path)
    with open(path, "rb") as fh:
        before = fh.read()
    sweep(3, 60, 3, out_path=path)
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_resume_refuses_rows_of_another_run(tmp_path):
    # rows for 300..597 are not a prefix of 3..600: conductors 3..297
    # were never evaluated, so they must not be certified
    path = tmp_path / "rows.csv"
    sweep(300, 600, 3, out_path=str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not a prefix"):
        sweep(3, 600, 3, out_path=str(path))
    assert path.read_bytes() == before
    # nor may a run with another divisor take the rows over
    path.unlink()
    sweep(3, 120, 6, out_path=str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not a prefix"):
        sweep(3, 120, 3, out_path=str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("qmin,qmax", [(300, 600), (3, 300)])
def test_resume_refuses_a_file_of_a_longer_run(qmin, qmax, tmp_path, capsys):
    # the rows of 3..600 are not a prefix of 300..600, nor the rows of 3..300:
    # the file is refused, not cut down to this run's range
    from l1sweep.cli import main

    path = tmp_path / "rows.csv"
    sweep(3, 600, 3, out_path=str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not a prefix"):
        sweep(qmin, qmax, 3, out_path=str(path))
    assert path.read_bytes() == before
    assert main(["sweep", "--qmin", str(qmin), "--qmax", str(qmax),
                 "--out", str(path)]) == 1
    assert "not a prefix" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_sweep_refuses_a_file_that_is_not_a_row_file(tmp_path):
    # a mistyped --out must not replace an unrelated file with rows
    path = tmp_path / "notes.txt"
    path.write_bytes(b"line one\nline two\n")
    with pytest.raises(ValueError, match="not a sweep row file"):
        sweep(3, 9, 3, out_path=str(path))
    assert path.read_bytes() == b"line one\nline two\n"


def test_sweep_writes_header_to_an_empty_file(tmp_path):
    fresh = tmp_path / "fresh.csv"
    sweep(3, 60, 3, out_path=str(fresh))
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    sweep(3, 60, 3, out_path=str(empty))
    assert empty.read_bytes() == fresh.read_bytes()
    assert empty.read_bytes().startswith(b"q,parity,")


def _cut_mid_row(path):
    """Cut a row file halfway through the row after its middle one; return
    the conductor of the last complete row."""
    data = path.read_bytes()
    mid = data.index(b"\n", len(data) // 2) + 1
    cut = mid + (data.index(b"\n", mid) - mid) // 2
    path.write_bytes(data[:cut])
    return int(data[:mid].splitlines()[-1].split(b",")[0])


def test_resume_formats_only_recomputed_rows(monkeypatch, tmp_path):
    path = tmp_path / "rows.csv"
    sweep(3, 600, 3, out_path=str(path))
    full = path.read_bytes()
    q_last = _cut_mid_row(path)
    formatted = []
    line = SweepRow.line

    def counted(row):
        formatted.append(row.q)
        return line(row)

    monkeypatch.setattr(SweepRow, "line", counted)
    sweep(3, 600, 3, out_path=str(path))
    assert path.read_bytes() == full
    # the last conductor left in the file is recomputed, nothing before it
    assert formatted == [r.q for r in read_rows(path) if r.q >= q_last]


def test_summary_folds_the_row_file(monkeypatch, tmp_path):
    # maxima and exceptions are folded row by row; they must equal a scan of
    # the file, for a fresh sweep and for one resumed from a cut file
    def wide_at_7(q, tol=1e-9):
        # every q divisible by 7 gets an undecidable maximum
        maxima, n = batch_maxima(q, tol)
        return [(rec._replace(excess_rad=5.0) if q % 7 == 0 else rec, ambiguous)
                for rec, ambiguous in maxima], n

    def scanned(rows):
        maxima = {p: max((r for r in rows if r.parity == p), key=lambda r: r.excess_mid)
                  for p in ("even", "odd")}
        return maxima, [r for r in rows if r.verdict != "pass"]

    monkeypatch.setattr(sweep_mod, "batch_maxima", wide_at_7)
    path = tmp_path / "rows.csv"
    fresh = sweep(3, 2000, 3, out_path=str(path))
    maxima, exceptions = scanned(read_rows(path))
    assert exceptions and fresh.exceptions == exceptions
    assert fresh.maxima == maxima
    _cut_mid_row(path)
    resumed = sweep(3, 2000, 3, out_path=str(path))
    assert (resumed.maxima, resumed.exceptions) == (maxima, exceptions)
    assert resumed.n_characters == fresh.n_characters


def test_sweep_validates_range():
    with pytest.raises(ValueError):
        sweep(2, 1)
    with pytest.raises(ValueError):
        sweep(10, 5)


def test_figure_data(tmp_path):
    rows_path = str(tmp_path / "rows.csv")
    sweep(3, 60, 3, out_path=rows_path)
    even_path = str(tmp_path / "even.txt")
    n = emit_figure_data(rows_path, "even", even_path)
    with open(even_path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh.read().splitlines()]
    assert n == len(lines) > 0
    want = [(r.q, r.excess_mid) for r in read_rows(rows_path) if r.parity == "even"]
    assert [(int(a), float(b)) for a, b in lines] == want


def test_figure_data_empty_selection(tmp_path):
    rows_path = str(tmp_path / "rows.csv")
    sweep(6, 6, 3, out_path=rows_path)  # q=6: no primitive characters
    out = str(tmp_path / "odd.txt")
    assert emit_figure_data(rows_path, "odd", out) == 0
    assert os.path.getsize(out) == 0


def test_figure_data_rejects_bad_parity(tmp_path):
    with pytest.raises(ValueError):
        emit_figure_data(str(tmp_path / "x.csv"), "both", str(tmp_path / "y.txt"))


def test_summary_text(tmp_path):
    summary = sweep(3, 12, 3, out_path=str(tmp_path / "rows.csv"))
    text = summarize(summary)
    assert "conductors processed:  4" in text
    assert "theorem exceptions:    none" in text


def test_summary_shows_the_least_margin(tmp_path):
    # the odd maximum over 3..200 is at q = 111, where the margin to the
    # theorem's odd constant is the smallest of any row
    summary = sweep(3, 200, 3, out_path=str(tmp_path / "rows.csv"))
    odd = summary.maxima["odd"]
    assert odd.q == 111
    line = next(ln for ln in summarize(summary).splitlines() if ln.startswith("odd maximum"))
    assert f"margin={odd.margin_mid:.6f} (+/- {odd.margin_rad:.1e})" in line
    assert "margin=0.022723 " in line


@pytest.mark.parametrize("q", [9, 111, 249, 999, 1533, 2997, 9999])
def test_maxima_do_not_depend_on_tol(q):
    # tol only gates the reported |L| radii; it never changes a computed
    # value, so a smaller tol returns bit-identical maxima or is refused
    # (a tol below a row's |L| radius, about 1e-10 at q = 1e6, would be)
    first = batch_maxima(q, 1e-9)
    try:
        assert batch_maxima(q, 1e-11) == first
    except ToleranceError as e:
        assert e.q == q and unit_group(q).phi > 1000


@pytest.mark.slow
@pytest.mark.parametrize("qmax", [999999, 1999998])
def test_default_tol_reaches_the_top_of_the_range(qmax, tmp_path):
    # 10 conductors 3 | q just below 1e6 and just below 2e6 at the default
    # tol, which the digamma coefficients' floor refused there: no
    # ToleranceError, no exception, and every primitive character counted
    qmin = qmax - 27
    summary = sweep(qmin, qmax, 3, out_path=str(tmp_path / "rows.csv"))
    assert summary.n_conductors == 10
    assert summary.verified and not summary.tolerance_floor
    assert summary.n_characters == count_primitive(qmax, 3) - count_primitive(qmin - 1, 3)


def test_indeterminate_verdict_is_final(monkeypatch, tmp_path):
    # a maximum whose excess ball is too wide to decide stays
    # indeterminate: the conductor is evaluated once and the sweep fails
    from l1sweep.cli import main

    calls = []

    def wide(q, tol=1e-9):
        calls.append((q, tol))
        maxima, n = batch_maxima(q, tol)
        return [(rec._replace(excess_rad=5.0), ambiguous) for rec, ambiguous in maxima], n

    monkeypatch.setattr(sweep_mod, "batch_maxima", wide)
    summary = sweep(3, 3)
    assert calls == [(3, 1e-9)]
    assert [r.verdict for r in summary.exceptions] == ["indeterminate"]
    assert summary.tolerance_floor == [3]
    assert not summary.verified
    assert main(["sweep", "--qmin", "3", "--qmax", "3",
                 "--out", str(tmp_path / "rows.csv")]) == 2


def test_pool_no_larger_than_conductor_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", SerialPool)
    summary = sweep(3, 9, 3, threads=64)
    assert sizes == [3]
    assert summary.n_characters == 5


def test_even_band_for_q_divisible_by_12_sits_lower(tmp_path):
    # the lower of the two main bands of the excess plot comprises the
    # conductors divisible by 12
    out = str(tmp_path / "rows.csv")
    sweep(3, 2000, 3, out_path=out)
    even = [r for r in read_rows(out) if r.parity == "even" and r.q > 100]
    low = [r.excess_mid for r in even if r.q % 12 == 0]
    high = [r.excess_mid for r in even if r.q % 12 != 0]
    assert low and high
    assert sum(low) / len(low) < sum(high) / len(high) - 0.1


# sha256 of the row file of sweep(3, 3000) at any thread count.  A change
# to row bytes must fail here and record its new digest.
ROWS_3000_SHA256 = "41bbaba7a9191a08cd6c679521283e13bd82f69b17074ef7283730a45e64bc4d"


@pytest.fixture(scope="module")
def rows_3000(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    sweep(3, 3000, 3, threads=1, out_path=str(path))
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_row_file_digest(threads, rows_3000, tmp_path):
    path = rows_3000
    if threads != 1:
        path = tmp_path / "rows.csv"
        sweep(3, 3000, 3, threads=threads, out_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ROWS_3000_SHA256


# the other two byte-identity references: a row change records new ones;
# the ids leave the digest out, so a re-pinned case keeps its name
@pytest.mark.parametrize("qmin, qmax, threads, digest", [
    pytest.param(97000, 97999, 1,
                 "d473f87e677e40a5370a4feedab2ad10ca16cac7a4ebd041bfb08bd04ad4e8b6",
                 id="97000-97999-1"),
    pytest.param(3, 20000, 2,
                 "f9a13b302f289f045270bd808a32f3fef7b6615bd3cc025eafc7442ba7fada9a",
                 id="3-20000-2"),
])
def test_reference_row_file_digests(qmin, qmax, threads, digest, tmp_path):
    path = tmp_path / "rows.csv"
    sweep(qmin, qmax, 3, threads=threads, out_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _widened(rec, records):
    """`rec` with the least float excess radius at which its excess ball
    reaches the upper end of every excess ball of `records`."""
    mid = Fraction(rec.excess_mid)
    need = max(Fraction(r.excess_mid) + Fraction(r.excess_rad) - mid for r in records)
    rad = max(float(need), rec.excess_rad)
    if Fraction(rad) < need:
        rad = math.nextafter(rad, math.inf)
    return rec._replace(excess_rad=rad)


def test_rows_are_the_reports_of_their_argmax_records(rows_3000):
    # a row's excess, margin and verdict are check_theorem's report on the
    # l_values record at the row's index, to the last bit; on an ambiguous
    # row, on that record with its excess ball widened to reach every
    # record of the parity
    rows = [r for r in read_rows(rows_3000) if r.q <= 2000]
    assert len(rows) == 996 and sum(r.ambiguous for r in rows) == 6
    for row in rows:
        records = l_values(row.q)
        rec = next(r for r in records if r.index == row.index)
        if row.ambiguous:
            rec = _widened(rec, [r for r in records if r.parity == row.parity])
        rep = check_theorem(rec)
        assert rec.parity == row.parity and rep.verdict == row.verdict
        assert ([x.hex() for x in (row.excess_mid, row.excess_rad, row.margin_mid, row.margin_rad)]
                == [x.hex() for x in (rec.excess_mid, rec.excess_rad, rep.margin.mid, rep.margin.rad)])


def test_a_passing_row_covers_every_record_of_its_parity(rows_3000):
    # the proof obligation behind batch_maxima: a pass on the argmax's
    # record is a pass for every character of that parity
    passing = {(r.q, r.parity) for r in read_rows(rows_3000) if r.verdict == "pass"}
    assert len(passing) == 1498
    checked = 0
    for q in sorted({q for q, _ in passing}):
        for rec in l_values(q):
            if (q, rec.parity) in passing:
                assert check_theorem(rec).verdict == "pass", (q, rec.index)
                checked += 1
    assert checked == count_primitive(3000, 3)
