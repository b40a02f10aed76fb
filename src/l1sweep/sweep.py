"""Conductor sweeps: theorem verification, maxima tracking, row files.

One work unit is one conductor; conductors are independent, so a process
pool maps over them while a single writer emits rows in ascending-q
order.  The row file is the only store of rows: the summary's maxima and
exceptions are folded from each row as it arrives.  Row files are plain
UTF-8 CSV with shortest round-trip floats, so two sweeps of the same
range are byte-identical regardless of thread count.  An interrupted
sweep resumes by truncating the file where its last conductor's rows
start and appending from there; the rows before that point are read and
never written again.  A row file whose rows are not a prefix of this
run's conductors is refused untouched, and so is a file that is not empty
and does not start with the row header.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .batch import batch_maxima
from .bounds import check_theorem
from .characters import count_primitive

_HEADER = b"q,parity,excess_mid,excess_rad,index,constant,margin_mid,margin_rad,verdict,ambiguous\n"


@dataclass(frozen=True)
class SweepRow:
    """Per (conductor, parity) maximum excess and its bound comparison."""

    q: int
    parity: str
    excess_mid: float
    excess_rad: float
    index: int
    constant: float
    margin_mid: float
    margin_rad: float
    verdict: str
    ambiguous: bool

    def line(self) -> str:
        return (f"{self.q},{self.parity},{self.excess_mid!r},{self.excess_rad!r},"
                f"{self.index},{self.constant!r},{self.margin_mid!r},"
                f"{self.margin_rad!r},{self.verdict},{int(self.ambiguous)}")

    @staticmethod
    def parse(line: str) -> "SweepRow":
        f = line.rstrip("\n").split(",")
        if len(f) != 10:
            raise ValueError(f"malformed row: {line!r}")
        return SweepRow(int(f[0]), f[1], float(f[2]), float(f[3]), int(f[4]),
                        float(f[5]), float(f[6]), float(f[7]), f[8], f[9] == "1")


@dataclass
class SweepSummary:
    qmin: int
    qmax: int
    divisor: int
    tol: float
    exceptions: list[SweepRow]        # verdict fail or indeterminate
    maxima: dict[str, SweepRow]       # parity -> row achieving the global max
    n_conductors: int
    n_characters: int
    wall_seconds: float

    @property
    def verified(self) -> bool:
        return not self.exceptions

    @property
    def tolerance_floor(self) -> list[int]:
        """Conductors with an indeterminate row, in ascending order.

        tol changes no computed value: whatever tol is, the records carry
        the same midpoints and radii, at the double-precision floor, and tol
        only refuses, with ToleranceError, a conductor with a record whose
        |L| radius exceeds it.  So no rerun at a smaller tol can decide
        these rows; they stay among the exceptions.
        """
        return sorted({r.q for r in self.exceptions if r.verdict == "indeterminate"})


def _worker(args: tuple[int, float]) -> tuple[list[SweepRow], int]:
    """Rows of one conductor: check_theorem of each parity's argmax record."""
    q, tol = args
    maxima, n_prim = batch_maxima(q, tol)
    rows = []
    for rec, ambiguous in maxima:
        rep = check_theorem(rec)
        rows.append(SweepRow(q, rec.parity, rec.excess_mid, rec.excess_rad, rec.index,
                             rep.constant.mid, rep.margin_mid, rep.margin_rad,
                             rep.verdict, ambiguous))
    return rows, n_prim


def conductor_range(qmin: int, qmax: int, divisor: int) -> list[int]:
    return [q for q in range(max(qmin, 3), qmax + 1) if q % divisor == 0]


def _load_resume(fh):
    """Complete rows of a row file open in binary mode, in file order, each
    with the byte offset where it starts; None when the file does not
    start with the header.  A trailing partial line is dropped and a
    malformed row ends the read, so a restart continues from the last
    whole row."""
    fh.seek(0)
    if fh.readline() != _HEADER:
        return None

    def rows():
        offset = len(_HEADER)
        for line in fh:
            if not line.endswith(b"\n"):
                return  # partial final row
            try:
                row = SweepRow.parse(line.decode())
            except ValueError:
                return
            yield offset, row
            offset += len(line)
    return rows()


def sweep(qmin: int, qmax: int, divisor: int = 3, tol: float = 1e-9,
          threads: int = 1, out_path: str | None = None) -> SweepSummary:
    """Evaluate every conductor in [qmin, qmax] with divisor | q against the
    theorem constants; write one row per (q, parity).

    The theorem holds only for 3 | q, so divisor must be a positive
    multiple of 3.  An existing row file at out_path is resumed: its last
    conductor is recomputed and every conductor before it is taken from
    the file.  A file at out_path that is neither empty nor a row file
    raises ValueError and is left as it is.  A threads count below 1
    raises ValueError before any file is opened.
    """
    if not 3 <= qmin <= qmax:
        raise ValueError("need 3 <= qmin <= qmax")
    if divisor is None or divisor <= 0 or divisor % 3:
        raise ValueError(f"the theorem needs 3 | q: divisor must be a positive "
                         f"multiple of 3, got {divisor}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    t0 = time.perf_counter()
    qs = conductor_range(qmin, qmax, divisor)
    maxima: dict[str, SweepRow] = {}
    exceptions: list[SweepRow] = []
    n_characters = 0

    def fold(r: SweepRow) -> None:
        # strict > in ascending q keeps the first row that reaches a maximum
        cur = maxima.get(r.parity)
        if cur is None or r.excess_mid > cur.excess_mid:
            maxima[r.parity] = r
        if r.verdict != "pass":
            exceptions.append(r)

    def consume(result):
        nonlocal n_characters
        rows, n_prim = result
        n_characters += n_prim
        for r in rows:
            fold(r)
            if fh is not None:
                fh.write(r.line().encode() + b"\n")
        if fh is not None:
            fh.flush()

    # in append mode every write lands at the end, wherever it was truncated
    with open(out_path, "a+b") if out_path else nullcontext() as fh:
        found = _load_resume(fh) if fh is not None else None
        if found is None and fh is not None and fh.seek(0, os.SEEK_END):
            raise ValueError(f"{out_path} is not a sweep row file; refusing to "
                             "overwrite it")
        # the file's conductors must be this run's own from the first one
        # onward (q = 2 mod 4 has no primitive characters, so no rows); its
        # last conductor may have been cut mid-write, so it is recomputed
        # from the offset where its rows start
        due = (q for q in qs if q % 4 != 2)
        start, done, group = 0 if found is None else len(_HEADER), 0, []
        for offset, r in found or ():
            if group and r.q == group[0].q:
                group.append(r)
                continue
            if r.q != next(due, None):
                raise ValueError(f"{out_path} holds rows that are not a prefix of this "
                                 f"run's conductors {qmin}..{qmax} with {divisor} | q; "
                                 "refusing to resume from it")
            for g in group:
                fold(g)
            done = group[0].q if group else 0
            start, group = offset, [r]
        if done:
            # per-conductor counts of the folded prefix were not re-run
            n_characters = count_primitive(done, divisor) - count_primitive(qmin - 1, divisor)
        if fh is not None:
            fh.truncate(start)
            if not start:
                fh.write(_HEADER)
            fh.flush()
        todo = [q for q in qs if q > done]
        if threads == 1 or len(todo) <= 1:
            for q in todo:
                consume(_worker((q, tol)))
        else:
            chunk = max(1, len(todo) // (threads * 16))
            # the fork start method launches every worker up front
            with ProcessPoolExecutor(max_workers=min(threads, len(todo))) as pool:
                for result in pool.map(_worker, [(q, tol) for q in todo],
                                       chunksize=chunk):
                    consume(result)

    return SweepSummary(qmin, qmax, divisor, tol, exceptions, maxima,
                        len(qs), n_characters, time.perf_counter() - t0)


def emit_figure_data(rows_path: str, parity: str, out_path: str) -> int:
    """Two-column (q, max excess midpoint) text for one parity class.

    Returns the number of points written; an empty selection yields an
    empty file.  The row file is read whole before out_path is opened: a
    trailing partial line, the last row of an interrupted sweep, is
    dropped, while a complete row that does not parse, or an out_path that
    names the row file itself, raises ValueError and writes nothing.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    points = []
    with open(rows_path, "rb") as fh:
        if fh.readline() != _HEADER:
            raise ValueError(f"{rows_path} is not a sweep row file")
        if os.path.exists(out_path) and os.path.samefile(rows_path, out_path):
            raise ValueError(f"{out_path} is the row file being read; refusing to overwrite it")
        for n, line in enumerate(fh, 2):
            if not line.endswith(b"\n"):
                break
            try:
                r = SweepRow.parse(line.decode())
            except ValueError:
                raise ValueError(f"{rows_path} line {n} is not a sweep row") from None
            if r.parity == parity:
                points.append(f"{r.q} {r.excess_mid!r}\n")
    with open(out_path, "w", encoding="utf-8", newline="") as out:
        out.writelines(points)
    return len(points)


def summarize(summary: SweepSummary) -> str:
    lines = [
        f"conductors {summary.qmin}..{summary.qmax} with {summary.divisor} | q",
        f"conductors processed:  {summary.n_conductors}",
        f"primitive characters:  {summary.n_characters}",
        f"wall time:             {summary.wall_seconds:.2f} s",
    ]
    for parity in ("even", "odd"):
        row = summary.maxima.get(parity)
        if row is None:
            lines.append(f"{parity} maximum: (no characters)")
        else:
            # C is fixed per parity, so this row also has the least margin
            lines.append(f"{parity} maximum: q={row.q} index={row.index} "
                         f"excess={row.excess_mid:.6f} (+/- {row.excess_rad:.1e}) "
                         f"margin={row.margin_mid:.6f} (+/- {row.margin_rad:.1e})"
                         + (" [argmax-ambiguous]" if row.ambiguous else ""))
    if summary.tolerance_floor:
        lines.append(f"tolerance floor hit at q in {summary.tolerance_floor}")
    lines.append("theorem exceptions:    "
                 + (f"{len(summary.exceptions)} (see rows)" if summary.exceptions else "none"))
    return "\n".join(lines)
