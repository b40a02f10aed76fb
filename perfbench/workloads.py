"""The benchmark workloads: inputs made from a seed, one timed pass through
l1sweep's public API, and the output checks run after the pass.

Every workload uses tol = 1e-9 and conductors divisible by 3, the range
the theorem covers.  A pass returns its wall time and a compact output;
`check` turns that output into the set of conductors that failed.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from l1sweep.special import ToleranceError

arith = importlib.import_module("l1sweep.arith")
batch = importlib.import_module("l1sweep.batch")
bounds = importlib.import_module("l1sweep.bounds")
characters = importlib.import_module("l1sweep.characters")
sweep_module = importlib.import_module("l1sweep.sweep")

TOL = 1e-9
DIVISOR = 3


@dataclass
class PassOutput:
    wall: float                  # seconds in the timed region
    characters: int              # characters verified, or records checked
    data: object                 # what `check` needs, gathered while timing
    error: str | None = None     # a ToleranceError that ended the pass


@dataclass
class CheckResult:
    failed: set[int] = field(default_factory=set)   # conductors that failed
    messages: list[str] = field(default_factory=list)
    row_bytes: int = 0
    floor_hits: int = 0

    def fail(self, qs, message: str) -> None:
        self.failed.update(qs)
        self.messages.append(message)


def _primitive_between(qmin: int, qmax: int) -> int:
    """Primitive characters with qmin <= q <= qmax and 3 | q."""
    return (characters.count_primitive(qmax, DIVISOR)
            - characters.count_primitive(qmin - 1, DIVISOR))


class SweepWorkload:
    """`sweep(qmin, qmax, divisor=3)` writing a row file, as `l1sweep sweep` does."""

    def __init__(self, name: str, qmin: int, qmax: int, threads: int,
                 known_maxima: dict[str, tuple[int, float]]):
        self.name, self.qmin, self.qmax, self.threads = name, qmin, qmax, threads
        self.known_maxima = known_maxima     # parity -> (q, excess truncated to 7 decimals)
        self.conductors = sweep_module.conductor_range(qmin, qmax, DIVISOR)
        self.expected_characters = _primitive_between(qmin, qmax)
        self._first_digest: str | None = None

    def describe(self) -> dict:
        return {"qmin": self.qmin, "qmax": self.qmax, "divisor": DIVISOR,
                "threads": self.threads, "conductors": len(self.conductors)}

    def run_pass(self, workdir: Path, tracer) -> PassOutput:
        rows = workdir / "rows.csv"
        rows.unlink(missing_ok=True)     # an existing file would be resumed
        t0 = perf_counter()
        try:
            summary = sweep_module.sweep(self.qmin, self.qmax, DIVISOR, TOL,
                                         self.threads, str(rows))
        except ToleranceError as e:
            return PassOutput(perf_counter() - t0, 0, None, f"ToleranceError: {e}")
        wall = perf_counter() - t0
        return PassOutput(wall, summary.n_characters, (summary, rows.read_bytes()))

    def check(self, out: PassOutput) -> CheckResult:
        res = CheckResult()
        if out.error:
            res.fail(self.conductors, out.error)
            return res
        summary, row_bytes = out.data
        res.row_bytes = len(row_bytes)
        res.floor_hits = len(summary.tolerance_floor)
        for r in summary.exceptions:
            res.fail([r.q], f"q={r.q} {r.parity}: verdict {r.verdict}")
        if summary.tolerance_floor:
            res.fail(summary.tolerance_floor,
                     f"tolerance floor hit at q in {summary.tolerance_floor}")
        if summary.n_characters != self.expected_characters:
            res.fail(self.conductors, f"{summary.n_characters} characters, "
                     f"count_primitive gives {self.expected_characters}")
        for parity, (q, digits) in self.known_maxima.items():
            # the excess ball must lie inside [digits, digits + 1e-7)
            row = summary.maxima.get(parity)
            if (row is None or row.q != q
                    or not digits <= row.excess_mid - row.excess_rad
                    or not row.excess_mid + row.excess_rad < digits + 1e-7):
                res.fail([q], f"{parity} maximum {row}, expected q={q} excess {digits}...")
        digest = hashlib.sha256(row_bytes).hexdigest()
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            res.fail(self.conductors, "row file differs from the first pass")
        return res


def _primitive_count(q: int) -> int:
    """phi*(q) from the factorization; only picks the lvalue conductors."""
    n = 1
    for p, e in arith.factorize(q).factors:
        n *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return n


@dataclass
class _LValueConductor:
    q: int
    records: int
    not_pass: list[int]          # character indices whose verdict is not pass
    sample: object               # one LValueRecord, checked against direct_sum


class LValueWorkload:
    """`l_values(q)` then `check_theorem` on every record, as `l1sweep lvalue
    --q Q` does without printing, for CONDUCTORS seed-chosen q in [9e4, 1e5)
    with 3 | q and 4e4 <= phi*(q) < 4.45e4.  That band holds the largest
    record counts of the range (q = 9p), so every seed does about the same
    work and reaches about the same peak memory."""

    CONDUCTORS = 5

    def __init__(self, name: str, seed: int):
        self.name, self.threads = name, 1
        band = [q for q in range(90_000, 100_000, DIVISOR)
                if 40_000 <= _primitive_count(q) < 44_500]
        rng = random.Random(seed)
        self.conductors = sorted(rng.sample(band, self.CONDUCTORS))
        # the conductors up to q that q divides are q alone
        self.expected_records = {q: characters.count_primitive(q, q) for q in self.conductors}
        # which record of each conductor is checked against the direct sum
        self.sample_at = {q: rng.random() for q in self.conductors}

    def describe(self) -> dict:
        return {"conductors": self.conductors,
                "records": sum(self.expected_records.values())}

    def run_pass(self, workdir: Path, tracer) -> PassOutput:
        wall, done = 0.0, []
        for q in self.conductors:
            with tracer.span("lvalue.conductor", run=q):
                t0 = perf_counter()
                try:
                    records = batch.l_values(q, TOL)
                except ToleranceError as e:
                    return PassOutput(wall + perf_counter() - t0, 0, done,
                                      f"q={q}: ToleranceError: {e}")
                with tracer.span("bounds.check_theorem"):
                    reports = [bounds.check_theorem(r) for r in records]
                wall += perf_counter() - t0
            not_pass = [r.index for r, rep in zip(records, reports) if rep.verdict != "pass"]
            sample = records[int(self.sample_at[q] * len(records))] if records else None
            done.append(_LValueConductor(q, len(records), not_pass, sample))
            del records, reports    # only one conductor's records are alive at a time
        return PassOutput(wall, sum(c.records for c in done), done)

    def check(self, out: PassOutput) -> CheckResult:
        res = CheckResult()
        if out.error:
            res.fail(self.conductors[len(out.data):], out.error)
        for c in out.data:
            if c.records != self.expected_records[c.q]:
                res.fail([c.q], f"q={c.q}: {c.records} records, count_primitive "
                         f"gives {self.expected_records[c.q]}")
            if c.not_pass:
                res.fail([c.q], f"q={c.q}: verdict not pass at indices {c.not_pass[:5]}")
            if c.sample is not None and not _agrees_with_direct_sum(c.sample):
                res.fail([c.q], f"q={c.q} index={c.sample.index}: disagrees with direct_sum")
        return res


def _agrees_with_direct_sum(rec) -> bool:
    """The record's value ball overlaps the naive O(phi) character sum, and
    its character is primitive with the record's parity."""
    g = arith.unit_group(rec.q)
    coeffs = batch.build_coefficients(rec.q, TOL / (2.0 * g.phi))
    exps = tuple(int(e) for e in np.unravel_index(rec.index, g.orders))
    chi = characters.character_from_exps(g, exps)
    d = batch.direct_sum(g, coeffs, chi)
    v = rec.value
    return (chi.primitive and chi.parity == rec.parity
            and abs(v.re.mid - d.re.mid) <= v.re.rad + d.re.rad
            and abs(v.im.mid - d.im.mid) <= v.im.rad + d.im.rad)


def make(name: str, seed: int):
    """The workload called `name`; the seed picks the conductor sets of
    window-1e5 and lvalue-1e5."""
    if name == "sweep-2e4":
        return SweepWorkload(name, 3, 20_000, 2,
                             {"even": (249, 0.2717889), "odd": (111, 0.8156508)})
    if name == "window-1e5":
        # starts above 9.5e4 keep the window's character count within a
        # few percent across seeds
        start = random.Random(seed).randrange(95_000, 99_001)
        return SweepWorkload(name, start, start + 999, 1, {})
    if name == "lvalue-1e5":
        return LValueWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")

