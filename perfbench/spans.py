"""Span tracer for the traced benchmark run, and the per-layer metrics
derived from its spans.

`Tracer.install` replaces selected l1sweep functions, in every module
namespace that imported them, with wrappers that record one span per
call: name, start, end, parent span and run id (pass index and
conductor).  Spans stay in memory.  Forked sweep workers inherit the
wrappers; each worker writes its spans to a spool file as it exits, and
the parent merges those files once the pool has shut down.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import multiprocessing.util
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _fft_counts(tracer: "Tracer", args, result) -> None:
    n = result.size
    tracer.counts["fft_points"] += n
    tracer.counts["fft_flops_computed"] += 5 * n * math.log2(max(n, 2))
    tracer.counts["fft_bytes_computed"] += np.asarray(args[0]).nbytes + result.nbytes


def _envelope(tracer: "Tracer", args, result) -> None:
    tracer.envelope_max = max(tracer.envelope_max, float(result[1]))


# (module, function, span name, observer of (args, result)).  The wrapper
# replaces the function wherever an l1sweep module (or numpy.fft) holds it.
TRACED = [
    ("l1sweep.arith", "unit_group", "arith.unit_group", None),
    ("l1sweep.arith", "units", "arith.units", None),
    ("l1sweep.arith", "dlog_matrix", "arith.dlog_matrix", None),
    ("l1sweep.special", "digamma_points", "special.digamma_points", None),
    ("l1sweep.batch", "build_coefficients", "batch.build_coefficients", None),
    ("l1sweep.batch", "character_sums", "batch.character_sums", _envelope),
    ("l1sweep.batch", "batch_maxima", "batch.batch_maxima", None),
    ("l1sweep.batch", "l_values", "batch.l_values", None),
    ("numpy.fft", "fftn", "batch.fft", _fft_counts),
    ("l1sweep.characters", "primitive_mask", "characters.primitive_mask", None),
    ("l1sweep.characters", "parity_mask", "characters.parity_mask", None),
    ("l1sweep.bounds", "excess_margin", "bounds.excess_margin", None),
    # the per-conductor work unit the sweep maps over its pool; it is
    # the root span of each conductor and sets the run id
    ("l1sweep.sweep", "_worker", "sweep.conductor", None),
]


class NoTrace:
    """Stands in for a Tracer in untraced passes."""

    def span(self, name: str, run=None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool          # directory for worker span files
        self.pass_index = 0
        self.spans: list[tuple] = []    # (pid, id, parent, name, start_ns, end_ns, run)
        self.counts: Counter = Counter()
        self.envelope_max = 0.0
        self._run = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    @contextlib.contextmanager
    def span(self, name: str, run=None):
        if run is not None:
            self._run = f"{self.pass_index}:{run}"
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((os.getpid(), sid, parent, name, start, end, self._run))

    def _wrap(self, name, fn, observe):
        root = name == "sweep.conductor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, run=args[0][0] if root else None):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def install(self, pass_index: int) -> None:
        from l1sweep.ball import Ball
        from l1sweep.sweep import SweepRow

        self.pass_index = pass_index
        holders = [m for n, m in sys.modules.items()
                   if n == "l1sweep" or n.startswith("l1sweep.")]
        holders.append(importlib.import_module("numpy.fft"))
        for module, attr, name, observe in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, observe)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

        line = SweepRow.line

        def traced_line(row):
            with self.span("sweep.row_format", run=row.q):
                return line(row)

        post_init = Ball.__post_init__

        def counted_post_init(ball):
            self.counts["ball_objects"] += 1
            post_init(ball)

        for owner, key, new in ((SweepRow, "line", traced_line),
                                (Ball, "__post_init__", counted_post_init)):
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        """Restore every patched attribute and merge the worker spool."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        for path in sorted(self.spool.glob("worker-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(tuple(s) for s in data["spans"])
            self.counts.update(data["counts"])
            self.envelope_max = max(self.envelope_max, data["envelope_max"])
            path.unlink()

    def _in_worker(self) -> None:
        # runs in each forked pool worker, after multiprocessing has reset
        # its finalizer registry; the finalizer runs when the worker exits
        self.spans, self.counts, self._stack = [], Counter(), []
        self.envelope_max = 0.0
        if self._patched:
            multiprocessing.util.Finalize(self, self._write_worker_file, exitpriority=10)

    def _write_worker_file(self) -> None:
        path = self.spool / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    "envelope_max": self.envelope_max}))

    def write(self, path: Path) -> None:
        keys = ("pid", "id", "parent", "name", "start_ns", "end_ns", "run")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def layer_metrics(tracer: Tracer, passes: list[dict], untraced_walls: list[float],
                  threads: int, tol: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced passes.

    Times and counts are per pass of the workload (summed over workers,
    averaged over traced passes); ratios are per conductor or character.
    A layer the workload does not reach reads 0.
    """
    n = len(passes)
    total: dict[str, float] = defaultdict(float)
    self_ns: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_ns: dict[tuple, int] = defaultdict(int)
    for pid, sid, parent, name, start, end, run in tracer.spans:
        if parent is not None:
            child_ns[pid, parent] += end - start
    maxima_ms = []
    for pid, sid, parent, name, start, end, run in tracer.spans:
        total[name] += end - start
        self_ns[name] += end - start - child_ns[pid, sid]
        calls[name] += 1
        if name == "batch.batch_maxima":
            maxima_ms.append((end - start) / 1e6)

    def ms(name):
        return total[name] / 1e6 / n

    def self_ms(name):
        return self_ns[name] / 1e6 / n

    if threads > 1 and not calls["sweep.conductor"]:
        raise RuntimeError("no spans came back from the pool workers; the "
                           "wrappers reach them only through fork")
    conductors = sum(p["conductors"] for p in passes)
    characters = sum(p["characters"] for p in passes)
    traced_wall = float(np.median([p["wall"] for p in passes]))
    untraced_wall = float(np.median(untraced_walls))
    busy_s = total["sweep.conductor"] / 1e9 / n
    p50, p99 = np.percentile(maxima_ms, [50, 99]) if maxima_ms else (0.0, 0.0)
    return {
        "arith.unit_group_ms": (ms("arith.unit_group"), "ms"),
        "arith.units_ms": (ms("arith.units"), "ms"),
        "arith.dlog_matrix_ms": (ms("arith.dlog_matrix"), "ms"),
        "arith.units_calls_per_conductor": (calls["arith.units"] / conductors, "count"),
        "special.digamma_points_ms": (ms("special.digamma_points"), "ms"),
        "batch.build_coefficients_self_ms": (self_ms("batch.build_coefficients"), "ms"),
        "batch.character_sums_self_ms": (self_ms("batch.character_sums"), "ms"),
        "batch.fft_ms": (ms("batch.fft"), "ms"),
        "batch.fft_points": (tracer.counts["fft_points"] / n, "count"),
        "batch.fft_flops_computed": (tracer.counts["fft_flops_computed"] / n, "count"),
        "batch.fft_bytes_computed": (tracer.counts["fft_bytes_computed"] / n, "bytes"),
        "batch.batch_maxima_self_ms": (self_ms("batch.batch_maxima"), "ms"),
        "batch.conductor_ms.p50": (float(p50), "ms"),
        "batch.conductor_ms.p99": (float(p99), "ms"),
        "batch.spectra_per_conductor": (calls["batch.character_sums"] / conductors, "count"),
        "batch.l_values_self_ms": (self_ms("batch.l_values"), "ms"),
        "batch.envelope_to_tol_max": (tracer.envelope_max / tol, "ratio"),
        "characters.primitive_mask_ms": (ms("characters.primitive_mask"), "ms"),
        "characters.parity_mask_ms": (ms("characters.parity_mask"), "ms"),
        "bounds.excess_margin_ms": (ms("bounds.excess_margin"), "ms"),
        "bounds.check_theorem_ms": (ms("bounds.check_theorem"), "ms"),
        "ball.objects_per_char": (tracer.counts["ball_objects"] / characters, "count"),
        "sweep.worker_busy_s": (busy_s, "s"),
        "sweep.parallel_efficiency": (busy_s / (traced_wall * threads), "ratio"),
        "sweep.row_format_ms": (ms("sweep.row_format"), "ms"),
        "sweep.row_bytes": (sum(p["row_bytes"] for p in passes) / n, "bytes"),
        # batch_maxima calls beyond the first inside one conductor's work unit
        "sweep.retries": ((calls["batch.batch_maxima"] - calls["sweep.conductor"]) / n
                          if calls["sweep.conductor"] else 0.0, "count"),
        "sweep.tolerance_floor_hits": (sum(p["floor_hits"] for p in passes) / n, "count"),
        # median traced pass minus median untraced pass
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
