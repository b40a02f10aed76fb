"""l1sweep benchmark: verified characters per second, with per-layer spans.

Run from the repository root; the library is imported from ./src:

    python3 perfbench/run.py                        # every workload, untraced
    python3 perfbench/run.py --workload sweep-2e4 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload window-1e5 --trace 1

One run repeats whole passes of the workload for about --seconds seconds
and checks every pass's output outside the timed region.  Untraced runs
report the end-to-end metrics (medians over passes); traced runs start
with one untraced pass, trace the rest, and report the per-layer
metrics.  Results, with the seed, machine and conductor sets, go to
perfbench/out/; a traced run also writes its spans there.  The last line
of standard output is one JSON object.  The exit code is 0 only if every
check passed, and 2 if the library's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5
WARMUP_Q = 99999
WORKLOADS = ("sweep-2e4", "window-1e5", "lvalue-1e5")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports l1sweep and
    runs one warm-up conductor."""
    code = f"import l1sweep.batch as b; b.batch_maxima({WARMUP_Q}, 1e-9)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (a sweep's pool workers), in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_passes(workload, seconds: float, workdir: Path, tracer) -> list[dict]:
    """Whole passes for about `seconds`, each checked after it is timed.
    With a tracer, the first pass is untraced and the rest are traced."""
    from spans import NoTrace

    passes, costs = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        traced = tracer is not None and len(passes) > 0
        if traced:
            tracer.install(len(passes))
        try:
            out = workload.run_pass(workdir, tracer if traced else NoTrace())
        finally:
            if traced:
                tracer.uninstall()
        res = workload.check(out)
        passes.append({"traced": traced, "wall": out.wall, "characters": out.characters,
                       "conductors": len(workload.conductors), "error": out.error,
                       "row_bytes": res.row_bytes, "floor_hits": res.floor_hits,
                       "failed": sorted(res.failed), "messages": res.messages})
        del out     # so the next pass's peak memory does not include this one's output
        costs.append(perf_counter() - t0)
        if tracer is not None and len(passes) < 2:
            continue
        # stop when another pass would overrun by more than half a pass
        if perf_counter() - start + 0.5 * statistics.median(costs) > seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import numpy as np
    import l1sweep.batch
    from spans import Tracer, layer_metrics
    from workloads import TOL, make

    workload = make(name, seed)
    l1sweep.batch.batch_maxima(WARMUP_Q, TOL)       # warm caches before timing
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tracer = Tracer(Path(tmp)) if traced else None
        passes = run_passes(workload, seconds, Path(tmp), tracer)

    attempted = sum(p["conductors"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    messages = [m for p in passes for m in p["messages"]]
    for m in messages:
        print(f"CHECK FAILED: {m}")
    timed = [p for p in passes if p["traced"] == traced and p["error"] is None]
    if not timed:
        return 1
    if traced:
        untraced = [p["wall"] for p in passes if not p["traced"]]
        metrics = layer_metrics(tracer, timed, untraced, workload.threads, TOL)
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall"] for p in timed), "s"),
            "chars_per_s": (statistics.median(p["characters"] / p["wall"] for p in timed), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (measure_setup(), "s"),
        }
    for key, (value, unit) in metrics.items():
        print(f"{key:<36} {value:.6g} {unit}")
    print(f"{'failed_frac':<36} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} conductors)")
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "inputs": workload.describe(),
            "failed_frac": failed / attempted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({"meta": meta, "passes": passes, **result}, indent=1))
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(traced))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        code = code or proc.returncode
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False       # the run ended without a result
            continue
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "l1sweep" / "__init__.py").is_file():
        print(f"error: no l1sweep package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
