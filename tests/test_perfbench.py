"""The benchmark's hooks name functions that exist, and its workloads run."""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """A perfbench module loaded from its file, leaving perfbench/ untouched."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    # a deleted or renamed function would otherwise break only the traced run
    spans = _load(monkeypatch, "spans")
    missing = [(module, attr) for module, attr, _, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.TRACED and not missing, missing


def test_sweep_workload_smoke(monkeypatch, tmp_path):
    # one pass of a small sweep workload: an API change that breaks the
    # benchmark fails here instead of in the benchmark run
    workloads = _load(monkeypatch, "workloads")
    smoke = workloads.SweepWorkload("smoke", 3, 300, 2, {"even": (249, 0.2717889),
                                                         "odd": (111, 0.8156508)})
    result = smoke.check(smoke.run_pass(tmp_path, None))
    assert not result.failed, result.messages


def test_lvalue_workload_smoke(monkeypatch, tmp_path):
    # one pass of the lvalue workload on two small conductors: it reads the
    # records' value balls, parity and index as the benchmark does
    workloads = _load(monkeypatch, "workloads")
    spans = _load(monkeypatch, "spans")
    smoke = workloads.LValueWorkload("smoke", 7)
    smoke.conductors = [249, 996]
    smoke.expected_records = {249: 81, 996: 81}
    smoke.sample_at = {249: 0.5, 996: 0.25}
    out = smoke.run_pass(tmp_path, spans.NoTrace())
    assert out.characters == 162 and out.error is None
    result = smoke.check(out)
    assert not result.failed, result.messages


def test_traced_functions_are_reached(monkeypatch):
    # a per-layer metric reads 0 when the workloads stop reaching its
    # function; the benchmark's paths (a sweep, then l_values and
    # check_theorem per record) must call every traced l1sweep function
    # but dlog_matrix, units, digamma_points and build_coefficients, which
    # only the oracles reach, and those four never
    batch, bounds, sweep = (importlib.import_module(f"l1sweep.{m}")
                            for m in ("batch", "bounds", "sweep"))
    spans = _load(monkeypatch, "spans")
    holders = [m for n, m in list(sys.modules.items())
               if n == "l1sweep" or n.startswith("l1sweep.")]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    oracles = ("arith.dlog_matrix", "arith.units", "special.digamma_points",
               "batch.build_coefficients")
    traced = [(module, attr, name) for module, attr, name, _ in spans.TRACED
              if module.startswith("l1sweep.")]
    for module, attr, name in traced:
        original = getattr(importlib.import_module(module), attr)
        wrapper = counted(name, original)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, key, wrapper)
    # called through their modules, so the wrappers are the ones reached
    sweep.sweep(3, 300, threads=1)
    for rec in batch.l_values(999):
        bounds.check_theorem(rec)
    missed = [name for _, _, name in traced if not calls[name] and name not in oracles]
    assert len(traced) >= 10 and not missed, missed
    reached = [name for name in oracles if calls[name]]
    assert not reached, reached
