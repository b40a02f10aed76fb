"""The benchmark's hooks name functions that exist, and its workloads run."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_traced_functions_resolve(monkeypatch):
    # a deleted or renamed function would otherwise break only the traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.TRACED and not missing, missing


def test_sweep_workload_smoke(monkeypatch, tmp_path):
    # one pass of a small sweep workload: an API change that breaks the
    # benchmark fails here instead of in the benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    smoke = workloads.SweepWorkload("smoke", 3, 300, 2, {"even": (249, 0.2717889),
                                                         "odd": (111, 0.8156508)})
    result = smoke.check(smoke.run_pass(tmp_path, None))
    assert not result.failed, result.messages
