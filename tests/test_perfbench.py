"""The benchmark's hooks name functions that exist, and its workloads run."""

import importlib
import importlib.util
import sys
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
