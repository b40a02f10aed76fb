"""The traced benchmark's hooks name functions that exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_resolve(monkeypatch):
    # a deleted or renamed function would otherwise break only the traced run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.TRACED and not missing, missing
