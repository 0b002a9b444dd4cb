"""Every function and class that ``perfbench/tracer.py`` wraps still
exists, so a rename fails here rather than in a traced benchmark run.
The tracer module is loaded from its file and never written."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    for modname, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            (modname, attr)
    for modname, clsname, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert hasattr(cls, "__post_init__"), (modname, clsname)
