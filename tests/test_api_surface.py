"""Tooling checks on names other code looks up by string.

Every name an advent module exports must exist, and so must every function
the benchmark tracer (perfbench/tracer.py) wraps: a traced function that is
deleted or renamed would otherwise only drop its per-layer metrics from a
traced benchmark result.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import advent

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return True
        owner = getattr(owner, part)
    return False


def test_every_exported_name_resolves():
    modules = [advent] + [importlib.import_module(f"advent.{m.name}")
                          for m in pkgutil.iter_modules(advent.__path__)]
    exported = [(mod.__name__, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len(exported) > 50
    missing = [(mod, name) for mod, name in exported
               if _missing(importlib.import_module(mod), name)]
    assert missing == []


def test_every_tracer_target_exists():
    tracer = _load_tracer()
    targets = [(mod, attr) for mod, attr, *_ in tracer.PIPELINE_TARGETS + tracer.SETUP_TARGETS]
    assert ("advent.scenario", "EventStream.between") in targets
    missing = [(mod, attr) for mod, attr in targets
               if _missing(importlib.import_module(mod), attr)]
    assert missing == []
