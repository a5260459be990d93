"""Tooling checks on names other code looks up by string, on reach, and on
runtime dependencies.

Every name an advent module exports must exist, and so must every function
the benchmark tracer (perfbench/tracer.py) wraps: a traced function that is
deleted or renamed would otherwise only drop its per-layer metrics from a
traced benchmark result.  Every exported function and method must also be
called by some CLI run, or be allowlisted as a tracer target or an oracle,
with the reason it stays.  Every name a module imports is used there or
exported, and no module reads another's private names.  The package imports
nothing beyond numpy and the standard library.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
import sys
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


def test_imports_only_numpy_and_the_standard_library():
    package = Path(advent.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "advent"}
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module))
    assert ("head.py", "numpy") in found
    assert sorted((f, m) for f, m in found if m.split(".")[0] not in allowed) == []


def _unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that it neither reads nor lists in
    its __all__."""
    imported, read, exported = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "__all__"]:
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_every_imported_name_is_used_or_exported():
    # A refactor's leftover import fails here.
    assert _unused_imports("from __future__ import annotations\nimport json, os.path\n"
                           "from numbers import Real as R, Integral\n__all__ = ['Integral']\n"
                           "os.sep\n") == ["R", "json"]
    package = Path(advent.__file__).parent
    unused = [(path.name, name) for path in sorted(package.glob("*.py"))
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def _private_reads(source: str) -> list[str]:
    """The private names a module reads from other advent modules: `mod._x`
    on a module it imported from advent, or `from .mod import _x`.  A
    private module and its public names (`from ._codes import dense_codes`)
    are not private names."""
    tree, modules, found = ast.parse(source), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("advent")):
            for a in node.names:
                if node.module in (None, "advent"):  # `from . import gbdt` binds a module
                    modules.add(a.asname or a.name)
                elif a.name.startswith("_"):
                    found.append(f"{node.module}.{a.name}")
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.startswith("advent."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and ast.unparse(node.value) in modules):
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    assert _private_reads("import json\nimport advent.head as h\nfrom . import _config, gbdt\n"
                          "from ._codes import dense_codes, _span\nfrom .mnd import _band\n"
                          "json._x, gbdt._leaf_values, gbdt.train, h._step, gbdt.__name__\n"
                          "self._own, _config.check_types, _config._kind\n") == [
        "_codes._span", "_config._kind", "gbdt._leaf_values", "h._step", "mnd._band"]
    package = Path(advent.__file__).parent
    found = [(path.name, name) for path in sorted(package.glob("*.py"))
             for name in _private_reads(path.read_text(encoding="utf-8"))]
    assert found == []


# Exported functions and methods that no CLI run calls, each with the reason
# it stays: a tracer target or hook, or an oracle the tests check a kernel
# against.  Anything else exported must be reached by `_cli_runs`.
UNREACHED_ALLOWED = {
    "head.train_on_matrix": "tracer target (perfbench/tracer.py)",
    "preprocess.CountSeries.total": "tracer counter hook of build_count_series",
    "head.gradients": "oracle: the analytic gradients the tests check SGD against",
    "mnd.mad": "oracle: the one-vehicle MAD that the tests check detect's grouped bands against",
    "mnd.rejection_bounds": "oracle: the MAD band the acceptance tests check",
}


def test_every_allowed_name_is_a_tracer_target_or_an_oracle():
    # A helper only the tests use belongs in the tests, not in the library.
    assert sorted(name for name, reason in UNREACHED_ALLOWED.items()
                  if not reason.startswith(("oracle:", "tracer"))) == []


def _exported_code():
    """Qualified name -> code object of every function and method an advent
    module exports, not counting ones dataclasses generate."""
    package = Path(advent.__file__).parent
    out = {}

    def add(name, fn):
        if isinstance(fn, (staticmethod, classmethod)):
            fn = fn.__func__
        elif isinstance(fn, property):
            fn = fn.fget
        code = getattr(fn, "__code__", None)
        if code is not None and Path(code.co_filename).parent == package:
            out[name] = code

    for info in pkgutil.iter_modules(advent.__path__):
        mod = importlib.import_module(f"advent.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    add(f"{info.name}.{name}.{attr}", member)
            else:
                add(f"{info.name}.{name}", obj)
    return out


def _cli_runs(tmp: Path):
    """Every subcommand on a small scenario: every onset method and every MND
    mode."""
    from advent.cli import main

    config = tmp / "scenario.json"
    config.write_text(json.dumps({
        "duration_s": 600, "total_vehicles": 12, "concurrent_range": [4, 8],
        "arrival_interval_s": 50, "attacker_fraction": 0.2, "attack_count": 1,
        "attack_spacing_s": 300, "attack_duration_s": 25, "normal_rate_pps": 1.0,
        "flood_rate_pps": 20.0, "neighbor_degree": 12, "rng_seed": 42,
    }))
    events = str(tmp / "scn" / "events.csv")
    assert main(["generate", "--config", str(config), "--out", str(tmp / "scn")]) == 0
    assert main(["preprocess", "--events", events, "--out", str(tmp / "feat")]) == 0
    small = tmp / "small.json"
    small.write_text(json.dumps({"rounds": 2, "epochs": 2, "trees_per_client": 2}))
    for method, mode in (("centralized", "fl_aggregate"), ("federated_smote", "fl_threshold"),
                         ("centralized", "local_mad"), ("federated", "fl_aggregate")):
        out = tmp / "runs" / f"{method}-{mode}"
        assert main(["run", "--config", str(small), "--scenario", events, "--out", str(out),
                     "--method", method, "--mnd-mode", mode, "--seed", "1"]) == 0
    assert main(["report", "--out", str(tmp / "runs")]) == 0


def test_every_export_is_reached_or_allowed(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _cli_runs(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    exported = _exported_code()
    assert set(UNREACHED_ALLOWED) <= set(exported)
    unreached = {name for name, code in exported.items() if code not in called}
    assert sorted(unreached - set(UNREACHED_ALLOWED)) == []
    # An allowed name that a run does reach no longer needs its entry.
    assert sorted(set(UNREACHED_ALLOWED) - unreached) == []
