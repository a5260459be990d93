"""Outside-in tracing of the advent pipeline.

Each traced function is replaced, for the length of a traced run, by a
wrapper that times the call and updates counters from its arguments and
result.  The wrapper is installed at every name a caller looks up: the
attribute of the defining module plus every other advent module namespace
that bound the same function object at import (``runner.smote_arrays`` is
one).  Methods are patched on their class.  A function a later version of
the program no longer has is reported as absent, not as an error.

Spans nest through a stack: a span's self time is its duration minus the
time of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict


def _count_events(args, kwargs, result, c):
    c["scenario.events"] += len(result[0])


def _count_series(args, kwargs, result, c):
    c["preprocess.events_scanned"] += len(args[0])
    c["preprocess.events_counted"] += result.total()


def _count_rows(args, kwargs, result, c):
    c["preprocess.rows"] += len(result[0])


def _count_smote(args, kwargs, result, c):
    x, y = args[0], args[1]
    c["balance.synthetic_rows"] += len(result[0]) - len(x)
    if int((y == 1).sum()) < 2:
        c["balance.degenerate_clients"] += 1


def _count_train_rows(args, kwargs, result, c):
    c["gbdt.train_rows"] += len(args[0])


def _count_margin_evals(args, kwargs, result, c):
    c["gbdt.tree_evals"] += len(args[1]) * len(args[0].trees)


def _count_matrix_evals(args, kwargs, result, c):
    c["gbdt.tree_evals"] += len(args[1]) * sum(len(e.trees) for e in args[0])


def _count_sgd_steps(args, kwargs, result, c):
    v, config = args[1], args[3]
    c["head.sgd_steps"] += config.epochs * math.ceil(len(v) / config.batch_size)


def _count_clients(args, kwargs, result, c):
    c["fed_onset.clients"] += len(args[0])


def _count_wire(args, kwargs, result, c):
    c["fed_onset.messages"] += 1
    c[f"fed_onset.messages.{args[0]}"] += 1
    c[f"fed_onset.wire_bytes.{args[0]}"] += len(result.encode("utf-8"))


def _count_suspected(args, kwargs, result, c):
    c["mnd.suspected"] += len(result.suspected)


def _count_listed(args, kwargs, result, c):
    c["fed_mnd.listed"] += len(result)


# (defining module, attribute, metric prefix, counter hook, opens a span).
# encode_message only counts: its time stays in run_training's self time,
# which is the wire protocol's cost.
PIPELINE_TARGETS = [
    ("advent.runner", "run_pipeline", "runner.run_pipeline", None, True),
    ("advent.runner", "write_report", "runner.write_report", None, True),
    ("advent.scenario", "ingest", "scenario.ingest", _count_events, True),
    ("advent.scenario", "load_ground_truth", "scenario.load_ground_truth", None, True),
    ("advent.scenario", "EventStream.between", "scenario.between", None, True),
    ("advent.preprocess", "build_count_series", "preprocess.build_count_series", _count_series, True),
    ("advent.preprocess", "windowize_arrays", "preprocess.windowize_arrays", _count_rows, True),
    ("advent.preprocess", "interval_counts", "preprocess.interval_counts", None, True),
    ("advent.balance", "smote_arrays", "balance.smote_arrays", _count_smote, True),
    ("advent.gbdt", "train", "gbdt.train", _count_train_rows, True),
    ("advent.gbdt", "predict_margin_batch", "gbdt.predict_margin_batch", _count_margin_evals, True),
    ("advent.gbdt", "per_tree_output_matrix", "gbdt.per_tree_output_matrix", _count_matrix_evals, True),
    ("advent.head", "train_on_matrix", "head.train_on_matrix", _count_sgd_steps, True),
    ("advent.head", "forward_batch", "head.forward_batch", None, True),
    ("advent.fed_onset", "run_training", "fed_onset.run_training", _count_clients, True),
    ("advent.fed_onset", "fedavg", "fed_onset.fedavg", None, True),
    ("advent.fed_onset", "detect_onset_batch", "fed_onset.detect_onset_batch", None, True),
    ("advent.fed_onset", "encode_message", "fed_onset.encode_message", _count_wire, False),
    ("advent.mnd", "detect", "mnd.detect", _count_suspected, True),
    ("advent.fed_mnd", "aggregate", "fed_mnd.aggregate", _count_listed, True),
    ("advent.metrics", "mnd_confusion", "metrics.mnd_confusion", None, True),
    ("advent.metrics", "first_second_rate", "metrics.first_second_rate", None, True),
]

SETUP_TARGETS = [
    ("advent.scenario", "generate", "scenario.generate", None, True),
    ("advent.scenario", "write_events_csv", "scenario.write_events_csv", None, True),
    ("advent.scenario", "write_ground_truth", "scenario.write_ground_truth", None, True),
]


class Tracer:
    """Per-name wall time, self time, call and raise counts, plus counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, seconds of direct children]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook, span):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if span:
                tracer._stack.append([name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                if span:
                    _, start, children = tracer._stack.pop()
                    dur = time.perf_counter() - start
                    tracer.seconds[name] += dur
                    tracer.self_seconds[name] += dur - children
                    if tracer._stack:
                        tracer._stack[-1][2] += dur
            if hook is not None:
                try:
                    hook(args, kwargs, result, tracer.counters)
                except (AttributeError, IndexError, TypeError):
                    # The call's signature changed; its counters are missing.
                    tracer.hook_errors[name] += 1
            return result

        return traced

    def install(self, targets):
        for module_name, attr, name, hook, span in targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, hook, span)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "advent" or mod_name.startswith("advent."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "hook_errors": dict(self.hook_errors),
        }


WIRE_TYPES = ("TREES_UPLOAD", "GLOBAL_ENSEMBLE", "WEIGHTS_BROADCAST", "WEIGHTS_UPDATE")


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, traced function it is read from, value from a merged
# snapshot).  Every span target also yields "<name>_s" and "<name>.calls".
DERIVED = [
    ("scenario.events", "count", "lower", "scenario.ingest",
     lambda t: t["counters"].get("scenario.events", 0)),
    ("scenario.ingest_us_per_event", "us/event", "lower", "scenario.ingest",
     lambda t: 1e6 * _ratio(t["seconds"].get("scenario.ingest", 0.0),
                            t["counters"].get("scenario.events", 0))),
    ("preprocess.count_useful_ratio", "ratio", "higher", "preprocess.build_count_series",
     lambda t: _ratio(t["counters"].get("preprocess.events_counted", 0),
                      t["counters"].get("preprocess.events_scanned", 0))),
    ("preprocess.rows", "count", "lower", "preprocess.windowize_arrays",
     lambda t: t["counters"].get("preprocess.rows", 0)),
    ("balance.synthetic_rows", "count", "lower", "balance.smote_arrays",
     lambda t: t["counters"].get("balance.synthetic_rows", 0)),
    ("balance.degenerate_clients", "count", "lower", "balance.smote_arrays",
     lambda t: t["counters"].get("balance.degenerate_clients", 0)),
    ("gbdt.train_rows", "count", "lower", "gbdt.train",
     lambda t: t["counters"].get("gbdt.train_rows", 0)),
    ("gbdt.tree_evals", "count", "lower", "gbdt.per_tree_output_matrix",
     lambda t: t["counters"].get("gbdt.tree_evals", 0)),
    ("head.sgd_steps", "count", "lower", "head.train_on_matrix",
     lambda t: t["counters"].get("head.sgd_steps", 0)),
    ("head.step_us", "us", "lower", "head.train_on_matrix",
     lambda t: 1e6 * _ratio(t["seconds"].get("head.train_on_matrix", 0.0),
                            t["counters"].get("head.sgd_steps", 0))),
    ("fed_onset.run_training_self_s", "s", "lower", "fed_onset.run_training",
     lambda t: t["self_seconds"].get("fed_onset.run_training", 0.0)),
    ("fed_onset.clients", "count", "lower", "fed_onset.run_training",
     lambda t: t["counters"].get("fed_onset.clients", 0)),
    ("fed_onset.messages", "count", "lower", "fed_onset.encode_message",
     lambda t: t["counters"].get("fed_onset.messages", 0)),
    *[(f"fed_onset.messages.{m}", "count", "lower", "fed_onset.encode_message",
       lambda t, m=m: t["counters"].get(f"fed_onset.messages.{m}", 0)) for m in WIRE_TYPES],
    *[(f"fed_onset.wire_bytes.{m}", "B", "lower", "fed_onset.encode_message",
       lambda t, m=m: t["counters"].get(f"fed_onset.wire_bytes.{m}", 0)) for m in WIRE_TYPES],
    ("mnd.suspected", "count", "lower", "mnd.detect",
     lambda t: t["counters"].get("mnd.suspected", 0)),
    ("fed_mnd.listed", "count", "lower", "fed_mnd.aggregate",
     lambda t: t["counters"].get("fed_mnd.listed", 0)),
    ("runner.self_s", "s", "lower", "runner.run_pipeline",
     lambda t: t["self_seconds"].get("runner.run_pipeline", 0.0)),
    ("runner.span_coverage", "ratio", "higher", "runner.run_pipeline",
     lambda t: 1.0 - _ratio(t["self_seconds"].get("runner.run_pipeline", 0.0),
                            t["seconds"].get("runner.run_pipeline", 0.0))),
    ("trace.raised_calls", "count", "lower", None,
     lambda t: sum(t["raised"].values())),
]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for _, _, name, _, span in SETUP_TARGETS + PIPELINE_TARGETS:
        if span:
            specs += [(f"{name}_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    specs += [(m, unit, better) for m, unit, better, _, _ in DERIVED]
    return specs + [OVERHEAD]


def layer_metrics(snapshot: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-layer values from a merged setup + pipeline snapshot.

    Metrics read from a function the program no longer has are left out.
    """
    absent = set(snapshot["absent"])
    out = {}
    for _, _, name, _, span in SETUP_TARGETS + PIPELINE_TARGETS:
        if span and name not in absent:
            out[f"{name}_s"] = snapshot["seconds"].get(name, 0.0)
            out[f"{name}.calls"] = snapshot["calls"].get(name, 0)
    for metric, _, _, source, value in DERIVED:
        if source not in absent:
            out[metric] = value(snapshot)
    if "runner.run_pipeline" not in absent:
        out[OVERHEAD[0]] = _ratio(snapshot["seconds"].get("runner.run_pipeline", 0.0),
                                  untraced_run_s)
    return out
