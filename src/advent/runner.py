"""End-to-end pipeline: preprocess, onset detection, MND, evaluation.

Orchestrates a single run described by a RunManifest over a generated or
ingested scenario.  Metric outputs (report.json) are deterministic for a
fixed manifest and seed; wall-clock timings go to a separate timing.json.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import fed_mnd, fed_onset, gbdt, metrics, mnd, preprocess, scenario
from .balance import BalanceConfig, smote_arrays
from .gbdt import GbdtConfig
from .head import HeadConfig
from .metrics import Confusion
from .preprocess import ALERT_INTERVAL_S

__all__ = ["RunManifest", "run_pipeline", "write_report", "load_report"]

METHODS = ("centralized", "federated", "federated_smote")
MND_MODES = ("local_mad", "fl_aggregate", "fl_threshold")

# RunManifest field annotations: the values each accepts (never a bool) and
# how an error names them.  An int is accepted where a float is expected.
_FIELD_TYPES = {"str": str, "str | None": (str, type(None)), "int": numbers.Integral,
                "float": numbers.Real}
_TYPE_NAMES = {"str": "a string", "str | None": "a string or null", "int": "an integer",
               "float": "a number"}


@dataclass
class RunManifest:
    scenario_path: str
    output_dir: str
    truth_path: str | None = None
    method: str = "centralized"
    mnd_mode: str = "fl_aggregate"
    th: int = 2
    seed: int = 0
    lags: int = preprocess.DEFAULT_LAGS
    train_fraction: float = 0.7
    rounds: int = 10
    trees_per_client: int = 10
    max_depth: int = 3
    shrinkage: float = 0.3
    lambda_l2: float = 1.0
    min_samples_leaf: int = 1
    filters: int = 4
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int = 64
    target_ratio: float = 294.12
    k_neighbors: int = 5
    mad_b: float = mnd.CONSISTENCY_B
    mad_ce: float = mnd.EXCLUSION_CE

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mnd_mode not in MND_MODES:
            raise ValueError(f"mnd_mode must be one of {MND_MODES}, got {self.mnd_mode!r}")
        if self.lags < 1:
            raise ValueError(f"lags must be >= 1, got {self.lags!r}")

    @classmethod
    def from_file(cls, path, **overrides) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a manifest must be a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown manifest field {unknown[0]!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing manifest field {missing[0]!r}")
        return cls(**data)

    def gbdt_config(self) -> GbdtConfig:
        return GbdtConfig(
            trees_per_client=self.trees_per_client,
            max_depth=self.max_depth,
            shrinkage=self.shrinkage,
            min_samples_leaf=self.min_samples_leaf,
            lambda_l2=self.lambda_l2,
        )

    def head_config(self) -> HeadConfig:
        return HeadConfig(
            filters=self.filters,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            rng_seed=self.seed,
        )


def _load_scenario(manifest: RunManifest):
    events, truth_csv = scenario.ingest(manifest.scenario_path)
    truth = None
    truth_path = manifest.truth_path
    if truth_path is None:
        candidate = Path(manifest.scenario_path).with_name("truth.json")
        if candidate.exists():
            truth_path = str(candidate)
    if truth_path is not None:
        truth = scenario.load_ground_truth(truth_path)
    if truth is None:
        truth = truth_csv
    if truth is None:
        raise ValueError("ground truth required: annotated CSV or truth.json sidecar")
    return events, truth


def _preprocess_all(events, truth, lags):
    per_vehicle = {}
    for v in sorted(truth.presence):
        series = preprocess.build_count_series(events, v)
        secs, x, y = preprocess.windowize_arrays(series, truth, lags)
        if len(secs):
            per_vehicle[v] = (secs, x, y)
    return per_vehicle


def _split_second(per_vehicle, fraction):
    pooled = np.concatenate([secs for secs, _, _ in per_vehicle.values()])
    pooled.sort()
    return int(pooled[min(len(pooled) - 1, int(fraction * len(pooled)))])


def _run_onset(manifest: RunManifest, per_vehicle, truth):
    """Train per the configured method; return per-vehicle decisions and the
    pooled/macro test confusion."""
    t_split = _split_second(per_vehicle, manifest.train_fraction)
    gcfg = manifest.gbdt_config()
    hcfg = manifest.head_config()

    decisions: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # v -> (secs, attack?)
    if manifest.method == "centralized":
        train_x = np.concatenate([x[secs < t_split] for secs, x, _ in per_vehicle.values()])
        train_y = np.concatenate([y[secs < t_split] for secs, _, y in per_vehicle.values()])
        model = gbdt.train(train_x, train_y, gcfg)
        for v, (secs, x, y) in per_vehicle.items():
            flags = gbdt.predict_margin_batch(model, x) > 0.0
            decisions[v] = (secs, flags)
    else:
        clients = []
        for v, (secs, x, y) in sorted(per_vehicle.items()):
            mask = secs < t_split
            cx, cy = x[mask], y[mask]
            if len(cx) == 0:
                continue
            if manifest.method == "federated_smote":
                bcfg = BalanceConfig(target_ratio=manifest.target_ratio,
                                     k_neighbors=manifest.k_neighbors)
                cx, cy = smote_arrays(cx, cy, bcfg, seed=manifest.seed * 7919 + v)
            clients.append(fed_onset.FedClient(cid=v, x=cx, y=cy.astype(np.float64)))
        model = fed_onset.run_training(
            clients, gcfg, hcfg, fed_onset.FedConfig(rounds=manifest.rounds)
        )
        for v, (secs, x, y) in per_vehicle.items():
            flags = fed_onset.detect_onset_batch(model, x)
            decisions[v] = (secs, flags)

    pooled = Confusion()
    per_node = []
    for v, (secs, x, y) in per_vehicle.items():
        _, flags = decisions[v]
        test = secs >= t_split
        yt, ft = y[test], flags[test]
        c = Confusion(
            tp=int(((yt == 1) & ft).sum()),
            fn=int(((yt == 1) & ~ft).sum()),
            fp=int(((yt == 0) & ft).sum()),
            tn=int(((yt == 0) & ~ft).sum()),
        )
        pooled = pooled + c
        if c.total():
            per_node.append(metrics.score(c))
    return decisions, pooled, metrics.macro_average(per_node), t_split


def _alert_rounds(truth):
    rounds = []
    for ws, we in truth.attack_windows:
        if we <= ws:
            continue
        n = int(math.ceil((we - ws) / ALERT_INTERVAL_S))
        for j in range(n):
            t0 = ws + j * ALERT_INTERVAL_S
            rounds.append((t0, t0 + ALERT_INTERVAL_S))
    return rounds


def _run_mnd(manifest: RunManifest, events, truth):
    """MAD detection over alert intervals anchored at attack-window starts.

    Vehicles present for a whole interval act as reporters; the server
    aggregates per the configured mode.  Returns (lists, present sets, confusion).
    """
    params = mnd.MadParams(b=manifest.mad_b, ce=manifest.mad_ce)
    lists: list[set[int]] = []
    present_sets: list[set[int]] = []
    local_confusion = Confusion()
    for t0, t1 in _alert_rounds(truth):
        present = {v for v, (a, b) in truth.presence.items() if a <= t0 and b >= t1}
        if not present:
            continue
        counts = preprocess.receiver_counts(events.between(t0, t1), (t0, t1))
        reports = [mnd.detect(counts[v], params) for v in sorted(present) if v in counts]
        if manifest.mnd_mode == "local_mad":
            # Each vehicle keeps only its own list; macro over vehicle-rounds.
            for rep in reports:
                others = present - {rep.reporter}
                local_confusion = local_confusion + metrics.mnd_confusion(
                    [rep.suspected], truth, [others]
                )
            continue
        th = 1 if manifest.mnd_mode == "fl_aggregate" else manifest.th
        listed = fed_mnd.aggregate(reports, th)
        lists.append(listed)
        present_sets.append(present)
    if manifest.mnd_mode == "local_mad":
        return [], [], local_confusion
    return lists, present_sets, metrics.mnd_confusion(lists, truth, present_sets)


def run_pipeline(manifest: RunManifest) -> dict:
    """Execute the full run and write report.json / timing.json / predictions.json."""
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events, truth = _load_scenario(manifest)

    t0 = time.perf_counter()
    per_vehicle = _preprocess_all(events, truth, manifest.lags)
    t_pre = time.perf_counter() - t0

    t0 = time.perf_counter()
    decisions, pooled, macro, t_split = _run_onset(manifest, per_vehicle, truth)
    t_onset = time.perf_counter() - t0

    onset_flags = {v: set(secs[flags].tolist()) for v, (secs, flags) in decisions.items()}
    fsr = metrics.first_second_rate(onset_flags, truth)

    t0 = time.perf_counter()
    lists, present_sets, mnd_conf = _run_mnd(manifest, events, truth)
    t_mnd = time.perf_counter() - t0

    onset_report = metrics.score(pooled)
    mnd_report = metrics.score(mnd_conf)
    report = {
        "scenario": Path(manifest.scenario_path).name,
        "method": manifest.method,
        "mnd_mode": manifest.mnd_mode,
        "th": manifest.th,
        "seed": manifest.seed,
        "split_second": t_split,
        "onset": onset_report.metrics_dict(),
        "onset_macro": macro.metrics_dict(),
        "onset_confusion": asdict(pooled),
        "first_second_rate": fsr,
        "mnd": mnd_report.metrics_dict(),
        "mnd_confusion": asdict(mnd_conf),
    }
    write_report(out_dir / "report.json", report)
    with open(out_dir / "timing.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"preprocess_s": t_pre, "onset_train_s": t_onset, "mnd_s": t_mnd},
                            indent=1, sort_keys=True) + "\n")
    predictions = {
        "onset_flags": {str(v): sorted(s) for v, s in onset_flags.items()},
        "onset_confusion": asdict(pooled),
        "mnd_lists": [sorted(s) for s in lists],
        "mnd_present": [sorted(s) for s in present_sets],
        "split_second": t_split,
    }
    with open(out_dir / "predictions.json", "w", encoding="utf-8") as fh:
        # Streamed: json.dumps would hold every token of the output at once,
        # 0.6 MB more peak memory for a 51 KB file of 10k flagged seconds.
        json.dump(predictions, fh, sort_keys=True)
        fh.write("\n")
    return report


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
