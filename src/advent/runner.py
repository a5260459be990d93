"""End-to-end pipeline, run as named stages.

A RunManifest describes one run over a scenario CSV.  `run_pipeline` calls
the stages in order: load, features, onset_fit, onset_decide, alert_rounds,
mnd_reports, mnd_aggregate, score and write.  Each takes its inputs as
arguments and returns its outputs, and `run_pipeline` times each one, so
timing.json holds one `<stage>_s` key per stage.  `advent preprocess` calls
load and features, so it exports the rows that a run trains and scores on.
report.json and predictions.json are deterministic for a fixed manifest and
seed; wall-clock timings go only to timing.json.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import fed_mnd, fed_onset, gbdt, metrics, mnd, preprocess, scenario
from ._config import check_types
from .balance import smote_arrays
from .gbdt import GbdtConfig
from .head import HeadConfig
from .metrics import Confusion
from .preprocess import ALERT_INTERVAL_S

__all__ = ["RunManifest", "load", "features", "run_pipeline", "write_report", "load_report"]

log = logging.getLogger(__name__)

METHODS = ("centralized", "federated", "federated_smote")
MND_MODES = ("local_mad", "fl_aggregate", "fl_threshold")


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
    trees_per_client: int = GbdtConfig.trees_per_client
    max_depth: int = GbdtConfig.max_depth
    shrinkage: float = GbdtConfig.shrinkage
    lambda_l2: float = GbdtConfig.lambda_l2
    min_samples_leaf: int = GbdtConfig.min_samples_leaf
    filters: int = HeadConfig.filters
    learning_rate: float = HeadConfig.learning_rate
    epochs: int = HeadConfig.epochs
    batch_size: int = HeadConfig.batch_size
    # SMOTE's normal/malicious target: the reference ratio of the
    # best-performing dataset family.
    target_ratio: float = 294.12

    def __post_init__(self):
        check_types(self)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mnd_mode not in MND_MODES:
            raise ValueError(f"mnd_mode must be one of {MND_MODES}, got {self.mnd_mode!r}")
        for name in ("lags", "rounds", "th"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction!r}")
        # The stage configs check their own fields, before any input is read.
        self.gbdt_config()
        self.head_config()
        if self.target_ratio < 1:
            raise ValueError("target_ratio must be >= 1")

    def _stage_config(self, cls, **given):
        """A `cls` from this manifest's fields of the same name, and `given`."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given},
                   **given)

    def gbdt_config(self) -> GbdtConfig:
        return self._stage_config(GbdtConfig)

    def head_config(self) -> HeadConfig:
        return self._stage_config(HeadConfig, rng_seed=self.seed)


def load(scenario_path, truth_path=None):
    """Ingest the events and the ground truth.  The truth is read first: from
    `truth_path`, else from a truth.json sidecar next to the CSV.  The CSV's
    annotations, when present, are checked against it, and a row that
    disagrees is rejected with its line number.  With neither file, the
    truth is rebuilt from the CSV's annotations."""
    if truth_path is None:
        sidecar = Path(scenario_path).with_name("truth.json")
        if sidecar.exists():
            truth_path = sidecar
    truth = None if truth_path is None else scenario.load_ground_truth(truth_path)
    events, truth = scenario.ingest(scenario_path, truth)
    if truth is None:
        raise ValueError("ground truth required: annotated CSV or truth.json sidecar")
    return events, truth


def features(events, truth, lags):
    """Vehicle -> (seconds, lagged count features, labels), for every vehicle
    with at least one row, in vehicle order.  A lag past the longest
    presence span would be zero in every row, and is rejected."""
    longest = max((math.ceil(b) - math.floor(a) for a, b in truth.presence.values()), default=0)
    if truth.presence and lags > longest:
        raise ValueError(f"lags must be at most {longest}, the longest presence span in "
                         f"seconds, got {lags}")
    series = preprocess.build_count_series(events, truth)
    secs, x, y = preprocess.windowize_arrays(series, truth, lags)
    bounds = series.bounds.tolist()
    return {v: (secs[lo:hi], x[lo:hi], y[lo:hi])
            for v, lo, hi in zip(series.vehicles.tolist(), bounds[:-1], bounds[1:]) if hi > lo}


def onset_fit(manifest: RunManifest, per_vehicle):
    """Train the configured method on the seconds before the split second.

    Returns (decide, split second); `decide` maps feature rows to attack
    flags: the GBDT margin > 0, or the federated model's p > 0.5.  Input
    with no row before the split second is rejected before any method
    trains.
    """
    if not per_vehicle:
        raise ValueError("no vehicle has a feature row: the ground truth's presence "
                         "covers no second")
    pooled = np.concatenate([secs for secs, _, _ in per_vehicle.values()])
    pooled.sort()
    t_split = int(pooled[min(len(pooled) - 1, int(manifest.train_fraction * len(pooled)))])
    if pooled[0] >= t_split:
        raise ValueError(f"no feature row falls before the split second {t_split}: "
                         "nothing to train on")
    del pooled  # one int per row: not to be held through the fit
    gcfg = manifest.gbdt_config()
    if manifest.method == "centralized":
        train_x = np.concatenate([x[secs < t_split] for secs, x, _ in per_vehicle.values()])
        train_y = np.concatenate([y[secs < t_split] for secs, _, y in per_vehicle.values()])
        model = gbdt.train(train_x, train_y, gcfg)
        return (lambda rows: gbdt.predict_margin_batch(model, rows) > 0.0), t_split
    clients = []
    passed = 0  # clients SMOTE passes through: fewer than 2 minority rows
    for v, (secs, x, y) in per_vehicle.items():
        mask = secs < t_split
        cx, cy = x[mask], y[mask]
        if len(cx) == 0:
            continue
        if manifest.method == "federated_smote":
            passed += int((cy == 1).sum()) < 2
            cx, cy = smote_arrays(cx, cy, manifest.target_ratio, seed=manifest.seed * 7919 + v)
        clients.append(fed_onset.FedClient(cid=v, x=cx, y=cy.astype(np.float64)))
    if passed:
        log.warning("smote: %d of %d clients have fewer than 2 minority rows; passed through",
                    passed, len(clients))
    model = fed_onset.run_training(clients, gcfg, manifest.head_config(), manifest.rounds)
    return (lambda rows: fed_onset.detect_onset_batch(model, rows)), t_split


def onset_decide(decide, per_vehicle):
    """Vehicle -> one attack flag per row of its features."""
    return {v: decide(x) for v, (_, x, _) in per_vehicle.items()}


def alert_rounds(truth):
    """MND rounds of ALERT_INTERVAL_S, anchored at each attack window's start.
    A window's rounds stop at the latest presence exit: no vehicle is
    present for the whole of a round that ends past it."""
    last_exit = max((b for _, b in truth.presence.values()), default=-math.inf)
    rounds = []
    for ws, we in truth.attack_windows:
        span = min(we, last_exit) - ws
        for j in range(math.ceil(span / ALERT_INTERVAL_S) if span > 0 else 0):
            t0 = ws + j * ALERT_INTERVAL_S
            rounds.append((t0, t0 + ALERT_INTERVAL_S))
    return rounds


def mnd_reports(events, truth, rounds):
    """Per round with a vehicle present for the whole of it: (present set,
    the SuspicionReport of each present vehicle that heard a packet)."""
    ids = np.array(sorted(truth.presence), dtype=np.int64)
    enter, exit_ = np.array([truth.presence[v] for v in ids.tolist()]).reshape(-1, 2).T
    out = []
    for t0, t1 in rounds:
        present = ids[(enter <= t0) & (exit_ >= t1)]
        if not len(present):
            continue
        receivers, senders, counts = preprocess.interval_counts(events.between(t0, t1))
        keep = present.take(np.searchsorted(present, receivers), mode="clip") == receivers
        detection = mnd.detect((receivers[keep], senders[keep], counts[keep]))
        out.append((set(present.tolist()), detection.reports))
    return out


def mnd_aggregate(mode: str, th: int, round_reports, truth):
    """(server lists, present sets, confusion) for an MND mode, the
    confusion from `metrics.mnd_confusion` in every mode.

    `local_mad` keeps no server list: each report is a list of its own,
    scored against the other vehicles present in its round.
    """
    if mode == "local_mad":
        # One others set alive at a time: the call consumes them as made.
        lists = (rep.suspected for _, reports in round_reports for rep in reports)
        present_sets = (present - {rep.reporter}
                        for present, reports in round_reports for rep in reports)
    else:
        th = 1 if mode == "fl_aggregate" else th
        lists = [fed_mnd.aggregate(reports, th) for _, reports in round_reports]
        present_sets = [present for present, _ in round_reports]
    confusion = metrics.mnd_confusion(lists, truth, present_sets)
    return ([], [], confusion) if mode == "local_mad" else (lists, present_sets, confusion)


def score(manifest: RunManifest, truth, per_vehicle, flags, t_split, mnd_result):
    """(report, predictions): the onset confusion over the seconds from the
    split on, pooled and macro-averaged over vehicles, the first-second rate
    and the MND confusion, with the flags and lists they follow from."""
    lists, present_sets, mnd_conf = mnd_result
    pooled = Confusion()
    per_node = []
    for v, (secs, _, y) in per_vehicle.items():
        test = secs >= t_split
        yt, ft = y[test], flags[v][test]
        c = Confusion(
            tp=int(((yt == 1) & ft).sum()),
            fn=int(((yt == 1) & ~ft).sum()),
            fp=int(((yt == 0) & ft).sum()),
            tn=int(((yt == 0) & ~ft).sum()),
        )
        pooled = pooled + c
        if c.total():
            per_node.append(metrics.score(c))
    onset_flags = {v: set(secs[flags[v]].tolist()) for v, (secs, _, _) in per_vehicle.items()}
    report = {
        "scenario": Path(manifest.scenario_path).name,
        "method": manifest.method,
        "mnd_mode": manifest.mnd_mode,
        "th": manifest.th,
        "seed": manifest.seed,
        "split_second": t_split,
        "onset": metrics.score(pooled).metrics_dict(),
        "onset_macro": metrics.macro_average(per_node).metrics_dict(),
        "onset_confusion": asdict(pooled),
        "first_second_rate": metrics.first_second_rate(onset_flags, truth),
        "mnd": metrics.score(mnd_conf).metrics_dict(),
        "mnd_confusion": asdict(mnd_conf),
    }
    predictions = {
        "onset_flags": {str(v): sorted(s) for v, s in onset_flags.items()},
        "onset_confusion": asdict(pooled),
        "mnd_lists": [sorted(s) for s in lists],
        "mnd_present": [sorted(s) for s in present_sets],
        "split_second": t_split,
    }
    return report, predictions


def write(output_dir, report: dict, predictions: dict) -> None:
    """Write report.json and predictions.json into `output_dir`."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(out_dir / "report.json", report)
    with open(out_dir / "predictions.json", "w", encoding="utf-8") as fh:
        _write_json(fh, predictions)
        fh.write("\n")


def _write_json(fh, value) -> None:
    """Write `json.dumps(value, sort_keys=True)` in pieces: a dict with str
    keys key by key, its values each the same way, and any other value at
    once by the C encoder.  No token list of the whole output is held."""
    if not isinstance(value, dict):
        fh.write(json.dumps(value, sort_keys=True))
        return
    fh.write("{")
    for i, key in enumerate(sorted(value)):
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        _write_json(fh, value[key])
    fh.write("}")


def run_pipeline(manifest: RunManifest) -> dict:
    """Run the stages in order, timing each; write report.json,
    predictions.json and timing.json, and return the report.  Each stage's
    name and seconds are logged at INFO."""
    timing = {}

    def timed(stage, *args):
        t0 = time.perf_counter()
        result = stage(*args)
        timing[f"{stage.__name__}_s"] = seconds = time.perf_counter() - t0
        log.info("%s: %.3f s", stage.__name__, seconds)
        return result

    events, truth = timed(load, manifest.scenario_path, manifest.truth_path)
    per_vehicle = timed(features, events, truth, manifest.lags)
    decide, t_split = timed(onset_fit, manifest, per_vehicle)
    flags = timed(onset_decide, decide, per_vehicle)
    rounds = timed(alert_rounds, truth)
    round_reports = timed(mnd_reports, events, truth, rounds)
    mnd_result = timed(mnd_aggregate, manifest.mnd_mode, manifest.th, round_reports, truth)
    del round_reports  # 0.44 MB on dense-pulsed; score's objects reuse it
    report, predictions = timed(score, manifest, truth, per_vehicle, flags, t_split, mnd_result)
    timed(write, manifest.output_dir, report, predictions)
    with open(Path(manifest.output_dir) / "timing.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(timing, indent=1) + "\n")
    return report


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
