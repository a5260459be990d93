"""Command-line entry point.

Subcommands: generate, preprocess, run, evaluate, report.  Flag values take
precedence over config-file values, which take precedence over defaults.
The ADVENT_LOG environment variable sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import preprocess, runner, scenario

log = logging.getLogger("advent")


def _setup_logging():
    level = os.environ.get("ADVENT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_generate(args) -> int:
    cfg_data = _load_config(args.config)
    if args.seed is not None:
        cfg_data["rng_seed"] = args.seed
    if "concurrent_range" in cfg_data:
        cfg_data["concurrent_range"] = tuple(cfg_data["concurrent_range"])
    try:
        config = scenario.ScenarioConfig(**cfg_data)
        events, truth = scenario.generate(config)
    except (scenario.ConfigError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario.write_events_csv(out / "events.csv", events, truth)
    scenario.write_ground_truth(out / "truth.json", truth)
    print(f"wrote {out / 'events.csv'} ({len(events)} events) and {out / 'truth.json'}")
    return 0


def cmd_preprocess(args) -> int:
    if args.lags < 1:
        print(f"error: --lags must be >= 1, got {args.lags}", file=sys.stderr)
        return 1
    try:
        events, truth = scenario.ingest(args.events)
    except scenario.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.truth:
        truth = scenario.load_ground_truth(args.truth)
    if truth is None:
        print("error: ground truth required (annotated CSV or --truth)", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ",".join(["t", *(f"f{i}" for i in range(args.lags)), "label"])
    for v in sorted(truth.presence):
        seconds, x, labels = preprocess.windowize_arrays(
            preprocess.build_count_series(events, v), truth, args.lags)
        if len(seconds) == 0:
            continue
        with open(out / f"vehicle_{v}.csv", "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for t, feats, label in zip(seconds.tolist(), x.tolist(), labels.tolist()):
                fh.write(f"{t},{','.join(map(repr, feats))},{label}\n")
    print(f"wrote per-vehicle feature files to {out}")
    return 0


def _manifest_from_args(args) -> runner.RunManifest:
    overrides = {
        "scenario_path": args.scenario,
        "output_dir": args.out,
        "method": args.method,
        "mnd_mode": args.mnd_mode,
        "th": args.th,
        "seed": args.seed,
    }
    if args.config:
        return runner.RunManifest.from_file(args.config, **overrides)
    missing = [k for k in ("scenario_path", "output_dir") if overrides.get(k) is None]
    if missing:
        raise ValueError(f"missing required options: {missing}")
    return runner.RunManifest(**{k: v for k, v in overrides.items() if v is not None})


def cmd_run(args) -> int:
    try:
        manifest = _manifest_from_args(args)
        report = runner.run_pipeline(manifest)
    except (ValueError, FileNotFoundError, scenario.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    """Recompute the report from a run directory's saved predictions."""
    run_dir = Path(args.run_dir)
    pred_path = run_dir / "predictions.json"
    report_path = run_dir / "report.json"
    if not pred_path.exists() or not report_path.exists():
        print(f"error: {run_dir} is not a completed run directory", file=sys.stderr)
        return 1
    with open(pred_path, "r", encoding="utf-8") as fh:
        pred = json.load(fh)
    from . import metrics
    from .metrics import Confusion

    old = runner.load_report(report_path)
    conf = Confusion(**pred["onset_confusion"])
    out = dict(old)
    out["onset"] = metrics.score(conf).metrics_dict()
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


_REPORT_COLUMNS = [
    "scenario", "method", "mnd_mode", "seed",
    "onset_dr", "onset_far", "onset_fnr", "onset_f1",
    "first_second_rate", "mnd_dr", "mnd_far", "mnd_f1",
    "preprocess_s", "onset_train_s", "mnd_s",
]


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        print(f"error: {out_dir} is not a directory", file=sys.stderr)
        return 1
    rows = []
    for path in sorted(out_dir.rglob("report.json")):
        rep = runner.load_report(path)
        timing = {}
        tpath = path.with_name("timing.json")
        if tpath.exists():
            with open(tpath, "r", encoding="utf-8") as fh:
                timing = json.load(fh)
        rows.append({
            "scenario": rep.get("scenario", ""),
            "method": rep.get("method", ""),
            "mnd_mode": rep.get("mnd_mode", ""),
            "seed": rep.get("seed", ""),
            "onset_dr": rep["onset"]["dr"],
            "onset_far": rep["onset"]["far"],
            "onset_fnr": rep["onset"]["fnr"],
            "onset_f1": rep["onset"]["f1"],
            "first_second_rate": rep.get("first_second_rate", math.nan),
            "mnd_dr": rep["mnd"]["dr"],
            "mnd_far": rep["mnd"]["far"],
            "mnd_f1": rep["mnd"]["f1"],
            "preprocess_s": timing.get("preprocess_s", ""),
            "onset_train_s": timing.get("onset_train_s", ""),
            "mnd_s": timing.get("mnd_s", ""),
        })
    if not rows:
        print(f"error: no report.json files under {out_dir}", file=sys.stderr)
        return 1
    rows.sort(key=lambda r: (r["scenario"], r["method"], r["mnd_mode"], str(r["seed"])))
    csv_path = out_dir / "comparison.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_REPORT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(str(r[c]) for c in _REPORT_COLUMNS) + "\n")
    for r in rows:
        print(f"{r['scenario']:>16} {r['method']:>16} {r['mnd_mode']:>12} "
              f"seed={r['seed']} onset_f1={r['onset_f1']:.4f} "
              f"first_sec={r['first_second_rate']:.3f} mnd_dr={r['mnd_dr']:.3f}")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="advent",
                                description="VANET DDoS onset and malicious-node detection")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scenario")
    g.add_argument("--config", help="scenario config JSON")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    pp = sub.add_parser("preprocess", help="export per-vehicle feature CSVs")
    pp.add_argument("--events", required=True)
    pp.add_argument("--truth")
    pp.add_argument("--lags", type=int, default=preprocess.DEFAULT_LAGS)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_preprocess)

    r = sub.add_parser("run", help="run the detection pipeline")
    r.add_argument("--config", help="run manifest JSON")
    r.add_argument("--scenario", help="events CSV path")
    r.add_argument("--method", choices=runner.METHODS)
    r.add_argument("--mnd-mode", dest="mnd_mode", choices=runner.MND_MODES)
    r.add_argument("--th", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--out")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("evaluate", help="recompute metrics from a run directory")
    e.add_argument("--run-dir", dest="run_dir", required=True)
    e.set_defaults(func=cmd_evaluate)

    rp = sub.add_parser("report", help="tabulate reports under a directory")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
