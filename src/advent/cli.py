"""Command-line entry point.

Subcommands: generate, preprocess, run, report.  `preprocess` runs the
pipeline's load and features stages, so it writes the rows `run` trains and
scores on.  Flag values take precedence over config-file values, which take
precedence over defaults.  The ADVENT_LOG environment variable sets log
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import sys
from pathlib import Path

from . import _config, preprocess, runner, scenario

log = logging.getLogger("advent")


def _setup_logging():
    level = os.environ.get("ADVENT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_generate(args) -> int:
    out = Path(args.out)
    try:
        config = _config.read(scenario.ScenarioConfig, args.config, "scenario config",
                              rng_seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        events, truth = scenario.generate(config)
        scenario.write_events_csv(out / "events.csv", events, truth)
        scenario.write_ground_truth(out / "truth.json", truth)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'events.csv'} ({len(events)} events) and {out / 'truth.json'}")
    return 0


def cmd_preprocess(args) -> int:
    if args.lags < 1:
        print(f"error: --lags must be >= 1, got {args.lags}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        per_vehicle = runner.features(*runner.load(args.events, args.truth), args.lags)
        header = ",".join(["t", *(f"f{i}" for i in range(args.lags)), "label"])
        out.mkdir(parents=True, exist_ok=True)
        for v, (seconds, x, labels) in per_vehicle.items():
            with open(out / f"vehicle_{v}.csv", "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                for t, feats, label in zip(seconds.tolist(), x.tolist(), labels.tolist()):
                    fh.write(f"{t},{','.join(map(repr, feats))},{label}\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    missing = [k for k in ("scenario_path", "output_dir") if overrides[k] is None]
    if missing and not args.config:
        raise ValueError(f"missing required options: {missing}")
    return _config.read(runner.RunManifest, args.config, "manifest", **overrides)


def cmd_run(args) -> int:
    try:
        manifest = _manifest_from_args(args)
        report = runner.run_pipeline(manifest)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        print(f"error: {out_dir} is not a directory", file=sys.stderr)
        return 1
    rows = []
    for path in sorted(out_dir.rglob("report.json")):
        try:
            rep = runner.load_report(path)
            onset, mnd = rep["onset"], rep["mnd"]
            scores = {"onset_dr": onset["dr"], "onset_far": onset["far"],
                      "onset_fnr": onset["fnr"], "onset_f1": onset["f1"],
                      "first_second_rate": rep.get("first_second_rate", math.nan),
                      "mnd_dr": mnd["dr"], "mnd_far": mnd["far"], "mnd_f1": mnd["f1"]}
            for name, value in scores.items():
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{name} is not a number, got {value!r}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why = f"no {exc} entry" if isinstance(exc, KeyError) else exc
            print(f"error: {path} is not a run report: {why}", file=sys.stderr)
            return 1
        tpath = path.with_name("timing.json")
        try:
            timing = json.loads(tpath.read_text(encoding="utf-8")) if tpath.exists() else {}
            if not isinstance(timing, dict):
                raise ValueError(f"not a JSON object, got {type(timing).__name__}")
        except (OSError, ValueError) as exc:
            print(f"error: {tpath} is not a timing file: {exc}", file=sys.stderr)
            return 1
        rows.append({
            "scenario": rep.get("scenario", ""),
            "method": rep.get("method", ""),
            "mnd_mode": rep.get("mnd_mode", ""),
            "seed": rep.get("seed", ""),
            **scores,
            **timing,
        })
    if not rows:
        print(f"error: no report.json files under {out_dir}", file=sys.stderr)
        return 1
    # Integer seeds in numeric order, after any other seed by its text.
    rows.sort(key=lambda r: (r["scenario"], r["method"], r["mnd_mode"], _config.is_int(r["seed"]),
                             r["seed"] if _config.is_int(r["seed"]) else str(r["seed"])))
    # Each row's keys, in the order first seen: the report's, then timing's.
    columns = list(dict.fromkeys(k for r in rows for k in r))
    csv_path = out_dir / "comparison.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(str(r.get(c, "")) for c in columns) + "\n")
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
