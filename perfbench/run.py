"""Benchmark of the advent pipeline: pinned workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fed-s --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each run builds its workload's scenario from
the seed (the set-up, repeated and timed), then runs the pipeline in fresh
child processes, one at a time, until --seconds have passed (at least once).
The program only sees the generated events.csv and truth.json.  Every run's
outputs are checked: report.json must repeat byte for byte, the confusions in
it must follow from predictions.json and the truth, and for a seed listed in
expected.json the results must equal the recorded ones.

--trace 0 reports the end-to-end metrics with tracing off: run_s, the
median pipeline run, and setup_s, the median set-up, each sample's wall
time scaled to the reference host speed by probe.py (the host's speed flips
between states some 50% apart; a probe timed every 50 ms inside the sample
flips with it); peak_rss_mb, the median peak RSS of a child.  --trace 1
runs an untraced and a traced pipeline in turn and reports the per-layer
metrics of tracer.py.  --workload all runs every workload in turn.  The
last line of standard output is one JSON object; a full record of the run
goes to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# One BLAS thread per process, at most nproc.  On a 2-vCPU VM, five
# alternating runs of fed-s and dense-pulsed gave the same medians with the
# default threading and with one thread; one thread keeps a run on one core.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0
# The set-up is timed at least this often and for at least this long.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0

# Each workload puts most of the run in a different layer, and each layer a
# later change may optimise does little work in another workload.  They are
# scaled-down ROADMAP S and L so that a run holds several pipeline samples.
# Trip lengths are fixed (concurrent_range min = max), so a seed changes the
# traffic and the links but hardly the amount of work: with random trip
# lengths the cost of fed-s varied by a third between seeds.
WORKLOADS = {
    # ROADMAP S (the acceptance config) at a quarter of the duration and
    # vehicles, same density and attack pattern; federated_smote with the
    # acceptance settings, where head SGD is most of the run.
    "fed-s": {
        "scenario": dict(duration_s=900, total_vehicles=15, concurrent_range=(9, 9),
                         arrival_interval_s=60, attacker_fraction=0.2, attack_count=6,
                         attack_spacing_s=125, attack_duration_s=25, normal_rate_pps=1.0,
                         flood_rate_pps=25.0, neighbor_degree=12),
        "annotated": True,
        "run": dict(method="federated_smote", epochs=30, target_ratio=5.0,
                    mnd_mode="fl_threshold", th=2),
    },
    # ROADMAP L (ScenarioConfig defaults) cut to the first 600 s; annotated
    # CSV ingest is most of the run, and the head is never called.
    "central-l": {
        "scenario": dict(duration_s=600, concurrent_range=(20, 20), attack_count=3,
                         attack_spacing_s=150),
        "annotated": True,
        "run": dict(method="centralized", mnd_mode="fl_threshold", th=2),
    },
    # Plain CSV, up to 50 vehicles present, pulsed attacks every 120 s and 20
    # trees: GBDT split search leads, many MND rounds on the local_mad path,
    # and quality is not saturated.
    "dense-pulsed": {
        "scenario": dict(duration_s=1200, total_vehicles=60, concurrent_range=(50, 50),
                         arrival_interval_s=20, attacker_fraction=0.2, attack_count=10,
                         attack_spacing_s=120, attack_duration_s=40, normal_rate_pps=0.5,
                         flood_rate_pps=6.0, neighbor_degree=8),
        "annotated": False,
        "run": dict(method="centralized", mnd_mode="local_mad", trees_per_client=20),
    },
}

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
QUALITY = [("onset_f1", "ratio", ("onset", "f1")), ("onset_far", "ratio", ("onset", "far")),
           ("first_second_rate", "ratio", ("first_second_rate",)),
           ("mnd_dr", "ratio", ("mnd", "dr")), ("mnd_far", "ratio", ("mnd", "far"))]
REFERENCE_KEYS = ("split_second", "onset_confusion", "first_second_rate", "mnd_confusion")


class SetupError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def set_up(name: str, seed: int, work: Path, repeats: int, min_seconds: float = 0.0,
           scale: bool = True):
    """Generate and write the workload's input at least `repeats` times and
    `min_seconds` long; return the truth, the set-up wall times, the same
    scaled to the reference host speed (empty unless `scale`), and the
    events.csv digest (equal on every repeat)."""
    from advent import scenario
    from probe import Probe

    wl = WORKLOADS[name]
    config = scenario.ScenarioConfig(**wl["scenario"], rng_seed=seed)
    times, scaled, digests = [], [], set()
    while len(times) < repeats or sum(times) < min_seconds:
        with Probe(active=scale) as probe:
            events, truth = scenario.generate(config)
            scenario.write_events_csv(work / "events.csv", events,
                                      truth if wl["annotated"] else None)
            scenario.write_ground_truth(work / "truth.json", truth)
        times.append(probe.own_s)
        if scale:
            scaled.append(probe.scaled_s)
        del events
        digests.add(file_digest(work / "events.csv"))
    if len(digests) != 1:
        raise SetupError(f"{name}: events.csv differs between set-up repeats")
    os.sync()  # so that no write-back of the input overlaps a timed run
    return truth, times, scaled, digests.pop()


def run_child(work: Path, manifest: dict, trace: bool, index: int) -> dict:
    """One pipeline run in a fresh process: {"ok", "out", "run_s", "peak_rss_mb", ...}."""
    out = work / f"run{index}"
    spec_path, result_path = work / f"spec{index}.json", work / f"result{index}.json"
    spec = {"manifest": dict(manifest, output_dir=str(out)), "trace": trace}
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: BLAS_THREADS for k in BLAS_ENV})
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                             str(result_path)], env=env, stdout=sys.stderr, cwd=ROOT)
    timed_out = False
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    rec = {"ok": False, "out": out, "trace": trace, "exit": proc.returncode}
    if timed_out:
        rec["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
    elif proc.returncode != 0:
        rec["error"] = f"exit code {proc.returncode}"
    else:
        rec.update(json.loads(result_path.read_text()), ok=True)
    return rec


def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN, through dicts and lists."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def onset_confusion(flags: dict[str, list[int]], truth, split_second: int) -> dict:
    """Held-out confusion of the per-second onset flags, recomputed from the truth."""
    import numpy as np

    c = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for v, flagged in flags.items():
        enter, exit_ = truth.presence[int(v)]
        secs = np.arange(math.floor(enter), math.ceil(exit_))
        label = np.zeros(len(secs), dtype=bool)
        for ws, we in truth.attack_windows:
            label |= (secs >= ws) & (secs < we)
        flag = np.isin(secs, flagged)
        test = secs >= split_second
        c["tp"] += int((test & label & flag).sum())
        c["fn"] += int((test & label & ~flag).sum())
        c["fp"] += int((test & ~label & flag).sum())
        c["tn"] += int((test & ~label & ~flag).sum())
    return c


def check_outputs(out: Path, truth, mnd_mode: str,
                  expected: dict | None) -> tuple[bytes, dict, list[str]]:
    """Read a run's outputs and return (report bytes, report, problems)."""
    from advent import metrics

    problems = []
    raw = (out / "report.json").read_bytes()
    report = json.loads(raw)  # the reports may hold bare NaN tokens
    pred = json.loads((out / "predictions.json").read_text())
    json.loads((out / "timing.json").read_text())
    if not _same(pred["onset_confusion"], report["onset_confusion"]):
        problems.append("predictions.json onset_confusion differs from report.json")
    if pred["split_second"] != report["split_second"]:
        problems.append("predictions.json split_second differs from report.json")
    if onset_confusion(pred["onset_flags"], truth, report["split_second"]) != report["onset_confusion"]:
        problems.append("onset_confusion does not follow from onset_flags and the truth")
    flags = {int(v): set(s) for v, s in pred["onset_flags"].items()}
    if not _same(metrics.first_second_rate(flags, truth), report["first_second_rate"]):
        problems.append("first_second_rate does not follow from onset_flags and the truth")
    if mnd_mode != "local_mad":
        mnd = metrics.mnd_confusion([set(x) for x in pred["mnd_lists"]], truth,
                                    [set(x) for x in pred["mnd_present"]])
        if vars(mnd) != report["mnd_confusion"]:
            problems.append("mnd_confusion does not follow from mnd_lists, mnd_present and the truth")
    for part in ("onset", "mnd"):
        conf = metrics.Confusion(**report[f"{part}_confusion"])
        scored = metrics.score(conf).metrics_dict()
        if not _same({k: report[part][k] for k in scored}, scored):
            problems.append(f"{part} metrics do not follow from {part}_confusion")
    got = {k: report[k] for k in REFERENCE_KEYS}
    if expected is not None and not _same(got, expected):
        problems.append(f"results differ from expected.json: {got} != {expected}")
    return raw, report, problems


def load_expected(name: str, seed: int) -> dict | None:
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def quality(report: dict) -> dict[str, float]:
    out = {}
    for metric, _, keys in QUALITY:
        value = report
        for k in keys:
            value = value[k]
        out[metric] = value
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import SETUP_TARGETS, Tracer, layer_metrics

    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "problems": []}

    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(SETUP_TARGETS)
        repeats, min_seconds = 1, 0.0
    else:
        repeats, min_seconds = SETUP_MIN_REPEATS, SETUP_MIN_SECONDS
    try:
        truth, setup_times, setup_scaled, digest = set_up(name, seed, work, repeats,
                                                          min_seconds, scale=not trace)
    finally:
        setup_tracer.restore()
    record.update(setup_s_samples=setup_scaled, setup_wall_s_samples=setup_times,
                  events_csv_sha256=digest)

    manifest = dict(scenario_path=str(work / "events.csv"), truth_path=str(work / "truth.json"),
                    seed=seed, **wl["run"])
    runs = []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < seconds:
        for traced in ((False, True) if trace else (False,)):
            runs.append(run_child(work, manifest, traced, len(runs)))

    expected = load_expected(name, seed)
    record["reference_checked"] = expected is not None
    first_raw, first_report, failed = None, None, 0
    for rec in runs:
        problems = [rec["error"]] if "error" in rec else []
        if not problems:
            try:
                raw, report, problems = check_outputs(rec["out"], truth, wl["run"]["mnd_mode"],
                                                      expected)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
            else:
                if first_raw is None:
                    first_raw, first_report = raw, report
                elif raw != first_raw:
                    problems.append("report.json differs from the first run of this seed")
        if problems:
            failed += 1
            record["problems"] += [f"run {rec['out'].name}: {p}" for p in problems]
    untraced = [r for r in runs if r["ok"] and not r["trace"]]
    traced = [r for r in runs if r["ok"] and r["trace"]]
    record.update(attempted=len(runs), failed=failed,
                  run_s_samples=[r["run_s"] for r in untraced],
                  run_wall_s_samples=[r["run_wall_s"] for r in untraced],
                  probes=[r["probes"] for r in untraced],
                  peak_rss_mb_samples=[r["peak_rss_mb"] for r in untraced])
    if first_report is not None:
        record["quality"] = quality(first_report)
        record["reference"] = {k: first_report[k] for k in REFERENCE_KEYS}
    if untraced and not trace:
        record["end_to_end"] = {
            "run_s": statistics.median(record["run_s_samples"]),
            "setup_s": statistics.median(record["setup_s_samples"]),
            "peak_rss_mb": statistics.median(record["peak_rss_mb_samples"]),
        }
    if trace and traced and untraced:
        setup_snap = setup_tracer.snapshot()
        per_run = []
        for r in traced:
            snap = r["trace"]
            merged = {k: {**setup_snap[k], **snap[k]} for k in
                      ("seconds", "self_seconds", "calls", "raised", "counters")}
            merged["absent"] = setup_snap["absent"] + snap["absent"]
            per_run.append(layer_metrics(merged, statistics.median(record["run_wall_s_samples"])))
            record.setdefault("absent", merged["absent"])
            record.setdefault("hook_errors", snap["hook_errors"])
        record["per_layer"] = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    record["correct"] = not record["problems"] and failed == 0
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_record(rec: dict) -> None:
    from tracer import metric_specs

    layer_units = {m: u for m, u, _ in metric_specs()}
    name = rec["workload"]
    e2e = rec.get("end_to_end", {})
    for metric, unit in END_TO_END:
        if metric in e2e:
            samples = rec[f"{metric}_samples"]
            print(f"{name} {metric} = {e2e[metric]:.6g} {unit} (median of {len(samples)}; "
                  f"min {min(samples):.6g}, max {max(samples):.6g})")
            if metric in ("run_s", "setup_s"):
                wall = rec[metric.replace("_s", "_wall_s") + "_samples"]
                print(f"{name} {metric} unscaled wall time: median {statistics.median(wall):.6g} "
                      f"{unit}, min {min(wall):.6g}, max {max(wall):.6g}")
    print(f"{name} failed_share = {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']})")
    for metric, unit, _ in QUALITY:
        if metric in rec.get("quality", {}):
            print(f"{name} {metric} = {rec['quality'][metric]:.6g} {unit}")
    for metric, value in rec.get("per_layer", {}).items():
        print(f"{name} {metric} = {value:.6g} {layer_units[metric]}")
    if rec.get("absent"):
        print(f"{name} absent from the program: {', '.join(rec['absent'])}")
    for problem in rec["problems"]:
        print(f"{name} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its child (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "advent" / "runner.py").is_file():
        print(f"error: no advent sources under {SRC}", file=sys.stderr)
        return 2
    for k in BLAS_ENV:  # before numpy is imported, for the set-up in this process
        os.environ[k] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import advent

    if Path(advent.__file__).resolve().parent != (SRC / "advent").resolve():
        print(f"error: imported advent from {advent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_record(rec)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1, default=str) + "\n")
        records.append(rec)

    key = "per_layer" if args.trace else "end_to_end"
    if any(key not in rec for rec in records):
        print("error: no run of the pipeline succeeded", file=sys.stderr)
        return 1
    from tracer import metric_specs

    units = dict(END_TO_END) if not args.trace else {m: u for m, u, _ in metric_specs()}
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for metric, value in rec[key].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
