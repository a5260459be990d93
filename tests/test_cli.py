import json
import logging
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from advent import _config, runner, scenario
from advent.cli import main
from advent.runner import RunManifest
from advent.scenario import ScenarioConfig

from test_preprocess import reference_windows


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_scn")
    cfg = {
        "duration_s": 600, "total_vehicles": 12, "concurrent_range": [4, 8],
        "arrival_interval_s": 50, "attacker_fraction": 0.2, "attack_count": 1,
        "attack_spacing_s": 300, "attack_duration_s": 25, "normal_rate_pps": 1.0,
        "flood_rate_pps": 20.0, "neighbor_degree": 12, "rng_seed": 42,
    }
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["generate", "--config", str(cfg_path), "--out", str(d)])
    assert rc == 0
    return d


def _run_manifest(scenario_dir, out, **kw):
    base = dict(
        scenario_path=str(scenario_dir / "events.csv"),
        output_dir=str(out),
        method="centralized",
        mnd_mode="fl_aggregate",
        seed=1,
    )
    base.update(kw)
    return base


def test_generate_outputs(scenario_dir):
    assert (scenario_dir / "events.csv").exists()
    assert (scenario_dir / "truth.json").exists()
    truth = scenario.load_ground_truth(scenario_dir / "truth.json")
    assert truth.attackers


def test_generate_bad_config_exit1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"attacker_fraction": 2.0}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "attacker_fraction" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("attack_count", -1), ("attack_duration_s", -5), ("concurrent_range", [-3, 5]),
])
def test_generate_negative_config_value_exit1(tmp_path, capsys, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({field: value}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    name = "concurrent_range.min" if field == "concurrent_range" else field
    assert capsys.readouterr().err == f"error: {name} must be >= 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ('{"duration_s": 600,', "line 1"),
    ('{"concurrent_range": [4]}', "concurrent_range"),
    ('{"concurrent_range": [4, 8, 9]}', "concurrent_range"),
], ids=["bad-json", "one-value-range", "three-value-range"])
def test_generate_unreadable_config_exit1(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ('{"duration_s": "600"}', "error: duration_s must be an integer, got '600'"),
    ('{"total_vehicles": 2.5}', "error: total_vehicles must be an integer, got 2.5"),
    ('{"concurrent_range": ["a", "b"]}',
     "error: concurrent_range must be two integers [min, max], got ('a', 'b')"),
    ('{"rng_seed": true}', "error: rng_seed must be an integer, got True"),
    ('{"flood_rate_pps": "30"}', "error: flood_rate_pps must be a number, got '30'"),
], ids=["str-duration", "float-vehicles", "str-range", "bool-seed", "str-rate"])
def test_generate_badly_typed_config_exit1(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1 and capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "o").exists()


def test_generate_missing_config_exit1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["generate", "--config", str(missing), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and "nope.json" in err


@pytest.mark.parametrize("text, message", [
    ('{"durration_s": 600}', "error: unknown scenario config field 'durration_s'"),
    ("[600, 12]", "error: {cfg}: a scenario config must be a JSON object"),
    ('{"concurrent_range": 5}', "error: concurrent_range must be two integers [min, max], got 5"),
], ids=["unknown-field", "array", "int-range"])
def test_generate_rejects_a_config_the_reader_rejects(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1 and capsys.readouterr().err == message.format(cfg=cfg) + "\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("command", ["generate", "preprocess"])
def test_an_output_path_under_a_file_is_one_error_line(scenario_dir, tmp_path, capsys,
                                                       command, sub):
    # --out names a file, or a directory under one: mkdir fails, as an error.
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    if command == "generate":
        argv = ["generate", "--config", str(scenario_dir / "config.json"), "--out", str(out)]
    else:
        argv = ["preprocess", "--events", str(scenario_dir / "events.csv"), "--out", str(out)]
    assert main(argv) == 1
    _one_error_line(capsys, out)
    assert blocker.read_text() == ""


def test_generate_seed_flag_overrides_config(tmp_path, scenario_dir):
    cfg = scenario_dir / "config.json"
    d1, d2 = tmp_path / "s9a", tmp_path / "s9b"
    assert main(["generate", "--config", str(cfg), "--seed", "9", "--out", str(d1)]) == 0
    assert main(["generate", "--config", str(cfg), "--seed", "9", "--out", str(d2)]) == 0
    assert (d1 / "events.csv").read_bytes() == (d2 / "events.csv").read_bytes()
    assert (d1 / "events.csv").read_bytes() != (scenario_dir / "events.csv").read_bytes()


def test_preprocess_writes_per_vehicle_csvs(scenario_dir, tmp_path):
    out = tmp_path / "feat"
    rc = main(["preprocess", "--events", str(scenario_dir / "events.csv"),
               "--truth", str(scenario_dir / "truth.json"), "--out", str(out)])
    assert rc == 0
    files = sorted(out.glob("vehicle_*.csv"))
    assert files
    header = files[0].read_text().splitlines()[0]
    assert header == "t," + ",".join(f"f{i}" for i in range(10)) + ",label"


def test_preprocess_csvs_match_windowize_arrays(scenario_dir, tmp_path):
    # Reference: a per-row writer over per-vehicle windows built in Python
    # from a per-event tally, one file per present vehicle with at least one
    # row.  Vehicle 999 is present for no whole second, so it has no rows and
    # gets no file.
    events, _ = scenario.ingest(scenario_dir / "events.csv")
    truth = scenario.load_ground_truth(scenario_dir / "truth.json")
    truth.presence[999] = (100.0, 100.0)
    truth_path = tmp_path / "truth.json"
    scenario.write_ground_truth(truth_path, truth)
    for lags in (10, 3):
        out = tmp_path / f"feat{lags}"
        rc = main(["preprocess", "--events", str(scenario_dir / "events.csv"),
                   "--truth", str(truth_path), "--lags", str(lags), "--out", str(out)])
        assert rc == 0
        expected = {}
        for v, (secs, x, y) in reference_windows(events, truth, lags).items():
            lines = ["t," + ",".join(f"f{i}" for i in range(lags)) + ",label"]
            for i in range(len(secs)):
                feats = ",".join(repr(float(f)) for f in x[i])
                lines.append(f"{int(secs[i])},{feats},{int(y[i])}")
            expected[f"vehicle_{v}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
        assert len(expected) > 1 and "vehicle_999.csv" not in expected
        assert sorted(p.name for p in out.glob("vehicle_*.csv")) == sorted(expected)
        for name, data in expected.items():
            assert (out / name).read_bytes() == data
        assert any(b",1\n" in data for data in expected.values())


def test_preprocess_exports_the_rows_a_run_trains_on(scenario_dir, tmp_path, monkeypatch):
    # Without --truth, both commands take the truth.json sidecar next to the
    # CSV, whose presence differs from the one the CSV's annotations show.
    events = str(scenario_dir / "events.csv")
    seen = []
    features = runner.features

    def recording_features(*args):
        seen.append(features(*args))
        return seen[-1]

    monkeypatch.setattr(runner, "features", recording_features)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(_run_manifest(scenario_dir, tmp_path / "run")))
    assert main(["run", "--config", str(mpath)]) == 0
    out = tmp_path / "feat"
    assert main(["preprocess", "--events", events, "--out", str(out)]) == 0
    trained = seen[0]
    assert sorted(p.name for p in out.glob("vehicle_*.csv")) == sorted(
        f"vehicle_{v}.csv" for v in trained)
    for v, (secs, x, y) in trained.items():
        data = np.loadtxt(out / f"vehicle_{v}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(data[:, 0], secs) and np.array_equal(data[:, -1], y)
        assert np.array_equal(data[:, 1:-1], x)
    # The CSV's annotations alone give other rows, so the rule is what is tested.
    observed = features(*scenario.ingest(events), 10)
    assert {v: len(r[0]) for v, r in observed.items()} != {v: len(r[0]) for v, r in trained.items()}


def test_preprocess_missing_truth_exit1(tmp_path, capsys):
    ev = tmp_path / "plain.csv"
    ev.write_text("time_s,sender,receiver\n1.0,1,2\n")
    rc = main(["preprocess", "--events", str(ev), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "truth" in capsys.readouterr().err


@pytest.mark.parametrize("lags", ["0", "-3"])
def test_preprocess_rejects_lags_below_one(scenario_dir, tmp_path, capsys, lags):
    out = tmp_path / "o"
    rc = main(["preprocess", "--events", str(scenario_dir / "events.csv"),
               "--lags", lags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --lags must be >= 1, got {lags}\n"
    assert not out.exists()


def _longest_span(scenario_dir) -> int:
    truth = scenario.load_ground_truth(scenario_dir / "truth.json")
    return max(math.ceil(b) - math.floor(a) for a, b in truth.presence.values())


@pytest.mark.parametrize("command", ["preprocess", "run"])
def test_lags_past_the_longest_presence_span_are_one_error_line(scenario_dir, tmp_path, capsys,
                                                                command):
    # A lag past the longest presence span is zero in every row: 10^8 of
    # them is one error line on each path, with no traceback and no output.
    longest = _longest_span(scenario_dir)
    out = tmp_path / "o"
    if command == "preprocess":
        argv = ["preprocess", "--events", str(scenario_dir / "events.csv"),
                "--lags", str(10 ** 8), "--out", str(out)]
    else:
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(_run_manifest(scenario_dir, out, lags=10 ** 8)))
        argv = ["run", "--config", str(mpath)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: lags must be at most {longest}, the longest presence span in seconds, "
        f"got {10 ** 8}\n")
    assert not out.exists()


def _huge_span_error(span) -> str:
    """The error line for a presence `span` as `runner.features` words it."""
    if span[0] < 0:
        return (r"error: vehicle \d+'s presence \[-1000000000\.0, 10\.0\] starts before "
                r"second 0, where no event lies\n")
    return (r"error: the presence spans \d+ seconds, whose rows would take at least [\d.]+ GiB, "
            r"more than this host's [\d.]+ GiB of memory; vehicle \d+'s "
            r"\[0\.0, 1000000000000\.0\] is the longest\n")


@pytest.mark.parametrize("command", ["preprocess", "run"])
@pytest.mark.parametrize("span", [[-10 ** 9, 10], [0, 10 ** 12]], ids=["before", "after"])
def test_a_huge_presence_span_is_one_error_line(scenario_dir, tmp_path, capsys, command, span):
    # A sidecar presence span far outside the log's seconds: its count
    # series was built second by second until the process was killed.  One
    # that starts before second 0 is rejected as such; 10^12 seconds of rows
    # fit in no host's memory.  Either is one error line and no output.
    events = tmp_path / "events.csv"
    events.write_bytes((scenario_dir / "events.csv").read_bytes())
    truth = json.loads((scenario_dir / "truth.json").read_text())
    truth["presence"][min(truth["presence"], key=int)] = span
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    out = tmp_path / "o"
    if command == "preprocess":
        argv = ["preprocess", "--events", str(events), "--out", str(out)]
    else:
        argv = ["run", "--scenario", str(events), "--out", str(out), "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(_huge_span_error(span), captured.err)
    assert not out.exists()


def test_a_log_with_no_events_bounds_presence_as_any_log():
    # Every second of a span is a row, with or without events; a span no
    # host's memory holds is rejected all the same.
    truth = scenario.GroundTruth(attackers=set(), attack_windows=[], presence={4: (0.0, 7.0)})
    [(v, (secs, x, y))] = runner.features(scenario.EventStream([], [], []), truth, 2).items()
    assert v == 4 and len(secs) == len(x) == len(y) == 7 and not x.any()
    truth.presence[4] = (0.0, 1e12)
    with pytest.raises(ValueError, match="more than this host's"):
        runner.features(scenario.EventStream([], [], []), truth, 2)


def test_generate_then_run_when_the_last_vehicles_are_alone(tmp_path):
    # Four vehicles 50 s apart: the last to leave is alone at the end and
    # sends nothing, so its presence runs past the log's last event.  The
    # truth.json that `generate` writes is taken as it is.
    d = tmp_path / "scn"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "duration_s": 600, "total_vehicles": 4, "concurrent_range": [2, 4],
        "arrival_interval_s": 50, "attacker_fraction": 0.25, "attack_count": 1,
        "attack_spacing_s": 100, "attack_duration_s": 25, "rng_seed": 3}))
    assert main(["generate", "--config", str(cfg), "--out", str(d)]) == 0
    events, truth = runner.load(d / "events.csv")
    assert max(b for _, b in truth.presence.values()) > math.ceil(events.times[-1])
    for method in ("centralized", "federated_smote"):
        out = tmp_path / method
        mpath = tmp_path / f"{method}.json"
        mpath.write_text(json.dumps(_run_manifest(d, out, method=method)))
        assert main(["run", "--config", str(mpath)]) == 0
        assert (out / "report.json").exists()


def test_lags_equal_to_the_longest_presence_span_run(scenario_dir, tmp_path):
    longest = _longest_span(scenario_dir)
    out = tmp_path / "feat"
    assert main(["preprocess", "--events", str(scenario_dir / "events.csv"),
                 "--lags", str(longest), "--out", str(out)]) == 0
    header = next(out.glob("vehicle_*.csv")).read_text().split("\n", 1)[0]
    assert header.split(",")[-2:] == [f"f{longest - 1}", "label"]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(_run_manifest(scenario_dir, tmp_path / "run", lags=longest)))
    assert main(["run", "--config", str(mpath)]) == 0


_PREDICTION_IDS = st.integers(0, 12).map(str) | st.sampled_from(["2", "10", "100"])
_SECONDS = st.lists(st.integers(0, 10 ** 6), max_size=6)


@settings(max_examples=80, deadline=None)
@given(predictions=st.fixed_dictionaries({
    "onset_flags": st.dictionaries(_PREDICTION_IDS, _SECONDS, max_size=6),
    "onset_confusion": st.fixed_dictionaries({k: st.integers(0, 10 ** 9)
                                              for k in ("fn", "fp", "tn", "tp")}),
    "mnd_lists": st.lists(_SECONDS, max_size=4),
    "mnd_present": st.lists(_SECONDS, max_size=4),
    "split_second": st.integers(-10 ** 9, 10 ** 9)}))
def test_predictions_file_is_json_dumps_sorted(tmp_path_factory, predictions):
    # Written in pieces, the file's bytes are still json.dumps's with sorted
    # keys: ids sort as strings ("10" before "2"), and empty flag lists and
    # empty MND lists keep their place.
    out = tmp_path_factory.mktemp("write")
    runner.write(out, {}, predictions)
    assert (out / "predictions.json").read_text(encoding="utf-8") == json.dumps(
        predictions, sort_keys=True) + "\n"


def test_run_rejects_lags_below_one(scenario_dir, tmp_path, capsys):
    # Checked with the manifest, before the scenario is read: the events
    # path does not exist, and the error names lags, not the file.
    out = tmp_path / "o"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(dict(_run_manifest(scenario_dir, out), lags=0,
                                     scenario_path=str(tmp_path / "nope.csv"))))
    rc = main(["run", "--config", str(mpath)])
    assert rc == 1
    assert capsys.readouterr().err == "error: lags must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"lagz": 3}, "unknown manifest field 'lagz'"),
    ({"lags": "3"}, "lags must be an integer, got '3'"),
    ({"epochs": True}, "epochs must be an integer, got True"),
    ({"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"method": 3}, "method must be a string, got 3"),
    ({"truth_path": 7}, "truth_path must be a string or null, got 7"),
    ({"scenario_path": None}, "missing manifest field 'scenario_path'"),
    ({"rounds": 0}, "rounds must be >= 1, got 0"),
    ({"th": 0}, "th must be >= 1, got 0"),
    ({"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
    ({"max_depth": 0}, "max_depth must be >= 1"),
    ({"epochs": -1}, "epochs must be >= 0"),
    ({"target_ratio": 0.5}, "target_ratio must be >= 1"),
    ({"mad_b": 1.0}, "unknown manifest field 'mad_b'"),
], ids=["unknown", "str-int", "bool-int", "str-float", "float-int", "int-str",
        "int-path", "missing", "zero-rounds", "zero-th", "large-train-fraction",
        "zero-max-depth", "negative-epochs", "small-target-ratio", "removed-mad-b"])
def test_run_rejects_bad_manifest_fields(scenario_dir, tmp_path, capsys, change, message):
    # Rejected with the manifest, before the scenario is read: the events
    # path does not exist, and the error names the field, not the file.
    out = tmp_path / "o"
    manifest = {**_run_manifest(scenario_dir, out), "scenario_path": str(tmp_path / "nope.csv"),
                **change}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({k: v for k, v in manifest.items() if v is not None}))
    rc = main(["run", "--config", str(mpath)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_writes_reports(scenario_dir, tmp_path, capsys):
    out = tmp_path / "run1"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(_run_manifest(scenario_dir, out)))
    rc = main(["run", "--config", str(mpath)])
    assert rc == 0
    rep = runner.load_report(out / "report.json")
    assert rep["method"] == "centralized"
    assert set(rep["onset"]) == {"dr", "far", "fnr", "precision", "recall", "f1"}
    stages = ("load", "features", "onset_fit", "onset_decide", "alert_rounds", "mnd_reports",
              "mnd_aggregate", "score", "write")
    timing = json.loads((out / "timing.json").read_text())
    assert list(timing) == [f"{stage}_s" for stage in stages]
    assert all(isinstance(s, float) and s >= 0 for s in timing.values())
    assert (out / "predictions.json").exists()
    # stdout carries the report JSON
    assert '"onset"' in capsys.readouterr().out


def test_run_flag_overrides_manifest(scenario_dir, tmp_path):
    out = tmp_path / "run2"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(_run_manifest(scenario_dir, tmp_path / "ignored",
                                              mnd_mode="fl_aggregate")))
    rc = main(["run", "--config", str(mpath), "--out", str(out),
               "--mnd-mode", "fl_threshold", "--th", "2"])
    assert rc == 0
    rep = runner.load_report(out / "report.json")
    assert rep["mnd_mode"] == "fl_threshold"
    assert rep["th"] == 2
    assert not (tmp_path / "ignored").exists()


def test_run_missing_scenario_exit1(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_run_byte_identical_reports(scenario_dir, tmp_path):
    mpath = tmp_path / "manifest.json"
    outs = [tmp_path / "rep_a", tmp_path / "rep_b"]
    for out in outs:
        mpath.write_text(json.dumps(_run_manifest(scenario_dir, out)))
        assert main(["run", "--config", str(mpath)]) == 0
    a = (outs[0] / "report.json").read_bytes()
    b = (outs[1] / "report.json").read_bytes()
    assert a == b


def test_report_aggregates_runs(scenario_dir, tmp_path, capsys):
    root = tmp_path / "sweep"
    for seed in (1, 2):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(_run_manifest(scenario_dir, root / f"s{seed}", seed=seed)))
        assert main(["run", "--config", str(mpath)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(root)]) == 0
    out = capsys.readouterr().out
    assert "comparison.csv" in out
    lines = (root / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("scenario,method,mnd_mode,seed")
    # The timing columns are the keys of the runs' timing.json files.
    timing = json.loads((root / "s1" / "timing.json").read_text())
    assert lines[0].endswith("mnd_f1," + ",".join(timing))
    assert len(lines) == 3


def test_report_empty_dir_exit1(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert "no report.json" in capsys.readouterr().err


def _one_error_line(capsys, path) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    return err


def test_run_scenario_directory_exit1(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "--scenario", str(tmp_path), "--out", str(out), "--seed", "1"])
    assert rc == 1
    _one_error_line(capsys, tmp_path)
    assert not out.exists()


def test_preprocess_events_directory_exit1(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["preprocess", "--events", str(tmp_path), "--out", str(out)])
    assert rc == 1
    _one_error_line(capsys, tmp_path)
    assert not out.exists()


_GOOD_REPORT = {"onset": {"dr": 1.0, "far": 0.0, "fnr": 0.0, "f1": 1.0},
                "mnd": {"dr": 1.0, "far": 0.0, "f1": 1.0}}


@pytest.mark.parametrize("text, why", [
    (json.dumps({"method": "centralized", "mnd": _GOOD_REPORT["mnd"]}), "no 'onset' entry"),
    (json.dumps({"onset": _GOOD_REPORT["onset"]}), "no 'mnd' entry"),
    ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
], ids=["no-onset", "no-mnd", "not-json"])
def test_report_rejects_what_is_not_a_run_report(tmp_path, capsys, text, why):
    # One line names the file; nothing is tabulated, good reports beside it
    # included.
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.json").write_text(json.dumps(_GOOD_REPORT))
    bad = tmp_path / "b" / "report.json"
    bad.parent.mkdir()
    bad.write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys, bad) == f"error: {bad} is not a run report: {why}\n"
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("text, why", [
    ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
    ("[1.5]\n", "not a JSON object, got list"),
], ids=["not-json", "not-object"])
def test_report_rejects_a_bad_timing_file(tmp_path, capsys, text, why):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.json").write_text(json.dumps(_GOOD_REPORT))
    bad = tmp_path / "a" / "timing.json"
    bad.write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys, bad) == f"error: {bad} is not a timing file: {why}\n"
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("change, why", [
    ({"first_second_rate": "all"}, "first_second_rate is not a number, got 'all'"),
    ({"onset": dict(_GOOD_REPORT["onset"], f1="high")}, "onset_f1 is not a number, got 'high'"),
    ({"mnd": dict(_GOOD_REPORT["mnd"], dr=None)}, "mnd_dr is not a number, got None"),
], ids=["first_second_rate", "onset", "mnd"])
def test_report_rejects_a_score_that_is_not_a_number(tmp_path, capsys, change, why):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(dict(_GOOD_REPORT, **change)))
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys, bad) == f"error: {bad} is not a run report: {why}\n"
    assert not (tmp_path / "comparison.csv").exists()


def test_report_lists_seeds_in_numeric_order(tmp_path, capsys):
    # Seed 10 after seed 2; a report with no seed first.
    for name, seed in (("a", 10), ("b", 2), ("c", None)):
        (tmp_path / name).mkdir()
        report = _GOOD_REPORT if seed is None else dict(_GOOD_REPORT, seed=seed)
        (tmp_path / name / "report.json").write_text(json.dumps(report))
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert re.findall(r"seed=(\S*)", capsys.readouterr().out) == ["", "2", "10"]
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["", "2", "10"]


def test_run_rejects_a_sidecar_the_annotations_disagree_with(scenario_dir, tmp_path, capsys):
    # The sidecar leaves out one attacker; the first line it sends on names
    # the disagreement.
    events = tmp_path / "events.csv"
    events.write_bytes((scenario_dir / "events.csv").read_bytes())
    truth = scenario.load_ground_truth(scenario_dir / "truth.json")
    dropped = min(truth.attackers)
    truth.attackers.discard(dropped)
    scenario.write_ground_truth(tmp_path / "truth.json", truth)
    lines = events.read_text().splitlines()
    line = 1 + next(i for i, text in enumerate(lines[1:], 1) if text.split(",")[1] == str(dropped))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(events), "--out", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: line {line}: is_attacker_sender must match the ground truth's attackers, got 1\n")
    assert not out.exists()


@pytest.mark.parametrize("text, why", [
    ("[1, 2]", "a ground truth must be a JSON object, got list"),
    ('{"attack_windows": [[300, 325, 1]]}',
     "attack_windows[0] must be a pair of numbers, got [300, 325, 1]"),
    ('{"attack_windows": [[300, 325], 7]}', "attack_windows[1] must be a pair of numbers, got 7"),
    ('{"attackers": [0, "1"]}', "attackers[1] must be an integer, got '1'"),
    ('{"presence": {"x": [0, 1]}}', "presence key 'x' must be an integer"),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["list", "triple_window", "number_window", "string_attacker", "bad_presence_key",
        "not_json"])
@pytest.mark.parametrize("command", ["run", "preprocess"])
def test_commands_name_the_field_of_a_bad_truth_file(scenario_dir, tmp_path, capsys, command,
                                                     text, why):
    # The truth.json sidecar next to the CSV is read before the CSV.
    events = tmp_path / "events.csv"
    events.write_bytes((scenario_dir / "events.csv").read_bytes())
    truth = tmp_path / "truth.json"
    truth.write_text(text)
    out = tmp_path / "o"
    argv = {"run": ["run", "--scenario", str(events), "--out", str(out), "--seed", "1"],
            "preprocess": ["preprocess", "--events", str(events), "--out", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {truth}: {why}\n"
    assert not out.exists()


# (what holds the value, the value's JSON, the error after "error: ").
# JSON's NaN and Infinity tokens, and 1e999, which reads as inf.
_NON_FINITE = [
    ("scenario", '{"duration_s": 300, "attack_count": 0, "arrival_interval_s": NaN}',
     "arrival_interval_s must be a number, got nan"),
    ("scenario", '{"flood_rate_pps": 1e999}', "flood_rate_pps must be a number, got inf"),
    ("manifest", {"learning_rate": math.nan}, "learning_rate must be a number, got nan"),
    ("manifest", {"lambda_l2": math.inf}, "lambda_l2 must be a number, got inf"),
    ("manifest", {"train_fraction": -math.inf}, "train_fraction must be a number, got -inf"),
    ("window", [120, math.inf], "attack_windows[0] must be a pair of numbers, got [120, inf]"),
    ("window", [math.nan, 160], "attack_windows[0] must be a pair of numbers, got [nan, 160]"),
    ("presence", [0, math.inf], "presence[{key!r}] must be a pair of numbers, got [0, inf]"),
    ("presence", [-math.inf, 10], "presence[{key!r}] must be a pair of numbers, got [-inf, 10]"),
]


@pytest.mark.parametrize("where, value, why", _NON_FINITE,
                         ids=["scenario-nan", "scenario-1e999", "manifest-nan", "manifest-inf",
                              "manifest-minus-inf", "window-inf", "window-nan", "presence-inf",
                              "presence-minus-inf"])
def test_a_non_finite_number_is_one_error_line(scenario_dir, tmp_path, capsys, where, value,
                                               why):
    out = tmp_path / "o"
    if where == "scenario":
        path = tmp_path / "scenario.json"
        path.write_text(value)
        argv = ["generate", "--config", str(path), "--out", str(out)]
    elif where == "manifest":
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**_run_manifest(scenario_dir, out), **value}))
        argv = ["run", "--config", str(path)]
    else:
        events = tmp_path / "events.csv"
        events.write_bytes((scenario_dir / "events.csv").read_bytes())
        path = tmp_path / "truth.json"
        truth = json.loads((scenario_dir / "truth.json").read_text())
        key = min(truth["presence"], key=int)
        if where == "window":
            truth["attack_windows"][0] = value
        else:
            truth["presence"][key] = value
        path.write_text(json.dumps(truth))
        why = f"{path}: " + why.format(key=key)
        argv = ["run", "--scenario", str(events), "--out", str(out), "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {why}\n" and captured.out == ""
    assert not out.exists()


def test_a_number_is_a_finite_real():
    values = (1, 2.5, -0.0, 10**300, 10**400, math.nan, math.inf, -math.inf, True, "1")
    assert [_config.is_number(v) for v in values] == [True] * 4 + [False] * 6


_HUGE = 10 ** 400  # an int too large for a float


@pytest.mark.parametrize("where, value, why", [
    ("scenario", {"duration_s": _HUGE}, f"duration_s must be an integer, got {_HUGE}"),
    ("scenario", {"concurrent_range": [4, _HUGE]},
     f"concurrent_range must be two integers [min, max], got (4, {_HUGE})"),
    ("manifest", {"lags": _HUGE}, f"lags must be an integer, got {_HUGE}"),
], ids=["scenario-duration", "scenario-range", "manifest-lags"])
def test_an_int_too_large_for_a_float_is_one_error_line(scenario_dir, tmp_path, capsys, where,
                                                       value, why):
    # Unchecked, the scenario's ended in an OverflowError traceback and the
    # manifest's in numpy's "Maximum allowed dimension exceeded".
    out = tmp_path / "o"
    path = tmp_path / f"{where}.json"
    if where == "scenario":
        path.write_text(json.dumps(value))
        argv = ["generate", "--config", str(path), "--out", str(out)]
    else:
        path.write_text(json.dumps({**_run_manifest(scenario_dir, out), **value}))
        argv = ["run", "--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {why}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "preprocess"])
def test_commands_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, command):
    events = tmp_path / "events.csv"
    events.write_bytes(b"time_s,sender,receiver\n1.0,1,2\n\xff\xfe,3,4\n")
    out = tmp_path / "o"
    argv = {"run": ["run", "--scenario", str(events), "--out", str(out), "--seed", "1"],
            "preprocess": ["preprocess", "--events", str(events), "--out", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: line 3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
    assert not out.exists()


def test_load_rebuilds_the_truth_only_without_a_truth_file(scenario_dir, tmp_path):
    events = tmp_path / "events.csv"
    events.write_bytes((scenario_dir / "events.csv").read_bytes())
    _, rebuilt = scenario.ingest(events)
    assert runner.load(events)[1] == rebuilt
    given = scenario.load_ground_truth(scenario_dir / "truth.json")
    assert given != rebuilt
    assert runner.load(events, scenario_dir / "truth.json")[1] == given
    scenario.write_ground_truth(tmp_path / "truth.json", given)
    assert runner.load(events)[1] == given


def test_manifest_validation():
    with pytest.raises(ValueError, match="method"):
        RunManifest(scenario_path="x", output_dir="y", method="bogus")
    with pytest.raises(ValueError, match="mnd_mode"):
        RunManifest(scenario_path="x", output_dir="y", mnd_mode="bogus")
    for lags in (0, -1):
        with pytest.raises(ValueError, match="lags"):
            RunManifest(scenario_path="x", output_dir="y", lags=lags)
    with pytest.raises(ValueError, match="th must be an integer"):
        RunManifest(scenario_path="x", output_dir="y", th=False)
    for change, message in [
        ({"rounds": 0}, "rounds must be >= 1, got 0"),
        ({"rounds": -2}, "rounds must be >= 1, got -2"),
        ({"th": 0}, "th must be >= 1, got 0"),
        ({"train_fraction": 0}, "train_fraction must be in (0, 1), got 0"),
        ({"train_fraction": 1.0}, "train_fraction must be in (0, 1), got 1.0"),
        ({"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
        ({"train_fraction": -0.2}, "train_fraction must be in (0, 1), got -0.2"),
        ({"train_fraction": float("nan")}, "train_fraction must be a number, got nan"),
        ({"target_ratio": 0.5}, "target_ratio must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            RunManifest(scenario_path="x", output_dir="y", **change)
    edge = RunManifest(scenario_path="x", output_dir="y", rounds=1, th=1, train_fraction=0.01)
    assert (edge.rounds, edge.th, edge.train_fraction) == (1, 1, 0.01)
    # An int is a valid float; the value is kept as given.
    m = RunManifest(scenario_path="x", output_dir="y", learning_rate=1, target_ratio=5)
    assert m.head_config().learning_rate == 1 and m.target_ratio == 5


@pytest.mark.parametrize("method", ["centralized", "federated"])
@pytest.mark.parametrize("given", ["header_only", "no_presence"])
def test_run_rejects_a_log_with_no_feature_row(scenario_dir, tmp_path, capsys, method, given):
    # A header-only annotated CSV rebuilds an empty truth; a sidecar without
    # presence leaves every vehicle without a second.
    events = tmp_path / "events.csv"
    if given == "header_only":
        events.write_text("time_s,sender,receiver,is_attacker_sender,attack_active\n")
    else:
        events.write_bytes((scenario_dir / "events.csv").read_bytes())
        truth = scenario.load_ground_truth(scenario_dir / "truth.json")
        scenario.write_ground_truth(tmp_path / "truth.json", scenario.GroundTruth(
            attackers=truth.attackers, attack_windows=truth.attack_windows))
    out = tmp_path / "o"
    argv = ["run", "--scenario", str(events), "--out", str(out), "--seed", "1",
            "--method", method]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: no vehicle has a feature row: the ground truth's presence covers no second\n")
    assert not out.exists()


def test_run_logs_each_stage_at_info(scenario_dir, tmp_path, caplog):
    reports = []
    for level in (logging.WARNING, logging.INFO):
        caplog.clear()
        caplog.set_level(level, logger="advent.runner")
        out = tmp_path / logging.getLevelName(level)
        runner.run_pipeline(RunManifest(**_run_manifest(scenario_dir, out)))
        reports.append((out / "report.json").read_bytes())
    stages = [re.fullmatch(r"(\w+): \d+\.\d{3} s", record.getMessage())[1]
              for record in caplog.records
              if record.name == "advent.runner" and record.levelno == logging.INFO]
    assert stages == ["load", "features", "onset_fit", "onset_decide", "alert_rounds",
                      "mnd_reports", "mnd_aggregate", "score", "write"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("method", runner.METHODS)
def test_run_rejects_a_log_with_no_row_before_the_split(tmp_path, capsys, method):
    # Both vehicles are present for second 0 only, so every feature row is
    # at the split second and no method has a row to train on.  One lag is
    # all a one-second presence allows.
    events = tmp_path / "events.csv"
    events.write_text("time_s,sender,receiver\n0.5,1,2\n0.6,2,1\n")
    scenario.write_ground_truth(tmp_path / "truth.json", scenario.GroundTruth(
        presence={1: (0.0, 1.0), 2: (0.0, 1.0)}))
    out = tmp_path / "o"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"scenario_path": str(events), "output_dir": str(out),
                                 "method": method, "lags": 1}))
    assert main(["run", "--config", str(mpath)]) == 1
    assert capsys.readouterr().err == (
        "error: no feature row falls before the split second 0: nothing to train on\n")
    assert not out.exists()


def _numbers(lo, hi):
    """An int or a float in [lo, hi]: an int is a valid float field."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


@st.composite
def _scenario_configs(draw):
    duration = draw(st.integers(1, 10**6))
    count = draw(st.integers(0, 10))
    spacing = draw(_numbers(0, duration / max(count, 1)))
    normal = draw(_numbers(0, 1e3))
    lo = draw(st.integers(0, 10**4))
    try:
        return ScenarioConfig(
            duration_s=duration, total_vehicles=draw(st.integers(1, 10**5)),
            concurrent_range=(lo, draw(st.integers(lo, 2 * 10**4))),
            arrival_interval_s=draw(_numbers(1e-3, 1e4)),
            attacker_fraction=draw(_numbers(0, 1)), attack_count=count,
            attack_spacing_s=spacing, attack_duration_s=draw(_numbers(0, spacing)),
            normal_rate_pps=normal, flood_rate_pps=normal + draw(_numbers(1, 1e3)),
            neighbor_degree=draw(_numbers(0, 100)), rng_seed=draw(st.integers(0, 2**64)))
    except scenario.ConfigError:  # a product or sum rounded past its bound
        reject()


@st.composite
def _manifests(draw):
    text = st.text(max_size=12)
    return RunManifest(
        scenario_path=draw(text), output_dir=draw(text), truth_path=draw(st.none() | text),
        method=draw(st.sampled_from(runner.METHODS)),
        mnd_mode=draw(st.sampled_from(runner.MND_MODES)),
        th=draw(st.integers(1, 100)), seed=draw(st.integers(-2**63, 2**63)),
        lags=draw(st.integers(1, 100)),
        train_fraction=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        rounds=draw(st.integers(1, 100)), trees_per_client=draw(st.integers(1, 100)),
        max_depth=draw(st.integers(1, 10)),
        shrinkage=draw(st.just(1) | st.floats(0, 1, exclude_min=True)),
        lambda_l2=draw(_numbers(0, 1e6)), min_samples_leaf=draw(st.integers(1, 100)),
        filters=draw(st.integers(1, 64)), learning_rate=draw(_numbers(0, 1e3)),
        epochs=draw(st.integers(0, 10**4)), batch_size=draw(st.integers(1, 10**4)),
        target_ratio=draw(_numbers(1, 1e6)))


def _read_back(tmp_dir, config):
    """`config` as `--config` reads it back from `json.dumps(asdict(config))`,
    caught where its command would start work on it."""
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(asdict(config)))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        if isinstance(config, ScenarioConfig):
            mp.setattr(scenario, "generate", lambda c: seen.append(c) or (
                scenario.EventStream([], [], []), scenario.GroundTruth()))
            argv = ["generate", "--config", str(path), "--out", str(tmp_dir / "o")]
        else:
            mp.setattr(runner, "run_pipeline", lambda m: seen.append(m) or {})
            argv = ["run", "--config", str(path)]
        assert main(argv) == 0
    return seen[0]


@settings(max_examples=60, deadline=None)
@given(config=_scenario_configs() | _manifests())
def test_a_config_written_as_json_reads_back_equal(tmp_path_factory, config):
    read = _read_back(tmp_path_factory.mktemp("cfg"), config)
    assert type(read) is type(config) and read == config


# A field's annotation -> how an error names its kind, and JSON values of
# other kinds.
_KIND_NAMES = {"int": "an integer", "float": "a number", "str": "a string",
               "str | None": "a string or null", "tuple[int, int]": "two integers [min, max]"}
_WRONG_KINDS = {
    "int": [1.5, "1", True, None, [1, 2]],
    "float": ["1.5", False, None, {"x": 1}],
    "str": [7, None, ["a"]],
    "str | None": [7, True, ["a"]],
    "tuple[int, int]": [5, "ab", None, [1, 2, 3], [1.0, 2], [True, 2]],
}
_WRONG_FIELDS = [(cls, f.name, f.type, value)
                 for cls in (ScenarioConfig, RunManifest) for f in fields(cls)
                 for value in _WRONG_KINDS[f.type]]


@pytest.mark.parametrize("cls, name, kind, value", _WRONG_FIELDS,
                         ids=[f"{c.__name__}-{n}-{json.dumps(v)}" for c, n, _, v in _WRONG_FIELDS])
def test_a_field_of_the_wrong_kind_is_one_error_line(scenario_dir, tmp_path, capsys,
                                                     cls, name, kind, value):
    path = tmp_path / "config.json"
    if cls is ScenarioConfig:
        path.write_text(json.dumps({name: value}))
        argv = ["generate", "--config", str(path), "--out", str(tmp_path / "o")]
    else:
        path.write_text(json.dumps({**_run_manifest(scenario_dir, tmp_path / "o"), name: value}))
        argv = ["run", "--config", str(path)]
    assert main(argv) == 1
    got = tuple(value) if isinstance(value, list) else value
    assert capsys.readouterr().err == f"error: {name} must be {_KIND_NAMES[kind]}, got {got!r}\n"
    assert not (tmp_path / "o").exists()
