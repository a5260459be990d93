import json
import re

import numpy as np
import pytest

from advent import runner, scenario
from advent.cli import main
from advent.runner import RunManifest

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
        ({"train_fraction": float("nan")}, "train_fraction must be in (0, 1), got nan"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            RunManifest(scenario_path="x", output_dir="y", **change)
    edge = RunManifest(scenario_path="x", output_dir="y", rounds=1, th=1, train_fraction=0.01)
    assert (edge.rounds, edge.th, edge.train_fraction) == (1, 1, 0.01)
    # An int is a valid float; the value is kept as given.
    m = RunManifest(scenario_path="x", output_dir="y", learning_rate=1, target_ratio=5)
    assert m.head_config().learning_rate == 1 and m.target_ratio == 5
