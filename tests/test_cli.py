import json

import pytest

from advent import runner, scenario
from advent.cli import main
from advent.preprocess import build_count_series, windowize_arrays
from advent.runner import RunManifest


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
    # Reference: a per-row writer over windowize_arrays, one file per present
    # vehicle with at least one row.  Vehicle 999 is present for no whole
    # second, so it has no rows and gets no file.
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
        for v in sorted(truth.presence):
            secs, x, y = windowize_arrays(build_count_series(events, v), truth, lags)
            if len(secs) == 0:
                continue
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
], ids=["unknown", "str-int", "bool-int", "str-float", "float-int", "int-str",
        "int-path", "missing"])
def test_run_rejects_bad_manifest_fields(scenario_dir, tmp_path, capsys, change, message):
    out = tmp_path / "o"
    manifest = dict(_run_manifest(scenario_dir, out), **change)
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
    assert (out / "timing.json").exists()
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


def test_evaluate_roundtrip(scenario_dir, tmp_path, capsys):
    out = tmp_path / "run_eval"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(_run_manifest(scenario_dir, out)))
    assert main(["run", "--config", str(mpath)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--run-dir", str(out)]) == 0
    recomputed = json.loads(capsys.readouterr().out)
    original = runner.load_report(out / "report.json")
    assert recomputed["onset"] == original["onset"]


def test_evaluate_bad_dir_exit1(tmp_path, capsys):
    assert main(["evaluate", "--run-dir", str(tmp_path)]) == 1
    assert "run directory" in capsys.readouterr().err


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
    assert len(lines) == 3


def test_report_empty_dir_exit1(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert "no report.json" in capsys.readouterr().err


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
    # An int is a valid float; the value is kept as given.
    m = RunManifest(scenario_path="x", output_dir="y", learning_rate=1, target_ratio=5)
    assert m.head_config().learning_rate == 1 and m.target_ratio == 5
