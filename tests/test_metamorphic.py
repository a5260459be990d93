"""Relations of the whole pipeline: transformed inputs whose correct outputs
are known without a second implementation."""

import os

import pytest

from advent import runner, scenario


@pytest.mark.parametrize("method", ["centralized", "federated", "federated_smote"])
def test_part_counts_give_identical_outputs(tmp_path, small_scenario, monkeypatch, method):
    # The writer and ingest each cut their work into one part per core,
    # every part past the first in a forked worker.  With no minimum part
    # size, 1, 2 and 3 parts write the same log and read it back into the
    # same report and predictions.
    monkeypatch.setattr(scenario, "_MIN_WRITE_EVENTS", 1)
    monkeypatch.setattr(scenario, "_MIN_PART_BYTES", 1)
    outputs = []
    for count in (1, 2, 3):
        monkeypatch.setattr(scenario, "_cores", lambda: count)
        d = tmp_path / str(count)
        d.mkdir()
        scenario.write_events_csv(d / "events.csv", *small_scenario)
        start = len((d / "events.csv").read_bytes().split(b"\n", 1)[0]) + 1
        assert len(scenario._parts(d / "events.csv", start)) == count
        runner.run_pipeline(runner.RunManifest(
            scenario_path=str(d / "events.csv"), output_dir=str(d / "run"), method=method,
            seed=1, rounds=2, epochs=2, trees_per_client=2))
        outputs.append([(d / name).read_bytes()
                        for name in ("events.csv", "run/report.json", "run/predictions.json")])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
