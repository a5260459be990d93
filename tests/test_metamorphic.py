"""Relations of the whole pipeline: transformed inputs whose correct outputs
are known without a second implementation."""

import json
import os

import numpy as np
import pytest

from advent import runner, scenario
from advent.scenario import EventStream, GroundTruth

# One pairing of methods and MND modes that runs every mode once.
METHOD_MODES = list(zip(runner.METHODS, runner.MND_MODES))


def _run(log, method, mnd_mode="fl_aggregate"):
    """Run the pipeline on `log` (its truth.json sidecar, when there is one)
    into a directory beside it named for the method and mode, with the small
    settings every relation here uses; return (report, predictions) as
    bytes."""
    out = log.parent / f"{method}-{mnd_mode}"
    runner.run_pipeline(runner.RunManifest(
        scenario_path=str(log), output_dir=str(out), method=method, mnd_mode=mnd_mode,
        seed=1, rounds=2, epochs=2, trees_per_client=2))
    return tuple((out / name).read_bytes() for name in ("report.json", "predictions.json"))


def _write_renamed(d, small_scenario, rename):
    """Write the small scenario into `d` with every id v renamed `rename[v]`,
    as an annotated log and its truth.json; return the log's path."""
    events, truth = small_scenario
    renamed = EventStream(events.times.copy(), rename[events.senders], rename[events.receivers])
    renamed._sort()
    truth = GroundTruth(attackers={int(rename[v]) for v in truth.attackers},
                        attack_windows=list(truth.attack_windows),
                        presence={int(rename[v]): span for v, span in truth.presence.items()})
    d.mkdir()
    scenario.write_events_csv(d / "events.csv", renamed, truth)
    scenario.write_ground_truth(d / "truth.json", truth)
    return d / "events.csv"


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
        outputs.append([(d / "events.csv").read_bytes(), *_run(d / "events.csv", method)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("bijection", ["reversed", "permuted"])
@pytest.mark.parametrize("mnd_mode", runner.MND_MODES)
def test_renamed_ids_give_the_same_mnd_confusion(tmp_path, small_scenario, record_property,
                                                 bijection, mnd_mode):
    # Each vehicle's reports and votes follow it under any renaming.  The
    # training rows come in vehicle order, which a renaming changes, so the
    # onset confusion may differ; whether it does is recorded, not asserted.
    ids = np.arange(max(small_scenario[1].presence) + 1)
    rename = ids[::-1] if bijection == "reversed" else np.random.default_rng(3).permutation(ids)
    reports = [json.loads(_run(_write_renamed(tmp_path / name, small_scenario, r),
                               "centralized", mnd_mode)[0])
               for name, r in (("same", ids), (bijection, rename))]
    assert reports[1]["mnd_confusion"] == reports[0]["mnd_confusion"]
    record_property("onset_confusion_equal",
                    reports[1]["onset_confusion"] == reports[0]["onset_confusion"])


def _shifted_back(predictions: dict, shift: int) -> dict:
    """`predictions` with `shift` taken off every vehicle id."""
    return dict(
        predictions,
        onset_flags={str(int(v) - shift): s for v, s in predictions["onset_flags"].items()},
        mnd_lists=[[v - shift for v in s] for s in predictions["mnd_lists"]],
        mnd_present=[[v - shift for v in s] for s in predictions["mnd_present"]])


@pytest.mark.parametrize("shift, dtype", [(300, np.uint16), (70_000, np.int64)])
@pytest.mark.parametrize("method, mnd_mode", METHOD_MODES)
def test_shifted_ids_give_the_same_outputs(tmp_path, small_scenario, shift, dtype, method,
                                           mnd_mode):
    # The small scenario's ids fit uint8; shifted by 300 they are read as
    # uint16 and by 70,000 as int64.  A shift keeps the vehicles' order, so
    # every output is the same once the ids are shifted back.
    ids = np.arange(max(small_scenario[1].presence) + 1)
    logs = [_write_renamed(tmp_path / str(k), small_scenario, ids + k) for k in (0, shift)]
    assert [scenario.ingest(log)[0].senders.dtype for log in logs] == [np.uint8, dtype]
    (report, predictions), (shifted_report, shifted_predictions) = [
        [json.loads(out) for out in _run(log, method, mnd_mode)] for log in logs]
    report.pop("scenario")
    shifted_report.pop("scenario")
    assert shifted_report == report
    assert _shifted_back(shifted_predictions, shift) == predictions


@pytest.mark.parametrize("method, mnd_mode", METHOD_MODES)
def test_shuffled_rows_give_identical_outputs(tmp_path, small_scenario_dir, method, mnd_mode):
    # Ingest sorts the rows, so a log's row order is not an input.
    text = (small_scenario_dir / "events.csv").read_text()
    header, *rows = text.splitlines(keepends=True)
    np.random.default_rng(5).shuffle(rows)
    logs = []
    for name, body in (("sorted", text), ("shuffled", header + "".join(rows))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "events.csv").write_text(body)
        (tmp_path / name / "truth.json").write_bytes(
            (small_scenario_dir / "truth.json").read_bytes())
        logs.append(tmp_path / name / "events.csv")
    assert _run(logs[1], method, mnd_mode) == _run(logs[0], method, mnd_mode)


@pytest.mark.parametrize("method, mnd_mode", METHOD_MODES)
def test_crlf_line_ends_give_identical_outputs(tmp_path, small_scenario_dir, method, mnd_mode):
    # Ingest reads "\r\n" as one line end, so a log's line ends are not an
    # input either.
    data = (small_scenario_dir / "events.csv").read_bytes()
    assert b"\r" not in data
    logs = []
    for name, body in (("lf", data), ("crlf", data.replace(b"\n", b"\r\n"))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "events.csv").write_bytes(body)
        (tmp_path / name / "truth.json").write_bytes(
            (small_scenario_dir / "truth.json").read_bytes())
        logs.append(tmp_path / name / "events.csv")
    assert _run(logs[1], method, mnd_mode) == _run(logs[0], method, mnd_mode)


@pytest.mark.parametrize("method, mnd_mode", METHOD_MODES)
def test_annotation_columns_give_identical_outputs(tmp_path, small_scenario, method, mnd_mode):
    # With the same truth.json sidecar, a log's annotation columns only
    # restate its truth: an annotated and a plain log of the same events
    # give identical outputs.
    events, truth = small_scenario
    logs = []
    for name, annotations in (("annotated", truth), ("plain", None)):
        (tmp_path / name).mkdir()
        scenario.write_events_csv(tmp_path / name / "events.csv", events, annotations)
        scenario.write_ground_truth(tmp_path / name / "truth.json", truth)
        logs.append(tmp_path / name / "events.csv")
    assert logs[0].read_text().split("\n", 1)[0].count(",") == 4
    assert logs[1].read_text().split("\n", 1)[0].count(",") == 2
    assert _run(logs[1], method, mnd_mode) == _run(logs[0], method, mnd_mode)


def test_a_truth_rebuilt_from_annotations_differs_in_presence_only(tmp_path, small_scenario,
                                                                   record_property):
    # Without a sidecar, the truth is rebuilt from the annotation columns.
    # Its attackers and windows are the sidecar's, but a rebuilt presence
    # runs from a vehicle's first packet to its last, inside the sidecar's
    # span, so the relation above does not hold for it: the split second and
    # the confusions may move.  Which report fields differ is recorded.
    events, truth = small_scenario
    logs = []
    for name in ("rebuilt", "sidecar"):
        (tmp_path / name).mkdir()
        scenario.write_events_csv(tmp_path / name / "events.csv", events, truth)
        logs.append(tmp_path / name / "events.csv")
    scenario.write_ground_truth(tmp_path / "sidecar" / "truth.json", truth)
    rebuilt = scenario.ingest(logs[0])[1]
    assert rebuilt.attackers == truth.attackers
    assert rebuilt.attack_windows == truth.attack_windows
    assert rebuilt.presence.keys() == truth.presence.keys()
    assert all(truth.presence[v][0] <= enter <= exit_ <= truth.presence[v][1]
               for v, (enter, exit_) in rebuilt.presence.items())
    assert rebuilt.presence != truth.presence
    reports = [json.loads(_run(log, "centralized")[0]) for log in logs]
    record_property("report_fields_that_differ",
                    sorted(k for k in reports[0] if reports[0][k] != reports[1][k]))
