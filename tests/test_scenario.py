import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from advent import _fork as fork
from advent import scenario
from advent.scenario import ConfigError, EventStream, GroundTruth, ParseError, ScenarioConfig

BASE = "time_s,sender,receiver\n"
ANNOT = "time_s,sender,receiver,is_attacker_sender,attack_active\n"
INT64 = np.iinfo(np.int64)


def test_config_invariants_rejected():
    with pytest.raises(ConfigError, match="duration_s"):
        ScenarioConfig(duration_s=0)
    with pytest.raises(ConfigError, match="attacker_fraction"):
        ScenarioConfig(attacker_fraction=1.5)
    with pytest.raises(ConfigError, match="attack_spacing_s"):
        ScenarioConfig(attack_count=7, attack_spacing_s=600, duration_s=3600)
    with pytest.raises(ConfigError, match="flood_rate_pps"):
        ScenarioConfig(normal_rate_pps=5, flood_rate_pps=5)
    with pytest.raises(ConfigError, match="concurrent_range"):
        ScenarioConfig(concurrent_range=(10, 5))


def test_generate_rejects_bad_config():
    with pytest.raises(ConfigError):
        scenario.generate(ScenarioConfig(attacker_fraction=-0.1))


def test_no_attackers(small_config):
    cfg = ScenarioConfig(**{**small_config.__dict__, "attacker_fraction": 0.0})
    events, truth = scenario.generate(cfg)
    assert truth.attackers == set()
    assert len(events) > 0


def test_table2_default_attack_windows():
    cfg = ScenarioConfig()  # 3600 s, 6 attacks, 25 s, spaced 600 s
    _, truth = scenario.generate(
        ScenarioConfig(**{**cfg.__dict__, "total_vehicles": 4, "arrival_interval_s": 900.0,
                          "normal_rate_pps": 0.5, "flood_rate_pps": 5.0})
    )
    expected = [(600, 625), (1200, 1225), (1800, 1825), (2400, 2425),
                (3000, 3025), (3600, 3600)]
    assert truth.attack_windows == [(float(s), float(e)) for s, e in expected]


def test_generate_deterministic(small_config):
    ev1, tr1 = scenario.generate(small_config)
    ev2, tr2 = scenario.generate(small_config)
    assert np.array_equal(ev1.times, ev2.times)
    assert np.array_equal(ev1.senders, ev2.senders)
    assert np.array_equal(ev1.receivers, ev2.receivers)
    assert tr1.attackers == tr2.attackers
    assert tr1.presence == tr2.presence


def test_events_respect_presence(small_scenario):
    events, truth = small_scenario
    for arr in (events.senders, events.receivers):
        for v in np.unique(arr):
            a, b = truth.presence[int(v)]
            ts = events.times[arr == v]
            assert ts.min() >= a
            assert ts.max() <= b


def test_events_sorted_and_no_self_send(small_scenario):
    events, _ = small_scenario
    assert np.all(np.diff(events.times) >= 0)
    assert not np.any(events.senders == events.receivers)


def test_flood_volume_at_least_90pct_of_rate(small_scenario):
    # Complete neighbor graph (degree >= vehicles), so each present attacker
    # floods present-1 receivers; expected volume is integrable from presence.
    events, truth = small_scenario
    actual = 0
    for ws, we in truth.attack_windows:
        mask = (events.times >= ws) & (events.times < we) & np.isin(
            events.senders, sorted(truth.attackers))
        actual += int(mask.sum())
    expected = 0.0
    cuts = sorted({t for iv in truth.presence.values() for t in iv}
                  | {t for w in truth.attack_windows for t in w})
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if not any(ws <= t0 and t1 <= we for ws, we in truth.attack_windows):
            continue
        present = [v for v, (a, b) in truth.presence.items() if a <= t0 < b]
        n_att = sum(1 for v in present if v in truth.attackers)
        if len(present) >= 2:
            expected += 20.0 * (t1 - t0) * n_att * (len(present) - 1)
    assert actual >= 0.9 * expected


def test_csv_roundtrip_annotated(tmp_path, small_scenario):
    events, truth = small_scenario
    path = tmp_path / "events.csv"
    scenario.write_events_csv(path, events, truth)
    back, truth2 = scenario.ingest(path)
    assert len(back) == len(events)
    assert np.allclose(back.times, events.times)
    assert truth2 is not None
    assert truth2.attackers == truth.attackers
    # Windows reconstructed at second granularity from the active flag.
    assert len(truth2.attack_windows) == len([w for w in truth.attack_windows if w[1] > w[0]])


def test_annotated_ingest_leaves_numpy_ma_unimported(small_scenario_dir):
    # A plain np.unique imports numpy.ma, over a megabyte of resident memory
    # that every run on an annotated log would carry.
    code = ("import sys\n"
            "from advent import scenario\n"
            f"events, truth = scenario.ingest({str(small_scenario_dir / 'events.csv')!r})\n"
            "assert truth.attackers and truth.attack_windows\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scenario.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"


def test_csv_deterministic_bytes(tmp_path, small_scenario):
    events, truth = small_scenario
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    scenario.write_events_csv(p1, events, truth)
    scenario.write_events_csv(p2, events, truth)
    assert p1.read_bytes() == p2.read_bytes()


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    events, truth = scenario.ingest(path)
    assert len(events) == 0
    assert truth is None


def test_ingest_three_rows_sorted(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("time_s,sender,receiver\n5.0,1,2\n1.5,2,3\n3.0,3,1\n")
    events, truth = scenario.ingest(path)
    assert truth is None
    assert events.times.tolist() == [1.5, 3.0, 5.0]
    assert events.senders.tolist() == [2, 3, 1]


@pytest.mark.parametrize("text, line", [
    (BASE + "1.0,1,2\n2.0,3,3\n", 3),
    (BASE + "not_a_number,1,2\n", 2),
    (BASE + "1.0,1,2\n\n2.0,3\n", 4),
    (BASE + "1.0,3.0,2\n", 2),
    (BASE + "1.0,1,2\n#2.0,1,2\n", 3),
    (BASE + "".join(f"{i}.5,1,2\n" for i in range(5000)) + "-1.0,1,2\n", 5002),
    (BASE + "nan,1,2\n", 2),
    (BASE + "1_0.0,1,2\n", 2),
    (BASE + "1.0,1_0,2\n", 2),
    (BASE + "1.0,1,2\n  \n", 3),
    (ANNOT + "1.0,1,2,0,0\n2.0,1,2,2,0\n", 3),
    (ANNOT + "1.0,1,2,0,-1\n", 2),
], ids=["self_send", "malformed", "short_after_blank", "float_sender", "hash_line",
        "negative_time_deep", "nan_time", "underscore_time", "underscore_id",
        "whitespace_line", "attacker_flag_2", "active_flag_minus_1"])
def test_ingest_rejects_bad_line(tmp_path, text, line):
    path = tmp_path / "log.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^line {line}: "):
        scenario.ingest(path)


@pytest.mark.parametrize("text, times, senders, receivers", [
    (BASE + "2.0,-5,2\n1.0,3,-1\n", [1.0, 2.0], [3, -5], [-1, 2]),
    (ANNOT + "1.0,70000,2,1,0\n1.0,4,70000,0,0\n", [1.0, 1.0], [4, 70000], [70000, 2]),
    (BASE + "1.0,65536,0\n", [1.0], [65536], [0]),
    (BASE + "1.0,-9223372036854775808,9223372036854775807\n", [1.0], [INT64.min], [INT64.max]),
], ids=["negative", "past_uint16", "uint16_max_plus_1", "int64_extremes"])
def test_ingest_keeps_wide_ids_in_int64(tmp_path, text, times, senders, receivers):
    # Ids that no uint16 holds are parsed again as int64 and kept so.
    path = tmp_path / "log.csv"
    path.write_text(text)
    events, _ = scenario.ingest(path)
    assert events.senders.dtype == events.receivers.dtype == np.int64
    assert events.times.tolist() == times
    assert events.senders.tolist() == senders
    assert events.receivers.tolist() == receivers


@pytest.mark.parametrize("first", ["1.0,5,2", "1.0,-5,2", "1.0,70000,2"],
                         ids=["narrow", "negative", "past_uint16"])
@pytest.mark.parametrize("bad, line, why", [
    ("3.0,4,x", 3, "could not convert string 'x' to int64"),
    ("3.0,1,1.5", 3, "could not convert string '1.5' to int64"),
    ("3.0,99999999999999999999,1", 3,
     "could not convert string '99999999999999999999' to int64"),
    ("\n3.0,7,7", 4, "receiver must differ from sender, got 7"),
    ("3.0,1,2,3", 3, "the dtype passed requires 3 columns but 4 were found"),
    ("-3.0,1,2", 3, "time_s must be finite and >= 0, got -3.0"),
], ids=["not_a_number", "float_id", "past_int64", "self_send_after_blank", "extra_field",
        "negative_time"])
def test_ingest_names_a_bad_line_at_any_id_width(tmp_path, first, bad, line, why):
    # The message a bad row gets does not depend on the width of the ids.
    path = tmp_path / "log.csv"
    path.write_text(BASE + f"{first}\n{bad}\n")
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(why)}$"):
        scenario.ingest(path)
    path.write_text(ANNOT + f"{first},0,0\n{bad},0,2\n")
    with pytest.raises(ParseError, match=f"^line {line}: "):
        scenario.ingest(path)


_ID = (st.sampled_from([0, 255, 256, 65535, 65536, -1, INT64.min, INT64.max])
       | st.integers(0, 300) | st.integers(0, 70000) | st.integers(INT64.min, INT64.max))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(_ID, _ID).filter(lambda p: p[0] != p[1]), max_size=12),
       annotated=st.booleans())
def test_csv_roundtrip_keeps_ids_in_the_narrowest_dtype(tmp_path, pairs, annotated):
    s = np.array([p[0] for p in pairs], dtype=np.int64)
    r = np.array([p[1] for p in pairs], dtype=np.int64)
    stream = EventStream(np.arange(len(pairs), dtype=np.float64), s, r)
    path = tmp_path / "log.csv"
    scenario.write_events_csv(path, stream, GroundTruth() if annotated else None)
    events, _ = scenario.ingest(path)
    ids = s.tolist() + r.tolist()
    want = next((d for d in (np.uint8, np.uint16)
                 if all(0 <= v <= np.iinfo(d).max for v in ids)), np.int64)
    for got in (stream, events):
        assert got.senders.dtype == got.receivers.dtype == want
        assert got.senders.tolist() == s.tolist()
        assert got.receivers.tolist() == r.tolist()


@pytest.mark.parametrize("header", [BASE, ANNOT, BASE + "\n\n"])
def test_ingest_header_only(tmp_path, header):
    path = tmp_path / "log.csv"
    path.write_text(header)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events, truth = scenario.ingest(path)
    assert len(events) == 0
    if header == ANNOT:
        assert truth == GroundTruth()
    else:
        assert truth is None


# A log annotated from _TRUTH: the row at 4.0, exactly at the window's end,
# is not in the window.
_TRUTH = GroundTruth(attackers={1}, attack_windows=[(2.0, 4.0)])
_AGREEING = ["1.0,1,2,1,0", "2.0,3,1,0,1", "3.5,1,3,1,1", "4.0,2,1,0,0", "5.0,1,2,1,0"]


def _flip(row, field):
    cells = row.split(",")
    cells[field] = str(1 - int(cells[field]))
    return ",".join(cells)


@pytest.mark.parametrize("blanks", [0, 3])
@pytest.mark.parametrize("field, name, got", [
    (3, "is_attacker_sender", "must match the ground truth's attackers"),
    (4, "attack_active", "must match the ground truth's attack windows"),
], ids=["attacker", "active"])
@pytest.mark.parametrize("index", range(len(_AGREEING)))
def test_ingest_rejects_flags_that_disagree_with_the_truth(tmp_path, index, field, name, got,
                                                           blanks):
    # Blank lines before the flipped row still count in its line number.
    lines = list(_AGREEING)
    lines[index] = _flip(lines[index], field)
    lines[index:index] = [""] * blanks
    path = tmp_path / "log.csv"
    path.write_text(ANNOT + "\n".join(lines) + "\n")
    flag = lines[index + blanks].split(",")[field]
    with pytest.raises(ParseError, match=f"^line {2 + index + blanks}: {name} {got}, got {flag}$"):
        scenario.ingest(path, _TRUTH)


def test_ingest_checks_flags_against_the_truth(tmp_path, small_scenario, monkeypatch):
    path = tmp_path / "log.csv"
    path.write_text(ANNOT + "\n".join(_AGREEING) + "\n")
    events, truth = scenario.ingest(path, _TRUTH)
    # The given truth is returned as it is; presence is not compared.
    assert truth is _TRUTH and truth.presence == {}
    assert events.times.tolist() == [1.0, 2.0, 3.5, 4.0, 5.0]
    # A truth attacker that never sends a packet agrees with every row.
    silent = GroundTruth(attackers={1, 9}, attack_windows=_TRUTH.attack_windows)
    assert scenario.ingest(path, silent)[1] is silent
    # The value rules come first: self-sends inside the window whose
    # attacker or active flag disagrees.
    for row in ("2.0,3,3,0,0", "2.0,1,1,0,1"):
        path.write_text(ANNOT + f"1.0,1,2,1,0\n{row}\n")
        with pytest.raises(ParseError, match="^line 3: receiver must differ from sender, got "):
            scenario.ingest(path, _TRUTH)
    # A plain log is not checked against a truth.
    path.write_text(BASE + "2.5,7,8\n")
    assert scenario.ingest(path, _TRUTH)[1] is _TRUTH
    # Rows checked 7 at a time: a disagreement deep in the log is found.
    events, truth = small_scenario
    scenario.write_events_csv(path, events, truth)
    monkeypatch.setattr(scenario, "_CHECK_ROWS", 7)
    assert len(scenario.ingest(path, truth)[0]) == len(events)
    lines = path.read_text().splitlines(keepends=True)
    deep = next(i for i in range(len(lines) // 2, len(lines)) if lines[i].endswith(",1\n"))
    lines[deep] = lines[deep][:-2] + "0\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"^line {deep + 1}: attack_active must match "):
        scenario.ingest(path, truth)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("given, shift, count", [
    pytest.param(given, shift, count, id=name + suffix)
    for count, suffix in [(scenario._cores(), ""), (1, "-one_part")]
    for name, given, shift in [("truth", True, 0), ("annotations", False, 0),
                               ("truth-uint16", True, 1000), ("annotations-uint16", False, 1000)]])
def test_ingest_peaks_at_the_parse(tmp_path, monkeypatch, given, shift, count):
    # The parsed rows (14 B: a float64 time, two uint16 ids and two int8
    # flags) and their column copies (the time and two ids of the stream's
    # width) are alive together for a moment; nothing after the parse may
    # need more.  Rebuilding a truth also copies the two flag columns out
    # before the rows go.  Sorting the same log shuffled adds nothing to the
    # peak.  Ids shifted by 1000 are held as uint16.  The log is parsed in
    # one part per core, and in one part.
    monkeypatch.setattr(scenario, "_cores", lambda: count)
    events, truth = scenario.generate(ScenarioConfig(
        duration_s=140, concurrent_range=(12, 12), attack_count=2, attack_spacing_s=60,
        attack_duration_s=15, rng_seed=3))
    assert len(events) > 90_000
    senders = events.senders.astype(np.int64) + shift
    receivers = events.receivers.astype(np.int64) + shift
    truth = GroundTruth(attackers={v + shift for v in truth.attackers},
                        attack_windows=truth.attack_windows)
    width = np.dtype(np.uint16 if shift else np.uint8)
    rows = len(events) * 14
    copies = len(events) * (8 + 2 * width.itemsize + (0 if given else 2))
    peaks = []
    for order in (slice(None), np.random.default_rng(5).permutation(len(events))):
        path = tmp_path / "events.csv"
        scenario.write_events_csv(path, EventStream(events.times[order], senders[order],
                                                    receivers[order]), truth)
        (got, got_truth), peak = _traced_peak(scenario.ingest, path, truth if given else None)
        peaks.append(peak)
        assert got.senders.dtype == got.receivers.dtype == width
        assert peak <= 1.1 * (rows + copies)
        assert got.times.tobytes() == events.times.tobytes()
        assert got.senders.tolist() == senders.tolist()
        assert got.receivers.tolist() == receivers.tolist()
        assert got_truth is truth if given else got_truth.attackers <= truth.attackers
    assert peaks[1] <= 1.01 * peaks[0]


@pytest.fixture
def cores(monkeypatch):
    """Set how many cores ingest sees, with no minimum part size, so that
    even a small log is cut into one part per core."""
    monkeypatch.setattr(scenario, "_MIN_PART_BYTES", 1)

    def use(count):
        monkeypatch.setattr(scenario, "_cores", lambda: count)
    return use


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _body_start(path):
    return len(Path(path).read_bytes().split(b"\n", 1)[0]) + 1


def _ingest_or_error(path, truth=None):
    """What ingest gives: the events' arrays and the truth, or the error."""
    try:
        events, got = scenario.ingest(path, truth)
    except ValueError as exc:
        result = (type(exc), str(exc))
    else:
        result = (events.times.tobytes(), events.senders.dtype, events.senders.tobytes(),
                  events.receivers.tobytes(), got)
    _no_child_left()
    return result


def test_part_count_is_capped_by_the_cores_and_the_part_size(tmp_path, monkeypatch):
    mb = scenario._MIN_PART_BYTES
    assert scenario._part_count(10 ** 12, 64) == 64
    assert scenario._part_count(5 * mb + mb // 2, 64) == 5
    assert scenario._part_count(mb - 1, 64) == 1
    assert scenario._part_count(0, 64) == 1
    assert scenario._part_count(10 ** 12, 1) == 1
    # Planning parts at 64 cores starts no process.
    monkeypatch.setattr(os, "fork", None)
    monkeypatch.setattr(scenario, "_cores", lambda: 64)
    monkeypatch.setattr(scenario, "_MIN_PART_BYTES", 100)
    path = tmp_path / "log.csv"
    path.write_text(BASE + "".join(f"{i}.25,1,2\n" for i in range(1000)))
    parts = scenario._parts(path, len(BASE))
    assert len(parts) == 64
    assert parts[0][0] == 1 and parts[-1][1] is None
    assert sum(rows for _, rows in parts[:-1]) == parts[-1][0] - 1
    assert all(a + rows == b for (a, rows), (b, _) in zip(parts, parts[1:]))


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize("kind", ["plain", "annotated", "given"])
@pytest.mark.parametrize("shift", [0, 1000], ids=["uint8", "uint16"])
def test_parts_give_the_one_part_events_and_truth(tmp_path, small_scenario, cores, count,
                                                  shuffled, kind, shift):
    events, truth = small_scenario
    order = (np.random.default_rng(2).permutation(len(events)) if shuffled
             else slice(None))
    truth = GroundTruth(attackers={v + shift for v in truth.attackers},
                        attack_windows=truth.attack_windows)
    stream = EventStream(events.times[order], events.senders[order].astype(np.int64) + shift,
                         events.receivers[order].astype(np.int64) + shift)
    path = tmp_path / "events.csv"
    scenario.write_events_csv(path, stream, None if kind == "plain" else truth)
    given = truth if kind == "given" else None
    cores(1)
    want = _ingest_or_error(path, given)
    cores(count)
    assert len(scenario._parts(path, _body_start(path))) == count
    assert _ingest_or_error(path, given) == want
    assert want[1] == (np.uint16 if shift else np.uint8)


def _record_parses(monkeypatch):
    """A list that gets the id dtype and the part count of each
    `_parse_parts` call."""
    calls = []
    parse_parts = scenario._parse_parts

    def record(path, dtype, parts, *args):
        calls.append((dtype["sender"], len(parts)))
        return parse_parts(path, dtype, parts, *args)
    monkeypatch.setattr(scenario, "_parse_parts", record)
    return calls


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize("kind", ["plain", "annotated", "given"])
@pytest.mark.parametrize("shift", [70000, -1000], ids=["past_uint16", "negative"])
def test_parts_give_the_one_part_events_and_truth_at_wide_ids(tmp_path, small_scenario, cores,
                                                              monkeypatch, count, shuffled, kind,
                                                              shift):
    # A uint16 parse is rejected, and the int64 parse runs in the same parts.
    events, truth = small_scenario
    order = (np.random.default_rng(2).permutation(len(events)) if shuffled
             else slice(None))
    truth = GroundTruth(attackers={v + shift for v in truth.attackers},
                        attack_windows=truth.attack_windows)
    stream = EventStream(events.times[order], events.senders[order].astype(np.int64) + shift,
                         events.receivers[order].astype(np.int64) + shift)
    path = tmp_path / "events.csv"
    scenario.write_events_csv(path, stream, None if kind == "plain" else truth)
    given = truth if kind == "given" else None
    calls = _record_parses(monkeypatch)
    cores(1)
    want = _ingest_or_error(path, given)
    assert calls == [(np.uint16, 1), (np.int64, 1)]
    cores(count)
    calls.clear()
    assert _ingest_or_error(path, given) == want
    assert calls == [(np.uint16, count), (np.int64, count)]
    assert want[1] == np.int64


def _fixed_width_log(lines=24):
    """A log whose rows all have one length, so that a row replaced by
    another of that length leaves every cut where it was."""
    return [f"{i}.5,{1 + i % 3},{4 + i % 2}".ljust(12) for i in range(lines)]


@pytest.mark.parametrize("bad", [
    "x.5,1,2", "3.5,1,2,0", "-3.5,1,2", "3.5,7,7", "3.5,70000,2", "3.5,2,-1", "3.5, 1, 2",
], ids=["not_a_number", "extra_field", "negative_time", "self_send", "past_uint16",
        "negative_id", "padded"])
def test_a_row_at_any_part_edge_gives_the_one_part_result(tmp_path, cores, bad):
    path = tmp_path / "log.csv"
    rows = _fixed_width_log()
    path.write_text(BASE + "\n".join(rows) + "\n")
    cores(3)
    parts = scenario._parts(path, len(BASE))
    assert len(parts) == 3
    # The first and last row of every part: the rows on both sides of a cut.
    edges = {skip + 1 for skip, _ in parts} | {skip for skip, _ in parts[1:]} | {len(rows) + 1}
    for line in sorted(edges):
        changed = list(rows)
        changed[line - 2] = bad.ljust(12)
        path.write_text(BASE + "\n".join(changed) + "\n")
        assert scenario._parts(path, len(BASE)) == parts
        cores(1)
        want = _ingest_or_error(path)
        cores(3)
        assert _ingest_or_error(path) == want
        if want[0] is ParseError:
            assert want[1].startswith(f"line {line}: ")


@pytest.mark.parametrize("bad", [
    "x.5,70001,-4", "3.5,70001,-4,0", "-3.5,70001,-4", "3.5,-7,-7", "3.5,1.5,-4",
    "3.5,99999999999999999999,-4",
], ids=["not_a_number", "extra_field", "negative_time", "self_send", "float_id", "past_int64"])
def test_a_row_at_any_part_edge_of_a_wide_id_log_gives_the_one_part_error(tmp_path, cores,
                                                                          monkeypatch, bad):
    path = tmp_path / "log.csv"
    rows = [f"{i}.5,{70001 + i % 3},{-4 - i % 2}".ljust(32) for i in range(24)]
    path.write_text(BASE + "\n".join(rows) + "\n")
    cores(3)
    parts = scenario._parts(path, len(BASE))
    assert len(parts) == 3
    assert _ingest_or_error(path)[1] == np.int64
    calls = _record_parses(monkeypatch)
    edges = {skip + 1 for skip, _ in parts} | {skip for skip, _ in parts[1:]} | {len(rows) + 1}
    for line in sorted(edges):
        changed = list(rows)
        changed[line - 2] = bad.ljust(32)
        path.write_text(BASE + "\n".join(changed) + "\n")
        assert scenario._parts(path, len(BASE)) == parts
        cores(1)
        want = _ingest_or_error(path)
        cores(3)
        calls.clear()
        assert _ingest_or_error(path) == want
        assert calls == [(np.uint16, 3), (np.int64, 3)]
        assert want[0] is ParseError and want[1].startswith(f"line {line}: ")


@pytest.mark.parametrize("index", [0, 11, 23])
def test_a_flag_that_disagrees_with_the_truth_in_any_part_is_named(tmp_path, cores, index):
    path = tmp_path / "log.csv"
    truth = GroundTruth(attackers={1}, attack_windows=[(5.0, 15.0)])
    rows = [f"{i}.5,{1 + i % 3},{4 + i % 2},{int(i % 3 == 0)},{int(5 <= i < 15)}"
            for i in range(24)]
    rows[index] = _flip(rows[index], 3)
    path.write_text(ANNOT + "\n".join(rows) + "\n")
    cores(3)
    with pytest.raises(ParseError, match=f"^line {index + 2}: is_attacker_sender must match "):
        scenario.ingest(path, truth)
    _no_child_left()


@pytest.mark.parametrize("text, cut", [
    (BASE + "\n".join(_fixed_width_log()) + "\n", True),
    (BASE + "\n".join(_fixed_width_log()), True),
    (BASE + "\n".join(_fixed_width_log()) + "\n\n\n", True),
    (BASE + "\n" + "\n".join(_fixed_width_log()) + "\n", False),
    (BASE + "\n".join(_fixed_width_log()[:5] + [""] + _fixed_width_log()[5:]) + "\n", False),
    ((BASE + "\n".join(_fixed_width_log())).replace("\n", "\r\n") + "\r\n", False),
    (BASE + "\r".join(_fixed_width_log()) + "\r", False),
], ids=["plain", "no_final_newline", "empty_lines_after_the_last_cut", "empty_first_row",
        "empty_row", "crlf", "cr"])
def test_line_ends_give_the_one_part_result(tmp_path, cores, text, cut):
    # np.loadtxt counts neither empty lines in max_rows nor a \r as a byte of
    # a row: such a body before the last cut is one part.
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    cores(1)
    want = _ingest_or_error(path)
    cores(3)
    assert (len(scenario._parts(path, len(BASE))) == 3) == cut
    assert _ingest_or_error(path) == want
    assert len(want[0]) == 24 * 8


@pytest.mark.parametrize("ending", ["signal", "exit"])
def test_a_worker_that_ends_without_its_part_raises(tmp_path, small_scenario_dir, cores,
                                                    monkeypatch, ending):
    parent = os.getpid()
    part = scenario._part

    def end_in_worker(*args):
        if os.getpid() != parent:
            if ending == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return part(*args)

    monkeypatch.setattr(scenario, "_part", end_in_worker)
    cores(2)
    status = -signal.SIGKILL if ending == "signal" else 3
    with pytest.raises(ChildProcessError, match=f"exit status {status} "):
        scenario.ingest(small_scenario_dir / "events.csv")
    _no_child_left()


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("text, line", [
    (BASE + "1.0,1,2\n\xff\xfe,3,4\n", 3),
    (BASE + "".join(f"{i}.5,1,2\n" for i in range(3000)) + "7.5,1,2\xe9\n", 3002),
    (BASE + "1.0,1,2\nx\n\xff,3,4\n", 3),
    ("time_s,sender,\xffreceiver\n1.0,1,2\n", 1),
], ids=["line_3", "deep", "bad_row_first", "header"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, cores, count, text, line):
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode("latin-1"))
    cores(count)
    with pytest.raises(ParseError, match=f"^line {line}: "):
        scenario.ingest(path)
    _no_child_left()


def test_a_byte_that_is_not_utf8_gets_the_codec_message(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(b"time_s,sender,receiver\n1.0,1,2\n\xff\xfe,3,4\n")
    with pytest.raises(ParseError) as err:
        scenario.ingest(path)
    assert str(err.value) == (
        "line 3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")


_TIME = st.sampled_from([0.0, -0.0, 1.5, 2.0]) | st.floats(0.0, 1e6)


@settings(max_examples=150, deadline=None)
@given(events=st.lists(st.tuples(_TIME, st.integers(0, 300), st.integers(0, 300)), max_size=50),
       base=st.sampled_from([0, 1000, -7, 1 << 40]), block=st.sampled_from([1, 3, 1 << 14]))
def test_presence_matches_a_per_event_loop(events, base, block):
    t = np.array([e[0] for e in events], dtype=np.float64)
    stream = EventStream(t, [base + e[1] for e in events], [base + e[2] for e in events])
    want = {}
    for ti, s, r in zip(t.tolist(), stream.senders.tolist(), stream.receivers.tolist()):
        for v in (s, r):
            a, b = want.get(v, (ti, ti))
            want[v] = (min(a, ti), max(b, ti))
    saved = scenario._CHECK_ROWS
    scenario._CHECK_ROWS = block
    try:
        got = scenario._presence(stream.times, stream.senders, stream.receivers)
    finally:
        scenario._CHECK_ROWS = saved
    assert got == want
    assert list(got) == sorted(want)


@pytest.mark.parametrize("ids", [(1 << 40) + np.arange(60), np.arange(60) << 40],
                         ids=["small-span", "sparse"])
def test_presence_of_int64_ids_holds_no_event_sized_array(ids):
    # 2^18 events among 60 int64 ids, one test over a span of 60 values
    # and one over 60 ids 2^40 apart.  Folded a block at a time, the traced
    # peak stays under 1 MB, however many events there are; codes of the
    # 2^19 ids taken together would be 8 MB and more.
    rng = np.random.default_rng(3)
    n = 1 << 18
    t = np.sort(rng.random(n) * 900.0)
    s, r = ids[rng.integers(0, 60, n)], ids[rng.integers(0, 60, n)]
    got, peak = _traced_peak(scenario._presence, t, s, r)
    assert peak < 1 << 20
    present = [v for v in ids.tolist() if (s == v).any() or (r == v).any()]
    assert list(got) == present
    for v in present:
        times = t[(s == v) | (r == v)]
        assert got[v] == (times.min(), times.max())


def _reference_csv(stream, truth):
    """Per-line writer: the specification of write_events_csv's bytes."""
    lines = [BASE if truth is None else ANNOT]
    for t, s, r in zip(stream.times.tolist(), stream.senders.tolist(),
                       stream.receivers.tolist()):
        if truth is None:
            lines.append(f"{t!r},{s},{r}\n")
        else:
            ia = 1 if s in truth.attackers else 0
            aa = 1 if any(ws <= t < we for ws, we in truth.attack_windows) else 0
            lines.append(f"{t!r},{s},{r},{ia},{aa}\n")
    return "".join(lines).encode("utf-8")


def test_csv_bytes_match_reference_writer(tmp_path, small_scenario, monkeypatch):
    # Events exactly on both edges of a window, and just inside and outside.
    edges = EventStream([0.1, 9.999999999999998, 10.0, 12.25, 20.0, 20.5],
                        [1, 2, 1, 3, 1, 2], [2, 1, 3, 1, 2, 3])
    edge_truth = GroundTruth(attackers={1}, attack_windows=[(10.0, 20.0), (30.0, 30.0)])
    events, truth = small_scenario
    big = np.iinfo(np.int64)
    cases = [(edges, edge_truth), small_scenario, (edges, None), (events, None),
             (events, GroundTruth()), (EventStream([], [], []), edge_truth),
             (EventStream([], [], []), None), (EventStream([15.5], [-7], [1 << 40]), edge_truth),
             (EventStream([15.5], [-7], [1 << 40]), None)]
    # Ids shifted negative, past 2^32, or spread over all of int64: the ids'
    # range is then short (a table) or far longer than the log (a sort).
    senders, receivers = events.senders.astype(np.int64), events.receivers.astype(np.int64)
    for base, spread in [(-50, 1), (1 << 40, 1), (-(1 << 35), 1 << 30), (0, big.max // 16)]:
        shifted = EventStream(events.times, base + senders * spread, base + receivers * spread)
        attackers = {base + v * spread for v in truth.attackers}
        cases += [(shifted, GroundTruth(attackers=attackers,
                                        attack_windows=truth.attack_windows)),
                  (shifted, None)]
    extremes = EventStream([0.5, 1.0, 1.5], [big.min, big.max, 0], [big.max, big.min, big.min])
    cases += [(extremes, GroundTruth(attackers={big.min}, attack_windows=[(1.0, 2.0)])),
              (extremes, None)]
    # Written in blocks of 7 lines, with a partial last block.
    sevens = [small_scenario, (edges, None), (EventStream([15.5], [-7], [3]), None)]
    path = tmp_path / "events.csv"
    # In 1, 2 and 3 parts, with no minimum part size and each worker's bytes
    # copied 64 at a time; a log of fewer events than cores has one part
    # per event, and an empty log one empty part.
    monkeypatch.setattr(scenario, "_MIN_WRITE_EVENTS", 1)
    monkeypatch.setattr(scenario, "_COPY_BYTES", 64)
    for count in (1, 2, 3):
        monkeypatch.setattr(scenario, "_cores", lambda: count)
        for lines, group in [(1 << 16, cases), (7, sevens)]:
            monkeypatch.setattr(scenario, "_WRITE_LINES", lines)
            for stream, truth in group:
                parts = scenario._write_parts(len(stream), count)
                assert len(parts) == max(1, min(count, len(stream)))
                scenario.write_events_csv(path, stream, truth)
                assert path.read_bytes() == _reference_csv(stream, truth)
                _no_child_left()
    scenario.write_events_csv(path, edges, edge_truth)
    assert path.read_text().splitlines()[1:] == [
        "0.1,1,2,1,0", "9.999999999999998,2,1,0,0", "10.0,1,3,1,1",
        "12.25,3,1,0,1", "20.0,1,2,1,0", "20.5,2,3,0,0"]


def test_write_parts_are_capped_by_the_cores_and_the_part_size(monkeypatch):
    # Planning the parts of a log at 64 cores starts no process.
    monkeypatch.setattr(os, "fork", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert fork.cores() == 64
    least = scenario._MIN_WRITE_EVENTS
    assert scenario._write_parts(least - 1, 64) == [(0, least - 1)]
    assert len(scenario._write_parts(5 * least + least // 2, 64)) == 5
    assert scenario._write_parts(10 ** 9, 1) == [(0, 10 ** 9)]
    parts = scenario._write_parts(64 * least + 7, fork.cores())
    assert len(parts) == 64
    assert parts[0][0] == 0 and parts[-1][1] == 64 * least + 7
    assert all(stop == start for (_, stop), (start, _) in zip(parts, parts[1:]))
    assert {stop - start for start, stop in parts} <= {least, least + 1}
    monkeypatch.delattr(os, "fork")
    assert fork.cores() == 1


@pytest.mark.parametrize("ending", ["signal", "exit", "raise"])
def test_a_write_worker_that_ends_without_its_part_raises(tmp_path, small_scenario,
                                                          monkeypatch, ending):
    parent = os.getpid()
    lines = scenario._lines

    def end_in_worker(*args):
        if os.getpid() != parent:
            if ending == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            if ending == "raise":
                raise RuntimeError("a failing write worker")
            os._exit(3)
        return lines(*args)

    monkeypatch.setattr(scenario, "_lines", end_in_worker)
    monkeypatch.setattr(scenario, "_MIN_WRITE_EVENTS", 1)
    monkeypatch.setattr(scenario, "_cores", lambda: 3)
    status = {"signal": -signal.SIGKILL, "exit": 3, "raise": 1}[ending]
    with pytest.raises(ChildProcessError, match=f"exit status {status} "):
        scenario.write_events_csv(tmp_path / "events.csv", *small_scenario)
    _no_child_left()


_ROWS = st.lists(
    st.tuples(
        # Few distinct times, so rows often tie on time and then on sender.
        st.sampled_from([0.0, 0.5, 1.0, 2.999999999999999, 3.0, 7.25]) | st.floats(0.0, 50.0),
        st.integers(0, 4),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_ROWS, base=st.sampled_from([0, -3, 1 << 40]))
def test_ingest_roundtrip_property(tmp_path, rows, base):
    t = np.array([row[0] for row in rows], dtype=np.float64)
    s = np.array([base + row[1] for row in rows], dtype=np.int64)
    r = np.array([base + (row[1] + row[2]) % 5 for row in rows], dtype=np.int64)
    path = tmp_path / "log.csv"
    path.write_text(ANNOT + "".join(
        f"{ti!r},{si},{ri},{int(row[3])},{int(row[4])}\n"
        for ti, si, ri, row in zip(t.tolist(), s.tolist(), r.tolist(), rows)))

    events, truth = scenario.ingest(path)

    order = np.lexsort((r, s, t))
    assert events.times.view(np.uint64).tolist() == t[order].view(np.uint64).tolist()
    assert events.senders.tolist() == s[order].tolist()
    assert events.receivers.tolist() == r[order].tolist()

    presence = {}
    for ti, si, ri in zip(t.tolist(), s.tolist(), r.tolist()):
        for v in (si, ri):
            a, b = presence.get(v, (ti, ti))
            presence[v] = (min(a, ti), max(b, ti))
    windows = []
    for sec in sorted({math.floor(ti) for ti, row in zip(t.tolist(), rows) if row[4]}):
        if windows and windows[-1][1] == sec:
            windows[-1] = (windows[-1][0], sec + 1.0)
        else:
            windows.append((float(sec), sec + 1.0))
    assert truth.attackers == {si for si, row in zip(s.tolist(), rows) if row[3]}
    assert truth.attack_windows == windows
    assert truth.presence == presence
    assert list(truth.presence) == sorted(presence)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1.5, 2.0]), st.integers(-2, 2),
                               st.integers(-2, 2)), max_size=60),
       base=st.sampled_from([0, -3, 1 << 40]))
@example(rows=[(-0.0, 0, 0)] * 6 + [(1.5, 0, 0)] * 2 + [(-0.0, 1, 2), (0.0, 1, 2)], base=0)
def test_sorted_matches_lexsort_property(rows, base):
    # Three distinct times, as -0.0 ties with 0.0 and must keep its place,
    # so most rows tie on time and many also on sender and receiver.
    t = np.array([row[0] for row in rows], dtype=np.float64)
    s = np.array([base + row[1] for row in rows], dtype=np.int64)
    r = np.array([base + row[2] for row in rows], dtype=np.int64)
    events = EventStream(t, s, r).sorted()
    order = np.lexsort((r, s, t))
    assert events.times.tobytes() == t[order].tobytes()
    assert events.senders.tolist() == s[order].tolist()
    assert events.receivers.tolist() == r[order].tolist()


def test_between_matches_mask():
    # Ties, and events exactly on window edges: start is inclusive, end exclusive.
    times = np.array([0.0, 1.0, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0])
    senders = np.arange(len(times))
    receivers = senders[::-1].copy()
    events = EventStream(times, senders, receivers)
    windows = [(1.0, 3.0), (1.0, 1.0), (3.0, 1.0), (-1.0, 10.0), (0.0, 0.0), (2.0, 2.5),
               (2.5, 3.0), (3.0, 4.0), (4.0, 4.5), (4.5, 9.0), (-2.0, 0.0), (1.2, 1.4)]
    for start, end in windows:
        chunk = events.between(start, end)
        mask = (times >= start) & (times < end)
        assert chunk.times.tolist() == times[mask].tolist()
        assert chunk.senders.tolist() == senders[mask].tolist()
        assert chunk.receivers.tolist() == receivers[mask].tolist()


def test_ground_truth_json_roundtrip(tmp_path, small_scenario):
    _, truth = small_scenario
    path = tmp_path / "truth.json"
    scenario.write_ground_truth(path, truth)
    back = scenario.load_ground_truth(path)
    assert back.attackers == truth.attackers
    assert back.attack_windows == truth.attack_windows
    assert back.presence == truth.presence
