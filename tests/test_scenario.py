import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from advent import scenario
from advent.scenario import ConfigError, EventStream, GroundTruth, ParseError, ScenarioConfig

BASE = "time_s,sender,receiver\n"
ANNOT = "time_s,sender,receiver,is_attacker_sender,attack_active\n"


def test_config_invariants_rejected():
    with pytest.raises(ConfigError, match="duration_s"):
        ScenarioConfig(duration_s=0).validate()
    with pytest.raises(ConfigError, match="attacker_fraction"):
        ScenarioConfig(attacker_fraction=1.5).validate()
    with pytest.raises(ConfigError, match="attack_spacing_s"):
        ScenarioConfig(attack_count=7, attack_spacing_s=600, duration_s=3600).validate()
    with pytest.raises(ConfigError, match="flood_rate_pps"):
        ScenarioConfig(normal_rate_pps=5, flood_rate_pps=5).validate()
    with pytest.raises(ConfigError, match="concurrent_range"):
        ScenarioConfig(concurrent_range=(10, 5)).validate()


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
    for base, spread in [(-50, 1), (1 << 40, 1), (-(1 << 35), 1 << 30), (0, big.max // 16)]:
        shifted = EventStream(events.times, base + events.senders * spread,
                              base + events.receivers * spread)
        attackers = {base + v * spread for v in truth.attackers}
        cases += [(shifted, GroundTruth(attackers=attackers,
                                        attack_windows=truth.attack_windows)),
                  (shifted, None)]
    extremes = EventStream([0.5, 1.0, 1.5], [big.min, big.max, 0], [big.max, big.min, big.min])
    cases += [(extremes, GroundTruth(attackers={big.min}, attack_windows=[(1.0, 2.0)])),
              (extremes, None)]
    path = tmp_path / "events.csv"
    for stream, truth in cases:
        scenario.write_events_csv(path, stream, truth)
        assert path.read_bytes() == _reference_csv(stream, truth)
    # Written in blocks of 7 lines, with a partial last block.
    monkeypatch.setattr(scenario, "_WRITE_LINES", 7)
    for stream, truth in [small_scenario, (edges, None), (EventStream([15.5], [-7], [3]), None)]:
        scenario.write_events_csv(path, stream, truth)
        assert path.read_bytes() == _reference_csv(stream, truth)
    scenario.write_events_csv(path, edges, edge_truth)
    assert path.read_text().splitlines()[1:] == [
        "0.1,1,2,1,0", "9.999999999999998,2,1,0,0", "10.0,1,3,1,1",
        "12.25,3,1,0,1", "20.0,1,2,1,0", "20.5,2,3,0,0"]


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


@pytest.mark.parametrize("base", [0, -3, 1 << 40])
def test_inbound_matches_mask(base):
    rng = np.random.default_rng(3)
    times = rng.random(200) * 10
    senders = base + rng.integers(0, 6, 200)
    receivers = base + rng.integers(0, 6, 200)
    events = EventStream(times, senders, receivers)
    for v in range(base - 1, base + 7):
        inbound = events.inbound(v)
        mask = receivers == v
        assert inbound.times.tolist() == times[mask].tolist()
        assert inbound.senders.tolist() == senders[mask].tolist()
        assert inbound.receivers.tolist() == receivers[mask].tolist()


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
