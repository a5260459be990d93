import numpy as np

from advent import preprocess, runner, scenario
from advent.preprocess import (
    NeighborCounts,
    build_count_series,
    interval_counts,
    windowize_arrays,
)
from advent.scenario import EventStream, GroundTruth


def _stream(rows):
    times, senders, receivers = zip(*rows) if rows else ([], [], [])
    return EventStream(times, senders, receivers)


def test_count_series_direct():
    ev = _stream([(1.2, 9, 7), (1.9, 8, 7), (2.1, 9, 7)])
    cs = build_count_series(ev, 7)
    assert cs.counts == {1: 2, 2: 1}


def test_count_series_empty():
    cs = build_count_series(_stream([]), 7)
    assert cs.counts == {}


def test_count_series_matches_event_tally(small_scenario):
    # Oracle: direct per-event tally with floor-second binning.
    events, truth = small_scenario
    v = int(events.receivers[0])
    cs = build_count_series(events, v)
    tally = {}
    for t, r in zip(events.times.tolist(), events.receivers.tolist()):
        if r == v:
            tally[int(t)] = tally.get(int(t), 0) + 1
    assert cs.counts == tally


def test_flood_dominates_counts(small_scenario):
    events, truth = small_scenario
    ws, we = truth.attack_windows[0]
    benign = sorted(set(truth.presence) - truth.attackers)
    v = next(u for u in benign if truth.presence[u][0] <= ws and truth.presence[u][1] >= we)
    cs = build_count_series(events, v)
    in_window = [cs.counts.get(t, 0) for t in range(int(ws), int(we))]
    before = [cs.counts.get(t, 0) for t in range(int(ws) - 50, int(ws))]
    assert min(in_window) > max(before)


def _truth(vehicle, span, windows=()):
    return GroundTruth(presence={vehicle: span}, attack_windows=list(windows))


def test_windowize_feature_order():
    series = preprocess.CountSeries(vehicle=1, counts={t: 10 + t for t in range(1, 13)})
    secs, x, _ = windowize_arrays(series, _truth(1, (1.0, 13.0)), a=10)
    assert secs.tolist() == list(range(1, 13))
    assert x[secs.tolist().index(10)].tolist() == [20, 19, 18, 17, 16, 15, 14, 13, 12, 11]


def test_windowize_zero_padding_before_join():
    series = preprocess.CountSeries(vehicle=1, counts={0: 5, 1: 6})
    secs, x, _ = windowize_arrays(series, _truth(1, (0.0, 2.0)), a=3)
    assert secs.tolist() == [0, 1]
    assert x.tolist() == [[5, 0, 0], [6, 5, 0]]


def test_windowize_labels():
    series = preprocess.CountSeries(vehicle=1, counts={})
    secs, _, y = windowize_arrays(series, _truth(1, (0.0, 10.0), windows=[(4.0, 7.0)]), a=2)
    labels = dict(zip(secs.tolist(), y.tolist()))
    assert [labels[t] for t in range(10)] == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_windowize_a1_degenerate():
    series = preprocess.CountSeries(vehicle=1, counts={0: 3, 1: 1})
    secs, x, _ = windowize_arrays(series, _truth(1, (0.0, 2.0)), a=1)
    assert secs.tolist() == [0, 1]
    assert x.tolist() == [[3], [1]]


def test_windowize_conserves_events(small_scenario):
    events, truth = small_scenario
    for v in list(truth.presence)[:4]:
        series = build_count_series(events, v)
        secs, x, y = windowize_arrays(series, truth)
        inside = sum(c for t, c in series.counts.items()
                     if secs[0] <= t <= secs[-1]) if len(secs) else 0
        assert int(x[:, 0].sum()) == inside


def test_windowize_consecutive_shift(small_scenario):
    events, truth = small_scenario
    v = int(events.receivers[0])
    secs, x, y = windowize_arrays(build_count_series(events, v), truth)
    for i in range(1, min(50, len(secs))):
        assert np.array_equal(x[i, 1:], x[i - 1, :-1])


def _tally(events, t0=-np.inf, t1=np.inf):
    """Oracle: receiver -> sender -> count, tallied per event in Python, of
    the events with t0 <= time < t1."""
    out = {}
    for t, s, r in zip(events.times.tolist(), events.senders.tolist(),
                       events.receivers.tolist()):
        if t0 <= t < t1:
            per_sender = out.setdefault(r, {})
            per_sender[s] = per_sender.get(s, 0) + 1
    return out


def test_interval_counts_per_sender():
    ev = _stream([(0.1, 5, 1), (1.2, 5, 1), (3.3, 6, 1), (7.7, 5, 1), (9.9, 6, 1)])
    assert interval_counts(ev) == {1: NeighborCounts(vehicle=1, per_sender={5: 3, 6: 2})}


def test_interval_counts_two_receivers_one_pass():
    # Vehicle 2 only sends, so it has no entry; 4 both sends and receives.
    ev = _stream([(0.5, 2, 1), (0.6, 300, 4), (1.0, 2, 4), (1.5, 2, 1),
                  (2.0, 4, 1), (2.5, 1, 4), (3.0, 300, 4)])
    out = interval_counts(ev)
    assert out == {1: NeighborCounts(vehicle=1, per_sender={2: 2, 4: 1}),
                   4: NeighborCounts(vehicle=4, per_sender={300: 2, 2: 1, 1: 1})}
    assert {v: c.per_sender for v, c in out.items()} == _tally(ev)


def test_interval_counts_empty_stream():
    assert interval_counts(_stream([])) == {}


def test_interval_totals_match_count_series(small_scenario):
    events, truth = small_scenario
    counts = interval_counts(events)
    assert set(counts) == set(events.receivers.tolist())
    for v, c in counts.items():
        assert sum(c.per_sender.values()) == build_count_series(events, v).total()


def test_interval_counts_match_event_tally_sparse_rounds():
    # Oracle: a per-event tally of each MND round's events, on a sparse
    # topology where not every present vehicle hears every other one,
    # across several alert rounds.
    config = scenario.ScenarioConfig(
        duration_s=600, total_vehicles=30, concurrent_range=(12, 18), arrival_interval_s=20,
        attacker_fraction=0.2, attack_count=3, attack_spacing_s=150, attack_duration_s=25,
        normal_rate_pps=0.5, flood_rate_pps=8.0, neighbor_degree=3, rng_seed=5,
    )
    events, truth = scenario.generate(config)
    rounds = runner.alert_rounds(truth)
    assert len(rounds) >= 6
    reporters = silent = partial = 0
    for t0, t1 in rounds:
        counts = interval_counts(events.between(t0, t1))
        assert {v: c.per_sender for v, c in counts.items()} == _tally(events, t0, t1)
        assert all(c.vehicle == v for v, c in counts.items())
        present = {v for v, (a, b) in truth.presence.items() if a <= t0 and b >= t1}
        for v in present:
            if v not in counts:
                silent += 1
                continue
            reporters += 1
            partial += len(counts[v].per_sender) < len(present) - 1
    assert reporters > 50 and partial > 0 and silent > 0
