import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import mnd, preprocess, runner, scenario
from advent.preprocess import build_count_series, interval_counts, windowize_arrays
from advent.scenario import EventStream, GroundTruth


def _stream(rows):
    times, senders, receivers = zip(*rows) if rows else ([], [], [])
    return EventStream(times, senders, receivers)


def _sorted(events):
    """A copy of `events` in (time, sender, receiver) order."""
    out = EventStream(events.times.copy(), events.senders.copy(), events.receivers.copy())
    out._sort()
    return out


def _truth(presence, windows=()):
    return GroundTruth(presence=dict(presence), attack_windows=list(windows))


def _counts_of(series, v):
    """Vehicle v's nonzero per-second counts as {second: count}."""
    i = series.vehicles.tolist().index(v)
    lo, hi = series.bounds[i], series.bounds[i + 1]
    counts = series.counts[lo:hi].tolist()
    return {int(series.first[i]) + k: c for k, c in enumerate(counts) if c}


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


def reference_windows(events, truth, a):
    """Oracle: vehicle -> (seconds, rows, labels), built per vehicle in Python
    from a per-event tally, for every vehicle present for a whole second."""
    tally = {}
    for t, r in zip(events.times.tolist(), events.receivers.tolist()):
        tally[r, math.floor(t)] = tally.get((r, math.floor(t)), 0) + 1
    out = {}
    for v in sorted(truth.presence):
        enter, exit_ = truth.presence[v]
        first, last = math.floor(enter), math.ceil(exit_)
        secs = list(range(first, last))
        if not secs:
            continue
        rows = [[float(tally.get((v, t - lag), 0)) if t - lag >= first else 0.0
                 for lag in range(a)] for t in secs]
        labels = [int(any(ws <= t < we for ws, we in truth.attack_windows)) for t in secs]
        out[v] = (secs, rows, labels)
    return out


def _windows_by_vehicle(events, truth, a):
    series = build_count_series(events, truth)
    secs, x, y = windowize_arrays(series, truth, a)
    assert x.dtype == np.float64 and x.flags.c_contiguous
    bounds = series.bounds.tolist()
    return {v: (secs[lo:hi].tolist(), x[lo:hi].tolist(), y[lo:hi].tolist())
            for v, lo, hi in zip(series.vehicles.tolist(), bounds[:-1], bounds[1:]) if hi > lo}


def test_count_series_direct():
    ev = _stream([(1.2, 9, 7), (1.9, 8, 7), (2.1, 9, 7)])
    cs = build_count_series(ev, _truth({7: (0.0, 3.0)}))
    assert _counts_of(cs, 7) == {1: 2, 2: 1}
    assert cs.counts.tolist() == [0, 2, 1] and cs.total() == 3


def test_count_series_empty():
    cs = build_count_series(_stream([]), _truth({7: (0.0, 5.0)}))
    assert _counts_of(cs, 7) == {} and cs.counts.tolist() == [0] * 5
    assert build_count_series(_stream([(1.0, 2, 3)]), _truth({})).total() == 0


def test_count_series_matches_event_tally(small_scenario):
    # Oracle: direct per-event tally with floor-second binning, for every
    # vehicle over its present seconds.
    events, truth = small_scenario
    cs = build_count_series(events, truth)
    assert cs.vehicles.tolist() == sorted(truth.presence)
    for v, (enter, exit_) in truth.presence.items():
        tally = {}
        for t, r in zip(events.times.tolist(), events.receivers.tolist()):
            if r == v and math.floor(enter) <= int(t) < math.ceil(exit_):
                tally[int(t)] = tally.get(int(t), 0) + 1
        assert _counts_of(cs, v) == tally
    assert cs.total() == len(events)


def test_count_series_matches_event_tally_in_small_chunks(small_scenario, monkeypatch):
    # Events binned 7 at a time, so a vehicle's seconds straddle the chunks;
    # vehicle 0 has no presence entry, so chunks also hold events it drops.
    events, truth = small_scenario
    truth = _truth({v: span for v, span in truth.presence.items() if v != 0})
    whole = build_count_series(events, truth)
    monkeypatch.setattr(preprocess, "_COUNT_EVENTS", 7)
    cs = build_count_series(events, truth)
    assert cs.counts.tolist() == whole.counts.tolist()
    for v, (enter, exit_) in truth.presence.items():
        tally = {}
        for t, r in zip(events.times.tolist(), events.receivers.tolist()):
            if r == v and math.floor(enter) <= int(t) < math.ceil(exit_):
                tally[int(t)] = tally.get(int(t), 0) + 1
        assert _counts_of(cs, v) == tally
    assert 0 < cs.total() < len(events)


@pytest.mark.parametrize("base", [0, -3, 1 << 40])
def test_count_series_match_receiver_mask(base):
    # Each vehicle counts exactly the events whose receiver is it, with ids
    # below zero and far above the count of vehicles.
    rng = np.random.default_rng(3)
    times = rng.random(200) * 10
    senders = base + rng.integers(0, 6, 200)
    receivers = base + rng.integers(0, 6, 200)
    events = _sorted(EventStream(times, senders, receivers))
    presence = {v: (0.0, 10.0) for v in range(base - 1, base + 7)}
    cs = build_count_series(events, _truth(presence))
    for v in presence:
        mask = events.receivers == v
        secs, cnt = np.unique(np.floor(events.times[mask]).astype(int), return_counts=True)
        assert _counts_of(cs, v) == dict(zip(secs.tolist(), cnt.tolist()))


def test_flood_dominates_counts(small_scenario):
    events, truth = small_scenario
    ws, we = truth.attack_windows[0]
    benign = sorted(set(truth.presence) - truth.attackers)
    v = next(u for u in benign if truth.presence[u][0] <= ws and truth.presence[u][1] >= we)
    counts = _counts_of(build_count_series(events, truth), v)
    in_window = [counts.get(t, 0) for t in range(int(ws), int(we))]
    before = [counts.get(t, 0) for t in range(int(ws) - 50, int(ws))]
    assert min(in_window) > max(before)


def _series(first, counts):
    """A one-vehicle (id 1) CountSeries over the seconds first, first + 1, ..."""
    return preprocess.CountSeries(vehicles=np.array([1]), first=np.array([first]),
                                  bounds=np.array([0, len(counts)]),
                                  counts=np.array(counts, dtype=np.int64))


def test_windowize_feature_order():
    series = _series(1, [10 + t for t in range(1, 13)])
    secs, x, _ = windowize_arrays(series, _truth({1: (1.0, 13.0)}), a=10)
    assert secs.tolist() == list(range(1, 13))
    assert x[secs.tolist().index(10)].tolist() == [20, 19, 18, 17, 16, 15, 14, 13, 12, 11]


def test_windowize_zero_padding_before_join():
    series = _series(0, [5, 6])
    secs, x, _ = windowize_arrays(series, _truth({1: (0.0, 2.0)}), a=3)
    assert secs.tolist() == [0, 1]
    assert x.tolist() == [[5, 0, 0], [6, 5, 0]]


def test_windowize_labels():
    series = _series(0, [0] * 10)
    secs, _, y = windowize_arrays(series, _truth({1: (0.0, 10.0)}, windows=[(4.0, 7.0)]), a=2)
    labels = dict(zip(secs.tolist(), y.tolist()))
    assert [labels[t] for t in range(10)] == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_windowize_a1_degenerate():
    series = _series(0, [3, 1])
    secs, x, _ = windowize_arrays(series, _truth({1: (0.0, 2.0)}), a=1)
    assert secs.tolist() == [0, 1]
    assert x.tolist() == [[3], [1]]


def test_windowize_conserves_events(small_scenario):
    events, truth = small_scenario
    series = build_count_series(events, truth)
    secs, x, y = windowize_arrays(series, truth)
    assert len(secs) == len(series.counts) and int(x[:, 0].sum()) == len(events)
    for v, (vsecs, rows, _) in _windows_by_vehicle(events, truth, 10).items():
        inside = sum(c for t, c in _counts_of(series, v).items() if vsecs[0] <= t <= vsecs[-1])
        assert sum(row[0] for row in rows) == inside


def test_windowize_consecutive_shift(small_scenario):
    events, truth = small_scenario
    for v, (secs, rows, _) in _windows_by_vehicle(events, truth, 10).items():
        assert secs == list(range(secs[0], secs[0] + len(secs)))
        for i in range(1, min(50, len(secs))):
            assert rows[i][1:] == rows[i - 1][:-1]


def test_windowize_match_reference(small_scenario):
    events, truth = small_scenario
    for lags in (1, 3, 10):
        assert _windows_by_vehicle(events, truth, lags) == reference_windows(events, truth, lags)


VEHICLE_IDS = st.sampled_from([-(2**62) + 3, -9, -1, 0, 1, 2, 5, 2**40 + 1, 2**62 - 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 40.0), VEHICLE_IDS, VEHICLE_IDS), max_size=80),
       st.dictionaries(VEHICLE_IDS, st.tuples(st.floats(-3.0, 30.0), st.floats(0.0, 20.0)),
                       max_size=6),
       st.lists(st.tuples(st.integers(-5, 40), st.integers(0, 15)), max_size=3),
       st.integers(1, 6))
def test_counts_and_windows_match_event_tally(rows, spans, windows, lags):
    # Events before, inside and after their receiver's presence, receivers
    # with no presence entry, vehicles with no inbound event and presences
    # shorter than the traffic, over ids negative and above 2^40.
    events = _sorted(_stream(rows))
    truth = _truth({v: (enter, enter + length) for v, (enter, length) in spans.items()},
                   [(float(s), float(s + n)) for s, n in windows])
    assert _windows_by_vehicle(events, truth, lags) == reference_windows(events, truth, lags)


def test_counts_memory_is_bounded_by_events_and_seconds():
    # Two vehicles with ids near +-2^62, present 10^6 s apart for 10 s each:
    # a table over the ids or the time span would be gigabytes or 8 MB.
    far, low = 2**62 - 5, -(2**62) + 7
    rng = np.random.default_rng(0)
    t = np.concatenate([rng.uniform(0, 10, 300), rng.uniform(1e6, 1e6 + 10, 300)])
    receivers = np.repeat([far, low], 300)
    events = _sorted(EventStream(t, receivers[::-1].copy(), receivers))
    truth = _truth({far: (0.0, 10.0), low: (1e6, 1e6 + 10.0)}, [(1e6 + 2, 1e6 + 4)])
    tracemalloc.start()
    try:
        series = build_count_series(events, truth)
        secs, x, y = windowize_arrays(series, truth)
        detection = mnd.detect(interval_counts(events))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert series.bounds.tolist() == [0, 10, 20] and series.total() == 600
    assert secs.tolist() == [*range(10**6, 10**6 + 10), *range(10)]
    assert [r.reporter for r in detection.reports] == [low, far]


def test_interval_counts_per_sender():
    ev = _stream([(0.1, 5, 1), (1.2, 5, 1), (3.3, 6, 1), (7.7, 5, 1), (9.9, 6, 1)])
    assert [a.tolist() for a in interval_counts(ev)] == [[1, 1], [5, 6], [3, 2]]


def _as_dict(counts):
    out = {}
    for r, s, c in zip(*(a.tolist() for a in counts)):
        out.setdefault(r, {})[s] = c
    return out


def test_interval_counts_two_receivers_one_pass():
    # Vehicle 2 only sends, so it has no entry; 4 both sends and receives.
    ev = _stream([(0.5, 2, 1), (0.6, 300, 4), (1.0, 2, 4), (1.5, 2, 1),
                  (2.0, 4, 1), (2.5, 1, 4), (3.0, 300, 4)])
    out = interval_counts(ev)
    assert [a.tolist() for a in out] == [[1, 1, 4, 4, 4], [2, 4, 1, 2, 300], [2, 1, 1, 1, 2]]
    assert _as_dict(out) == _tally(ev)


def test_interval_counts_empty_stream():
    assert [a.tolist() for a in interval_counts(_stream([]))] == [[], [], []]


def test_interval_totals_match_count_series(small_scenario):
    events, truth = small_scenario
    counts = _as_dict(interval_counts(events))
    assert set(counts) == set(events.receivers.tolist())
    series = build_count_series(events, truth)
    for v, per_sender in counts.items():
        assert sum(per_sender.values()) == sum(_counts_of(series, v).values())


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
        counts = _as_dict(interval_counts(events.between(t0, t1)))
        assert counts == _tally(events, t0, t1)
        present = {v for v, (a, b) in truth.presence.items() if a <= t0 and b >= t1}
        for v in present:
            if v not in counts:
                silent += 1
                continue
            reporters += 1
            partial += len(counts[v]) < len(present) - 1
    assert reporters > 50 and partial > 0 and silent > 0
