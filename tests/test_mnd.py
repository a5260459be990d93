import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent.mnd import MadParams, SuspicionReport, _median, detect, mad, rejection_bounds


def numpy_mad_oracle(values, b=1.4826):
    v = np.asarray(values, dtype=float)
    return float(b * np.median(np.abs(v - np.median(v))))


def test_params_invariants():
    with pytest.raises(ValueError):
        MadParams(b=0.0)
    with pytest.raises(ValueError):
        MadParams(ce=-1.0)


def test_mad_hand_computed():
    # median 3, deviations [2,1,0,1,2] -> median 1
    assert mad([1, 2, 3, 4, 5], b=1.0) == 1.0
    assert mad([1, 2, 3, 4, 5]) == pytest.approx(1.4826)


def test_mad_even_length_central_pair():
    # median(1,2,4,10) = 3; deviations sorted [1,1,2,7] have median 1.5
    assert mad([1.0, 2.0, 4.0, 10.0], b=1.0) == pytest.approx(1.5)


def test_mad_constant_is_zero():
    assert mad([7, 7, 7]) == 0.0


def test_mad_empty_raises():
    with pytest.raises(ValueError):
        mad([])


def test_rejection_bounds_hand_computed():
    lo, hi = rejection_bounds([1, 2, 3, 4, 5], MadParams(b=1.0, ce=2.0))
    assert (lo, hi) == (1.0, 5.0)


def _round(per_receiver):
    """A round's (receiver, sender, count) arrays, sorted by receiver, then
    sender, from receiver -> sender -> count."""
    rows = sorted((r, s, c) for r, per_sender in per_receiver.items()
                  for s, c in per_sender.items())
    return tuple(np.array([row[k] for row in rows], dtype=np.int64) for k in range(3))


def _suspected(per_sender, params=MadParams()):
    """The suspects of one receiver's report, in a one-receiver round."""
    (report,) = detect(_round({0: per_sender}), params).reports
    assert report.reporter == 0
    return report.suspected


def reference_detect(per_receiver, params=MadParams()):
    """Oracle: each receiver's band on its own, from `_median` and `mad`,
    as one vehicle computes it."""
    out = []
    for r in sorted(per_receiver):
        senders = sorted(per_receiver[r])
        values = [float(per_receiver[r][s]) for s in senders]
        upper = _median(values) + params.ce * mad(values, params.b)
        out.append(SuspicionReport(r, {s for s, v in zip(senders, values) if v > upper}))
    return out


def test_detect_flags_flooder():
    per_sender = {1: 10, 2: 11, 3: 9, 4: 10, 5: 250}
    suspected = _suspected(per_sender)
    assert suspected == {5}
    _, hi = rejection_bounds(per_sender.values())
    assert suspected == {s for s, v in per_sender.items() if v > hi}


def test_detect_sender_at_upper_bound_not_flagged():
    # median 3 and MAD 1, so the upper bound is exactly 5.
    params = MadParams(b=1.0, ce=2.0)
    assert rejection_bounds([1, 2, 3, 4, 5], params)[1] == 5.0
    assert _suspected({1: 1, 2: 2, 3: 3, 4: 4, 5: 5}, params) == set()
    assert _suspected({1: 1, 2: 2, 3: 3, 4: 4, 5: 6}, params) == {5}


def test_detect_lower_outlier_not_flagged():
    # One-sided rule: a near-silent sender is never suspected.
    assert _suspected({1: 100, 2: 101, 3: 99, 4: 100, 5: 0}) == set()


def test_detect_strictly_greater():
    # All equal: upper bound equals every count, so nothing is flagged.
    assert _suspected({1: 5, 2: 5, 3: 5}) == set()


def test_detect_fewer_than_two_neighbors():
    # An empty round has no reporters; a lone sender is never suspected.
    empty = detect(_round({}))
    assert empty.reports == [] and len(empty.suspected) == 0
    assert _suspected({3: 500}) == set()
    # A lone sender sits exactly at its own upper bound.
    assert rejection_bounds([500.0])[1] == 500.0


def test_detect_two_floooders():
    assert _suspected({1: 10, 2: 9, 3: 11, 4: 10, 5: 300, 6: 280}) == {5, 6}


def test_detect_mad_zero_majority():
    # When most senders agree exactly, MAD is 0 and any excess is flagged.
    assert _suspected({1: 10, 2: 10, 3: 10, 4: 10, 5: 11}) == {5}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
       st.floats(0.1, 5.0))
def test_mad_matches_numpy_oracle(values, b):
    assert mad(values, b) == pytest.approx(numpy_mad_oracle(values, b), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40),
       st.floats(-1e5, 1e5))
def test_mad_translation_invariant(values, shift):
    assert mad([v + shift for v in values]) == pytest.approx(mad(values), abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 30), st.integers(0, 1000), min_size=2, max_size=20))
def test_detect_matches_bound_oracle(per_sender):
    _, hi = rejection_bounds(list(map(float, per_sender.values())))
    assert _suspected(per_sender) == {s for s, v in per_sender.items() if v > hi}


def test_grouped_detect_ties_and_sizes():
    # One round: a tie exactly at the band (median 3, MAD 1, upper bound 5
    # with b=1, ce=2) next to a receiver one count over it, odd and even
    # sender counts, a lone sender and a receiver whose senders all agree.
    params = MadParams(b=1.0, ce=2.0)
    per_receiver = {
        -7: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        2: {1: 1, 2: 2, 3: 3, 4: 4, 5: 6},
        3: {10: 1, 11: 2, 12: 4, 13: 10},
        1 << 41: {9: 500},
        5: {1: 4, 2: 4, 3: 4},
    }
    got = detect(_round(per_receiver), params)
    assert got.reports == reference_detect(per_receiver, params)
    assert {r.reporter: r.suspected for r in got.reports} == {
        -7: set(), 2: {5}, 3: {13}, 1 << 41: set(), 5: set()}
    assert [r.reporter for r in got.reports] == sorted(per_receiver)
    assert got.suspected.tolist() == [5, 13]


IDS = st.integers(-5, 5) | st.integers(-(2**62), 2**62)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(IDS, st.dictionaries(IDS, st.integers(1, 12) | st.integers(1, 10**6),
                                            min_size=1, max_size=12), max_size=8),
       st.sampled_from([MadParams(), MadParams(b=1.0, ce=2.0), MadParams(b=1.0, ce=1.0),
                        MadParams(b=0.5, ce=0.5)]))
def test_grouped_detect_matches_per_receiver_reference(per_receiver, params):
    # Small counts and round parameters put many senders exactly on a band.
    assert detect(_round(per_receiver), params).reports == reference_detect(per_receiver, params)
