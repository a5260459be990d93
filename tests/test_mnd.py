import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent.mnd import SuspicionReport, detect, mad, rejection_bounds


def numpy_mad_oracle(values):
    v = np.asarray(values, dtype=float)
    return float(1.4826 * np.median(np.abs(v - np.median(v))))


def test_mad_hand_computed():
    # median 3, deviations [2,1,0,1,2] -> median 1
    assert mad([1, 2, 3, 4, 5]) == 1.4826


def test_mad_even_length_central_pair():
    # median(1,2,4,10) = 3; deviations sorted [1,1,2,7] have median 1.5
    assert mad([1.0, 2.0, 4.0, 10.0]) == 1.4826 * 1.5


def test_mad_constant_is_zero():
    assert mad([7, 7, 7]) == 0.0


def test_mad_empty_raises():
    with pytest.raises(ValueError):
        mad([])


# Counts whose largest sits exactly on the upper bound at b = 1.4826 and
# ce = 3: median 10000 and raw MAD 5000, so the bound is 10000 + 3 * 7413.
ON_BAND = [5000, 10000, 10000, 15000, 32239]


def test_rejection_bounds_hand_computed():
    assert rejection_bounds([1, 2, 3, 4, 5]) == (3 - 3 * 1.4826, 3 + 3 * 1.4826)
    assert rejection_bounds(ON_BAND) == (-12239.0, 32239.0)


def _round(per_receiver):
    """A round's (receiver, sender, count) arrays, sorted by receiver, then
    sender, from receiver -> sender -> count."""
    rows = sorted((r, s, c) for r, per_sender in per_receiver.items()
                  for s, c in per_sender.items())
    return tuple(np.array([row[k] for row in rows], dtype=np.int64) for k in range(3))


def _suspected(per_sender):
    """The suspects of one receiver's report, in a one-receiver round."""
    (report,) = detect(_round({0: per_sender})).reports
    assert report.reporter == 0
    return report.suspected


def reference_detect(per_receiver):
    """Oracle: each receiver's band on its own, from `rejection_bounds`, as
    one vehicle computes it."""
    out = []
    for r in sorted(per_receiver):
        senders = sorted(per_receiver[r])
        values = [float(per_receiver[r][s]) for s in senders]
        upper = rejection_bounds(values)[1]
        out.append(SuspicionReport(r, {s for s, v in zip(senders, values) if v > upper}))
    return out


def test_detect_flags_flooder():
    per_sender = {1: 10, 2: 11, 3: 9, 4: 10, 5: 250}
    suspected = _suspected(per_sender)
    assert suspected == {5}
    _, hi = rejection_bounds(per_sender.values())
    assert suspected == {s for s, v in per_sender.items() if v > hi}


def test_detect_sender_at_upper_bound_not_flagged():
    # The largest count is exactly on the band; one more is over it.
    assert _suspected(dict(enumerate(ON_BAND))) == set()
    assert _suspected(dict(enumerate(ON_BAND[:4] + [ON_BAND[4] + 1]))) == {4}


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
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
def test_mad_matches_numpy_oracle(values):
    assert mad(values) == pytest.approx(numpy_mad_oracle(values), abs=1e-9)


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
    # One round: a tie exactly at the band next to a receiver one count over
    # it, odd and even sender counts, a lone sender and a receiver whose
    # senders all agree.
    per_receiver = {
        -7: dict(zip(range(1, 6), ON_BAND)),
        2: dict(zip(range(1, 6), ON_BAND[:4] + [ON_BAND[4] + 1])),
        3: {10: 1, 11: 2, 12: 4, 13: 10},
        1 << 41: {9: 500},
        5: {1: 4, 2: 4, 3: 4},
    }
    got = detect(_round(per_receiver))
    assert got.reports == reference_detect(per_receiver)
    assert {r.reporter: r.suspected for r in got.reports} == {
        -7: set(), 2: {5}, 3: {13}, 1 << 41: set(), 5: set()}
    assert [r.reporter for r in got.reports] == sorted(per_receiver)
    assert got.suspected.tolist() == [5, 13]


IDS = st.integers(-5, 5) | st.integers(-(2**62), 2**62)
# Flood-like receivers: mostly a few close counts, whose MAD is often 0 and
# puts the senders that match the median exactly on the band, and some
# counts far above them, which the band flags; and ON_BAND's counts, which
# tie at a band of MAD > 0.
COUNTS = st.integers(1, 3) | st.integers(1, 12) | st.integers(1, 10**6)
SENDERS = st.dictionaries(IDS, COUNTS, min_size=1, max_size=12) | st.lists(
    IDS, min_size=5, max_size=5, unique=True).map(lambda ids: dict(zip(ids, ON_BAND)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(IDS, SENDERS, max_size=8))
def test_grouped_detect_matches_per_receiver_reference(per_receiver):
    assert detect(_round(per_receiver)).reports == reference_detect(per_receiver)
