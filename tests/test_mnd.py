import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent.mnd import MadParams, detect, mad, rejection_bounds
from advent.preprocess import NeighborCounts


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


def _counts(per_sender, vehicle=0):
    return NeighborCounts(vehicle=vehicle, per_sender=dict(per_sender))


def test_detect_flags_flooder():
    per_sender = {1: 10, 2: 11, 3: 9, 4: 10, 5: 250}
    rep = detect(_counts(per_sender))
    assert rep.suspected == {5}
    _, hi = rejection_bounds(per_sender.values())
    assert rep.suspected == {s for s, v in per_sender.items() if v > hi}


def test_detect_sender_at_upper_bound_not_flagged():
    # median 3 and MAD 1, so the upper bound is exactly 5.
    params = MadParams(b=1.0, ce=2.0)
    assert rejection_bounds([1, 2, 3, 4, 5], params)[1] == 5.0
    assert detect(_counts({1: 1, 2: 2, 3: 3, 4: 4, 5: 5}), params).suspected == set()
    assert detect(_counts({1: 1, 2: 2, 3: 3, 4: 4, 5: 6}), params).suspected == {5}


def test_detect_lower_outlier_not_flagged():
    # One-sided rule: a near-silent sender is never suspected.
    rep = detect(_counts({1: 100, 2: 101, 3: 99, 4: 100, 5: 0}))
    assert rep.suspected == set()


def test_detect_strictly_greater():
    # All equal: upper bound equals every count, so nothing is flagged.
    rep = detect(_counts({1: 5, 2: 5, 3: 5}))
    assert rep.suspected == set()


def test_detect_fewer_than_two_neighbors():
    assert detect(_counts({})).suspected == set()
    solo = detect(_counts({3: 500}))
    assert solo.suspected == set()
    # A lone sender sits exactly at its own upper bound.
    assert rejection_bounds([500.0])[1] == 500.0


def test_detect_two_floooders():
    rep = detect(_counts({1: 10, 2: 9, 3: 11, 4: 10, 5: 300, 6: 280}))
    assert rep.suspected == {5, 6}


def test_detect_mad_zero_majority():
    # When most senders agree exactly, MAD is 0 and any excess is flagged.
    rep = detect(_counts({1: 10, 2: 10, 3: 10, 4: 10, 5: 11}))
    assert rep.suspected == {5}


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
    rep = detect(_counts(per_sender))
    _, hi = rejection_bounds(list(map(float, per_sender.values())))
    assert rep.suspected == {s for s, v in per_sender.items() if v > hi}
