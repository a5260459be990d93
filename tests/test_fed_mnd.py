import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent.fed_mnd import aggregate
from advent.mnd import SuspicionReport


def _rep(reporter, suspected):
    return SuspicionReport(reporter=reporter, suspected=set(suspected))


def test_aggregate_distinct_reporters():
    reports = [_rep(1, {9}), _rep(2, {9}), _rep(3, {8})]
    assert aggregate(reports, th=1) == {8, 9}
    assert aggregate(reports, th=2) == {9}
    assert aggregate(reports, th=3) == set()


def test_aggregate_duplicate_reporter_counts_once():
    # The same reporter naming a node twice contributes one vote.
    reports = [_rep(1, {9}), _rep(1, {9})]
    assert aggregate(reports, th=2) == set()


def test_aggregate_self_report_ignored(caplog):
    with caplog.at_level("WARNING"):
        out = aggregate([_rep(9, {9}), _rep(1, {9})], th=1)
    assert out == {9}  # only reporter 1's vote counts
    assert aggregate([_rep(9, {9})], th=1) == set()
    assert any("itself" in r.message for r in caplog.records)


def test_aggregate_th_validation():
    with pytest.raises(ValueError):
        aggregate([], th=0)


reports_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.sets(st.integers(0, 15), max_size=5)),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(reports_strategy, st.integers(1, 4))
def test_aggregate_matches_counting_oracle(pairs, th):
    reports = [_rep(r, s) for r, s in pairs]
    votes = {}
    for r, s in pairs:
        for v in s - {r}:
            votes.setdefault(v, set()).add(r)
    assert aggregate(reports, th) == {v for v, rs in votes.items() if len(rs) >= th}


@settings(max_examples=100, deadline=None)
@given(reports_strategy)
def test_aggregate_monotone_in_th(pairs):
    reports = [_rep(r, s) for r, s in pairs]
    assert aggregate(reports, 3) <= aggregate(reports, 2) <= aggregate(reports, 1)
