import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import runner
from advent.metrics import (
    Confusion,
    EvalReport,
    first_second_rate,
    macro_average,
    mnd_confusion,
    score,
)
from advent.mnd import SuspicionReport
from advent.scenario import GroundTruth


def test_confusion_addition():
    c = Confusion(tp=1, tn=2, fp=3, fn=4) + Confusion(tp=10, tn=20, fp=30, fn=40)
    assert (c.tp, c.tn, c.fp, c.fn) == (11, 22, 33, 44)
    assert c.total() == 110


def test_score_hand_computed():
    r = score(Confusion(tp=8, tn=80, fp=2, fn=2))
    assert r.dr == pytest.approx(0.8)
    assert r.far == pytest.approx(2 / 82)
    assert r.fnr == pytest.approx(0.2)
    assert r.precision == pytest.approx(0.8)
    assert r.recall == r.dr
    assert r.f1 == pytest.approx(0.8)


def test_score_perfect():
    r = score(Confusion(tp=5, tn=5))
    assert (r.dr, r.far, r.f1) == (1.0, 0.0, 1.0)


def test_score_zero_denominators_nan():
    r = score(Confusion(tn=10))  # no positives, no predicted positives
    assert math.isnan(r.dr)
    assert math.isnan(r.precision)
    assert math.isnan(r.f1)
    assert r.far == 0.0
    empty = score(Confusion())
    assert all(math.isnan(v) for v in empty.metrics_dict().values())


def test_score_zero_f1_when_defined_but_zero():
    r = score(Confusion(tp=0, fn=5, fp=5, tn=5))
    assert r.f1 == 0.0


def _truth(attackers, presence, windows=()):
    return GroundTruth(attackers=set(attackers), presence=dict(presence),
                       attack_windows=list(windows))


def test_mnd_confusion_counts():
    truth = _truth({1}, {1: (0, 100), 2: (0, 100), 3: (0, 100)})
    lists = [{1}, {1, 2}, set()]
    present = [{1, 2, 3}, {1, 2}, {1, 3}]
    c = mnd_confusion(lists, truth, present)
    # round 1: tp(1), tn(2), tn(3); round 2: tp(1), fp(2); round 3: fn(1), tn(3)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 3, 1, 1)


def test_mnd_confusion_validation():
    truth = _truth(set(), {})
    with pytest.raises(ValueError):
        mnd_confusion([set()], truth, [])
    with pytest.raises(ValueError):
        mnd_confusion([set()], None, [set()])


IDS = st.integers(0, 12)


def _per_vehicle_confusion(broadcast_lists, attackers, vehicles_present) -> Confusion:
    """Reference: each present vehicle of each round counted on its own, by
    whether it is an attacker and whether the round's list names it."""
    c = Confusion()
    for listed, present in zip(broadcast_lists, vehicles_present):
        for v in present:
            if v in attackers:
                if v in listed:
                    c.tp += 1
                else:
                    c.fn += 1
            elif v in listed:
                c.fp += 1
            else:
                c.tn += 1
    return c


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sets(IDS), st.sets(IDS)), max_size=6), st.sets(IDS))
def test_mnd_confusion_matches_per_vehicle_loop(rounds, attackers):
    # Lists name absent vehicles and non-attackers as well as present ones.
    lists, present = [listed for listed, _ in rounds], [p for _, p in rounds]
    assert (mnd_confusion(lists, _truth(attackers, {}), present)
            == _per_vehicle_confusion(lists, attackers, present))


@st.composite
def _rounds(draw):
    """MND rounds as mnd_reports returns them: each present vehicle may
    report, and a report may name anyone, present or not, attacker or not,
    the reporter too."""
    rounds = []
    for present in draw(st.lists(st.sets(IDS, min_size=1), max_size=6)):
        reporters = draw(st.lists(st.sampled_from(sorted(present)), unique=True))
        rounds.append((present, [SuspicionReport(r, draw(st.sets(IDS))) for r in reporters]))
    return rounds


@settings(max_examples=200, deadline=None)
@given(_rounds(), st.sets(IDS))
def test_local_mad_set_sizes_match_per_report_confusion(rounds, attackers):
    # Each report counted against the other vehicles present, summed over
    # reports.
    scored = [(rep.suspected, present - {rep.reporter})
              for present, reports in rounds for rep in reports]
    want = _per_vehicle_confusion([s for s, _ in scored], attackers, [p for _, p in scored])
    assert runner.mnd_aggregate("local_mad", 2, rounds, _truth(attackers, {})) == ([], [], want)


def test_first_second_rate():
    truth = _truth(set(), {}, windows=[(10.0, 20.0), (30.0, 40.0), (50.0, 50.0)])
    # Zero-length window skipped; vehicle 2 catches the second window's first second.
    flags = {1: {10, 11}, 2: {31, 30}}
    assert first_second_rate(flags, truth) == pytest.approx(1.0)
    assert first_second_rate({1: {11}}, truth) == pytest.approx(0.0)
    assert first_second_rate({1: {10}}, truth) == pytest.approx(0.5)


def test_first_second_rate_no_windows():
    assert math.isnan(first_second_rate({}, _truth(set(), {})))


def test_macro_average_nan_aware():
    r1 = EvalReport(dr=1.0, far=0.0, fnr=0.0, precision=1.0, recall=1.0, f1=1.0)
    r2 = EvalReport(dr=0.5, far=math.nan, fnr=0.5, precision=math.nan,
                    recall=0.5, f1=math.nan)
    avg = macro_average([r1, r2])
    assert avg.dr == pytest.approx(0.75)
    assert avg.far == 0.0  # NaN entry excluded
    assert avg.precision == 1.0
    assert avg.f1 == 1.0


def test_macro_average_empty():
    avg = macro_average([])
    assert math.isnan(avg.dr)
