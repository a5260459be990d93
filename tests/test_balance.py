import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import fed_onset, runner
from advent.balance import smote_arrays


def _data(n_maj, n_min, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0, 1, (n_maj, dim)), rng.normal(10, 1, (n_min, dim))])
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    return x, y


def test_target_ratio_reached():
    x, y = _data(200, 4)
    x2, y2 = smote_arrays(x, y, 10.0, seed=1)
    n_min = int((y2 == 1).sum())
    assert n_min == int(np.ceil(200 / 10.0))  # 20
    assert int((y2 == 0).sum()) == 200
    assert (y2 == 0).sum() / n_min <= 10.0


def test_majority_rows_unchanged_and_prefix_preserved():
    x, y = _data(100, 5)
    x2, y2 = smote_arrays(x, y, 5.0, seed=2)
    assert np.array_equal(x2[: len(x)], x)
    assert np.array_equal(y2[: len(y)], y)
    assert np.all(y2[len(y):] == 1)


def test_synthetic_rows_on_minority_segments():
    # Each synthetic row must be a convex combination of two minority rows.
    x, y = _data(300, 6, seed=3)
    x2, y2 = smote_arrays(x, y, 10.0, seed=3)
    minority = x[y == 1]
    for row in x2[len(x):]:
        ok = False
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                d = minority[j] - minority[i]
                denom = d @ d
                if denom == 0:
                    continue
                lam = (row - minority[i]) @ d / denom
                if -1e-9 <= lam <= 1 + 1e-9 and np.allclose(
                        minority[i] + lam * d, row, atol=1e-9):
                    ok = True
                    break
            if ok:
                break
        assert ok, "synthetic row not on any minority segment"


def test_already_balanced_passthrough():
    x, y = _data(50, 25)
    x2, y2 = smote_arrays(x, y, 5.0, seed=0)
    assert x2 is x and y2 is y


def test_fewer_than_two_minority_passes_through_silently(caplog):
    # The run counts these clients and logs once (test_onset_fit_logs_one_smote_line).
    for n_min in (0, 1):
        x, y = _data(50, n_min)
        with caplog.at_level(logging.DEBUG):
            x2, y2 = smote_arrays(x, y, 2.0, seed=0)
        assert np.array_equal(x2, x) and np.array_equal(y2, y)
        assert caplog.records == []


def test_onset_fit_logs_one_smote_line(caplog, monkeypatch, tmp_path):
    # Five vehicles: two with no attack row, one with one, one with two (the
    # fewest SMOTE draws on) and one with nine.  Every client's rows reach
    # training as SMOTE leaves them.
    rng = np.random.default_rng(3)
    per_vehicle, minority = {}, {1: 0, 2: 1, 3: 2, 4: 0, 5: 9}
    for v, n_min in minority.items():
        secs = np.arange(100)
        y = np.zeros(100, dtype=np.int64)
        y[rng.choice(60, n_min, replace=False)] = 1
        per_vehicle[v] = (secs, rng.poisson(3.0, (100, 4)).astype(float) + 20 * y[:, None], y)
    # A sixth vehicle arrives after the split: it has no training row and is
    # no client.
    per_vehicle[6] = (np.arange(200, 230), np.ones((30, 4)), np.ones(30, dtype=np.int64))
    manifest = runner.RunManifest(scenario_path="unused.csv", output_dir=str(tmp_path),
                                  method="federated_smote", target_ratio=5.0, rounds=2,
                                  epochs=1, trees_per_client=2)
    seen = []
    run_training = fed_onset.run_training

    def recording(clients, *args):
        seen.extend(clients)
        return run_training(clients, *args)

    monkeypatch.setattr(fed_onset, "run_training", recording)
    with caplog.at_level(logging.DEBUG):
        _, t_split = runner.onset_fit(manifest, per_vehicle)
    # The one SMOTE line, then the federated run's head plan line.
    smote, plan = caplog.records
    assert (smote.name, smote.levelname, smote.getMessage()) == (
        "advent.runner", "WARNING",
        "smote: 3 of 5 clients have fewer than 2 minority rows; passed through")
    assert (plan.name, plan.levelname) == ("advent.fed_onset", "INFO")
    assert plan.getMessage().startswith("head plan: blocks=1 clients=5 ")
    assert [c.cid for c in seen] == [1, 2, 3, 4, 5]
    for c in seen:
        secs, x, y = per_vehicle[c.cid]
        train = secs < t_split
        expected = smote_arrays(x[train], y[train], 5.0, seed=manifest.seed * 7919 + c.cid)
        assert np.array_equal(c.x, expected[0]) and np.array_equal(c.y, expected[1])
        assert (len(c.x) > train.sum()) == (minority[c.cid] >= 2)


def test_onset_fit_without_passed_clients_logs_nothing(caplog, tmp_path):
    rng = np.random.default_rng(4)
    y = np.zeros(100, dtype=np.int64)
    y[:30:3] = 1
    per_vehicle = {v: (np.arange(100), rng.poisson(3.0, (100, 4)).astype(float) + 20 * y[:, None],
                       y) for v in (1, 2)}
    manifest = runner.RunManifest(scenario_path="unused.csv", output_dir=str(tmp_path),
                                  method="federated_smote", target_ratio=5.0, rounds=2,
                                  epochs=1, trees_per_client=2)
    with caplog.at_level(logging.DEBUG):
        runner.onset_fit(manifest, per_vehicle)
    # No SMOTE line: only the federated run's head plan line.
    assert [(r.name, r.levelname, r.getMessage()[:28]) for r in caplog.records] == [
        ("advent.fed_onset", "INFO", "head plan: blocks=1 clients=")]


def test_deterministic_per_seed():
    x, y = _data(200, 4)
    a = smote_arrays(x, y, 8.0, seed=7)
    b = smote_arrays(x, y, 8.0, seed=7)
    c = smote_arrays(x, y, 8.0, seed=8)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 120), st.integers(2, 10), st.floats(1.5, 30.0), st.integers(0, 999))
def test_smote_invariants_property(n_maj, n_min, ratio, seed):
    x, y = _data(n_maj, n_min, seed=seed)
    x2, y2 = smote_arrays(x, y, ratio, seed=seed)
    n_min2 = int((y2 == 1).sum())
    # Ratio satisfied, majority untouched, minority never shrinks.
    assert (y2 == 0).sum() == n_maj
    assert n_min2 >= n_min
    assert n_maj / n_min2 <= ratio or n_min2 == n_min
    # Synthetic values stay within the minority bounding box.
    if n_min2 > n_min:
        mn, mx = x[y == 1].min(axis=0), x[y == 1].max(axis=0)
        synth = x2[len(x):]
        assert np.all(synth >= mn - 1e-9) and np.all(synth <= mx + 1e-9)
