"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The scenario runs (criteria 5-7) take a few minutes; everything else is fast.
"""

import json
import time

import numpy as np
import pytest

from advent import cli, fed_mnd, fed_onset, gbdt, head, mnd, runner, scenario
from advent.balance import BalanceConfig, smote_arrays
from advent.head import HeadConfig, HeadWeights
from advent.preprocess import NeighborCounts

from test_gbdt import brute_force_split, logistic_gh
from test_head import finite_difference, random_weights, reference_logits

SEEDS = (1, 2, 3, 4, 5)


def _verdict(num, desc, ok):
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _accept_config(seed):
    return scenario.ScenarioConfig(
        duration_s=3600,
        total_vehicles=60,
        concurrent_range=(6, 12),
        arrival_interval_s=60,
        attacker_fraction=0.05,
        attack_count=6,
        attack_spacing_s=500,
        attack_duration_s=25,
        normal_rate_pps=1.0,
        flood_rate_pps=25.0,
        neighbor_degree=12,
        rng_seed=seed,
    )


@pytest.fixture(scope="module")
def acceptance_runs(tmp_path_factory):
    """Per seed: centralized (two MND modes) and federated+SMOTE pipeline runs."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for seed in SEEDS:
        d = root / f"seed{seed}"
        d.mkdir()
        events, truth = scenario.generate(_accept_config(seed))
        scenario.write_events_csv(d / "events.csv", events, truth)
        scenario.write_ground_truth(d / "truth.json", truth)
        base = dict(scenario_path=str(d / "events.csv"), seed=seed)
        cen = runner.run_pipeline(runner.RunManifest(
            output_dir=str(d / "cen"), method="centralized",
            mnd_mode="fl_aggregate", **base))
        th2 = runner.run_pipeline(runner.RunManifest(
            output_dir=str(d / "th2"), method="centralized",
            mnd_mode="fl_threshold", th=2, **base))
        t0 = time.perf_counter()
        fed = runner.run_pipeline(runner.RunManifest(
            output_dir=str(d / "fed"), method="federated_smote",
            mnd_mode="fl_aggregate", epochs=30, target_ratio=5.0, **base))
        fed_s = time.perf_counter() - t0
        out[seed] = {"centralized": cen, "th2": th2, "fed": fed, "fed_s": fed_s}
    return out


def test_criterion_1_mad_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        values = rng.uniform(0, 1e4, n) * rng.choice([1.0, 100.0])
        got = mnd.mad(values)
        ref = 1.4826 * np.median(np.abs(values - np.median(values)))
        worst = max(worst, abs(got - ref))
        lo, hi = mnd.rejection_bounds(values)
        med = np.median(values)
        worst = max(worst, abs(lo - (med - 3.0 * ref)), abs(hi - (med + 3.0 * ref)))
    elapsed = time.perf_counter() - t0
    _verdict(1, f"MAD matches oracle on 1000 vectors (max err {worst:.2e}, {elapsed:.2f}s)",
             worst <= 1e-12 and elapsed < 5.0)


def test_criterion_2_gbdt_split_oracle():
    rng = np.random.default_rng(1)
    mismatches = 0
    decreasing = True
    for i in range(200):
        n = int(rng.integers(5, 80))
        nf = int(rng.integers(2, 11))
        x = np.round(rng.random((n, nf)) * rng.integers(2, 30), 2)
        y = (rng.random(n) > 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = gbdt.GbdtConfig(trees_per_client=1, max_depth=1,
                              min_samples_leaf=int(rng.integers(1, 4)))
        base = np.log(y.mean() / (1 - y.mean()))
        g, h = logistic_gh(np.full(n, base), y)
        expected = brute_force_split(x, g, h, cfg)
        root = gbdt.train(x, y, cfg).trees[0].root
        if expected is None:
            ok = root.is_leaf
        else:
            ok = (root.feature, root.threshold) == (expected[1], expected[2])
        mismatches += 0 if ok else 1
        if i < 20:
            # Full ensembles: training loss never increases across rounds.
            ens = gbdt.train(x, y, gbdt.GbdtConfig(trees_per_client=6))
            margins = np.full(n, ens.base_score)
            prev = np.inf
            for tree in ens.trees:
                margins += ens.shrinkage * gbdt._tree_apply(tree.root, x)
                p = 1.0 / (1.0 + np.exp(-margins))
                loss = float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
                if loss > prev + 1e-12:
                    decreasing = False
                prev = loss
    _verdict(2, f"GBDT split search matches exhaustive oracle on 200 datasets "
                f"({mismatches} mismatches), loss non-increasing",
             mismatches == 0 and decreasing)


def test_criterion_3_head_gradients():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        t = int(rng.integers(1, 5))
        b = int(rng.integers(1, 9))
        while True:
            w = random_weights(rng, f, k, t)
            v = rng.normal(size=(b, k * t))
            # Keep logits away from sigmoid saturation, where the central
            # difference of the clamped loss goes flat and stops being a
            # valid oracle.
            if np.max(np.abs(reference_logits(w, v))) < 10:
                break
        y = (rng.random(b) > 0.5).astype(float)
        _, analytic = head.gradients(w, v, y)
        numeric = finite_difference(w, v, y)
        for a, n in zip(analytic, numeric):
            denom = max(np.max(np.abs(np.asarray(n))), 1.0)
            worst = max(worst, np.max(np.abs(np.asarray(a) - np.asarray(n))) / denom)
    _verdict(3, f"head gradients match finite differences on 100 instances "
                f"(max rel err {worst:.2e})", worst <= 1e-4)


def test_criterion_4_federated_protocol():
    rng = np.random.default_rng(3)
    ups = []
    for i in range(5):
        ups.append((i, HeadWeights(conv_kernels=rng.normal(size=(3, 2)),
                                   conv_bias=rng.normal(size=3),
                                   dense=rng.normal(size=12),
                                   dense_bias=float(rng.normal())),
                    int(rng.integers(1, 40))))
    a = fed_onset.fedavg(ups)
    b = fed_onset.fedavg([ups[4], ups[1], ups[3], ups[0], ups[2]])
    perm_ok = a.allclose(b, atol=1e-12)
    idem_ok = fed_onset.fedavg([ups[0]]).allclose(ups[0][1], atol=0)

    clients = []
    for cid in range(1, 4):
        x = rng.random((50, 10)) * 10
        y = (x[:, 0] > 5).astype(float)
        clients.append(fed_onset.FedClient(cid=cid, x=x, y=y))
    transcript = []
    model = fed_onset.run_training(clients, gbdt.GbdtConfig(trees_per_client=2),
                                   HeadConfig(filters=2, epochs=1),
                                   fed_onset.FedConfig(rounds=10), transcript=transcript)
    uploads = {}
    weight_rounds = set()
    for line in transcript:
        msg = fed_onset.decode_message(line)
        if msg["type"] == "TREES_UPLOAD":
            uploads[msg["cid"]] = json.dumps(msg["payload"], sort_keys=True)
        elif msg["type"] == "WEIGHTS_BROADCAST":
            weight_rounds.add(msg["round"])
    trees_ok = all(
        json.dumps(gbdt.ensemble_to_dict(e), sort_keys=True) == uploads[e.client]
        for e in model.ensembles
    )
    rounds_ok = weight_rounds == set(range(1, 10))
    _verdict(4, f"fedavg invariances ({perm_ok}, {idem_ok}), trees bit-identical "
                f"({trees_ok}), 9 weight rounds for R=10 ({rounds_ok})",
             perm_ok and idem_ok and trees_ok and rounds_ok)


def test_criterion_5_onset_quality(acceptance_runs):
    ok = True
    details = []
    for seed in SEEDS:
        cen = acceptance_runs[seed]["centralized"]["onset"]
        fed = acceptance_runs[seed]["fed"]["onset"]
        fed_s = acceptance_runs[seed]["fed_s"]
        gap = (cen["f1"] - fed["f1"]) * 100
        seed_ok = (cen["f1"] >= 0.99 and cen["far"] <= 0.002
                   and gap <= 1.5 and fed_s <= 300.0)
        ok = ok and seed_ok
        details.append(f"s{seed}: cenF1={cen['f1']:.4f} far={cen['far']:.4f} "
                       f"gap={gap:.2f}pt {fed_s:.0f}s")
    _verdict(5, "held-out onset quality, seeds 1-5 (" + "; ".join(details) + ")", ok)


def test_criterion_6_first_second(acceptance_runs):
    flagged = 0
    total = 0
    for seed in SEEDS:
        d = acceptance_runs[seed]["centralized"]
        fsr = d["first_second_rate"]
        # Six non-degenerate windows per seed.
        flagged += round(fsr * 6)
        total += 6
    rate = flagged / total
    _verdict(6, f"first-second onset rate {flagged}/{total} = {rate:.3f}",
             total == 30 and rate >= 0.96)


def test_criterion_7_mnd_quality(acceptance_runs):
    ok = True
    details = []
    for seed in SEEDS:
        agg = acceptance_runs[seed]["centralized"]["mnd"]
        th2 = acceptance_runs[seed]["th2"]["mnd"]
        seed_ok = (agg["dr"] == 1.0 and th2["far"] <= agg["far"] and th2["dr"] >= 0.985)
        ok = ok and seed_ok
        details.append(f"s{seed}: aggDR={agg['dr']:.3f} aggFAR={agg['far']:.4f} "
                       f"th2DR={th2['dr']:.3f} th2FAR={th2['far']:.4f}")
    _verdict(7, "MND quality, seeds 1-5 (" + "; ".join(details) + ")", ok)


def test_criterion_8_smote_invariants():
    rng = np.random.default_rng(4)
    ok = True
    for trial in range(20):
        n_maj = int(rng.integers(50, 300))
        n_min = int(rng.integers(3, 15))
        x = np.vstack([rng.normal(0, 1, (n_maj, 10)), rng.normal(8, 1, (n_min, 10))])
        y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
        ratio = float(rng.uniform(2, 20))
        x2, y2 = smote_arrays(x, y, BalanceConfig(target_ratio=ratio), seed=trial)
        n_min2 = int((y2 == 1).sum())
        if not np.array_equal(x2[: len(x)], x) or int((y2 == 0).sum()) != n_maj:
            ok = False
        if n_min2 != max(n_min, int(np.ceil(n_maj / ratio))):
            ok = False
        minority = x[y == 1]
        mn, mx = minority.min(axis=0), minority.max(axis=0)
        for row in x2[len(x):]:
            # Convexity: each synthetic row lies on a segment between two
            # minority rows, hence within the minority bounding box, and is
            # an affine combination of some pair (checked exactly).
            if not (np.all(row >= mn - 1e-9) and np.all(row <= mx + 1e-9)):
                ok = False
            on_segment = False
            for i in range(n_min):
                for j in range(n_min):
                    if i == j:
                        continue
                    d = minority[j] - minority[i]
                    denom = d @ d
                    if denom == 0:
                        continue
                    lam = (row - minority[i]) @ d / denom
                    if -1e-9 <= lam <= 1 + 1e-9 and np.allclose(
                            minority[i] + lam * d, row, atol=1e-8):
                        on_segment = True
                        break
                if on_segment:
                    break
            if not on_segment:
                ok = False
    _verdict(8, "SMOTE convexity, ratio, and majority invariants over 20 trials", ok)


def test_criterion_9_deterministic_reports(tmp_path, small_scenario_dir):
    mpath = tmp_path / "m.json"
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        mpath.write_text(json.dumps({
            "scenario_path": str(small_scenario_dir / "events.csv"),
            "output_dir": str(out),
            "method": "centralized",
            "mnd_mode": "fl_aggregate",
            "seed": 3,
        }))
        rc = cli.main(["run", "--config", str(mpath)])
        assert rc == 0
        blobs.append((out / "report.json").read_bytes())
    _verdict(9, "cmd_run produces byte-identical report.json across repeats",
             blobs[0] == blobs[1])


def test_criterion_10_serialization_roundtrips(tmp_path):
    rng = np.random.default_rng(5)
    ok = True
    # Tree ensembles.
    x = rng.random((60, 10))
    y = (x[:, 0] > 0.5).astype(float)
    ens = gbdt.train(x, y, gbdt.GbdtConfig(), client=3)
    s = gbdt.ensemble_to_json(ens)
    ok &= gbdt.ensemble_to_json(gbdt.ensemble_from_json(s)) == s
    # Head weights.
    w = head.init(4, 10, HeadConfig(rng_seed=1))
    w2 = head.weights_from_json(head.weights_to_json(w))
    ok &= bool(np.array_equal(w2.conv_kernels, w.conv_kernels)
               and np.array_equal(w2.dense, w.dense)
               and w2.dense_bias == w.dense_bias)
    # Suspicion reports.
    rep = mnd.detect(NeighborCounts(vehicle=1, interval=(0.0, 10.0),
                                    per_sender={2: 10, 3: 9, 4: 240}))
    back = mnd.report_from_json(mnd.report_to_json(rep))
    ok &= back.suspected == rep.suspected and back.stats == rep.stats
    # Broadcast and protocol messages.
    line = fed_mnd.make_broadcast_message({4, 2}, 7, "stateful", 30.0)
    ok &= fed_mnd.parse_broadcast_message(line)["ids"] == [2, 4]
    pline = fed_onset.encode_message("WEIGHTS_UPDATE", 2, 3, 1,
                                     {"weights": head.weights_to_dict(w),
                                      "sample_count": 12})
    msg = fed_onset.decode_message(pline)
    ok &= head.weights_from_dict(msg["payload"]["weights"]).allclose(w, atol=0)
    # Reports on disk.
    report = {"onset": {"f1": 1.0}, "mnd": {"dr": float("nan")}, "seed": 1}
    runner.write_report(tmp_path / "r.json", report)
    loaded = runner.load_report(tmp_path / "r.json")
    ok &= loaded["onset"] == report["onset"] and np.isnan(loaded["mnd"]["dr"])
    _verdict(10, "serialization round-trips exact for all wire formats", bool(ok))
