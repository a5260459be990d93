import copy
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import fed_onset, gbdt, head
from advent.fed_onset import (
    MESSAGE_TYPES,
    FedClient,
    ProtocolError,
    decode_message,
    detect_onset_batch,
    encode_message,
    fedavg,
    round0_aggregate,
    run_training,
)
from advent.head import HeadConfig, HeadWeights

from conftest import weights_close


def _clients(n_clients=3, rows=60, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for cid in range(1, n_clients + 1):
        x = rng.random((rows, 10)) * 10
        y = (x[:, 0] > 5).astype(float)
        out.append(FedClient(cid=cid, x=x, y=y))
    return out


def _weights(rng, f=2, k=3, t=2):
    return HeadWeights(
        conv_kernels=rng.normal(size=(f, t)),
        conv_bias=rng.normal(size=f),
        dense=rng.normal(size=f * k),
        dense_bias=float(rng.normal()),
    )


def test_message_roundtrip_and_unknown_type():
    line = encode_message("WEIGHTS_UPDATE", 3, 5, {"sample_count": 42})
    msg = decode_message(line)
    assert msg == {"type": "WEIGHTS_UPDATE", "cid": 3, "round": 5,
                   "payload": {"sample_count": 42}}
    assert "\n" not in line  # one JSON object per line on the wire
    with pytest.raises(ValueError):
        encode_message("BOGUS", 1, 0, {})
    with pytest.raises(ProtocolError):
        decode_message(json.dumps({"type": "BOGUS"}))


def test_run_training_rejects_no_rounds():
    cfgs = (gbdt.GbdtConfig(trees_per_client=2), HeadConfig(filters=2, epochs=1))
    for rounds in (0, -1):
        with pytest.raises(ValueError, match="rounds"):
            run_training(_clients(2, rows=30), *cfgs, rounds)
    # One round is round 0 alone: trees and the initial head, no weight round.
    transcript = []
    run_training(_clients(2, rows=30), *cfgs, 1, transcript=transcript)
    assert [decode_message(line)["type"] for line in transcript] == [
        "TREES_UPLOAD", "TREES_UPLOAD", "GLOBAL_ENSEMBLE"]


def test_round0_sorts_by_cid():
    cs = _clients(3)
    subs = [(c.cid, gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=2), client=c.cid))
            for c in cs]
    ordered, w = round0_aggregate(list(reversed(subs)), HeadConfig(filters=2))
    assert [e.client for e in ordered] == [1, 2, 3]
    assert w.kernel_size == 2
    assert w.n_clients == 3


def test_round0_rejects_differing_tree_counts():
    # Round 0 is the one place that checks tree counts: the head's taps
    # assume T trees per client.
    cs = _clients(2)
    subs = [(c.cid, gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=t), client=c.cid))
            for c, t in zip(cs, (2, 3))]
    with pytest.raises(ProtocolError, match="differing tree counts"):
        round0_aggregate(subs)
    with pytest.raises(ProtocolError, match="differing tree counts"):
        round0_aggregate(subs[::-1])
    assert len(round0_aggregate(subs[1:])[0]) == 1


def test_round0_duplicate_cid_rejected():
    c = _clients(1)[0]
    ens = gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=2), client=c.cid)
    with pytest.raises(ProtocolError, match="duplicate"):
        round0_aggregate([(1, ens), (1, ens)])


def test_round0_empty_rejected():
    with pytest.raises(ProtocolError):
        round0_aggregate([])


@pytest.mark.parametrize("token, path, match", [
    ("NaN", ("trees", 0, "root", "l", "v"), "non-finite leaf value"),
    ("Infinity", ("trees", 1, "root", "t"), "non-finite threshold"),
    ("-Infinity", ("base_score",), "non-finite base score"),
], ids=["nan-leaf", "inf-threshold", "inf-base-score"])
def test_round0_rejects_bad_ensemble(token, path, match):
    # The wire format's JSON parser takes NaN and Infinity tokens, so a bad
    # ensemble decodes; round 0 must refuse it and name its client.
    cs = _clients(2)
    good = gbdt.ensemble_to_dict(gbdt.train(cs[0].x, cs[0].y,
                                            gbdt.GbdtConfig(trees_per_client=2), client=1))
    bad = gbdt.ensemble_to_dict(gbdt.train(cs[1].x, cs[1].y,
                                           gbdt.GbdtConfig(trees_per_client=2), client=2))
    assert "l" in bad["trees"][0]["root"] and "t" in bad["trees"][1]["root"]
    *parents, key = path
    target = bad
    for p in parents:
        target = target[p]
    target[key] = "TOKEN"
    line = json.dumps(bad, sort_keys=True).replace('"TOKEN"', token)
    subs = [(1, gbdt.ensemble_from_dict(good)), (2, gbdt.ensemble_from_dict(json.loads(line)))]
    with pytest.raises(ProtocolError, match=f"client 2: {match}"):
        round0_aggregate(subs)
    round0_aggregate(subs[:1])


def test_fedavg_equal_weights_is_mean():
    rng = np.random.default_rng(1)
    w1, w2 = _weights(rng), _weights(rng)
    avg = fedavg([(1, w1, 10), (2, w2, 10)])
    assert np.allclose(avg.conv_kernels, 0.5 * (w1.conv_kernels + w2.conv_kernels))
    assert avg.dense_bias == pytest.approx(0.5 * (w1.dense_bias + w2.dense_bias))


def test_fedavg_sample_count_weighting():
    rng = np.random.default_rng(2)
    w1, w2 = _weights(rng), _weights(rng)
    avg = fedavg([(1, w1, 30), (2, w2, 10)])
    assert np.allclose(avg.dense, 0.75 * w1.dense + 0.25 * w2.dense)


def test_fedavg_permutation_invariance_and_idempotence():
    rng = np.random.default_rng(3)
    ws = [(_weights(rng), int(rng.integers(1, 50))) for _ in range(4)]
    ups = [(i, w, n) for i, (w, n) in enumerate(ws)]
    a = fedavg(ups)
    b = fedavg([ups[2], ups[0], ups[3], ups[1]])
    assert weights_close(a, b, atol=1e-12)
    solo = fedavg([(0, ws[0][0], 17)])
    assert weights_close(solo, ws[0][0], atol=0)


def _fedavg_reference(updates):
    """FedAvg's mean written out field by field, one accumulator each."""
    total = sum(count for _, _, count in updates)
    first = updates[0][1]
    kernels = np.zeros_like(first.conv_kernels)
    bias = np.zeros_like(first.conv_bias)
    dense = np.zeros_like(first.dense)
    dbias = 0.0
    for _, w, count in updates:
        frac = count / total
        kernels += frac * w.conv_kernels
        bias += frac * w.conv_bias
        dense += frac * w.dense
        dbias += frac * w.dense_bias
    return HeadWeights(conv_kernels=kernels, conv_bias=bias, dense=dense, dense_bias=dbias)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_fedavg_matches_per_field_reference(counts, f, k, t, seed):
    # Oracle: the accumulators above.  Bit for bit, and the dense bias stays
    # a Python float, as the wire and the next round read it.
    rng = np.random.default_rng(seed)
    updates = [(i, _weights(rng, f, k, t), n) for i, n in enumerate(counts)]
    got, want = fedavg(updates), _fedavg_reference(updates)
    for field in dataclasses.fields(HeadWeights):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert type(got.dense_bias) is float


def test_fedavg_shape_mismatch_and_bad_count():
    rng = np.random.default_rng(4)
    w = _weights(rng)
    other = _weights(rng, f=3)
    with pytest.raises(ProtocolError, match="shape"):
        fedavg([(1, w, 5), (2, other, 5)])
    # A length-1 conv_bias would broadcast across both filters.
    short_bias = copy.deepcopy(w)
    short_bias.conv_bias = short_bias.conv_bias[:1]
    with pytest.raises(ProtocolError, match="shape"):
        fedavg([(1, w, 5), (2, short_bias, 5)])
    for name in ("conv_kernels", "conv_bias", "dense", "dense_bias"):
        poisoned = copy.deepcopy(w)
        if name == "dense_bias":
            poisoned.dense_bias = float("nan")
        else:
            getattr(poisoned, name).flat[0] = np.nan
        with pytest.raises(ProtocolError, match="non-finite"):
            fedavg([(1, w, 5), (2, poisoned, 5)])
    inf_first = copy.deepcopy(w)
    inf_first.dense[0] = np.inf
    with pytest.raises(ProtocolError, match="non-finite"):
        fedavg([(1, inf_first, 5)])
    with pytest.raises(ProtocolError, match="sample_count"):
        fedavg([(1, w, 0)])
    with pytest.raises(ProtocolError):
        fedavg([])


def test_run_training_round_count_and_transcript():
    cs = _clients(3, rows=40)
    transcript = []
    model = run_training(
        cs,
        gbdt.GbdtConfig(trees_per_client=2),
        HeadConfig(filters=2, epochs=2),
        10,
        transcript=transcript,
    )
    counts = {}
    for line in transcript:
        counts[decode_message(line)["type"]] = counts.get(decode_message(line)["type"], 0) + 1
    # R=10: one tree round then exactly 9 weight rounds.
    assert counts["TREES_UPLOAD"] == 3
    assert counts["GLOBAL_ENSEMBLE"] == 1
    assert counts["WEIGHTS_BROADCAST"] == 9
    assert counts["WEIGHTS_UPDATE"] == 27
    assert model.head.n_clients == 3 and len(model.forest.trees) == 3 * 2


def test_run_training_sends_every_message_type():
    # A run with one weight round puts every protocol message type on the
    # wire and nothing else; keeping the transcript changes no weight.
    cs = _clients(2, rows=30)
    cfgs = (gbdt.GbdtConfig(trees_per_client=2), HeadConfig(filters=2, epochs=1), 2)
    transcript = []
    kept = run_training(cs, *cfgs, transcript=transcript)
    assert transcript and all("\n" not in line for line in transcript)
    assert sorted({decode_message(line)["type"] for line in transcript}) == sorted(MESSAGE_TYPES)
    dropped = run_training(cs, *cfgs)
    assert weights_close(dropped.head, kept.head, atol=0)


def test_run_training_trees_fixed_after_round0():
    cs = _clients(2, rows=30)
    transcript = []
    model = run_training(cs, gbdt.GbdtConfig(trees_per_client=2),
                         HeadConfig(filters=2, epochs=1), 4,
                         transcript=transcript)
    uploaded = {}
    for line in transcript:
        msg = decode_message(line)
        if msg["type"] == "TREES_UPLOAD":
            uploaded[msg["cid"]] = msg["payload"]
    # The final model's forest is the round-0 uploads' in client order, bit
    # for bit, and it is the model's only copy of the trees.
    expected = gbdt.compile_forest([gbdt.ensemble_from_dict(uploaded[cid])
                                    for cid in sorted(uploaded)])
    for name in ("trees", "feature", "threshold", "left", "right", "value"):
        assert getattr(model.forest, name).tobytes() == getattr(expected, name).tobytes()
    assert [f.name for f in dataclasses.fields(model)] == ["forest", "head"]


def test_run_training_uploads_lone_fits():
    # Round 0 fits every client in one call; each upload must still be the
    # client's own fit, a single-class client's and a one-row client's too.
    cs = _clients(3, rows=50, seed=4)
    cs.append(FedClient(cid=7, x=cs[0].x[:25], y=np.zeros(25)))
    cs.append(FedClient(cid=5, x=cs[1].x[:1], y=np.ones(1)))
    cfg = gbdt.GbdtConfig(trees_per_client=3)
    transcript = []
    run_training(cs, cfg, HeadConfig(filters=2, epochs=1), 2,
                 transcript=transcript)
    uploads = [decode_message(line) for line in transcript]
    uploads = [(m["cid"], m["payload"]) for m in uploads if m["type"] == "TREES_UPLOAD"]
    lone = [gbdt.train(c.x, c.y, cfg, client=c.cid) for c in cs]
    assert uploads == [(c.cid, gbdt.ensemble_to_dict(e)) for c, e in zip(cs, lone)]
    # The leaves carry their shrunk steps, so the wire names no shrinkage.
    assert all(set(payload) == {"client", "base_score", "trees"} for _, payload in uploads)


def test_run_training_deterministic():
    m1 = run_training(_clients(2, rows=30), gbdt.GbdtConfig(trees_per_client=2),
                      HeadConfig(filters=2, epochs=2, rng_seed=5), 3)
    m2 = run_training(_clients(2, rows=30), gbdt.GbdtConfig(trees_per_client=2),
                      HeadConfig(filters=2, epochs=2, rng_seed=5), 3)
    assert weights_close(m1.head, m2.head, atol=0)


def test_run_training_matches_per_client_loop(monkeypatch):
    # Reference: each client trains alone with train_on_matrix on its own
    # per_tree_output_matrix and seed, then the round's updates are averaged.
    rng = np.random.default_rng(8)
    clients = []
    for cid, rows in zip((3, 5, 8, 9), (37, 70, 5, 130)):
        x = rng.random((rows, 10)) * 10
        clients.append(FedClient(cid=cid, x=x, y=(x[:, 0] > 5).astype(float)))
    head_cfg = HeadConfig(filters=2, epochs=3, batch_size=16, learning_rate=0.3, rng_seed=5)
    calls = []
    plan_round = head.plan_round

    def recording_plan_round(w, table, ids, *args):
        calls.append((table, ids))
        return plan_round(w, table, ids, *args)

    monkeypatch.setattr(head, "plan_round", recording_plan_round)
    transcript = []
    model = run_training(clients, gbdt.GbdtConfig(trees_per_client=2), head_cfg,
                         4, transcript=transcript)
    picks = {}
    for line in transcript:
        msg = decode_message(line)
        if msg["type"] == "WEIGHTS_UPDATE":
            picks.setdefault(msg["round"], []).append(msg["cid"])
    assert picks == {r: [3, 5, 8, 9] for r in (1, 2, 3)}

    # Every round trains on the plan of one table of pairwise byte-distinct
    # rows, and each client's rows rebuilt from it are its own tree outputs,
    # bitwise.
    [(table, ids)] = calls
    assert table.shape[1] == len(clients) * 2
    assert len({row.tobytes() for row in table}) == len(table) < len(ids)
    matrices = {c.cid: gbdt.per_tree_output_matrix(model.forest, c.x) for c in clients}
    start = 0
    for c in clients:
        stop = start + len(c.y)
        rebuilt = table[ids[start:stop]]
        assert rebuilt.shape == matrices[c.cid].shape
        assert rebuilt.tobytes() == matrices[c.cid].tobytes()
        start = stop

    by_cid = {c.cid: c for c in clients}
    w = head.init(len(clients), 2, head_cfg)
    for r in (1, 2, 3):
        updates = []
        for cid in picks[r]:
            c = by_cid[cid]
            cfg = dataclasses.replace(head_cfg, rng_seed=head_cfg.rng_seed * 100003 + cid * 1009 + r)
            updates.append((cid, head.train_on_matrix(w, matrices[cid], c.y, cfg), len(c.y)))
        w = fedavg(updates)
    assert weights_close(model.head, w, rtol=0, atol=1e-12)


def test_run_training_plans_the_head_once(monkeypatch, caplog):
    # The head's blocks are laid out once per run and every round trains on
    # that one plan, which one INFO line describes.
    plans, used = [], []
    plan_round, train_round = head.plan_round, head.train_round

    def recording_plan(*args):
        plans.append(plan_round(*args))
        return plans[-1]

    def recording_train(w, plan, seeds):
        used.append(plan)
        return train_round(w, plan, seeds)

    monkeypatch.setattr(head, "plan_round", recording_plan)
    monkeypatch.setattr(head, "train_round", recording_train)
    caplog.set_level("INFO", logger="advent.fed_onset")
    run_training(_clients(3, rows=40), gbdt.GbdtConfig(trees_per_client=2),
                 HeadConfig(filters=2, epochs=2), 4)
    assert len(plans) == 1 and len(used) == 3 and all(p is plans[0] for p in used)
    plan = plans[0]
    assert [r.getMessage() for r in caplog.records] == [
        f"head plan: blocks={len(plan.blocks)} clients=3 table_rows={len(plan.table)} "
        f"whole_blocks={sum(b.whole for b in plan.blocks)}"]


def test_run_training_no_clients():
    with pytest.raises(ProtocolError, match="stalled"):
        run_training([], gbdt.GbdtConfig(), HeadConfig(), 10)


def test_detect_onset_threshold():
    cs = _clients(2, rows=60, seed=7)
    model = run_training(cs, gbdt.GbdtConfig(trees_per_client=2),
                         HeadConfig(filters=2, epochs=20), 3)
    x = np.stack([np.full(10, 9.0), np.full(10, 1.0)])
    assert detect_onset_batch(model, x).tolist() == [True, False]
    assert detect_onset_batch(model, x[::-1]).tolist() == [False, True]
    assert detect_onset_batch(model, x[1:]).tolist() == [False]


def test_detect_onset_tie_goes_normal():
    # Zero weights force p = sigmoid(0) = 0.5 exactly; not strictly greater.
    c = _clients(1, rows=30)[0]
    ens = gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=2), client=1)
    w = HeadWeights(conv_kernels=np.zeros((2, 2)), conv_bias=np.zeros(2),
                    dense=np.zeros(2), dense_bias=0.0)
    model = fed_onset.GlobalModel(forest=gbdt.compile_forest([ens]), head=w)
    assert detect_onset_batch(model, np.ones((1, 10))).tolist() == [False]
    assert head.forward_batch(w, gbdt.per_tree_output_matrix(ens, np.ones((1, 10))))[0] == 0.5


# ---------------------------------------------------------------------------
# The head's table of distinct tree vectors

# Thresholds, and feature values that sit exactly on them or between them.
_CUTS = [-2.0, -0.5, 0.0, 1.0, 1.5]
_VALUES = _CUTS + [-0.0, 0.7, 2.5, -7.0, np.nan, np.inf, -np.inf]


def _byte_keyed_table(ensembles, xs):
    """Oracle: every client's tree vectors, each ensemble walked on its own,
    keyed by their bytes into one table of distinct rows, ids in order of
    first appearance."""
    distinct, ids = {}, []
    for x in xs:
        for row in np.hstack([gbdt.per_tree_output_matrix(e, x) for e in ensembles]):
            ids.append(distinct.setdefault(row.tobytes(), len(distinct)))
    table = np.frombuffer(b"".join(distinct), dtype=np.float64).reshape(len(distinct), -1)
    return table, np.array(ids, dtype=np.intp)


def _tree_dicts(depth):
    """Wire-format trees on 3 features whose leaves share a few values,
    -0.0 and 0.0 among them."""
    leaf = st.builds(lambda v: {"v": v}, st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25]))
    if depth == 0:
        return leaf
    return st.one_of(leaf, st.builds(lambda f, t, left, right: {"f": f, "t": t, "l": left,
                                                                "r": right},
                                     st.integers(0, 2), st.sampled_from(_CUTS),
                                     _tree_dicts(depth - 1), _tree_dicts(depth - 1)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tree_table_matches_byte_keyed_build(data):
    # Forests of single leaves, of zero clients (every tree one 0.0 leaf)
    # and of split trees, over rows with NaN, ±inf and values exactly at a
    # threshold.  Small slot blocks find the leaf-value classes over many
    # blocks.
    t = data.draw(st.integers(1, 3))
    ensembles = []
    for cid in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            trees = [{"v": 0.0}] * t
        else:
            trees = [data.draw(_tree_dicts(3)) for _ in range(t)]
        ensembles.append(gbdt.ensemble_from_dict({
            "client": cid, "base_score": 0.0, "trees": [{"root": tree} for tree in trees]}))
    xs = [np.array(data.draw(st.lists(st.lists(st.sampled_from(_VALUES), min_size=3, max_size=3),
                                      min_size=1, max_size=12)))
          for _ in range(data.draw(st.integers(1, 3)))]
    block = data.draw(st.sampled_from([1, 7, gbdt._SLOT_BLOCK]))
    with mock.patch.object(gbdt, "_SLOT_BLOCK", block):
        table, ids = gbdt.distinct_outputs(gbdt.compile_forest(ensembles), np.concatenate(xs))
    expected_table, expected_ids = _byte_keyed_table(ensembles, xs)
    assert table.dtype == np.float64 and table.shape == expected_table.shape
    assert table.tobytes() == expected_table.tobytes()
    np.testing.assert_array_equal(ids, expected_ids)


def test_tree_table_walks_floats_only_for_its_rows(monkeypatch):
    # Feature 0 splits at 1.0 and 2.0 and feature 1 at 0.5, whose two
    # leaves share a value: 30 rows fall in six threshold codes, whose
    # leaf-value classes the slot step finds, and in three classes, the only
    # rows whose floats it finds.  -0.0 leaves stay apart from 0.0 ones.
    ens = gbdt.ensemble_from_dict({"client": 0, "base_score": 0.0, "trees": [
        {"root": {"f": 0, "t": 1.0, "l": {"v": -0.0}, "r": {"f": 0, "t": 2.0, "l": {"v": 0.0},
                                                               "r": {"f": 1, "t": 0.5,
                                                                     "l": {"v": 0.5},
                                                                     "r": {"v": 0.5}}}}}]})
    rng = np.random.default_rng(0)
    xs = [np.column_stack([rng.choice([0.5, 1.0, 1.5, 2.0, 9.0], 15), rng.choice([0.0, 1.0], 15)])
          for _ in range(2)]
    walked = []
    step = gbdt._leaf_blocks

    def counting(m, codes, table):
        walked.append((codes.shape[1], table.dtype))
        return step(m, codes, table)

    monkeypatch.setattr(gbdt, "_leaf_blocks", counting)
    table, ids = gbdt.distinct_outputs(gbdt.compile_forest([ens]), np.concatenate(xs))
    assert walked == [(6, np.uint8), (3, np.float64)]
    assert table.tobytes() == _byte_keyed_table([ens], xs)[0].tobytes()
    assert [np.signbit(v) for v in table[:, 0] if v == 0.0] in ([True, False], [False, True])


def test_pipeline_compiles_the_forest_once(small_scenario_dir, tmp_path, monkeypatch):
    # One federated run builds one forest, and each of its decisions equals
    # the final head over every ensemble walked on its own.
    from advent import runner

    built, decided = [], []
    compile_forest, detect = gbdt.compile_forest, fed_onset.detect_onset_batch

    def counting(ensembles):
        built.append(list(ensembles))
        return compile_forest(ensembles)

    def recording(model, x):
        decided.append((model.head, x, detect(model, x)))
        return decided[-1][2]

    monkeypatch.setattr(gbdt, "compile_forest", counting)
    monkeypatch.setattr(fed_onset, "detect_onset_batch", recording)
    runner.run_pipeline(runner.RunManifest(
        scenario_path=str(small_scenario_dir / "events.csv"), output_dir=str(tmp_path / "run"),
        method="federated", seed=1, rounds=2, epochs=2, trees_per_client=2))
    [ensembles] = built
    clients = [e.client for e in ensembles]
    assert len(clients) > 1 and clients == sorted(clients)
    assert len(decided) > 1 and sum(len(x) for _, x, _ in decided) > 100
    for w, x, flags in decided:
        v = np.hstack([gbdt.per_tree_output_matrix(e, x) for e in ensembles])
        np.testing.assert_array_equal(flags, head.forward_batch(w, v) > 0.5)
