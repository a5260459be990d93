import dataclasses
import json

import numpy as np
import pytest

from advent import fed_onset, gbdt, head
from advent.fed_onset import (
    FedClient,
    FedConfig,
    NotReadyError,
    ProtocolError,
    confirm_onset,
    decode_message,
    detect_onset_batch,
    encode_message,
    fedavg,
    round0_aggregate,
    run_training,
)
from advent.head import HeadConfig, HeadWeights


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
    line = encode_message("ONSET_REPORT", 3, 5, 1, {"t": 42})
    msg = decode_message(line)
    assert (msg["type"], msg["cid"], msg["round"]) == ("ONSET_REPORT", 3, 5)
    assert msg["payload"] == {"t": 42}
    with pytest.raises(ValueError):
        encode_message("BOGUS", 1, 0, 0, {})
    with pytest.raises(ProtocolError):
        decode_message(json.dumps({"type": "BOGUS"}))


def test_round0_sorts_by_cid():
    cs = _clients(3)
    subs = [(c.cid, gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=2), client=c.cid))
            for c in cs]
    model = round0_aggregate(list(reversed(subs)), HeadConfig(filters=2))
    assert [e.client for e in model.ensembles] == [1, 2, 3]
    assert model.head.kernel_size == 2
    assert model.head.n_clients == 3


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
    ("0.0", ("shrinkage",), "shrinkage outside"),
    ("1.5", ("shrinkage",), "shrinkage outside"),
    ("NaN", ("shrinkage",), "shrinkage outside"),
], ids=["nan-leaf", "inf-threshold", "inf-base-score", "zero-shrinkage", "large-shrinkage",
        "nan-shrinkage"])
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
    subs = [(1, gbdt.ensemble_from_dict(good)), (2, gbdt.ensemble_from_json(line))]
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
    assert a.allclose(b, atol=1e-12)
    solo = fedavg([(0, ws[0][0], 17)])
    assert solo.allclose(ws[0][0], atol=0)


def test_fedavg_shape_mismatch_and_bad_count():
    rng = np.random.default_rng(4)
    w = _weights(rng)
    other = _weights(rng, f=3)
    with pytest.raises(ProtocolError, match="shape"):
        fedavg([(1, w, 5), (2, other, 5)])
    # A length-1 conv_bias would broadcast across both filters.
    short_bias = w.copy()
    short_bias.conv_bias = short_bias.conv_bias[:1]
    with pytest.raises(ProtocolError, match="shape"):
        fedavg([(1, w, 5), (2, short_bias, 5)])
    for name in ("conv_kernels", "conv_bias", "dense", "dense_bias"):
        poisoned = w.copy()
        if name == "dense_bias":
            poisoned.dense_bias = float("nan")
        else:
            getattr(poisoned, name).flat[0] = np.nan
        with pytest.raises(ProtocolError, match="non-finite"):
            fedavg([(1, w, 5), (2, poisoned, 5)])
    inf_first = w.copy()
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
        FedConfig(rounds=10),
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
    assert model.round == 9
    assert model.complete
    assert model.model_version == 1


def test_run_training_trees_fixed_after_round0():
    cs = _clients(2, rows=30)
    transcript = []
    model = run_training(cs, gbdt.GbdtConfig(trees_per_client=2),
                         HeadConfig(filters=2, epochs=1), FedConfig(rounds=4),
                         transcript=transcript)
    uploaded = {}
    for line in transcript:
        msg = decode_message(line)
        if msg["type"] == "TREES_UPLOAD":
            uploaded[msg["cid"]] = msg["payload"]
    # The final model's ensembles are bit-identical to the round-0 uploads.
    for ens in model.ensembles:
        assert gbdt.ensemble_to_dict(ens) == uploaded[ens.client]


def test_run_training_uploads_lone_fits():
    # Round 0 fits every client in one call; each upload must still be the
    # client's own fit, a single-class client's and a one-row client's too.
    cs = _clients(3, rows=50, seed=4)
    cs.append(FedClient(cid=7, x=cs[0].x[:25], y=np.zeros(25)))
    cs.append(FedClient(cid=5, x=cs[1].x[:1], y=np.ones(1)))
    cfg = gbdt.GbdtConfig(trees_per_client=3)
    transcript = []
    run_training(cs, cfg, HeadConfig(filters=2, epochs=1), FedConfig(rounds=2),
                 transcript=transcript)
    uploads = [decode_message(line) for line in transcript]
    uploads = [(m["cid"], m["payload"]) for m in uploads if m["type"] == "TREES_UPLOAD"]
    lone = [gbdt.train(c.x, c.y, cfg, client=c.cid) for c in cs]
    assert uploads == [(c.cid, gbdt.ensemble_to_dict(e)) for c, e in zip(cs, lone)]


def test_run_training_deterministic():
    m1 = run_training(_clients(2, rows=30), gbdt.GbdtConfig(trees_per_client=2),
                      HeadConfig(filters=2, epochs=2, rng_seed=5), FedConfig(rounds=3))
    m2 = run_training(_clients(2, rows=30), gbdt.GbdtConfig(trees_per_client=2),
                      HeadConfig(filters=2, epochs=2, rng_seed=5), FedConfig(rounds=3))
    assert m1.head.allclose(m2.head, atol=0)


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
    train_round = head.train_round

    def recording_train_round(w, table, ids, *args):
        calls.append((table, ids))
        return train_round(w, table, ids, *args)

    monkeypatch.setattr(head, "train_round", recording_train_round)
    transcript = []
    model = run_training(clients, gbdt.GbdtConfig(trees_per_client=2), head_cfg,
                         FedConfig(rounds=4), transcript=transcript)
    picks = {}
    for line in transcript:
        msg = decode_message(line)
        if msg["type"] == "WEIGHTS_UPDATE":
            picks.setdefault(msg["round"], []).append(msg["cid"])
    assert picks == {r: [3, 5, 8, 9] for r in (1, 2, 3)}

    # Every round trains on one table of pairwise byte-distinct rows, and
    # each client's rows rebuilt from it are its own tree outputs, bitwise.
    table, ids = calls[0]
    assert len(calls) == 3 and all(c[0] is table and c[1] is ids for c in calls)
    k, t = len(clients), 2
    outputs = table.reshape(len(table), k, t + 1)[:, :, :t].reshape(len(table), k * t)
    assert len({row.tobytes() for row in outputs}) == len(table) < len(ids)
    matrices = {c.cid: gbdt.per_tree_output_matrix(model.ensembles, c.x) for c in clients}
    start = 0
    for c in clients:
        stop = start + len(c.y)
        rebuilt = outputs[ids[start:stop]]
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
    assert model.head.allclose(w, rtol=0, atol=1e-12)


def test_run_training_no_clients():
    with pytest.raises(ProtocolError, match="stalled"):
        run_training([], gbdt.GbdtConfig(), HeadConfig(), FedConfig())


def test_detect_onset_threshold_and_not_ready():
    cs = _clients(2, rows=60, seed=7)
    model = run_training(cs, gbdt.GbdtConfig(trees_per_client=2),
                         HeadConfig(filters=2, epochs=20), FedConfig(rounds=3))
    x = np.stack([np.full(10, 9.0), np.full(10, 1.0)])
    assert detect_onset_batch(model, x).tolist() == [True, False]
    assert detect_onset_batch(model, x[::-1]).tolist() == [False, True]
    assert detect_onset_batch(model, x[1:]).tolist() == [False]
    model.round, model.total_rounds = 0, 5
    with pytest.raises(NotReadyError):
        detect_onset_batch(model, x)
    with pytest.raises(NotReadyError):
        detect_onset_batch(model, x[:1])


def test_detect_onset_tie_goes_normal():
    # Zero weights force p = sigmoid(0) = 0.5 exactly; not strictly greater.
    c = _clients(1, rows=30)[0]
    ens = gbdt.train(c.x, c.y, gbdt.GbdtConfig(trees_per_client=2), client=1)
    w = HeadWeights(conv_kernels=np.zeros((2, 2)), conv_bias=np.zeros(2),
                    dense=np.zeros(2), dense_bias=0.0)
    model = fed_onset.GlobalModel(ensembles=[ens], head=w, round=0, total_rounds=1)
    assert detect_onset_batch(model, np.ones((1, 10))).tolist() == [False]
    assert head.forward_batch(w, gbdt.per_tree_output_matrix([ens], np.ones((1, 10))))[0] == 0.5


def test_confirm_onset_quorum():
    assert confirm_onset([(1, 0.0), (2, 1.5)], quorum=2, window_s=2.0) == "confirmed"
    assert confirm_onset([(1, 0.0), (2, 3.0)], quorum=2, window_s=2.0) == "unconfirmed"
    # Same client twice is one distinct reporter.
    assert confirm_onset([(1, 0.0), (1, 0.5)], quorum=2, window_s=2.0) == "unconfirmed"
    assert confirm_onset([(1, 0.0)], quorum=1) == "confirmed"
    assert confirm_onset([], quorum=1) == "unconfirmed"
    with pytest.raises(ValueError):
        confirm_onset([], quorum=0)


def test_confirm_onset_window_slides():
    # No pair within 2 s of the earliest report, but (2,3) are within 2 s.
    reports = [(1, 0.0), (2, 5.0), (3, 6.5)]
    assert confirm_onset(reports, quorum=2, window_s=2.0) == "confirmed"
