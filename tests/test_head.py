import copy
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import head
from advent.head import (
    HeadConfig,
    HeadWeights,
    forward_batch,
    gradients,
    init,
    train_on_matrix,
    train_round,
    weights_from_dict,
    weights_to_dict,
)

from conftest import weights_close


def finite_difference(w, v, y, eps=1e-6):
    """Central-difference gradient of the mean BCE for every parameter."""

    def loss_at(wmod):
        return gradients(wmod, v, y)[0]

    grads = []
    for name in ("conv_kernels", "conv_bias", "dense"):
        arr = getattr(w, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            wp, wm = copy.deepcopy(w), copy.deepcopy(w)
            getattr(wp, name)[idx] += eps
            getattr(wm, name)[idx] -= eps
            g[idx] = (loss_at(wp) - loss_at(wm)) / (2 * eps)
        grads.append(g)
    wp, wm = copy.deepcopy(w), copy.deepcopy(w)
    wp.dense_bias += eps
    wm.dense_bias -= eps
    grads.append((loss_at(wp) - loss_at(wm)) / (2 * eps))
    return tuple(grads)


def reference_logits(w, v):
    """Conv + dense head as explicit loops: per filter f and client window k,
    act = conv_bias[f] + sum_t kernels[f, t] * v[k*T + t]; the logit is
    dense_bias + sum_f,k dense[f*K + k] * act (filter-major dense layout)."""
    f_, t_ = w.conv_kernels.shape
    k_ = len(w.dense) // f_
    out = []
    for row in np.atleast_2d(np.asarray(v, dtype=np.float64)):
        z = w.dense_bias
        for f in range(f_):
            for k in range(k_):
                act = w.conv_bias[f]
                for t in range(t_):
                    act += w.conv_kernels[f, t] * row[k * t_ + t]
                z += w.dense[f * k_ + k] * act
        out.append(z)
    return np.array(out)


def random_weights(rng, f, k, t):
    return HeadWeights(
        conv_kernels=rng.normal(size=(f, t)),
        conv_bias=rng.normal(size=f),
        dense=rng.normal(size=f * k),
        dense_bias=float(rng.normal()),
    )


def test_config_invariants():
    with pytest.raises(ValueError):
        HeadConfig(filters=0)
    with pytest.raises(ValueError):
        HeadConfig(batch_size=0)


def test_init_shapes_and_determinism():
    cfg = HeadConfig(filters=4, rng_seed=3)
    w1 = init(5, 10, cfg)
    w2 = init(5, 10, cfg)
    assert w1.conv_kernels.shape == (4, 10)
    assert w1.dense.shape == (20,)
    assert weights_close(w1, w2)
    assert not weights_close(w1, init(5, 10, HeadConfig(filters=4, rng_seed=4)))


def test_forward_hand_computed():
    # F=1, K=2, T=2: prob = sigmoid(d . (k . v_c + b) + db) worked by hand.
    w = HeadWeights(
        conv_kernels=np.array([[1.0, 2.0]]),
        conv_bias=np.array([0.5]),
        dense=np.array([1.0, -1.0]),
        dense_bias=0.25,
    )
    v = np.array([1.0, 1.0, 2.0, 0.0])
    # client activations: [1*1+2*1+0.5, 1*2+2*0+0.5] = [3.5, 2.5]
    z = 3.5 - 2.5 + 0.25
    assert forward_batch(w, v)[0] == pytest.approx(1.0 / (1.0 + np.exp(-z)))
    assert reference_logits(w, v)[0] == pytest.approx(z)


def test_forward_flatten_is_filter_major():
    # With F=2, K=2 the dense layout must be [f0c0, f0c1, f1c0, f1c1].
    w = HeadWeights(
        conv_kernels=np.array([[1.0], [0.0]]),
        conv_bias=np.zeros(2),
        dense=np.array([1.0, 0.0, 0.0, 0.0]),
        dense_bias=0.0,
    )
    # Only filter 0 applied to client 0 contributes.
    assert forward_batch(w, [4.0, -100.0])[0] == pytest.approx(1.0 / (1.0 + np.exp(-4.0)))


def test_forward_batch_matches_scalar():
    rng = np.random.default_rng(0)
    w = random_weights(rng, 3, 4, 5)
    v = rng.normal(size=(7, 20))
    batch = forward_batch(w, v)
    for i in range(7):
        assert batch[i] == pytest.approx(forward_batch(w, v[i])[0])


def test_forward_and_loss_match_loop_reference():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f, k, t = (int(x) for x in rng.integers(1, 6, size=3))
        b = int(rng.integers(1, 9))
        w = random_weights(rng, f, k, t)
        v = rng.normal(size=(b, k * t))
        y = (rng.random(b) > 0.5).astype(float)
        p_ref = 1.0 / (1.0 + np.exp(-np.clip(reference_logits(w, v), -500, 500)))
        loss_ref = -np.mean(y * np.log(p_ref + 1e-12) + (1 - y) * np.log(1 - p_ref + 1e-12))
        np.testing.assert_allclose(forward_batch(w, v), p_ref, rtol=1e-12, atol=1e-12)
        assert gradients(w, v, y)[0] == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)


def test_forward_rejects_wrong_length():
    w = init(2, 3, HeadConfig())
    with pytest.raises(ValueError):
        forward_batch(w, np.zeros(5))
    with pytest.raises(ValueError):
        gradients(w, np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ValueError):
        train_on_matrix(w, np.zeros((2, 5)), np.zeros(2), HeadConfig())


def test_forward_extreme_logits_finite():
    w = HeadWeights(
        conv_kernels=np.array([[1000.0]]),
        conv_bias=np.zeros(1),
        dense=np.array([1000.0]),
        dense_bias=0.0,
    )
    p = forward_batch(w, [1e6])[0]
    assert 0.0 < p <= 1.0
    assert np.isfinite(p)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        b = int(rng.integers(1, 8))
        while True:
            w = random_weights(rng, f, k, t)
            v = rng.normal(size=(b, k * t))
            # Saturated logits make the central difference of the clamped
            # loss flat, so it stops being a valid oracle there.
            if np.max(np.abs(reference_logits(w, v))) < 10:
                break
        y = (rng.random(b) > 0.5).astype(float)
        _, analytic = gradients(w, v, y)
        numeric = finite_difference(w, v, y)
        for a, n in zip(analytic, numeric):
            denom = max(np.max(np.abs(n)), 1.0)
            assert np.max(np.abs(np.asarray(a) - np.asarray(n))) / denom < 1e-4


def test_train_reduces_loss_on_separable_data():
    rng = np.random.default_rng(2)
    v = np.vstack([rng.normal(-2, 0.5, size=(40, 6)), rng.normal(2, 0.5, size=(40, 6))])
    y = np.concatenate([np.zeros(40), np.ones(40)])
    cfg = HeadConfig(filters=2, epochs=50, rng_seed=0)
    w0 = init(2, 3, cfg)
    w1 = train_on_matrix(w0, v, y, cfg)
    l0, _ = gradients(w0, v, y)
    l1, _ = gradients(w1, v, y)
    assert l1 < l0
    assert np.mean((forward_batch(w1, v) > 0.5) == y) > 0.9


def test_train_deterministic_and_pure():
    rng = np.random.default_rng(3)
    v, y = rng.normal(size=(30, 8)), (rng.random(30) > 0.5).astype(float)
    cfg = HeadConfig(filters=2, epochs=5, rng_seed=9)
    w0 = init(4, 2, cfg)
    snapshot = copy.deepcopy(w0)
    w1 = train_on_matrix(w0, v, y, cfg)
    w2 = train_on_matrix(w0, v, y, cfg)
    assert weights_close(w0, snapshot)  # input left untouched
    assert weights_close(w1, w2, atol=0)


def test_train_zero_epochs_identity():
    cfg = HeadConfig(epochs=0)
    w0 = init(2, 2, cfg)
    w1 = train_on_matrix(w0, np.ones((4, 4)), np.zeros(4), cfg)
    assert weights_close(w1, w0, atol=0)


def test_train_matches_gradients_step_loop():
    # Plain SGD written against the public gradients: the same permutation
    # per epoch, the same batches, one update per batch.
    rng = np.random.default_rng(6)
    for f, k, t, n, bs in ((2, 3, 4, 50, 8), (4, 12, 10, 130, 64), (1, 1, 1, 5, 7)):
        v = rng.normal(size=(n, k * t))
        y = (rng.random(n) > 0.5).astype(float)
        cfg = HeadConfig(filters=f, epochs=4, batch_size=bs, learning_rate=0.3, rng_seed=11)
        w = init(k, t, cfg)
        ref = copy.deepcopy(w)
        order_rng = np.random.default_rng(cfg.rng_seed)
        for _ in range(cfg.epochs):
            order = order_rng.permutation(n)
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                _, (dk, db, dd, ddb) = gradients(ref, v[idx], y[idx])
                ref.conv_kernels -= cfg.learning_rate * dk
                ref.conv_bias -= cfg.learning_rate * db
                ref.dense -= cfg.learning_rate * dd
                ref.dense_bias -= cfg.learning_rate * ddb
        assert weights_close(train_on_matrix(w, v, y, cfg), ref, rtol=0, atol=1e-12)


def sgd_with_gradients(w, v, y, seed, cfg):
    """Plain SGD written against the public gradients: one rng.permutation
    per epoch, batches of cfg.batch_size in that order, one update per batch."""
    ref = copy.deepcopy(w)
    order_rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(v))
        for start in range(0, len(v), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, (dk, db, dd, ddb) = gradients(ref, v[idx], y[idx])
            ref.conv_kernels -= cfg.learning_rate * dk
            ref.conv_bias -= cfg.learning_rate * db
            ref.dense -= cfg.learning_rate * dd
            ref.dense_bias -= cfg.learning_rate * ddb
    return ref


def planned_round(w, table, ids, y, spans, seeds, cfg):
    """One `train_round` on a plan of these rows built for it alone."""
    return train_round(w, head.plan_round(w, table, ids, y, spans, cfg), seeds)


def round_with_layouts(w, table, ids, y, spans, seeds, cfg):
    """`planned_round`, and the layout each block that stepped took, in
    block order: "whole" when its steps computed on one shared 2-D array of
    rows, "gathered" when on per-client 3-D rows.  Every block steps in one
    layout, and it is whole exactly when it uses no more table rows than a
    batch holds."""
    taken = []
    step, train_block = head._step, head._train_block

    def spy_block(w, table, block, seeds, config):
        assert block.whole == (len(block.used) <= config.batch_size)
        taken.append(set())
        return train_block(w, table, block, seeds, config)

    def spy_step(s, rows, cnt, pos):
        taken[-1].add("whole" if rows.ndim == 2 else "gathered")
        return step(s, rows, cnt, pos)

    with mock.patch.object(head, "_train_block", spy_block), \
            mock.patch.object(head, "_step", spy_step):
        out = planned_round(w, table, ids, y, spans, seeds, cfg)
    assert all(len(kinds) <= 1 for kinds in taken)
    return out, [kind for kinds in taken for kind in kinds]


@pytest.mark.parametrize("block_values", [None, 1, 300])
@pytest.mark.parametrize("epochs", [0, 3])
def test_train_round_matches_lone_sgd_per_client(monkeypatch, block_values, epochs):
    # Batch size 8, every row its own table row.  Clients: several batches
    # plus a partial one, one row, fewer rows than a batch, an exact multiple
    # of the batch; the spans are out of order and leave gaps.  Small block
    # budgets split the round into one-client blocks or blocks of three.
    if block_values is not None:
        monkeypatch.setattr(head, "_ROUND_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(12)
    f, k, t = 3, 2, 4
    v = rng.normal(size=(80, k * t))
    y = (rng.random(80) > 0.5).astype(float)
    spans = [(40, 67), (0, 1), (10, 15), (20, 36), (70, 71)]
    seeds = [7, 3, 19, 3, 44]
    cfg = HeadConfig(filters=f, epochs=epochs, batch_size=8, learning_rate=0.3, rng_seed=999)
    w = init(k, t, cfg)
    snapshot = copy.deepcopy(w)
    out = planned_round(w, v, np.arange(80), y, spans, seeds, cfg)
    assert weights_close(w, snapshot, rtol=0, atol=0)  # input left untouched
    assert len(out) == len(spans)
    for (a, b), seed, got in zip(spans, seeds, out):
        ref = sgd_with_gradients(w, v[a:b], y[a:b], seed, cfg)
        assert weights_close(got, ref, rtol=0, atol=1e-12)
        if epochs == 0:
            assert weights_close(got, w, rtol=0, atol=0)


@pytest.mark.parametrize("block_values", [None, 1, 300])
@pytest.mark.parametrize("epochs", [0, 3])
def test_train_round_on_repeated_ids_matches_expanded_sgd(monkeypatch, block_values, epochs):
    # Each client's rows are table rows picked by id, so ids repeat within
    # batches and across clients, and one batch holds the same row under
    # both labels.  Batch size 8.  Clients: 21 rows (a last batch of 5 rows
    # and 3 pads), 1 row, 8 copies of one row with mixed labels, 13 rows, 19
    # rows that all share one id, 11 rows with no positive label, and
    # another 1-row client; the shorter clients sit out the later steps of
    # the stacked run.  The rows come from a 3-row table, where every block
    # uses fewer table rows than a batch holds and steps whole, and from a
    # 5,000-row table with the ids spread over it, where a block of the
    # whole round or of the 21-row client gathers each batch's rows (a
    # one-client block of a client with few distinct rows steps whole).
    if block_values is not None:
        monkeypatch.setattr(head, "_ROUND_BLOCK_VALUES", block_values)
    f, k, t = 2, 3, 2
    sizes = [21, 1, 8, 13, 19, 11, 1]
    bounds = np.cumsum([0] + sizes)
    spans = list(zip(bounds[:-1], bounds[1:]))
    seeds = [5, 8, 13, 5, 2, 40, 9]
    cfg = HeadConfig(filters=f, epochs=epochs, batch_size=8, learning_rate=0.5, rng_seed=1)
    w = init(k, t, cfg)
    for table_rows in (3, 5000):
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(table_rows, k * t))
        ids = np.concatenate([rng.integers(0, table_rows, 21), [2], np.ones(8, dtype=int),
                              rng.integers(0, table_rows, 13),
                              np.full(19, table_rows - 1), rng.integers(0, table_rows, 11),
                              [0]])
        y = (rng.random(len(ids)) > 0.5).astype(float)
        y[22:30] = [0, 1, 0, 1, 1, 0, 0, 1]
        y[43:62] = np.arange(19) % 3 == 0
        y[62:73] = 0
        out, layouts = round_with_layouts(w, rows, ids, y, spans, seeds, cfg)
        if epochs == 0:
            assert layouts == []
        elif table_rows == 3:
            assert set(layouts) == {"whole"}
        else:
            assert "gathered" in layouts
        assert len(out) == len(spans)
        for (a, b), seed, got in zip(spans, seeds, out):
            ref = sgd_with_gradients(w, rows[ids[a:b]], y[a:b], seed, cfg)
            assert weights_close(got, ref, rtol=0, atol=1e-12)
            if epochs == 0:
                assert weights_close(got, w, rtol=0, atol=0)
            else:
                assert not weights_close(got, w, rtol=0, atol=0)


def test_train_round_matches_expanded_sgd_property():
    # Random shapes, tables (narrow ones step whole, wide ones gather each
    # batch's rows), ids, labels, spans in any order with gaps between
    # them, seeds and block budgets, against SGD on the expanded rows.  The
    # examples reach both layouts.
    layouts = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        f, k, t = (data.draw(st.integers(1, 3)) for _ in range(3))
        table_rows = data.draw(st.sampled_from([1, 2, 5, 40, 3000]))
        n = data.draw(st.integers(1, 40))
        ids = np.array(data.draw(st.lists(st.integers(0, table_rows - 1), min_size=n,
                                          max_size=n)))
        y = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=float)
        cuts = sorted(data.draw(st.sets(st.integers(0, n), min_size=2, max_size=8)))
        spans = data.draw(st.permutations([(a, b) for a, b in zip(cuts, cuts[1:])
                                           if data.draw(st.booleans()) or a == cuts[0]]))
        seeds = [data.draw(st.integers(0, 2**32 - 1)) for _ in spans]
        cfg = HeadConfig(filters=f, epochs=data.draw(st.integers(1, 3)),
                         batch_size=data.draw(st.integers(1, 9)), learning_rate=0.5,
                         rng_seed=data.draw(st.integers(0, 99)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = rng.normal(size=(table_rows, k * t))
        w = init(k, t, cfg)
        block_values = data.draw(st.sampled_from([1, 50, 300, head._ROUND_BLOCK_VALUES]))
        with mock.patch.object(head, "_ROUND_BLOCK_VALUES", block_values):
            out, taken = round_with_layouts(w, rows, ids, y, spans, seeds, cfg)
        layouts.update(taken)
        for (a, b), seed, got in zip(spans, seeds, out):
            ref = sgd_with_gradients(w, rows[ids[a:b]], y[a:b], seed, cfg)
            assert weights_close(got, ref, rtol=0, atol=1e-12)

    check()
    assert layouts == {"whole", "gathered"}


def test_train_round_layouts_at_the_batch_size(monkeypatch):
    # Batch size 8 and two blocks of two clients.  The first block's clients
    # use exactly 8 table rows between them and step whole; the second's use
    # 9 and gather.  Both match SGD on the expanded rows.
    monkeypatch.setattr(head, "_ROUND_BLOCK_VALUES", 100)  # 2 clients of width 6
    rng = np.random.default_rng(31)
    f, k, t = 2, 2, 2
    cfg = HeadConfig(filters=f, epochs=3, batch_size=8, learning_rate=0.4)
    table = rng.normal(size=(20, k * t))
    picks = rng.permutation(20)
    whole_ids = rng.permutation(np.concatenate([picks[:8], rng.choice(picks[:8], 40)]))
    gathered_ids = rng.permutation(np.concatenate([picks[8:], rng.choice(picks[8:], 17)]))
    ids = np.concatenate([whole_ids, gathered_ids])
    y = (rng.random(len(ids)) > 0.5).astype(float)
    spans = [(0, 24), (24, 48), (48, 64), (64, 74)]  # 3, 3, 2 and 2 batches
    seeds = [6, 2, 11, 5]
    w = init(k, t, cfg)
    out, layouts = round_with_layouts(w, table, ids, y, spans, seeds, cfg)
    assert layouts == ["whole", "gathered"]
    for (a, b), seed, got in zip(spans, seeds, out):
        ref = sgd_with_gradients(w, table[ids[a:b]], y[a:b], seed, cfg)
        assert weights_close(got, ref, rtol=0, atol=1e-12)


def test_train_round_block_over_many_table_rows():
    # One block that uses more table rows than are tapped at a time (64):
    # 150 distinct rows in shuffled id order, split over two clients.
    rng = np.random.default_rng(4)
    k, t = 2, 3
    cfg = HeadConfig(filters=2, epochs=2, batch_size=16, learning_rate=0.3)
    w = init(k, t, cfg)
    v = rng.normal(size=(150, k * t))
    y = (rng.random(150) > 0.5).astype(float)
    ids = rng.permutation(150)
    spans, seeds = [(0, 90), (90, 150)], [3, 8]
    out = planned_round(w, v, ids, y, spans, seeds, cfg)
    for (a, b), seed, got in zip(spans, seeds, out):
        ref = sgd_with_gradients(w, v[ids[a:b]], y[a:b], seed, cfg)
        assert weights_close(got, ref, rtol=0, atol=1e-12)


def test_permuted_rows_match_successive_permutations():
    # `_train_block` draws a client's shuffles for a group of epochs with one
    # `permuted` call on its columns of a (group, rows) intp buffer, group
    # after group from the same generator.  That must draw what successive
    # rng.permutation calls would, or every shuffle, and so every trained
    # weight, moves.  The columns beside the client's stay as they were.
    # int32 buffers draw the same.
    for dtype in (np.intp, np.int32):
        for size in (1, 2, 3, 8, 63, 64, 65, 257, 1000, 4999):
            for seed in (0, 7, 2**32 - 1):
                rng = np.random.default_rng(seed)
                drawn = []
                for group in (2, 3):
                    buf = np.empty((group, size + 9), dtype=dtype)
                    buf[:] = np.arange(size + 9)
                    own = buf[:, 5:5 + size]
                    rng.permuted(own, axis=1, out=own)
                    drawn.extend(own - 5)
                    np.testing.assert_array_equal(buf[:, :5], np.tile(np.arange(5), (group, 1)))
                    np.testing.assert_array_equal(
                        buf[:, 5 + size:], np.tile(np.arange(5 + size, 9 + size), (group, 1)))
                rng = np.random.default_rng(seed)
                np.testing.assert_array_equal(drawn, [rng.permutation(size) for _ in range(5)])


def _packed_bytes(weights):
    return b"".join(head._pack(w).tobytes() for w in weights)


def test_plan_reused_over_rounds_matches_fresh_plans(monkeypatch):
    # One plan over three rounds, as run_training uses it, against a plan
    # built afresh in every round: the weights agree bit for bit, and the
    # plan's arrays are left as they were.  A small block budget gives
    # several blocks.
    monkeypatch.setattr(head, "_ROUND_BLOCK_VALUES", 200)
    rng = np.random.default_rng(9)
    f, k, t = 2, 3, 2
    cfg = HeadConfig(filters=f, epochs=4, batch_size=8, learning_rate=0.4)
    table = rng.normal(size=(7, k * t))
    sizes = [30, 9, 17, 1, 24]
    bounds = np.cumsum([0] + sizes)
    spans = list(zip(bounds[:-1], bounds[1:]))
    ids = rng.integers(0, 7, size=bounds[-1])
    y = (rng.random(bounds[-1]) > 0.6).astype(float)
    w = init(k, t, cfg)
    plan = head.plan_round(w, table, ids, y, spans, cfg)
    assert len(plan.blocks) > 1
    arrays = [(a, a.copy()) for block in plan.blocks for a in vars(block).values()
              if isinstance(a, np.ndarray)]
    for r in range(3):
        seeds = [r * 100 + i for i in range(len(spans))]
        reused = train_round(w, plan, seeds)
        fresh = planned_round(w, table, ids, y, spans, seeds, cfg)
        assert _packed_bytes(reused) == _packed_bytes(fresh)
        assert not weights_close(reused[0], w, rtol=0, atol=0)
        w = HeadWeights(*(np.mean([getattr(o, name) for o in reused], axis=0)
                          for name in ("conv_kernels", "conv_bias", "dense", "dense_bias")))
    assert all(np.array_equal(a, before) for a, before in arrays)


@pytest.mark.parametrize("group_values", [1, 40, 100, 10**9])
def test_epoch_groups_leave_weights_bitwise_unchanged(monkeypatch, group_values):
    # A block draws and codes its shuffles for as many epochs at a time as
    # `_EPOCH_GROUP_VALUES` allows.  The small block budget gives blocks of
    # 74 and 16 rows, so the 7 epochs run one at a time, in groups of 2 or
    # of 6 with a short last group, or all at once.  The weights are the
    # same, bit for bit, and match SGD on the expanded rows.
    rng = np.random.default_rng(15)
    f, k, t = 2, 2, 3
    cfg = HeadConfig(filters=f, epochs=7, batch_size=4, learning_rate=0.3)
    table = rng.normal(size=(5, k * t))
    spans = [(0, 13), (13, 14), (14, 30), (30, 45), (45, 90)]
    ids = rng.integers(0, 5, size=90)
    y = (rng.random(90) > 0.5).astype(float)
    seeds = [4, 9, 1, 16, 25]
    w = init(k, t, cfg)
    monkeypatch.setattr(head, "_ROUND_BLOCK_VALUES", 100)
    reference = planned_round(w, table, ids, y, spans, seeds, cfg)
    monkeypatch.setattr(head, "_EPOCH_GROUP_VALUES", group_values)
    out = planned_round(w, table, ids, y, spans, seeds, cfg)
    assert _packed_bytes(out) == _packed_bytes(reference)
    for (a, b), seed, got in zip(spans, seeds, out):
        ref = sgd_with_gradients(w, table[ids[a:b]], y[a:b], seed, cfg)
        assert weights_close(got, ref, rtol=0, atol=1e-12)


def test_with_bias_tap_layout():
    w = init(2, 3, HeadConfig(filters=2))
    v = np.arange(12.0).reshape(2, 6)
    expected = [[0, 1, 2, 1, 3, 4, 5, 1], [6, 7, 8, 1, 9, 10, 11, 1]]
    np.testing.assert_array_equal(head._with_bias_tap(w, v), expected)
    with pytest.raises(ValueError, match="length 6"):
        head._with_bias_tap(w, np.zeros((2, 5)))


def test_train_round_rejects_bad_spans_and_seeds():
    cfg = HeadConfig(filters=2)
    w = init(2, 3, cfg)
    table, y = np.zeros((4, 6)), np.zeros(10)
    ids = np.arange(10) % 4
    for spans in ([(5, 5)], [(4, 2)], [(-1, 3)], [(8, 11)]):
        with pytest.raises(ValueError, match="span"):
            head.plan_round(w, table, ids, y, spans, cfg)
    # Rows of the wrong width: the tapped width, or one value short.
    for wrong in (np.ones((4, 8)), np.zeros((4, 5))):
        with pytest.raises(ValueError, match="length 6"):
            head.plan_round(w, wrong, ids, y, [(0, 10)], cfg)
    with pytest.raises(ValueError, match="2-D"):
        head.plan_round(w, np.zeros(6), ids, y, [(0, 10)], cfg)
    with pytest.raises(ValueError, match="labels"):
        head.plan_round(w, table, ids, y[:9], [(0, 9)], cfg)
    for bad in (-1, 4):
        out_of_range = ids.copy()
        out_of_range[6] = bad
        with pytest.raises(ValueError, match="4-row table"):
            head.plan_round(w, table, out_of_range, y, [(0, 10)], cfg)
    with pytest.raises(ValueError, match="integer"):
        head.plan_round(w, table, ids.astype(float), y, [(0, 10)], cfg)
    plan = head.plan_round(w, table, ids, y, [(0, 5), (5, 10)], cfg)
    with pytest.raises(ValueError, match="seeds"):
        train_round(w, plan, [0])
    # Weights of another width than the plan's table.
    with pytest.raises(ValueError, match="length 9"):
        train_round(init(3, 3, cfg), plan, [0, 1])
    with pytest.raises(ValueError, match="span"):
        train_on_matrix(w, np.zeros((0, 6)), np.zeros(0), cfg)


def test_plan_round_rejects_no_spans():
    cfg = HeadConfig(filters=2)
    w = init(2, 3, cfg)
    with pytest.raises(ValueError, match="spans"):
        head.plan_round(w, np.zeros((4, 6)), np.zeros(0, dtype=int), np.zeros(0), [], cfg)


def test_weights_json_roundtrip_exact():
    # Every field crosses the wire under its own name, bit for bit, and the
    # dense bias, declared a float, comes back a Python float.
    w = init(3, 10, HeadConfig(rng_seed=5))
    d = weights_to_dict(w)
    assert list(d) == ["conv_kernels", "conv_bias", "dense", "dense_bias"]
    back = weights_from_dict(json.loads(json.dumps(d)))
    for field in dataclasses.fields(w):
        a, b = getattr(back, field.name), getattr(w, field.name)
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert type(back.dense_bias) is float


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_always_a_probability(seed):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, 2, 3, 2)
    p = forward_batch(w, rng.normal(size=(4, 6)) * 100)
    assert np.all((0.0 <= p) & (p <= 1.0))
