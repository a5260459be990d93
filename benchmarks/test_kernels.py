"""Micro-benchmarks of pipeline kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py

This directory is outside the `testpaths` of pyproject.toml, so the tier-1
test run never collects it; `tests/test_benchmarks_run.py` runs it once
with --benchmark-disable so that an API change cannot leave it broken.  The
head cases record `step_us` or `client_step_us` (median call time over SGD
steps per call) in the benchmark's `extra_info`.
"""

import math

import numpy as np
import pytest

from advent import gbdt, head, scenario

T, FILTERS, BATCH, ROWS, EPOCHS = 10, 4, 64, 640, 5

# The central-l benchmark workload's scenario at seed 1: ROADMAP L cut to
# 600 s, about 631k events.
CENTRAL_L = scenario.ScenarioConfig(duration_s=600, concurrent_range=(20, 20), attack_count=3,
                                    attack_spacing_s=150, rng_seed=1)


def _record_per_step(benchmark, name, steps):
    """Record the median call time over `steps` SGD steps as `name`, in µs.
    Under --benchmark-disable there are no statistics to record."""
    benchmark.extra_info[f"{name}s_per_call"] = steps
    if benchmark.stats is not None:
        benchmark.extra_info[f"{name}_us"] = 1e6 * benchmark.stats.stats.median / steps


@pytest.mark.parametrize("k", [12, 360], ids=["fed-s-K12", "L-K360"])
def test_head_step(benchmark, k):
    """One head SGD step at K clients x T trees, batch 64, every row distinct.

    Timed as a one-client `train_round` over EPOCHS epochs of ROWS rows and
    divided by the step count, like the benchmark's traced `head.step_us`,
    so the per-epoch shuffle is included.  K=12 is the fed-s workload's
    shape; K=360 is ROADMAP's workload L (`ScenarioConfig()` defaults).
    """
    rng = np.random.default_rng(0)
    y = (rng.random(ROWS) > 0.5).astype(np.float64)
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    table = head.with_bias_tap(w, rng.normal(size=(ROWS, k * T)))
    out = benchmark(head.train_round, w, table, np.arange(ROWS), y, [(0, ROWS)], [0], cfg)
    _record_per_step(benchmark, "step", EPOCHS * math.ceil(ROWS / BATCH))
    assert np.isfinite(out[0].dense).all()


@pytest.mark.parametrize("ids_from", ["6-row-table", "all-distinct", "L-like"])
def test_head_round(benchmark, ids_from):
    """One FedAvg round of the head at the fed-s shape: 12 clients of
    250-750 rows, K=12 x T=10, batch 64, EPOCHS epochs, as one `train_round`.

    The rows are drawn from a 6-row table, as fed-s's depth-3 trees give
    about 6 distinct tree vectors; or are all distinct, the worst case; or,
    like workload L (6,559 distinct rows of 89,162), each client draws from
    its own 25 rows of a 5,000-row table.  The 6-row table keeps the
    (batch, table row) keys of an epoch in a range short enough to code by
    a table; the other two cases code them by a sort.  Records
    `client_step_us`, the call time over the clients' summed SGD steps,
    comparable with `test_head_step`'s `step_us`.
    """
    k = 12
    rng = np.random.default_rng(0)
    sizes = rng.integers(250, 751, size=k)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n = int(bounds[-1])
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    if ids_from == "all-distinct":
        table, ids = head.with_bias_tap(w, rng.normal(size=(n, k * T))), np.arange(n)
    elif ids_from == "6-row-table":
        table = head.with_bias_tap(w, rng.normal(size=(6, k * T)))
        ids = rng.integers(0, 6, size=n)
    else:
        table = head.with_bias_tap(w, rng.normal(size=(5000, k * T)))
        ids = np.concatenate([rng.choice(rng.choice(5000, 25, replace=False), size)
                              for size in sizes])
    y = (rng.random(n) > 0.5).astype(np.float64)
    spans = list(zip(bounds[:-1], bounds[1:]))
    out = benchmark(head.train_round, w, table, ids, y, spans, list(range(k)), cfg)
    _record_per_step(benchmark, "client_step",
                     EPOCHS * sum(math.ceil(size / BATCH) for size in sizes))
    assert all(np.isfinite(o.dense).all() for o in out)


def _count_rows(rng, n):
    """Integer packet-count rows of 10 lags, floods raising the counts.

    Like the dense-pulsed training set: about a third of the rows are
    attack seconds and each lag takes about 70 distinct values.
    """
    y = (rng.random(n) < 0.35).astype(np.float64)
    rate = np.where(y == 1, rng.uniform(5.0, 50.0, n), rng.uniform(0.5, 4.0, n))
    x = rng.poisson(rate[:, None], (n, 10)).astype(np.float64)
    return x, y


@pytest.fixture(scope="module")
def dense_pulsed_fit():
    """The dense-pulsed workload's pooled fit: 25.6k rows, 20 trees of depth 3."""
    rng = np.random.default_rng(0)
    x, y = _count_rows(rng, 25_602)
    return x, y, gbdt.GbdtConfig(trees_per_client=20, max_depth=3)


def test_gbdt_train(benchmark, dense_pulsed_fit):
    """Split search: one `gbdt.train` call at the dense-pulsed shape."""
    x, y, cfg = dense_pulsed_fit
    ens = benchmark.pedantic(gbdt.train, (x, y, cfg), rounds=5)
    benchmark.extra_info["distinct_values_per_feature"] = int(np.mean(
        [len(np.unique(col)) for col in x.T]))
    assert len(ens.trees) == 20


def test_gbdt_train_central_l(benchmark):
    """Split search at the central-l shape: one `gbdt.train` call on 9,700
    rows with about 370 distinct values per feature, 10 trees of depth 3.
    A bin holds few rows, so the per-bin search, not the per-row histogram,
    leads.

    Like the central-l training set: 13% of the rows are attack seconds,
    whose older lags fall back to normal traffic more often the older they
    are, and 1% of the labels are flipped, so the trees keep splitting
    (about 68 splits in all, as against 62 on central-l at seed 1).
    """
    rng = np.random.default_rng(5)
    n = 9_700
    y = (rng.random(n) < 0.13).astype(np.float64)
    flood_share = np.where(y[:, None] == 1, 0.98 - 0.04 * np.arange(10), 0.006 * np.arange(10))
    rate = np.where(rng.random((n, 10)) < flood_share, rng.uniform(60.0, 360.0, n)[:, None],
                    rng.uniform(8.0, 32.0, n)[:, None])
    x = rng.poisson(rate).astype(np.float64)
    y = np.where(rng.random(n) < 0.01, 1.0 - y, y)
    ens = benchmark.pedantic(gbdt.train, (x, y, gbdt.GbdtConfig(trees_per_client=T)), rounds=5)
    benchmark.extra_info["distinct_values_per_feature"] = int(np.mean(
        [len(np.unique(col)) for col in x.T]))
    assert len(ens.trees) == T


def test_gbdt_train_clients(benchmark):
    """Split search at the fed-s shape: 12 clients of 47-707 rows, 10 trees of
    depth 3 each, in one `gbdt.train_clients` call.  Small nodes make this
    case sensitive to per-node and per-level call overhead."""
    rng = np.random.default_rng(2)
    clients = [_count_rows(rng, n) for n in range(707, 46, -60)]
    cfg = gbdt.GbdtConfig(trees_per_client=T, max_depth=3)
    out = benchmark.pedantic(gbdt.train_clients, ([x for x, _ in clients],
                                                  [y for _, y in clients], cfg, range(12)),
                             rounds=10)
    benchmark.extra_info["clients"] = len(clients)
    assert len(out) == 12 and all(len(e.trees) == T for e in out)


@pytest.mark.parametrize("how", ["train_clients", "lone-train"])
def test_gbdt_train_clients_L(benchmark, how):
    """Round 0 at ROADMAP L's shape: 265 clients of 336 rows, 10 trees of
    depth 3, about 40% of the clients with positives (the rest fall back to
    single leaves).  A level holds hundreds of nodes, searched in
    `_HIST_ENTRIES` node blocks on their own rows.  Timed as one
    `train_clients` call, and as one `gbdt.train` call per client for
    comparison."""
    rng = np.random.default_rng(3)
    clients = []
    for _ in range(265):
        x, y = _count_rows(rng, 336)
        clients.append((x, y if rng.random() < 0.4 else np.zeros_like(y)))
    cfg = gbdt.GbdtConfig(trees_per_client=T, max_depth=3)
    xs, ys = [x for x, _ in clients], [y for _, y in clients]
    if how == "train_clients":
        out = benchmark.pedantic(gbdt.train_clients, (xs, ys, cfg, range(265)), rounds=3)
    else:
        out = benchmark.pedantic(
            lambda: [gbdt.train(x, y, cfg, client=c) for c, (x, y) in enumerate(clients)],
            rounds=3)
    benchmark.extra_info["clients_with_positives"] = sum(bool(y.any()) for y in ys)
    assert len(out) == 265 and all(len(e.trees) == T for e in out)


def test_gbdt_predict_margin_batch(benchmark, dense_pulsed_fit):
    """Tree apply: 20 trees of depth 3 over one vehicle's 600 rows."""
    x, y, cfg = dense_pulsed_fit
    ens = gbdt.train(x[:2000], y[:2000], cfg)
    out = benchmark(gbdt.predict_margin_batch, ens, x[:600])
    assert out.shape == (600,)


def test_gbdt_per_tree_output_matrix(benchmark):
    """Tree apply for the head: K=12 clients x 10 trees over 600 rows (fed-s shape)."""
    rng = np.random.default_rng(1)
    ensembles = []
    for cid in range(12):
        x, y = _count_rows(rng, 500)
        ensembles.append(gbdt.train(x, y, gbdt.GbdtConfig(trees_per_client=T), client=cid))
    probe, _ = _count_rows(rng, 600)
    out = benchmark(gbdt.per_tree_output_matrix, ensembles, probe)
    assert out.shape == (600, 12 * T)


def test_generate(benchmark):
    """Scenario generation at the central-l shape, ending in one event sort."""
    events, truth = benchmark.pedantic(scenario.generate, (CENTRAL_L,), rounds=5)
    benchmark.extra_info["events"] = len(events)
    assert len(events) > 0 and truth.attackers


@pytest.mark.parametrize("annotated", [True, False], ids=["annotated", "plain"])
def test_write_events_csv(benchmark, tmp_path, annotated):
    """The event-log CSV at the central-l shape; float repr of the times is
    most of it."""
    events, truth = scenario.generate(CENTRAL_L)
    path = tmp_path / "events.csv"
    benchmark.pedantic(scenario.write_events_csv, (path, events, truth if annotated else None),
                       rounds=5)
    benchmark.extra_info["bytes"] = path.stat().st_size
    assert path.stat().st_size > 0
