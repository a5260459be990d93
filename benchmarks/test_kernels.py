"""Micro-benchmarks of pipeline kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py

This directory is outside the `testpaths` of pyproject.toml, so the tier-1
test run never collects it.  The head cases record `step_us` or
`client_step_us` (median call time over SGD steps per call) in the
benchmark's `extra_info`.
"""

import math

import numpy as np
import pytest

from advent import gbdt, head

T, FILTERS, BATCH, ROWS, EPOCHS = 10, 4, 64, 640, 5


@pytest.mark.parametrize("k", [12, 360], ids=["fed-s-K12", "L-K360"])
def test_head_step(benchmark, k):
    """One head SGD step at K clients x T trees, batch 64.

    Timed as `train_on_matrix` over EPOCHS epochs of ROWS rows and divided by
    the step count, like the benchmark's traced `head.step_us`, so the
    per-epoch shuffle is included.  K=12 is the fed-s workload's shape;
    K=360 is ROADMAP's workload L (`ScenarioConfig()` defaults).
    """
    rng = np.random.default_rng(0)
    v = rng.normal(size=(ROWS, k * T))
    y = (rng.random(ROWS) > 0.5).astype(np.float64)
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    steps = EPOCHS * math.ceil(ROWS / BATCH)
    out = benchmark(head.train_on_matrix, w, v, y, cfg)
    benchmark.extra_info["steps_per_call"] = steps
    benchmark.extra_info["step_us"] = 1e6 * benchmark.stats.stats.median / steps
    assert np.isfinite(out.dense).all()


def test_head_round(benchmark):
    """One FedAvg round of the head at the fed-s shape: 12 clients of
    250-750 rows, K=12 x T=10, batch 64, EPOCHS epochs, as one `train_round`.

    Records `client_step_us`, the call time over the clients' summed SGD
    steps, comparable with `test_head_step`'s `step_us`.
    """
    k = 12
    rng = np.random.default_rng(0)
    sizes = rng.integers(250, 751, size=k)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    v = rng.normal(size=(bounds[-1], k * T))
    y = (rng.random(bounds[-1]) > 0.5).astype(np.float64)
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    spans = list(zip(bounds[:-1], bounds[1:]))
    steps = EPOCHS * sum(math.ceil(n / BATCH) for n in sizes)
    out = benchmark(head.train_round, w, v, y, spans, list(range(k)), cfg)
    benchmark.extra_info["client_steps_per_call"] = steps
    benchmark.extra_info["client_step_us"] = 1e6 * benchmark.stats.stats.median / steps
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


def test_gbdt_train_clients(benchmark):
    """Split search at the fed-s shape: 12 clients of 47-707 rows, 10 trees of
    depth 3 each, one `gbdt.train` call per client.  Small nodes make this
    case sensitive to per-node and per-level call overhead."""
    rng = np.random.default_rng(2)
    clients = [_count_rows(rng, n) for n in range(707, 46, -60)]
    cfg = gbdt.GbdtConfig(trees_per_client=T, max_depth=3)

    def train_all():
        return [gbdt.train(x, y, cfg, client=c) for c, (x, y) in enumerate(clients)]

    out = benchmark.pedantic(train_all, rounds=10)
    benchmark.extra_info["clients"] = len(clients)
    assert len(out) == 12 and all(len(e.trees) == T for e in out)


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
