"""Micro-benchmarks of pipeline kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py

This directory is outside the `testpaths` of pyproject.toml, so the tier-1
test run never collects it.  Each case records `step_us` (median call time
over SGD steps per call) in the benchmark's `extra_info`.
"""

import math

import numpy as np
import pytest

from advent import head

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
