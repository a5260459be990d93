"""SMOTE oversampling of the minority (attack) class.

Synthetic minority rows are drawn on segments between a minority row and one
of its k nearest minority neighbors, until the normal-to-malicious ratio
drops to the target ratio.
"""

from __future__ import annotations

import numpy as np

__all__ = ["K_NEIGHBORS", "smote_arrays"]

# Minority neighbours each synthetic row may be drawn towards.
K_NEIGHBORS = 5


def smote_arrays(
    x: np.ndarray, y: np.ndarray, target_ratio: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Array-level SMOTE; returns (x, y) with synthetic minority rows appended.

    Original rows are returned unmodified at their original positions.
    With fewer than 2 minority rows there is no segment to draw on, and the
    rows pass through as given.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_min = int((y == 1).sum())
    n_maj = int((y == 0).sum())
    if n_min < 2:
        return x, y
    target_min = int(np.ceil(n_maj / target_ratio))
    n_new = target_min - n_min
    if n_new <= 0:
        return x, y
    minority = x[y == 1]
    k = min(K_NEIGHBORS, n_min - 1)
    # Pairwise distances among minority rows; k nearest excluding self.
    d2 = ((minority[:, None, :] - minority[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn_idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(seed)
    base = rng.integers(0, n_min, size=n_new)
    pick = rng.integers(0, k, size=n_new)
    lam = rng.random(n_new)
    a = minority[base]
    bpts = minority[nn_idx[base, pick]]
    synth = a + lam[:, None] * (bpts - a)
    return np.concatenate([x, synth]), np.concatenate([y, np.ones(n_new, dtype=np.int64)])
