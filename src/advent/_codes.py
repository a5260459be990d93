"""Sorted distinct values and dense integer codes of keys, shared by the
scenario reader and writer, the per-vehicle counts, the head's batch
grouping and the split thresholds of the head's table."""

from __future__ import annotations

import numpy as np

__all__ = ["distinct", "dense_codes"]


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array.  Plain np.unique would
    import numpy.ma, over a megabyte of resident memory and some 20 ms."""
    a = np.sort(a)
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def dense_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a non-empty integer array, in its dtype,
    and each key's index among them.  A table over the keys' range replaces
    the sort when that range is no longer than the array."""
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > len(keys):
        return np.unique(keys, return_inverse=True)
    keys = keys - lo
    seen = np.zeros(span, dtype=bool)
    seen[keys] = True
    slot = np.cumsum(seen) - 1
    return (np.flatnonzero(seen) + lo).astype(keys.dtype, copy=False), slot[keys]
