"""Per-vehicle feature construction.

Two views of the inbound traffic: every vehicle's per-second count series,
windowed into lagged feature rows for onset detection, and, for the
MAD-based node detector, every receiver's per-sender counts over one alert
round's events (`interval_counts`).  Each is built in one pass over the
event arrays, for all vehicles at once; its memory never grows with the id
values or the time span.  The count series bins a bounded chunk of events at
a time, so its temporaries do not grow with the log either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._codes import dense_codes
from .scenario import EventStream, GroundTruth

ALERT_INTERVAL_S = 10.0
DEFAULT_LAGS = 10
# Events binned per step of build_count_series.
_COUNT_EVENTS = 1 << 16

__all__ = [
    "CountSeries",
    "build_count_series",
    "windowize_arrays",
    "interval_counts",
    "ALERT_INTERVAL_S",
    "DEFAULT_LAGS",
]


@dataclass
class CountSeries:
    """Every vehicle's inbound packets per present second, laid end to end.

    Vehicle `vehicles[i]` is present for the seconds `first[i]` up to
    `first[i] + bounds[i + 1] - bounds[i]`, and `counts[bounds[i]:bounds[i + 1]]`
    holds its counts for those seconds, in order.
    """

    vehicles: np.ndarray
    first: np.ndarray
    bounds: np.ndarray
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


def build_count_series(events: EventStream, truth: GroundTruth) -> CountSeries:
    """Per-second inbound packet counts of every vehicle in `truth.presence`,
    over the seconds floor(enter) up to ceil(exit) (exclusive).  Events
    outside their receiver's present seconds, or to a receiver with no
    presence entry, are not counted.  The events are binned _COUNT_EVENTS
    at a time, so no temporary grows with the log."""
    vehicles = np.array(sorted(truth.presence), dtype=np.int64)
    spans = np.array([truth.presence[v] for v in vehicles.tolist()], dtype=np.float64)
    enter, exit_ = spans.reshape(-1, 2).T
    first, last = np.floor(enter).astype(np.int64), np.ceil(exit_).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(np.maximum(last - first, 0))])
    counts = np.zeros(bounds[-1], dtype=np.int64)
    if len(vehicles) == 0:
        return CountSeries(vehicles, first, bounds, counts)
    # Per row of `vehicles`, and for the row past the end that a receiver
    # with no presence entry takes: the start and end of its run of the
    # buffer (empty past the end) and its seconds' offset into the buffer.
    lo, hi = np.append(bounds[:-1], 0), np.append(bounds[1:], 0)
    offset = lo - np.append(first, 0)
    for start in range(0, len(events), _COUNT_EVENTS):
        ids, code = dense_codes(events.receivers[start:start + _COUNT_EVENTS])
        row = np.searchsorted(vehicles, ids)
        row[vehicles.take(row, mode="clip") != ids] = len(vehicles)
        slot = np.floor(events.times[start:start + _COUNT_EVENTS]).astype(np.int64)
        slot += offset[row][code]
        counts += np.bincount(slot[(slot >= lo[row][code]) & (slot < hi[row][code])],
                              minlength=len(counts))
    return CountSeries(vehicles, first, bounds, counts)


def windowize_arrays(
    series: CountSeries, truth: GroundTruth, a: int = DEFAULT_LAGS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per present second of every vehicle, in the order of
    `series`: (seconds, features (n, a), labels (n,)).

    Row i holds [Count(t), Count(t-1), ..., Count(t-(a-1))] for t = seconds[i];
    lags before the vehicle's first second are zero.  Its label is 1 whenever
    t falls in any attack window while the vehicle is present, regardless of
    whether flood traffic reached it.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    lengths = np.diff(series.bounds)
    seconds = np.arange(len(series.counts)) + np.repeat(series.first - series.bounds[:-1],
                                                         lengths)
    # Window j of the padded buffer ends at count j - 1.
    padded = np.concatenate([np.zeros(a), series.counts])
    x = sliding_window_view(padded, a)[1:, ::-1].copy()
    # Zero the lags that reach back past a vehicle's first second: (k, lag)
    # for its k-th second and every lag > k.
    k, lag = np.nonzero(np.triu(np.ones((a, a), dtype=bool), 1))
    inside = k < lengths[:, None]
    x[(series.bounds[:-1, None] + k)[inside], np.broadcast_to(lag, inside.shape)[inside]] = 0.0
    return seconds, x, truth.active(seconds).astype(np.int64)


def interval_counts(events: EventStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sender counts of all of `events` (one round's): parallel
    (receiver, sender, count) arrays, one entry per pair that exchanged a
    packet, sorted by receiver, then sender."""
    if len(events) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    n = len(events)
    ids, code = dense_codes(np.concatenate([events.receivers, events.senders]))
    pairs, pair_code = dense_codes(code[:n] * len(ids) + code[n:])
    r, s = np.divmod(pairs, len(ids))
    return ids[r], ids[s], np.bincount(pair_code)
