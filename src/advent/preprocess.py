"""Per-vehicle feature construction.

Two views of the inbound traffic: each vehicle's per-second count series,
windowed into lagged feature rows for onset detection, and, for the
MAD-based node detector, every receiver's per-sender counts over one alert
round's events (`interval_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import EventStream, GroundTruth

ALERT_INTERVAL_S = 10.0
DEFAULT_LAGS = 10

__all__ = [
    "CountSeries",
    "NeighborCounts",
    "build_count_series",
    "windowize_arrays",
    "interval_counts",
    "ALERT_INTERVAL_S",
    "DEFAULT_LAGS",
]


@dataclass
class CountSeries:
    vehicle: int
    counts: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class NeighborCounts:
    vehicle: int
    per_sender: dict[int, int] = field(default_factory=dict)


def build_count_series(events: EventStream, vehicle: int) -> CountSeries:
    """Per-second inbound packet counts; seconds with no traffic are absent."""
    inbound = events.inbound(vehicle)
    if len(inbound) == 0:
        return CountSeries(vehicle=vehicle)
    secs = np.floor(inbound.times).astype(np.int64)
    uniq, cnt = np.unique(secs, return_counts=True)
    return CountSeries(vehicle=vehicle, counts=dict(zip(uniq.tolist(), cnt.tolist())))


def _presence_seconds(truth: GroundTruth, vehicle: int) -> tuple[int, int]:
    enter, exit_ = truth.presence[vehicle]
    first = int(np.floor(enter))
    last = int(np.ceil(exit_))  # exclusive
    return first, last


def windowize_arrays(
    series: CountSeries, truth: GroundTruth, a: int = DEFAULT_LAGS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per present second: (seconds, features (n, a), labels (n,)).

    Row i holds [Count(t), Count(t-1), ..., Count(t-(a-1))] for t = seconds[i].
    Its label is 1 whenever t falls in any attack window while the vehicle is
    present, regardless of whether flood traffic reached it.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    first, last = _presence_seconds(truth, series.vehicle)
    n = last - first
    if n <= 0:
        return np.empty(0, dtype=int), np.empty((0, a)), np.empty(0, dtype=int)
    counts = np.zeros(n, dtype=np.float64)
    for t, c in series.counts.items():
        if first <= t < last:
            counts[t - first] = c
    # Lags before the vehicle's first second are zero-padded.
    padded = np.concatenate([np.zeros(a - 1), counts])
    x = np.stack([padded[a - 1 - lag : a - 1 - lag + n] for lag in range(a)], axis=1)
    seconds = np.arange(first, last)
    labels = np.zeros(n, dtype=np.int64)
    for ws, we in truth.attack_windows:
        labels[(seconds >= ws) & (seconds < we)] = 1
    return seconds, x, labels


def interval_counts(events: EventStream) -> dict[int, NeighborCounts]:
    """Per-sender counts of all of `events` (one round's), keyed by receiver.

    One pass over the stream serves every receiver: the (receiver, sender)
    pairs are coded and counted at once, and each receiver takes its run of
    the sorted pairs.  Receivers with no events have no entry.
    """
    if len(events) == 0:
        return {}
    receivers, r_code = np.unique(events.receivers, return_inverse=True)
    senders, s_code = np.unique(events.senders, return_inverse=True)
    pairs, cnt = np.unique(r_code * len(senders) + s_code, return_counts=True)
    pair_receiver, pair_sender = np.divmod(pairs, len(senders))
    bounds = np.searchsorted(pair_receiver, np.arange(len(receivers) + 1)).tolist()
    sender_ids = senders[pair_sender].tolist()
    cnt = cnt.tolist()
    return {
        v: NeighborCounts(vehicle=v, per_sender=dict(zip(sender_ids[lo:hi], cnt[lo:hi])))
        for v, lo, hi in zip(receivers.tolist(), bounds[:-1], bounds[1:])
    }
