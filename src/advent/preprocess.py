"""Per-vehicle feature construction.

Two views of a vehicle's inbound traffic: per-second count series windowed
into lagged feature rows for onset detection, and per-neighbor counts over
fixed intervals for the MAD-based node detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import EventStream, GroundTruth

NORMAL_INTERVAL_S = 60.0
ALERT_INTERVAL_S = 10.0
DEFAULT_LAGS = 10

__all__ = [
    "CountSeries",
    "NeighborCounts",
    "build_count_series",
    "windowize_arrays",
    "interval_counts",
    "receiver_counts",
    "NORMAL_INTERVAL_S",
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
    interval: tuple[float, float]
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


def interval_counts(
    events: EventStream,
    vehicle: int,
    mode: str = "normal",
    *,
    normal_interval_s: float = NORMAL_INTERVAL_S,
    alert_interval_s: float = ALERT_INTERVAL_S,
    anchor_s: float | None = None,
) -> list[NeighborCounts]:
    """Per-sender inbound counts over consecutive fixed-length intervals.

    Intervals are anchored at the vehicle's first observed second unless an
    explicit anchor is given (the runner anchors alert intervals at attack
    window starts).
    """
    if mode == "normal":
        length = normal_interval_s
    elif mode == "alert":
        length = alert_interval_s
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inbound = events.inbound(vehicle)
    if len(inbound) == 0:
        return []
    if anchor_s is None:
        anchor_s = float(np.floor(inbound.times.min()))
    idx = np.floor((inbound.times - anchor_s) / length).astype(np.int64)
    keep = idx >= 0
    idx = idx[keep]
    senders = inbound.senders[keep]
    if len(idx) == 0:
        return []
    out: list[NeighborCounts] = []
    for i in np.unique(idx):
        mask = idx == i
        uniq, cnt = np.unique(senders[mask], return_counts=True)
        start = anchor_s + float(i) * length
        out.append(
            NeighborCounts(
                vehicle=vehicle,
                interval=(start, start + length),
                per_sender=dict(zip(uniq.tolist(), cnt.tolist())),
            )
        )
    return out


def receiver_counts(events: EventStream, interval: tuple[float, float]) -> dict[int, NeighborCounts]:
    """Per-sender counts of all of `events`, keyed by receiver, each over `interval`.

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
        v: NeighborCounts(vehicle=v, interval=interval,
                          per_sender=dict(zip(sender_ids[lo:hi], cnt[lo:hi])))
        for v, lo, hi in zip(receivers.tolist(), bounds[:-1], bounds[1:])
    }
