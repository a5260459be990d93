"""Malicious-node detection via Median Absolute Deviation thresholds.

Each vehicle compares per-neighbor inbound counts against a MAD-based
rejection band; senders exceeding the upper bound are reported as suspected.
Only the upper bound triggers suspicion (the attack model is flooding), so
`detect` never computes the lower bound.  A report holds only what the
server aggregates: the reporter and the ids it suspects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import NeighborCounts

__all__ = [
    "MadParams",
    "SuspicionReport",
    "mad",
    "rejection_bounds",
    "detect",
]

CONSISTENCY_B = 1.4826
EXCLUSION_CE = 3.0


@dataclass(frozen=True)
class MadParams:
    b: float = CONSISTENCY_B
    ce: float = EXCLUSION_CE

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("b must be > 0")
        if self.ce <= 0:
            raise ValueError("ce must be > 0")


@dataclass
class SuspicionReport:
    reporter: int
    suspected: set[int]


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    if n % 2:
        return float(s[mid])
    return 0.5 * (s[mid - 1] + s[mid])


def mad(values, b: float = CONSISTENCY_B) -> float:
    """b * median(|x - median(x)|)."""
    values = list(values)
    if not values:
        raise ValueError("mad of empty list")
    m = _median(values)
    return b * _median([abs(v - m) for v in values])


def rejection_bounds(values, params: MadParams = MadParams()) -> tuple[float, float]:
    """(median - ce*MAD, median + ce*MAD)."""
    values = list(values)
    if not values:
        raise ValueError("rejection_bounds of empty list")
    m = _median(values)
    spread = params.ce * mad(values, params.b)
    return (m - spread, m + spread)


def detect(counts: NeighborCounts, params: MadParams = MadParams()) -> SuspicionReport:
    """Flag senders whose count strictly exceeds the upper rejection bound.

    With fewer than two neighbors no detection is possible; the report is
    empty rather than an error since sparse neighborhoods are normal right
    after a vehicle joins.
    """
    senders = sorted(counts.per_sender)
    values = [float(counts.per_sender[s]) for s in senders]
    if len(values) < 2:
        return SuspicionReport(reporter=counts.vehicle, suspected=set())
    upper = _median(values) + params.ce * mad(values, params.b)
    suspected = {s for s, v in zip(senders, values) if v > upper}
    return SuspicionReport(reporter=counts.vehicle, suspected=suspected)

