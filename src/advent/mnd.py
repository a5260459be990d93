"""Malicious-node detection via Median Absolute Deviation thresholds.

Each vehicle compares per-neighbor inbound counts against a MAD-based
rejection band, median ± ce·MAD with MAD = b·median(|x − median(x)|), at
the fixed b = CONSISTENCY_B and ce = EXCLUSION_CE (Leys et al., J. Exp. Soc.
Psych. 2013); senders exceeding the upper bound are reported as suspected.
Only the upper bound triggers suspicion (the attack model is flooding), so
`detect` never computes the lower bound.  `detect` takes a whole round's
counts and finds every receiver's band at once.  A report holds only what
the server aggregates: the reporter and the ids it suspects.  `mad` and
`rejection_bounds` are the one-vehicle forms that the tests check `detect`
against, with the standard library's `statistics.median`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SuspicionReport",
    "RoundDetection",
    "mad",
    "rejection_bounds",
    "detect",
]

CONSISTENCY_B = 1.4826
EXCLUSION_CE = 3.0


@dataclass
class SuspicionReport:
    reporter: int
    suspected: set[int]


def mad(values) -> float:
    """b * median(|x - median(x)|)."""
    from statistics import median  # here, so that a run never loads it
    values = list(values)
    if not values:
        raise ValueError("mad of empty list")
    m = median(values)
    return CONSISTENCY_B * median([abs(v - m) for v in values])


def rejection_bounds(values) -> tuple[float, float]:
    """(median - ce*MAD, median + ce*MAD)."""
    from statistics import median
    values = list(values)
    if not values:
        raise ValueError("rejection_bounds of empty list")
    m = median(values)
    spread = EXCLUSION_CE * mad(values)
    return (m - spread, m + spread)


def _group_medians(values: np.ndarray, group: np.ndarray, starts: np.ndarray,
                   sizes: np.ndarray) -> np.ndarray:
    """The median of each group's values; `group` is sorted and `starts` and
    `sizes` give each group's run of it.  An even group's 0.5 * (a + b) is
    `statistics.median`'s (a + b) / 2, both correctly rounded; an odd
    group's middle value v is taken as 0.5 * (v + v), which is v exactly."""
    s = values[np.lexsort((values, group))]
    return 0.5 * (s[starts + (sizes - 1) // 2] + s[starts + sizes // 2])


@dataclass
class RoundDetection:
    """One round's detection: a report per receiver, in receiver order, and
    every flagged sender, in the same order."""

    reports: list[SuspicionReport]
    suspected: np.ndarray


def detect(counts) -> RoundDetection:
    """Flag, for every receiver of a round, the senders whose count strictly
    exceeds its upper rejection bound.

    `counts` holds parallel (receiver, sender, count) arrays sorted by
    receiver, then sender, as `preprocess.interval_counts` returns them.
    Its medians equal `statistics.median`'s and its float operations follow
    `rejection_bounds`, so the bands equal it bit for bit.  A receiver with
    a single sender flags nothing: the sender sits exactly at its own upper
    bound, so sparse neighbourhoods right after a vehicle joins report
    empty lists rather than errors.
    """
    receivers, senders, n = counts
    reporters, starts, sizes = np.unique(receivers, return_index=True, return_counts=True)
    group = np.repeat(np.arange(len(starts)), sizes)
    values = n.astype(np.float64)
    median = _group_medians(values, group, starts, sizes)
    spread = CONSISTENCY_B * _group_medians(np.abs(values - median[group]), group, starts, sizes)
    flagged = values > (median + EXCLUSION_CE * spread)[group]
    suspected = senders[flagged]
    # Each reporter's run of the flagged pairs, which are in receiver order.
    cut = np.searchsorted(receivers[flagged], reporters).tolist() + [len(suspected)]
    ids = suspected.tolist()
    reports = [SuspicionReport(reporter=r, suspected=set(ids[lo:hi]))
               for r, lo, hi in zip(reporters.tolist(), cut[:-1], cut[1:])]
    return RoundDetection(reports, suspected)
