"""Server-side aggregation of suspicion reports into the malicious-node list.

Frequency counting over distinct reporters with threshold TH: an id is
listed when at least TH distinct vehicles report it in the same round.
"""

from __future__ import annotations

import logging

from .mnd import SuspicionReport

__all__ = ["aggregate"]

log = logging.getLogger(__name__)


def aggregate(reports: list[SuspicionReport], th: int) -> set[int]:
    """Ids named by at least `th` distinct reporters; self-reports are dropped."""
    if th < 1:
        raise ValueError("th must be >= 1")
    freq: dict[int, set[int]] = {}
    for rep in reports:
        for v in rep.suspected:
            if v == rep.reporter:
                log.warning("vehicle %s reported itself; ignored", v)
                continue
            freq.setdefault(v, set()).add(rep.reporter)
    return {v for v, reporters in freq.items() if len(reporters) >= th}
