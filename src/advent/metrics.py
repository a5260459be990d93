"""Confusion-matrix bookkeeping and the evaluation metrics for both tiers.

DR = TP/(TP+FN), FAR = FP/(FP+TN), FNR = FN/(TP+FN), precision, recall, F1.
Zero-denominator metrics yield NaN so they can be excluded from averages
instead of distorting them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

from .scenario import GroundTruth

__all__ = [
    "Confusion",
    "EvalReport",
    "score",
    "mnd_confusion",
    "first_second_rate",
    "macro_average",
]


@dataclass
class Confusion:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(self.tp + other.tp, self.tn + other.tn,
                         self.fp + other.fp, self.fn + other.fn)

    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class EvalReport:
    dr: float = math.nan
    far: float = math.nan
    fnr: float = math.nan
    precision: float = math.nan
    recall: float = math.nan
    f1: float = math.nan

    def metrics_dict(self) -> dict[str, float]:
        return asdict(self)


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else math.nan


def score(c: Confusion) -> EvalReport:
    dr = _ratio(c.tp, c.tp + c.fn)
    far = _ratio(c.fp, c.fp + c.tn)
    fnr = _ratio(c.fn, c.tp + c.fn)
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = dr
    if math.isnan(precision) or math.isnan(recall) or precision + recall == 0:
        f1 = math.nan if (math.isnan(precision) or math.isnan(recall)) else 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return EvalReport(dr=dr, far=far, fnr=fnr, precision=precision, recall=recall, f1=f1)


def mnd_confusion(
    broadcast_lists: Iterable[set[int]],
    truth: GroundTruth,
    vehicles_present: Iterable[set[int]],
) -> Confusion:
    """Sum per-round confusion: listed/unlisted x attacker/benign among present.

    `vehicles_present` gives, per aggregation round, the vehicles present for
    the whole round; rounds and lists must be aligned, and a ValueError is
    raised when one runs out before the other.  A listed vehicle that is not
    present is not counted.
    """
    if truth is None:
        raise ValueError("ground truth required for MND evaluation")
    c = Confusion()
    for listed, present in zip(broadcast_lists, vehicles_present, strict=True):
        flagged = listed & present
        bad = len(present & truth.attackers)
        tp = len(flagged & truth.attackers)
        c.tp += tp
        c.fp += len(flagged) - tp
        c.fn += bad - tp
        c.tn += len(present) - len(flagged) - bad + tp
    return c


def first_second_rate(onset_flags: dict[int, set[int]], truth: GroundTruth) -> float:
    """Fraction of attack windows flagged by any vehicle at their first second.

    `onset_flags` maps vehicle -> set of seconds at which it declared attack.
    Zero-length windows are skipped.
    """
    windows = [(s, e) for s, e in truth.attack_windows if e > s]
    if not windows:
        return math.nan
    flagged = 0
    all_flags: set[int] = set()
    for secs in onset_flags.values():
        all_flags |= secs
    for s, _ in windows:
        if int(math.floor(s)) in all_flags:
            flagged += 1
    return flagged / len(windows)


def macro_average(reports: list[EvalReport]) -> EvalReport:
    """NaN-aware mean of each metric across per-vehicle reports."""
    out = EvalReport()
    if not reports:
        return out
    for name in out.metrics_dict():
        vals = [getattr(r, name) for r in reports if not math.isnan(getattr(r, name))]
        setattr(out, name, sum(vals) / len(vals) if vals else math.nan)
    return out
