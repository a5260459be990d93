"""Synthetic VANET packet-event scenarios with scheduled flooding attacks.

Generates a timeline of (time, sender, receiver) packet events for a set of
vehicles that enter and exit the network, with a subset of vehicles flooding
their neighbors during scheduled attack windows.  Also ingests externally
recorded event logs in the same CSV format.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScenarioConfig",
    "EventStream",
    "GroundTruth",
    "ConfigError",
    "ParseError",
    "generate",
    "ingest",
    "write_events_csv",
    "write_ground_truth",
    "load_ground_truth",
]


class ConfigError(ValueError):
    """Raised when a scenario configuration violates an invariant."""


class ParseError(ValueError):
    """Raised when an event-log file cannot be parsed."""


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: int = 3600
    total_vehicles: int = 360
    concurrent_range: tuple[int, int] = (10, 30)
    arrival_interval_s: float = 9.5
    attacker_fraction: float = 0.05
    attack_count: int = 6
    attack_spacing_s: float = 600.0
    attack_duration_s: float = 25.0
    normal_rate_pps: float = 2.0
    flood_rate_pps: float = 30.0
    neighbor_degree: float = 10.0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        if not (0.0 <= self.attacker_fraction <= 1.0):
            raise ConfigError("attacker_fraction must be in [0, 1]")
        if self.attack_count * self.attack_spacing_s > self.duration_s:
            raise ConfigError("attack_count * attack_spacing_s must be <= duration_s")
        if self.attack_duration_s > self.attack_spacing_s:
            raise ConfigError("attack_duration_s must be <= attack_spacing_s")
        if self.flood_rate_pps <= self.normal_rate_pps:
            raise ConfigError("flood_rate_pps must be > normal_rate_pps")
        if self.concurrent_range[0] > self.concurrent_range[1]:
            raise ConfigError("concurrent_range.min must be <= concurrent_range.max")
        if self.total_vehicles < 1:
            raise ConfigError("total_vehicles must be >= 1")
        if self.arrival_interval_s <= 0:
            raise ConfigError("arrival_interval_s must be > 0")
        if self.normal_rate_pps < 0:
            raise ConfigError("normal_rate_pps must be >= 0")
        if self.neighbor_degree < 0:
            raise ConfigError("neighbor_degree must be >= 0")


def _group_order(ids: np.ndarray) -> np.ndarray:
    """Stable argsort of `ids`, by radix sort when they fit in 16 bits."""
    if len(ids) and ids.min() >= 0 and ids.max() <= np.iinfo(np.uint16).max:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


class EventStream:
    """Time-sorted packet events held as parallel numpy arrays.

    The arrays are treated as read-only: ``inbound`` caches a receiver-grouped
    index over them on first use.
    """

    def __init__(self, times, senders, receivers):
        self.times = np.asarray(times, dtype=np.float64)
        self.senders = np.asarray(senders, dtype=np.int64)
        self.receivers = np.asarray(receivers, dtype=np.int64)
        if not (len(self.times) == len(self.senders) == len(self.receivers)):
            raise ValueError("event arrays must have equal length")
        self._by_receiver: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def sorted(self) -> "EventStream":
        """The events in (time, sender, receiver) order; rows equal on all
        three keep their order, as under np.lexsort((receivers, senders, times))."""
        order = np.argsort(self.times)
        t = self.times[order]
        # np.argsort leaves each run of tied times in no set order, so the
        # rows of those runs, taken in their first order, are sorted again.
        eq = t[1:] == t[:-1]
        tied = np.zeros(len(t), dtype=bool)
        tied[1:] = eq
        tied[:-1] |= eq
        at = np.flatnonzero(tied)
        sub = np.sort(order[at])
        order[at] = sub[np.lexsort((self.receivers[sub], self.senders[sub], self.times[sub]))]
        t[at] = self.times[order[at]]  # a -0.0 tied with 0.0 moves with its row
        return EventStream(t, self.senders[order], self.receivers[order])

    def inbound(self, vehicle: int) -> "EventStream":
        """Events received by `vehicle`, in stream order."""
        if self._by_receiver is None:
            # A stable sort keeps each receiver's events in stream order.
            order = _group_order(self.receivers)
            self._by_receiver = (order, self.receivers[order])
        order, keys = self._by_receiver
        idx = order[np.searchsorted(keys, vehicle, "left"):np.searchsorted(keys, vehicle, "right")]
        return EventStream(self.times[idx], self.senders[idx], self.receivers[idx])

    def between(self, start_s: float, end_s: float) -> "EventStream":
        """Events with start_s <= time < end_s, as views of this stream."""
        lo, hi = np.searchsorted(self.times, [start_s, end_s])
        return EventStream(self.times[lo:hi], self.senders[lo:hi], self.receivers[lo:hi])


@dataclass
class GroundTruth:
    attackers: set[int] = field(default_factory=set)
    attack_windows: list[tuple[float, float]] = field(default_factory=list)
    presence: dict[int, tuple[float, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "attackers": sorted(self.attackers),
            "attack_windows": [[s, e] for s, e in self.attack_windows],
            "presence": {str(v): [a, b] for v, (a, b) in sorted(self.presence.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruth":
        return cls(
            attackers=set(d.get("attackers", [])),
            attack_windows=[(float(s), float(e)) for s, e in d.get("attack_windows", [])],
            presence={int(v): (float(a), float(b)) for v, (a, b) in d.get("presence", {}).items()},
        )


def _attack_windows(config: ScenarioConfig) -> list[tuple[float, float]]:
    windows = []
    for k in range(1, config.attack_count + 1):
        start = k * config.attack_spacing_s
        end = min(start + config.attack_duration_s, float(config.duration_s))
        windows.append((start, end))
    return windows


def generate(config: ScenarioConfig) -> tuple[EventStream, GroundTruth]:
    """Build a packet-event timeline plus ground truth for the given scenario.

    Deterministic for a fixed rng_seed.  Vehicles enter staggered by
    arrival_interval_s and stay for a trip length drawn so that the number of
    concurrently present vehicles tracks concurrent_range.  Neighbor links are
    re-sampled whenever the present set changes; every present vehicle emits
    Poisson traffic to each neighbor, attackers switching to flood_rate_pps
    inside attack windows.
    """
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    dur = float(config.duration_s)

    n = config.total_vehicles
    n_attackers = int(round(config.attacker_fraction * n))
    # Attackers are the earliest arrivals and stay on the road through the
    # last attack window, so every scheduled window carries flood traffic;
    # wall-clock labels are meaningless otherwise.
    attackers = set(range(n_attackers))

    cmin, cmax = config.concurrent_range
    enters = np.minimum(np.arange(n) * config.arrival_interval_s, dur)
    trips = rng.uniform(cmin, cmax, size=n) * config.arrival_interval_s
    exits = np.minimum(enters + trips, dur)
    windows = _attack_windows(config)
    if windows and attackers:
        last_end = max(e for _, e in windows)
        for v in attackers:
            exits[v] = min(max(exits[v], last_end), dur)
    presence = {int(v): (float(enters[v]), float(exits[v])) for v in range(n) if enters[v] < dur}
    truth = GroundTruth(attackers=attackers, attack_windows=windows, presence=presence)

    # Epoch boundaries: presence changes and attack window edges.
    cuts = {0.0, dur}
    for v, (a, b) in presence.items():
        cuts.add(a)
        cuts.add(b)
    for s, e in windows:
        cuts.add(s)
        cuts.add(e)
    bounds = sorted(c for c in cuts if 0.0 <= c <= dur)

    all_times: list[np.ndarray] = []
    all_senders: list[np.ndarray] = []
    all_receivers: list[np.ndarray] = []
    prev_present: tuple[int, ...] = ()
    adj = np.zeros((0, 0), dtype=bool)

    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        present = tuple(sorted(v for v, (a, b) in presence.items() if a <= t0 < b))
        m = len(present)
        if m < 2:
            prev_present = present
            continue
        if present != prev_present:
            # Erdos-Renyi link sampling targeting the configured mean degree.
            p = min(1.0, config.neighbor_degree / (m - 1))
            upper = rng.random((m, m)) < p
            adj = np.triu(upper, k=1)
            adj = adj | adj.T
            prev_present = present
        ids = np.asarray(present)
        si, ri = np.nonzero(adj)
        if len(si) == 0:
            continue
        in_window = any(s <= t0 and t1 <= e for s, e in windows)
        sender_ids = ids[si]
        rates = np.full(len(si), config.normal_rate_pps)
        if in_window and attackers:
            is_att = np.isin(sender_ids, sorted(attackers))
            rates[is_att] = config.flood_rate_pps
        counts = rng.poisson(rates * dt)
        total = int(counts.sum())
        if total == 0:
            continue
        times = t0 + rng.random(total) * dt
        all_times.append(times)
        all_senders.append(np.repeat(sender_ids, counts))
        all_receivers.append(np.repeat(ids[ri], counts))

    if all_times:
        stream = EventStream(
            np.concatenate(all_times),
            np.concatenate(all_senders),
            np.concatenate(all_receivers),
        ).sorted()
    else:
        stream = EventStream([], [], [])
    return stream, truth


# ---------------------------------------------------------------------------
# Event-log file I/O


_BASE_HEADER = ["time_s", "sender", "receiver"]
_ANNOT_HEADER = _BASE_HEADER + ["is_attacker_sender", "attack_active"]
_FLAGS = _ANNOT_HEADER[3:]
_BASE_DTYPE = np.dtype([("time_s", "f8"), ("sender", "i8"), ("receiver", "i8")])
_ANNOT_DTYPE = np.dtype(_BASE_DTYPE.descr + [(name, "i1") for name in _FLAGS])
# Lines parsed per np.loadtxt call while a rejected log is searched for its
# first bad line.
_RESCAN_LINES = 4096
# Lines joined per write.  Joined whole, the body of a 3.2M-event log took
# the writer's peak memory from 341 MB to 803 MB.
_WRITE_LINES = 1 << 16


def _dense_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a non-empty int64 array and each key's
    index among them.  A table over the keys' range replaces the sort when
    that range is no longer than the array."""
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(span, dtype=bool)
    seen[keys - lo] = True
    slot = np.cumsum(seen) - 1
    return np.flatnonzero(seen) + lo, slot[keys - lo]


def _line_tails(stream: EventStream, truth: GroundTruth | None) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct line tail of a non-empty stream, ``,sender,receiver``
    plus the flags and newline, as an object array, and each event's index
    into it."""
    active = np.zeros(len(stream), dtype=np.int64)
    for ws, we in ([] if truth is None else truth.attack_windows):
        active |= (stream.times >= ws) & (stream.times < we)
    ids, codes = _dense_codes(np.concatenate([stream.senders, stream.receivers]))
    pair = codes[:len(stream)] * len(ids) + codes[len(stream):]
    keys, index = _dense_codes(2 * pair + active)
    tails = []
    for s, r, a in zip(ids[keys // 2 // len(ids)].tolist(), ids[keys // 2 % len(ids)].tolist(),
                       (keys % 2).tolist()):
        flags = "" if truth is None else f",{int(s in truth.attackers)},{a}"
        tails.append(f",{s},{r}{flags}\n")
    return np.array(tails, dtype=object), index


def write_events_csv(path, stream: EventStream, truth: GroundTruth | None = None) -> None:
    """Write the event log; annotation columns are included when truth is given.

    A line is the time's repr and its tail, looked up per event in a table
    that formats each distinct tail once.  Lines are joined and written
    _WRITE_LINES at a time.
    """
    header = _BASE_HEADER if truth is None else _ANNOT_HEADER
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if not len(stream):
            return
        tails, index = _line_tails(stream, truth)
        for lo in range(0, len(stream), _WRITE_LINES):
            block = slice(lo, lo + _WRITE_LINES)
            parts = [None] * (2 * len(index[block]))
            parts[0::2] = map(repr, stream.times[block].tolist())
            parts[1::2] = tails[index[block]].tolist()
            fh.write("".join(parts))


def write_ground_truth(path, truth: GroundTruth) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_ground_truth(path) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        return GroundTruth.from_dict(json.load(fh))


def _load_rows(source, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    """Parse event rows from a path or a list of lines; raises ValueError."""
    with warnings.catch_warnings():
        # A body with no rows is an empty log, not a reason to warn.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", skiprows=skiprows,
                          comments=None, encoding="utf-8", ndmin=1)


def _value_error(rows: np.ndarray) -> str | None:
    """Why the first row that breaks a value rule is rejected, or None."""
    t, s, r = rows["time_s"], rows["sender"], rows["receiver"]
    rules = [
        (~np.isfinite(t) | (t < 0), "time_s", "must be finite and >= 0"),
        (s == r, "receiver", "must differ from sender"),
    ] + [
        ((rows[name] != 0) & (rows[name] != 1), name, "must be 0 or 1")
        for name in _FLAGS if name in rows.dtype.names
    ]
    hits = [(int(np.argmax(bad)), name, rule) for bad, name, rule in rules if bad.any()]
    if not hits:
        return None
    i, name, rule = min(hits)
    return f"{name} {rule}, got {rows[name][i].item()!r}"


def _line_error(lines: list[str], dtype: np.dtype) -> str | None:
    """Why `lines` are rejected, or None when they parse and pass every rule."""
    try:
        rows = _load_rows(lines, dtype)
    except ValueError as exc:
        # np.loadtxt counts rows within `lines`; the caller knows the line.
        return str(exc).split(" at row ")[0]
    return _value_error(rows)


def _locate(path, dtype: np.dtype, reason: str) -> ParseError:
    """Name the first bad line of a rejected log by parsing it again, a chunk
    of lines at a time and then line by line inside the first bad chunk."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        lineno = 2
        while chunk := list(itertools.islice(fh, _RESCAN_LINES)):
            if _line_error(chunk, dtype) is not None:
                for offset, line in enumerate(chunk):
                    why = _line_error([line], dtype)
                    if why is not None:
                        return ParseError(f"line {lineno + offset}: {why}")
            lineno += len(chunk)
    return ParseError(reason)


def _in_order(t: np.ndarray, s: np.ndarray, r: np.ndarray) -> bool:
    """Whether the rows already follow (time, sender, receiver) order."""
    dt = np.diff(t)
    if (dt < 0).any():
        return False
    tie = np.flatnonzero(dt == 0)
    s0, s1 = s[tie], s[tie + 1]
    return not ((s1 < s0) | ((s1 == s0) & (r[tie + 1] < r[tie]))).any()


def _presence(t: np.ndarray, s: np.ndarray, r: np.ndarray) -> dict[int, tuple[float, float]]:
    """Each id's first and last observation as sender or receiver; `t` is sorted."""
    spans: dict[int, tuple[float, float]] = {}
    if len(t) == 0:
        return spans
    for col in (s, r):
        order = _group_order(col)
        keys = col[order]
        # Groups are in time order, so their ends hold the first and last time.
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        ends = np.append(starts[1:], len(keys)) - 1
        for v, a, b in zip(keys[starts].tolist(), t[order[starts]].tolist(),
                           t[order[ends]].tolist()):
            lo, hi = spans.get(v, (a, b))
            spans[v] = (min(lo, a), max(hi, b))
    return dict(sorted(spans.items()))


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array.  Plain np.unique would
    import numpy.ma, over a megabyte of resident memory."""
    a = np.sort(a)
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _flag_labels(t, s, attacker_flag, active_flag) -> tuple[set[int], list[tuple[float, float]]]:
    """Attackers from the sender flag; windows from runs of flagged seconds."""
    attackers = set(_distinct(s[attacker_flag == 1]).tolist())

    windows: list[tuple[float, float]] = []
    secs = _distinct(np.floor(t[active_flag == 1]).astype(np.int64))
    if len(secs):
        # Runs of consecutive flagged seconds; each becomes [first, last + 1).
        breaks = np.flatnonzero(np.diff(secs) != 1)
        starts = secs[np.concatenate([[0], breaks + 1])]
        ends = secs[np.concatenate([breaks, [len(secs) - 1]])] + 1
        windows = [(float(a), float(b)) for a, b in zip(starts.tolist(), ends.tolist())]
    return attackers, windows


def ingest(path) -> tuple[EventStream, GroundTruth | None]:
    """Read an event-log CSV; unsorted rows are sorted, malformed rows rejected.

    Grammar.  The first line is the header: ``time_s,sender,receiver``,
    optionally followed by ``,is_attacker_sender,attack_active`` (spaces
    around a name are ignored).  A missing or blank header means an empty
    log.  Every later line is empty (skipped, but counted in line numbers)
    or a row of exactly as many comma-separated fields as the header, each
    field optionally padded with spaces or tabs:

    - ``time_s``: a decimal float such as ``12``, ``1.5``, ``.5`` or
      ``1e3``; finite and >= 0.
    - ``sender``, ``receiver``: decimal integers with an optional sign that
      fit in int64; a row whose sender equals its receiver is rejected.
    - ``is_attacker_sender``, ``attack_active``: ``0`` or ``1``.

    Nothing else is accepted: no ``_`` digit separators, no ``3.0`` as an
    id, no quotes, and no comments (a line starting with ``#`` is a bad
    row, as is a line holding only whitespace).  A ParseError names the
    first bad line.

    Ground truth is reconstructed only when the annotation columns are present:
    attackers from the sender flag, attack windows from contiguous runs of
    flagged seconds, presence from each vehicle's first/last observation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    if not header.strip():
        return EventStream([], [], []), None
    cols = [c.strip() for c in header.strip().split(",")]
    if cols == _ANNOT_HEADER:
        dtype = _ANNOT_DTYPE
    elif cols == _BASE_HEADER:
        dtype = _BASE_DTYPE
    else:
        raise ParseError(f"line 1: unrecognized header {cols!r}")

    try:
        rows = _load_rows(path, dtype, skiprows=1)
    except ValueError as exc:
        raise _locate(path, dtype, str(exc)) from None
    reason = _value_error(rows)
    if reason is not None:
        raise _locate(path, dtype, reason)

    # Contiguous copies: strided field views slow every later kernel.
    t, s, r = (np.ascontiguousarray(rows[name]) for name in _BASE_HEADER)
    labels = None
    if dtype is _ANNOT_DTYPE:
        labels = _flag_labels(t, s, rows[_FLAGS[0]], rows[_FLAGS[1]])
    del rows
    stream = EventStream(t, s, r)
    if not _in_order(t, s, r):
        stream = stream.sorted()
    if labels is None:
        return stream, None
    attackers, windows = labels
    return stream, GroundTruth(attackers=attackers, attack_windows=windows,
                               presence=_presence(stream.times, stream.senders,
                                                  stream.receivers))
