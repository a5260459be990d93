"""Synthetic VANET packet-event scenarios with scheduled flooding attacks.

Generates a timeline of (time, sender, receiver) packet events for a set of
vehicles that enter and exit the network, with a subset of vehicles flooding
their neighbors during scheduled attack windows.  Also ingests externally
recorded event logs in the same CSV format.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._codes import dense_codes, distinct
from ._config import ConfigError, check_types, is_int, is_number
from ._fork import cores as _cores, fork_map, part_count

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

    def __post_init__(self):
        check_types(self)
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        if not (0.0 <= self.attacker_fraction <= 1.0):
            raise ConfigError("attacker_fraction must be in [0, 1]")
        for name in ("attack_count", "attack_duration_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.attack_count * self.attack_spacing_s > self.duration_s:
            raise ConfigError("attack_count * attack_spacing_s must be <= duration_s")
        if self.attack_duration_s > self.attack_spacing_s:
            raise ConfigError("attack_duration_s must be <= attack_spacing_s")
        if self.flood_rate_pps <= self.normal_rate_pps:
            raise ConfigError("flood_rate_pps must be > normal_rate_pps")
        if self.concurrent_range[0] < 0:
            raise ConfigError("concurrent_range.min must be >= 0")
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


_ID_DTYPES = (np.uint8, np.uint16)
# Events merged per step when a stream is sorted.
_MERGE_ROWS = 1 << 12


def _narrow(senders, receivers) -> tuple[np.ndarray, np.ndarray]:
    """Both id arrays, contiguous, in the narrowest of uint8 and uint16 that
    holds every id of either, else in int64."""
    ids = [a if a.dtype in _ID_DTYPES else np.asarray(a, dtype=np.int64)
           for a in map(np.asarray, (senders, receivers))]
    lo = min((int(a.min()) for a in ids if len(a)), default=0)
    hi = max((int(a.max()) for a in ids if len(a)), default=0)
    dtype = next((d for d in _ID_DTYPES if lo >= 0 and hi <= np.iinfo(d).max), np.int64)
    return tuple(np.ascontiguousarray(a, dtype=dtype) for a in ids)


class EventStream:
    """Time-sorted packet events held as parallel numpy arrays.

    The ids are held in the narrowest of uint8 and uint16 that holds every
    sender and receiver, and in int64 when one is negative or above 65,535.
    A caller widens them (``.astype(np.int64)``) before arithmetic that
    could leave that range.
    """

    def __init__(self, times, senders, receivers):
        self.times = np.asarray(times, dtype=np.float64)
        self.senders, self.receivers = _narrow(senders, receivers)
        if not (len(self.times) == len(self.senders) == len(self.receivers)):
            raise ValueError("event arrays must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    def _sort(self) -> None:
        """Sort this stream's events in place into (time, sender, receiver)
        order; rows equal on all three keep their order, as under
        np.lexsort((receivers, senders, times)).  The arrays the stream
        holds, which may be the caller's, are changed.

        Each half is sorted on its own.  The halves' ids are merged into new
        arrays by where each time falls in the other half, the times are
        sorted in place where the halves overlap, and the ids of each run of
        tied times are sorted by sender and receiver.  Beside the stream,
        half an order, or a copy of the ids and a byte per event, are alive
        at most.  Rows equal on all three keys cannot be told apart, except
        by a -0.0 tied with 0.0: times that hold a -0.0 are lexsorted whole,
        so that each keeps its row.
        """
        t = self.times
        if np.signbit(t[t == 0]).any():
            order = np.lexsort((self.receivers, self.senders, t))
            self.times, self.senders, self.receivers = (
                t[order], self.senders[order], self.receivers[order])
            return
        h = len(t) // 2
        for half in (slice(None, h), slice(h, None)):
            order = np.argsort(t[half])
            t[half].sort()
            for ids in (self.senders, self.receivers):
                ids[half] = ids[half][order]
            del order
        # The halves' ids are merged.  First-half events before the second
        # half's first time, and second-half events after the first half's
        # last time, keep their slots.  In between, each first-half event
        # goes before its equals in the second half, and the second half's
        # events fill the other slots in order.
        lo, hi = 0, len(t)
        if h:
            lo = int(np.searchsorted(t[:h], t[h]))
            hi = h + int(np.searchsorted(t[h:], t[h - 1], "right"))
        ids = self.senders, self.receivers
        merged = ids[0].copy(), ids[1].copy()
        first = np.zeros(hi - lo, dtype=bool)
        for start in range(lo, h, _MERGE_ROWS):
            block = slice(start, min(start + _MERGE_ROWS, h))
            to = np.searchsorted(t[h:hi], t[block])
            to += np.arange(block.start, block.stop)
            first[to - lo] = True
            for out, src in zip(merged, ids):
                out[to] = src[block]
        taken = h
        for start in range(0, hi - lo, _MERGE_ROWS):
            to = np.flatnonzero(~first[start:start + _MERGE_ROWS])
            to += lo + start
            for out, src in zip(merged, ids):
                out[to] = src[taken:taken + len(to)]
            taken += len(to)
        self.senders, self.receivers = merged
        del ids, merged, first
        t[lo:hi].sort()
        eq = t[1:] == t[:-1]
        tied = np.zeros(len(t), dtype=bool)
        tied[1:] = eq
        tied[:-1] |= eq
        at = np.flatnonzero(tied)
        s, r = self.senders, self.receivers
        resort = np.lexsort((r[at], s[at], t[at]))
        s[at], r[at] = s[at][resort], r[at][resort]

    def between(self, start_s: float, end_s: float) -> "EventStream":
        """Events with start_s <= time < end_s, as views of this stream (ids
        that fit a narrower type than the stream's are copied to it)."""
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

    def active(self, times) -> np.ndarray:
        """Whether each of `times` falls in an attack window [start, end)."""
        times = np.asarray(times)
        out = np.zeros(times.shape, dtype=bool)
        for start, end in self.attack_windows:
            out |= (times >= start) & (times < end)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruth":
        """The inverse of `to_dict`; a ValueError names the first field that
        does not have its form."""
        if not isinstance(d, dict):
            raise ValueError(f"a ground truth must be a JSON object, got {type(d).__name__}")
        attackers = _field(d, "attackers", list)
        for i, v in enumerate(attackers):
            if not is_int(v):
                raise ValueError(f"attackers[{i}] must be an integer, got {v!r}")
        windows = _field(d, "attack_windows", list)
        presence = _field(d, "presence", dict)
        spans = {}
        for v, span in presence.items():
            try:
                key = int(v)
            except ValueError:
                raise ValueError(f"presence key {v!r} must be an integer") from None
            spans[key] = _pair(span, f"presence[{v!r}]")
        return cls(
            attackers=set(attackers),
            attack_windows=[_pair(w, f"attack_windows[{i}]") for i, w in enumerate(windows)],
            presence=spans,
        )


def _field(d: dict, name: str, kind: type):
    """`d[name]`, empty when absent; a ValueError unless it is a `kind`."""
    value = d.get(name, kind())
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'array' if kind is list else 'object'}, "
                         f"got {value!r}")
    return value


def _pair(value, name: str) -> tuple[float, float]:
    """`value` as a (float, float) pair; a ValueError names it otherwise."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_number, value))):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}")
    return float(value[0]), float(value[1])


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

    if not all_times:
        return EventStream([], [], []), truth
    stream = EventStream(np.concatenate(all_times), np.concatenate(all_senders),
                         np.concatenate(all_receivers))
    stream._sort()
    return stream, truth


# ---------------------------------------------------------------------------
# Event-log file I/O


_BASE_HEADER = ["time_s", "sender", "receiver"]
_ANNOT_HEADER = _BASE_HEADER + ["is_attacker_sender", "attack_active"]
_FLAGS = _ANNOT_HEADER[3:]
# Lines parsed per np.loadtxt call while a rejected log is searched for its
# first bad line.
_RESCAN_LINES = 4096
# Rows checked per step of the value rules.  Their temporaries take some
# 20 B a row, more than a 14 B parsed row.
_CHECK_ROWS = 1 << 14
# Bytes of a log's body per parse part, at least: a smaller part gains less
# than a forked worker costs.
_MIN_PART_BYTES = 1 << 20
# Lines joined per write.  Joined whole, the body of a 3.2M-event log took
# the writer's peak memory from 341 MB to 803 MB.
_WRITE_LINES = 1 << 16
# Events per write part, at least: a smaller part gains less than a forked
# worker costs.
_MIN_WRITE_EVENTS = 1 << 15
# Bytes of a write worker's part copied into the file per step.
_COPY_BYTES = 1 << 20


def _row_dtype(cols: list[str], ids: str) -> np.dtype:
    """A parsed row of a log with header `cols`, its ids of numpy type `ids`."""
    return np.dtype([("time_s", "f8"), ("sender", ids), ("receiver", ids)]
                    + [(name, "i1") for name in cols[3:]])


def _line_tails(times, senders, receivers, truth: GroundTruth | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct line tail of non-empty events, ``,sender,receiver`` plus
    the flags and newline, as an object array, and each event's index into
    it."""
    n = len(times)
    ids, codes = dense_codes(np.concatenate([senders, receivers]))
    pair = codes[:n] * len(ids) + codes[n:]
    keys, index = dense_codes(2 * pair + (0 if truth is None else truth.active(times)))
    tails = []
    for s, r, a in zip(ids[keys // 2 // len(ids)].tolist(), ids[keys // 2 % len(ids)].tolist(),
                       (keys % 2).tolist()):
        flags = "" if truth is None else f",{int(s in truth.attackers)},{a}"
        tails.append(f",{s},{r}{flags}\n")
    return np.array(tails, dtype=object), index


def _write_parts(events: int, cores: int) -> list[tuple[int, int]]:
    """The contiguous (start, stop) event ranges a log of `events` is
    written in: one per core, each of _MIN_WRITE_EVENTS at least."""
    count = part_count(events, _MIN_WRITE_EVENTS, cores)
    bounds = [events * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _lines(stream: EventStream, truth: GroundTruth | None, part: tuple[int, int]):
    """The encoded lines of the events in `part`, _WRITE_LINES at a time:
    each line the time's repr and its tail, looked up in a table that
    formats each of the part's distinct tails once."""
    rows = slice(*part)
    times = stream.times[rows]
    tails, index = _line_tails(times, stream.senders[rows], stream.receivers[rows], truth)
    for lo in range(0, len(times), _WRITE_LINES):
        block = slice(lo, lo + _WRITE_LINES)
        pieces = [None] * (2 * len(index[block]))
        pieces[0::2] = map(repr, times[block].tolist())
        pieces[1::2] = tails[index[block]].tolist()
        yield "".join(pieces).encode("utf-8")


def _send_lines(blocks, pipe) -> None:
    """A write worker's result: its part's byte count, then its bytes."""
    blocks = list(blocks)
    pipe.write(np.int64(sum(map(len, blocks))).tobytes())
    for block in blocks:
        pipe.write(block)


def write_events_csv(path, stream: EventStream, truth: GroundTruth | None = None) -> None:
    """Write the event log; annotation columns are included when truth is given.

    The events are cut into contiguous parts by `_write_parts`: one per core
    this process may run on, each of _MIN_WRITE_EVENTS at least, so the cut
    follows from the event count.  The first part's lines are formatted and
    written here, _WRITE_LINES at a time, while a forked worker of
    `_fork.fork_map` formats each other part whole and sends its bytes.
    Each worker's bytes are then copied into the file in order, _COPY_BYTES
    at a time, so this process holds no more than a block of lines and the
    buffer.  The file is the same, byte for byte, at any part count.  A
    worker that ends without sending its part raises ChildProcessError.
    """
    header = _BASE_HEADER if truth is None else _ANNOT_HEADER
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if not len(stream):
            return
        with fork_map(lambda part: _lines(stream, truth, part),
                      _write_parts(len(stream), _cores()), _send_lines) as (first, workers):
            for block in first:
                fh.write(block)
            buf = memoryview(bytearray(_COPY_BYTES))
            for worker in workers:
                size = np.zeros(1, dtype=np.int64)
                worker.receive(size)
                left = int(size[0])
                while left:
                    view = buf[:left]
                    worker.receive(view)
                    fh.write(view)
                    left -= len(view)


def write_ground_truth(path, truth: GroundTruth) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_ground_truth(path) -> GroundTruth:
    """Read a truth file; a ValueError names the file, and the field when
    the JSON does not have `GroundTruth.to_dict`'s form."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return GroundTruth.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_rows(source, dtype: np.dtype, skiprows: int = 0, max_rows: int | None = None
               ) -> np.ndarray:
    """Parse event rows from a path or a list of lines; raises ValueError."""
    with warnings.catch_warnings():
        # A body with no rows is an empty log, not a reason to warn.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", skiprows=skiprows,
                          max_rows=max_rows, comments=None, encoding="utf-8", ndmin=1)


def _value_error(rows: np.ndarray, truth: GroundTruth | None) -> str | None:
    """Why the first row that breaks a value rule is rejected, or None.

    Given a truth, an annotated row that passes the value rules must also
    carry the flags `write_events_csv` would write for it: its sender's
    membership of `truth.attackers`, and whether its time falls in a window
    [start, end) of `truth.attack_windows`.  Rows are checked _CHECK_ROWS at
    a time, so the check's temporaries stay small next to the rows.
    """
    flags = [name for name in _FLAGS if name in rows.dtype.names]
    if truth is not None and flags:
        attackers = np.array(sorted(truth.attackers), dtype=np.int64)
    for lo in range(0, len(rows), _CHECK_ROWS):
        block = rows[lo:lo + _CHECK_ROWS]
        t, s, r = block["time_s"], block["sender"], block["receiver"]
        rules = [
            (~np.isfinite(t) | (t < 0), "time_s", "must be finite and >= 0"),
            (s == r, "receiver", "must differ from sender"),
        ] + [((block[name] != 0) & (block[name] != 1), name, "must be 0 or 1") for name in flags]
        if truth is not None and flags:
            ok = ~np.logical_or.reduce([bad for bad, _, _ in rules])
            attacker = np.isin(s, attackers)
            rules += [
                (ok & (block[_FLAGS[0]] != attacker), _FLAGS[0],
                 "must match the ground truth's attackers"),
                (ok & (block[_FLAGS[1]] != truth.active(t)), _FLAGS[1],
                 "must match the ground truth's attack windows"),
            ]
        hits = [(int(np.argmax(bad)), name, rule) for bad, name, rule in rules if bad.any()]
        if hits:
            i, name, rule = min(hits)
            return f"{name} {rule}, got {block[name][i].item()!r}"
    return None


def _decode_error(text: str) -> str | None:
    """Why `text`, read with errors="surrogateescape", is not UTF-8, or None."""
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    return None


def _line_error(lines: list[str], dtype: np.dtype, truth: GroundTruth | None) -> str | None:
    """Why `lines` are rejected, or None when they are UTF-8, parse and pass
    every rule."""
    why = _decode_error("".join(lines))
    if why is not None:
        return why
    try:
        rows = _load_rows(lines, dtype)
    except ValueError as exc:
        # np.loadtxt counts rows within `lines`; the caller knows the line.
        return str(exc).split(" at row ")[0]
    return _value_error(rows, truth)


def _locate(path, dtype: np.dtype, truth: GroundTruth | None) -> ParseError:
    """Name the first bad line of a rejected log by parsing it again, a chunk
    of lines at a time and then line by line inside the first bad chunk.
    Bytes that are not UTF-8 are kept as surrogates, so they fail only
    their own line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        fh.readline()
        lineno = 2
        while chunk := list(itertools.islice(fh, _RESCAN_LINES)):
            if _line_error(chunk, dtype, truth) is not None:
                for offset, line in enumerate(chunk):
                    why = _line_error([line], dtype, truth)
                    if why is not None:
                        return ParseError(f"line {lineno + offset}: {why}")
            lineno += len(chunk)
    return ParseError("rejected, but no line is rejected on its own")


def _in_order(t: np.ndarray, s: np.ndarray, r: np.ndarray) -> bool:
    """Whether the rows already follow (time, sender, receiver) order."""
    if (t[1:] < t[:-1]).any():
        return False
    tie = np.flatnonzero(t[1:] == t[:-1])
    s0, s1 = s[tie], s[tie + 1]
    return not ((s1 < s0) | ((s1 == s0) & (r[tie + 1] < r[tie]))).any()


def _presence(t: np.ndarray, s: np.ndarray, r: np.ndarray) -> dict[int, tuple[float, float]]:
    """Each id's first and last time as sender or receiver, for finite times.

    The times are folded, _CHECK_ROWS events at a time, into tables of
    earliest and latest times over the ids.  When the ids span at most
    twice as many values as there are events, the tables cover that span,
    and an id's slot is its offset from the smallest.  Otherwise they cover
    the distinct ids, and an id's slot is found by binary search.  The
    distinct ids are gathered a block at a time, and the blocks' are merged
    into them whenever they outnumber them, so no step holds more than
    about twice the distinct ids and two blocks.
    """
    if len(t) == 0:
        return {}
    lo, hi = int(min(s.min(), r.min())), int(max(s.max(), r.max()))
    dense = hi - lo < 2 * len(t)
    if dense:
        ids = np.arange(lo, hi + 1)
    else:
        ids, pending = s[:0], []
        for col in (s, r):
            for b in range(0, len(t), _CHECK_ROWS):
                pending.append(distinct(col[b:b + _CHECK_ROWS]))
                if sum(map(len, pending)) > len(ids) + _CHECK_ROWS:
                    ids, pending = distinct(np.concatenate([ids, *pending])), []
        ids = distinct(np.concatenate([ids, *pending]))
    first = np.full(len(ids), np.inf)
    last = np.full(len(ids), -np.inf)
    for col in (s, r):
        for b in range(0, len(t), _CHECK_ROWS):
            block = slice(b, b + _CHECK_ROWS)
            slot = col[block] - lo if dense else np.searchsorted(ids, col[block])
            np.minimum.at(first, slot, t[block])
            np.maximum.at(last, slot, t[block])
    seen = np.flatnonzero(first <= last)
    return dict(zip(ids[seen].tolist(), zip(first[seen].tolist(), last[seen].tolist())))


def _flag_labels(t, s, attacker_flag, active_flag) -> tuple[set[int], list[tuple[float, float]]]:
    """Attackers from the sender flag; windows from runs of flagged seconds.
    The distinct senders and seconds are taken _CHECK_ROWS events at a time."""
    senders, secs = [s[:0]], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(t), _CHECK_ROWS):
        block = slice(lo, lo + _CHECK_ROWS)
        senders.append(distinct(s[block][attacker_flag[block] == 1]))
        secs.append(distinct(np.floor(t[block][active_flag[block] == 1]).astype(np.int64)))
    attackers = set(distinct(np.concatenate(senders)).tolist())

    windows: list[tuple[float, float]] = []
    secs = distinct(np.concatenate(secs))
    if len(secs):
        # Runs of consecutive flagged seconds; each becomes [first, last + 1).
        breaks = np.flatnonzero(np.diff(secs) != 1)
        starts = secs[np.concatenate([[0], breaks + 1])]
        ends = secs[np.concatenate([breaks, [len(secs) - 1]])] + 1
        windows = [(float(a), float(b)) for a, b in zip(starts.tolist(), ends.tolist())]
    return attackers, windows


def _part_count(body_bytes: int, cores: int) -> int:
    """How many parts a log body of `body_bytes` is parsed in: one per core,
    each of _MIN_PART_BYTES at least."""
    return part_count(body_bytes, _MIN_PART_BYTES, cores)


def _parts(path, start: int) -> list[tuple[int, int | None]]:
    """The parts of the log body that starts at byte `start`, as np.loadtxt's
    (skiprows, max_rows) of each: the last part reads to the end.

    Cuts fall at line ends, and one binary pass counts the lines before
    each.  np.loadtxt's max_rows does not count empty lines, and it ends a
    line at a ``\\r`` too, so a body with either before the last cut is one
    part.
    """
    end = os.path.getsize(path)
    count = _part_count(end - start, _cores())
    whole = [(1, None)]
    if count < 2:
        return whole
    with open(path, "rb") as fh:
        cuts = set()
        for k in range(1, count):
            # The cut ends the line that holds the byte before this target.
            pos = start + (end - start) * k // count - 1
            fh.seek(pos)
            while buf := fh.read(1 << 12):
                if (i := buf.find(b"\n")) >= 0:
                    cuts.add(pos + i + 1)
                    break
                pos += len(buf)
        # From the header's newline on, so that an empty first row shows.
        pos, ended, lines, skips = start - 1, False, 0, [1]
        fh.seek(pos)
        for cut in sorted(c for c in cuts if c < end):
            while pos < cut:
                block = fh.read(min(1 << 16, cut - pos))
                ends = np.frombuffer(block, dtype=np.uint8) == ord("\n")
                if (not block or b"\r" in block or (ended and ends[0])
                        or (ends[1:] & ends[:-1]).any()):
                    return whole
                lines += int(np.count_nonzero(ends))
                pos, ended = pos + len(block), bool(ends[-1])
            skips.append(lines)
    return [(a, b - a) for a, b in zip(skips, skips[1:])] + [(skips[-1], None)]


def _part(path, dtype: np.dtype, skiprows: int, max_rows: int | None,
          truth: GroundTruth | None) -> np.ndarray | None:
    """One part's rows, or None when one of them is bad or breaks a value rule."""
    try:
        rows = _load_rows(path, dtype, skiprows, max_rows)
    except ValueError:
        return None
    return None if _value_error(rows, truth) is not None else rows


def _send_columns(rows: np.ndarray | None, names: list[str], pipe) -> None:
    """A parse worker's result: its row count (-1 when its part is
    rejected), then each column of `names` in turn."""
    pipe.write(np.int64(-1 if rows is None else len(rows)).tobytes())
    for name in names if rows is not None else ():
        for lo in range(0, len(rows), _CHECK_ROWS):
            pipe.write(np.ascontiguousarray(rows[name][lo:lo + _CHECK_ROWS]))


def _parse_parts(path, dtype: np.dtype, parts: list[tuple[int, int | None]],
                 truth: GroundTruth | None, names: list[str]):
    """The rows of a log parsed in `parts`, or None when a part is rejected.
    Part 0 is parsed here while a forked worker parses each other part
    (`_fork.fork_map`); a worker's columns are read straight into the
    joined columns `names`.  One part's structured rows are returned as
    they are: a copy into columns would add to the peak."""
    with fork_map(lambda part: _part(path, dtype, *part, truth), parts,
                  lambda rows, pipe: _send_columns(rows, names, pipe)) as (rows, workers):
        if rows is None or not workers:
            return rows
        sizes = [len(rows)]
        for worker in workers:
            size = np.zeros(1, dtype=np.int64)
            worker.receive(size)
            if size[0] < 0:
                return None
            sizes.append(int(size[0]))
        bounds = np.cumsum([0] + sizes).tolist()
        columns = {name: np.empty(bounds[-1], dtype=dtype[name]) for name in names}
        for name in names:
            columns[name][:len(rows)] = rows[name]
        del rows
        for worker, lo, hi in zip(workers, bounds[1:], bounds[2:]):
            for name in names:
                worker.receive(columns[name][lo:hi])
        return columns


def ingest(path, truth: GroundTruth | None = None) -> tuple[EventStream, GroundTruth | None]:
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
    row, as is a line holding only whitespace, and so is a line that is not
    UTF-8).  A ParseError names the first bad line.

    Parts.  The body is cut at line ends into one part per core this
    process may run on (``os.sched_getaffinity``), each of at least
    _MIN_PART_BYTES.  The first part is parsed here and every other one in
    a forked worker of `_fork.fork_map` (the writer's map too), all with the
    same np.loadtxt call and value rules, and each worker's columns are
    read straight into the joined columns; no worker outlives the call.
    One core, a small log, a platform without ``os.fork``, or an empty
    line or a ``\\r`` before the last cut makes one part, parsed here by
    the same function.  Ids are parsed as uint16; when any part is
    rejected, the same parts are parsed again with int64 ids, and when one
    is still rejected, the log is searched for its first bad line.  So the
    events and every error are those of a 1-part parse.  A worker that ends
    without sending its part raises ChildProcessError.

    Given a `truth`, it is returned as the log's ground truth.  The
    annotation columns, when present, are checked against it: each row's
    ``is_attacker_sender`` must be 1 exactly when its sender is one of
    `truth.attackers`, and its ``attack_active`` 1 exactly when its time
    falls in a window [start, end) of `truth.attack_windows`; the first
    row that disagrees is rejected like a bad row.  Presence is not
    compared.  Without a truth, one is rebuilt only from the annotation
    columns: attackers from the sender flag, attack windows from contiguous
    runs of flagged seconds, presence from each vehicle's first/last
    observation.  A plain log given no truth has none.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = fh.readline()
    why = _decode_error(header)
    if why is not None:
        raise ParseError(f"line 1: {why}")
    if not header.strip():
        return EventStream([], [], []), truth
    cols = [c.strip() for c in header.strip().split(",")]
    if cols not in (_ANNOT_HEADER, _BASE_HEADER):
        raise ParseError(f"line 1: unrecognized header {cols!r}")

    rebuild = truth is None and cols == _ANNOT_HEADER
    rows = _parse(path, len(header.encode("utf-8", "surrogateescape")), cols, truth,
                  _BASE_HEADER + (_FLAGS if rebuild else []))
    # Contiguous copies: strided field views slow every later kernel.  The
    # parsed rows go before anything else is built.
    stream = EventStream(np.ascontiguousarray(rows["time_s"]), rows["sender"], rows["receiver"])
    flags = [np.ascontiguousarray(rows[name]) for name in _FLAGS] if rebuild else []
    del rows
    if rebuild:
        attackers, windows = _flag_labels(stream.times, stream.senders, *flags)
        del flags
    if not _in_order(stream.times, stream.senders, stream.receivers):
        stream._sort()
    if rebuild:
        truth = GroundTruth(attackers=attackers, attack_windows=windows,
                            presence=_presence(stream.times, stream.senders, stream.receivers))
    return stream, truth


def _parse(path, start: int, cols: list[str], truth: GroundTruth | None, names: list[str]):
    """The rows of the log whose body starts at byte `start`, parsed by
    `_parse_parts` in one plan of `_parts`: uint16 ids first, and int64 ids
    when that parse is rejected.  Rows come as `_parse_parts` gives them.
    When both are rejected, a ParseError names the first bad line."""
    parts = _parts(path, start)
    for ids in ("u2", "i8"):
        dtype = _row_dtype(cols, ids)
        rows = _parse_parts(path, dtype, parts, truth, names)
        if rows is not None:
            return rows
    raise _locate(path, dtype, truth)
