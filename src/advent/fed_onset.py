"""Federated attack-onset protocol: round-0 tree aggregation, weight rounds
and onset inference.

Round 0 collects each client's tree ensemble, sorts them by client id,
checks that they hold equally many trees, and initializes the convolutional
head.  The trees stay fixed afterwards: once the GLOBAL_ENSEMBLE broadcast
is decoded, its ensembles are compiled into one forest
(`gbdt.compile_forest`, which compiles its leaf masks), and that forest is
all that decides from the trees from then on.  Rounds 1..R-1 broadcast the
head weights, run client updates, and FedAvg the results.  `run_training`
always runs every round, so the model it returns is the final one and holds
only the forest and the head.  The work that does not change between weight
rounds is done once per run: the head's table of distinct tree vectors over
every client's rows (`gbdt.distinct_outputs`), and the head's plan of
client blocks (`head.plan_round`).  Every weight round's shuffles and batch
counts follow from that plan and seeds known before round 1, so once the
plan is made they are drawn ahead of the steps (`head.draw_rounds`): on
two cores or more by one producer forked for the run, which streams them
through a pipe while the rounds step here.  Every message is encoded as
one JSON line and decoded by its receiver in process; the lines are kept
only in a transcript the caller passes, and the same bytes round-trip
through files.
Each vehicle's onset flags are its own: no quorum across vehicles confirms
them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields

import numpy as np

from . import gbdt, head
from .gbdt import LocalEnsemble
from .head import HeadConfig, HeadWeights

log = logging.getLogger(__name__)

__all__ = [
    "ProtocolError",
    "GlobalModel",
    "FedClient",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
    "round0_aggregate",
    "fedavg",
    "run_training",
    "detect_onset_batch",
]

MESSAGE_TYPES = (
    "TREES_UPLOAD",
    "GLOBAL_ENSEMBLE",
    "WEIGHTS_BROADCAST",
    "WEIGHTS_UPDATE",
)


class ProtocolError(RuntimeError):
    pass


@dataclass
class GlobalModel:
    forest: LocalEnsemble  # every client's trees, in client order (gbdt.compile_forest)
    head: HeadWeights


@dataclass
class FedClient:
    """A vehicle's training-side state: its local feature rows and labels."""

    cid: int
    x: np.ndarray
    y: np.ndarray


# ---------------------------------------------------------------------------
# JSON-lines message protocol


def encode_message(msg_type: str, cid: int | None, round_: int, payload) -> str:
    if msg_type not in MESSAGE_TYPES:
        raise ValueError(f"unknown message type {msg_type!r}")
    return json.dumps({"type": msg_type, "cid": cid, "round": round_, "payload": payload},
                      sort_keys=True)


def decode_message(line: str) -> dict:
    msg = json.loads(line)
    if msg.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {msg.get('type')!r}")
    return msg


def _send(transcript: list[str] | None, line: str) -> dict:
    """Put one encoded message on the wire: keep the line only in a
    transcript the caller gave, and return it as the receiver decodes it.

    Taking the line, not the payload, lets the sender's payload be freed
    before the decode builds the receiver's copy.
    """
    if transcript is not None:
        transcript.append(line)
    return decode_message(line)


# ---------------------------------------------------------------------------
# Server-side aggregation


def round0_aggregate(
    submissions: list[tuple[int, LocalEnsemble]],
    head_config: HeadConfig = HeadConfig(),
) -> tuple[list[LocalEnsemble], HeadWeights]:
    """The submitted ensembles sorted by client id, and the initial head.

    Every ensemble must hold as many trees as the others, and only finite
    leaf values, thresholds and base score: the wire format's JSON accepts
    NaN and Infinity, which would otherwise pass straight into the head's
    table.
    """
    if not submissions:
        raise ProtocolError("round 0 requires at least one submission")
    seen: set[int] = set()
    for cid, ens in submissions:
        if cid in seen:
            raise ProtocolError(f"duplicate client id {cid} in round 0")
        seen.add(cid)
        if not np.isfinite(ens.value).all():
            raise ProtocolError(f"client {cid}: non-finite leaf value")
        if not np.isfinite(ens.threshold).all():
            raise ProtocolError(f"client {cid}: non-finite threshold")
        if not np.isfinite(ens.base_score):
            raise ProtocolError(f"client {cid}: non-finite base score")
    ordered = [ens for _, ens in sorted(submissions, key=lambda s: s[0])]
    if len({len(ens.trees) for ens in ordered}) > 1:
        raise ProtocolError("clients submitted differing tree counts")
    return ordered, head.init(k=len(ordered), t=len(ordered[0].trees), config=head_config)


def fedavg(updates: list[tuple[int, HeadWeights, int]]) -> HeadWeights:
    """Sample-count-weighted element-wise mean of client head weights.

    Every update must match the first one's shapes and hold only finite
    values; a broadcastable mismatch or a NaN would otherwise pass straight
    into the global model.  The checks and the mean walk `HeadWeights`'
    fields; a mean adds count / total times each client's field to 0.0.
    """
    if not updates:
        raise ProtocolError("fedavg requires at least one update")
    names = [f.name for f in fields(HeadWeights)]
    shape = [np.shape(getattr(updates[0][1], n)) for n in names]
    total = 0
    for cid, w, count in updates:
        if count < 1:
            raise ProtocolError(f"client {cid}: sample_count must be >= 1")
        values = [getattr(w, n) for n in names]
        if [np.shape(v) for v in values] != shape:
            raise ProtocolError(f"client {cid}: weight shape mismatch")
        if not all(np.isfinite(a).all() for a in values):
            raise ProtocolError(f"client {cid}: non-finite weight")
        total += count
    mean = dict.fromkeys(names, 0.0)
    for _, w, count in updates:
        for n in names:
            mean[n] = mean[n] + count / total * getattr(w, n)
    return HeadWeights(**mean)


def run_training(
    clients: list[FedClient],
    gbdt_config: gbdt.GbdtConfig,
    head_config: HeadConfig,
    rounds: int,
    transcript: list[str] | None = None,
) -> GlobalModel:
    """Execute round 0 plus rounds-1 weight rounds in process.

    Every message crosses the wire as a JSON line; pass `transcript` to
    capture them, otherwise each line is dropped once decoded.  Round 0
    fits every client's trees in one `gbdt.train_clients` call; each
    ensemble is the client's own fit.
    Every client trains in every weight round, with a seed derived from the
    head seed, the client id and the round, so runs are deterministic.  A
    forked draw producer (`head.draw_rounds`) that ends early raises
    ChildProcessError, and it is killed and reaped however this returns.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not clients:
        raise ProtocolError("no clients available; training stalled")

    # Round 0: tree upload and aggregation.
    submissions: list[tuple[int, LocalEnsemble]] = []
    fitted = gbdt.train_clients([c.x for c in clients], [c.y for c in clients], gbdt_config,
                                [c.cid for c in clients])
    for c, ens in zip(clients, fitted):
        msg = _send(transcript, encode_message("TREES_UPLOAD", c.cid, 0,
                                               gbdt.ensemble_to_dict(ens)))
        submissions.append((msg["cid"], gbdt.ensemble_from_dict(msg["payload"])))
    ordered, w = round0_aggregate(submissions, head_config)
    broadcast = _send(transcript, encode_message(
        "GLOBAL_ENSEMBLE", None, 0, [gbdt.ensemble_to_dict(e) for e in ordered]))["payload"]
    model = GlobalModel(
        forest=gbdt.compile_forest([gbdt.ensemble_from_dict(d) for d in broadcast]), head=w)
    del broadcast  # before the table build, where a large run's memory peaks
    table, ids = gbdt.distinct_outputs(model.forest, np.concatenate([c.x for c in clients]))
    labels = np.concatenate([c.y for c in clients])
    bounds = np.cumsum([0] + [len(c.y) for c in clients]).tolist()
    spans = list(zip(bounds, bounds[1:]))
    plan = head.plan_round(model.head, table, ids, labels, spans, head_config)
    log.info("head plan: blocks=%d clients=%d table_rows=%d whole_blocks=%d",
             len(plan.blocks), len(clients), len(table), sum(b.whole for b in plan.blocks))

    # Rounds 1..R-1: head-weight averaging.  Every round's shuffles and
    # batch counts follow from the plan and the seeds alone, so they are
    # drawn ahead of the steps (`head.draw_rounds`).
    seeds = [[head_config.rng_seed * 100003 + c.cid * 1009 + r for c in clients]
             for r in range(1, rounds)]
    with head.draw_rounds(plan, seeds) as draws:
        for r in range(1, rounds):
            w_global = head.weights_from_dict(_send(transcript, encode_message(
                "WEIGHTS_BROADCAST", None, r, head.weights_to_dict(model.head)))["payload"])
            trained = head.train_round(w_global, plan, draws)
            updates: list[tuple[int, HeadWeights, int]] = []
            for c, w_new in zip(clients, trained):
                msg = _send(transcript, encode_message(
                    "WEIGHTS_UPDATE", c.cid, r,
                    {"weights": head.weights_to_dict(w_new), "sample_count": len(c.y)}))
                updates.append((msg["cid"], head.weights_from_dict(msg["payload"]["weights"]),
                                msg["payload"]["sample_count"]))
            model.head = fedavg(updates)
    return model


# ---------------------------------------------------------------------------
# Inference


def detect_onset_batch(model: GlobalModel, x: np.ndarray) -> np.ndarray:
    """Boolean attack decisions (p > 0.5, so a tie goes normal) for a batch
    of feature rows.  The head decides each distinct tree vector of the
    rows once (`gbdt.distinct_outputs`, the table training builds), and
    each row takes its vector's decision."""
    table, ids = gbdt.distinct_outputs(model.forest, x)
    return (head.forward_batch(model.head, table) > 0.5)[ids]

