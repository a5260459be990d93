"""Federated attack-onset protocol: round-0 tree aggregation, weight rounds,
onset inference and quorum confirmation.

Round 0 collects each client's tree ensemble, sorts them by client id, and
initializes the convolutional head.  The ensembles stay fixed afterwards;
rounds 1..R-1 broadcast the head weights, run client updates, and FedAvg the
results.  Transport is a JSON-lines message format carried over an in-process
queue here, but the same bytes round-trip through files.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import gbdt, head
from .gbdt import LocalEnsemble
from .head import HeadConfig, HeadWeights

__all__ = [
    "ProtocolError",
    "GlobalModel",
    "FedConfig",
    "FedClient",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
    "round0_aggregate",
    "fedavg",
    "run_training",
    "detect_onset_batch",
    "confirm_onset",
]

log = logging.getLogger(__name__)

MESSAGE_TYPES = (
    "TREES_UPLOAD",
    "GLOBAL_ENSEMBLE",
    "WEIGHTS_BROADCAST",
    "WEIGHTS_UPDATE",
    "ONSET_REPORT",
    "ONSET_CONFIRMED",
)


class ProtocolError(RuntimeError):
    pass


class NotReadyError(RuntimeError):
    pass


@dataclass
class GlobalModel:
    ensembles: list[LocalEnsemble]  # sorted ascending by client id
    head: HeadWeights
    round: int = 0
    model_version: int = 0
    total_rounds: int = 1

    @property
    def complete(self) -> bool:
        return self.round >= self.total_rounds - 1


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 10
    onset_quorum: int = 2
    confirm_window_s: float = 2.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.onset_quorum < 1:
            raise ValueError("onset_quorum must be >= 1")


@dataclass
class FedClient:
    """A vehicle's training-side state: local rows and, later, the fixed trees."""

    cid: int
    x: np.ndarray
    y: np.ndarray
    tree_matrix: np.ndarray | None = None  # a row range of run_training's shared matrix


# ---------------------------------------------------------------------------
# JSON-lines message protocol


def encode_message(msg_type: str, cid: int | None, round_: int, model_version: int, payload) -> str:
    if msg_type not in MESSAGE_TYPES:
        raise ValueError(f"unknown message type {msg_type!r}")
    return json.dumps(
        {
            "type": msg_type,
            "cid": cid,
            "round": round_,
            "model_version": model_version,
            "payload": payload,
        },
        sort_keys=True,
    )


def decode_message(line: str) -> dict:
    msg = json.loads(line)
    if msg.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {msg.get('type')!r}")
    return msg


# ---------------------------------------------------------------------------
# Server-side aggregation


def round0_aggregate(
    submissions: list[tuple[int, LocalEnsemble]],
    head_config: HeadConfig = HeadConfig(),
    total_rounds: int = 1,
) -> GlobalModel:
    """Sort submitted ensembles by client id and initialize the head."""
    if not submissions:
        raise ProtocolError("round 0 requires at least one submission")
    seen: set[int] = set()
    for cid, _ in submissions:
        if cid in seen:
            raise ProtocolError(f"duplicate client id {cid} in round 0")
        seen.add(cid)
    ordered = [ens for _, ens in sorted(submissions, key=lambda s: s[0])]
    t = len(ordered[0].trees)
    for ens in ordered:
        if len(ens.trees) != t:
            raise ProtocolError("clients submitted differing tree counts")
    w = head.init(k=len(ordered), t=t, config=head_config)
    return GlobalModel(ensembles=ordered, head=w, round=0, model_version=0,
                       total_rounds=total_rounds)


def fedavg(updates: list[tuple[int, HeadWeights, int]]) -> HeadWeights:
    """Sample-count-weighted element-wise mean of client head weights.

    Every update must match the first one's shapes and hold only finite
    values; a broadcastable mismatch or a NaN would otherwise pass straight
    into the global model.
    """
    if not updates:
        raise ProtocolError("fedavg requires at least one update")

    def shapes(w):
        return w.conv_kernels.shape, w.conv_bias.shape, w.dense.shape, np.shape(w.dense_bias)

    shape = shapes(updates[0][1])
    total = 0
    for cid, w, count in updates:
        if count < 1:
            raise ProtocolError(f"client {cid}: sample_count must be >= 1")
        if shapes(w) != shape:
            raise ProtocolError(f"client {cid}: weight shape mismatch")
        if not all(np.isfinite(a).all() for a in (w.conv_kernels, w.conv_bias, w.dense, w.dense_bias)):
            raise ProtocolError(f"client {cid}: non-finite weight")
        total += count
    first = updates[0][1]
    kernels = np.zeros_like(first.conv_kernels)
    bias = np.zeros_like(first.conv_bias)
    dense = np.zeros_like(first.dense)
    dbias = 0.0
    for _, w, count in updates:
        frac = count / total
        kernels += frac * w.conv_kernels
        bias += frac * w.conv_bias
        dense += frac * w.dense
        dbias += frac * w.dense_bias
    return HeadWeights(conv_kernels=kernels, conv_bias=bias, dense=dense, dense_bias=dbias)


def run_training(
    clients: list[FedClient],
    gbdt_config: gbdt.GbdtConfig,
    head_config: HeadConfig,
    fed_config: FedConfig,
    transcript: list[str] | None = None,
) -> GlobalModel:
    """Execute round 0 plus rounds-1 weight rounds over an in-process queue.

    Every message crosses the wire as a JSON line; pass `transcript` to
    capture them.  Every client trains in every weight round, with a seed
    derived from the head seed, the client id and the round, so runs are
    deterministic.
    """
    if not clients:
        raise ProtocolError("no clients available; training stalled")
    queue: list[str] = transcript if transcript is not None else []

    # Round 0: tree upload and aggregation.
    submissions: list[tuple[int, LocalEnsemble]] = []
    for c in clients:
        ens = gbdt.train(c.x, c.y, gbdt_config, client=c.cid)
        line = encode_message("TREES_UPLOAD", c.cid, 0, 0, gbdt.ensemble_to_dict(ens))
        queue.append(line)
        msg = decode_message(line)
        submissions.append((msg["cid"], gbdt.ensemble_from_dict(msg["payload"])))
    model = round0_aggregate(submissions, head_config, total_rounds=fed_config.rounds)
    global_line = encode_message(
        "GLOBAL_ENSEMBLE", None, 0, model.model_version,
        [gbdt.ensemble_to_dict(e) for e in model.ensembles],
    )
    queue.append(global_line)
    broadcast_ensembles = [
        gbdt.ensemble_from_dict(d) for d in decode_message(global_line)["payload"]
    ]
    # One tree matrix for all clients; each client's is a row range of it.
    matrix = gbdt.per_tree_output_matrix(broadcast_ensembles, np.concatenate([c.x for c in clients]))
    labels = np.concatenate([c.y for c in clients])
    bounds = np.cumsum([0] + [len(c.y) for c in clients]).tolist()
    for c, start, stop in zip(clients, bounds, bounds[1:]):
        c.tree_matrix = matrix[start:stop]

    # Rounds 1..R-1: head-weight averaging.
    for r in range(1, fed_config.rounds):
        bcast = encode_message("WEIGHTS_BROADCAST", None, r, model.model_version,
                               head.weights_to_dict(model.head))
        queue.append(bcast)
        w_global = head.weights_from_dict(decode_message(bcast)["payload"])
        trained = head.train_round(
            w_global, matrix, labels, list(zip(bounds, bounds[1:])),
            [head_config.rng_seed * 100003 + c.cid * 1009 + r for c in clients], head_config)
        updates: list[tuple[int, HeadWeights, int]] = []
        for c, w_new in zip(clients, trained):
            line = encode_message("WEIGHTS_UPDATE", c.cid, r, model.model_version,
                                  {"weights": head.weights_to_dict(w_new),
                                   "sample_count": len(c.y)})
            queue.append(line)
            msg = decode_message(line)
            updates.append((msg["cid"], head.weights_from_dict(msg["payload"]["weights"]),
                            msg["payload"]["sample_count"]))
        model.head = fedavg(updates)
        model.round = r
    model.model_version += 1
    return model


# ---------------------------------------------------------------------------
# Inference and confirmation


def detect_onset_batch(model: GlobalModel, x: np.ndarray) -> np.ndarray:
    """Boolean attack decisions (p > 0.5, so a tie goes normal) for a batch of feature rows."""
    if not model.complete:
        raise NotReadyError(f"model at round {model.round} of {model.total_rounds}")
    v = gbdt.per_tree_output_matrix(model.ensembles, x)
    p = head.forward_batch(model.head, v)
    return p > 0.5


def confirm_onset(
    reports: list[tuple[int, float]],
    quorum: int = 2,
    window_s: float = 2.0,
) -> str:
    """'confirmed' iff >= quorum distinct clients report within a sliding window."""
    if quorum < 1:
        raise ValueError("quorum must be >= 1")
    ordered = sorted(reports, key=lambda r: r[1])
    for i in range(len(ordered)):
        t0 = ordered[i][1]
        cids = {cid for cid, t in ordered[i:] if t <= t0 + window_s}
        if len(cids) >= quorum:
            return "confirmed"
    return "unconfirmed"
