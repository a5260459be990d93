"""One-layer 1D convolutional head over the per-tree output vector.

The K*T tree-output vector is convolved with kernel size T and stride T, so
each filter sees exactly one client's trees per window; the F*K activations
(identity activation) feed a dense layer and a sigmoid.  Each kernel weight
therefore acts as a learned per-tree learning rate.

Because the activation is the identity, the head is a bilinear form.  With
D the dense weights as an (F, K) matrix (filter-major, as stored),

    z = sum_k,t W_eff[k, t] * v[k, t] + c,   W_eff = Dᵀ·kernels (K, T),
    c = conv_bias·ΣD + dense_bias,

and with dz the per-row loss derivative, s = Σdz and u = (dzᵀ·v).reshape(K, T)
every gradient follows from the one mat-vec u:

    dK = D·u,  dD = kernels·uᵀ + conv_bias·s,  dconv_bias = s·ΣD,  ddense_bias = s.

Inference evaluates this form on (N, K*T) tree vectors and never builds
the F*K activations.  Training takes the same vectors and taps them
itself (`_with_bias_tap`): a 1 after each client's T outputs.  With A =
[kernels | conv_bias] (F, T+1) the constant conv_bias·ΣD then enters z
through Dᵀ·A, and u over the tapped rows gives dA = D·u (kernels and
conv_bias at once), dD = A·uᵀ, and s, the dense-bias gradient, as any
client's tap entry of u.

Clients train locally with mini-batch SGD on binary cross-entropy.
`train_round` runs all clients of a FedAvg round as one stacked SGD run,
each client with its own shuffles and batches, so every step is one batched
computation over the clients.  Its rows are a table of distinct tree
vectors plus one table id per row, and each block of clients trains on the
table rows it uses, tapped: depth-3 trees send most per-second feature rows
to the same leaves, so a batch of 64 rows holds only a few distinct
vectors.  Once per epoch, every row of every
batch gets the key (batch, table id), and the keys are coded in one pass;
two bincounts then give each distinct row of a batch its row count cnt and
positive count pos, both already scaled by lr / (rows of the batch).  Each
step gathers the distinct rows of every active client's batch, takes dz =
cnt·p - pos on them (the summed dz of the batch rows each one stands for)
before the one u mat-vec, and subtracts the gradient.  `train_on_matrix`
is the one-client case, each row its own table row.  The wire format and
FedAvg still carry and average the factors (`conv_kernels`, `conv_bias`,
`dense`, `dense_bias`), never W_eff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._codes import dense_codes

__all__ = [
    "HeadConfig",
    "HeadWeights",
    "init",
    "forward_batch",
    "gradients",
    "train_on_matrix",
    "train_round",
    "weights_to_dict",
    "weights_from_dict",
    "weights_to_json",
    "weights_from_json",
]


@dataclass(frozen=True)
class HeadConfig:
    filters: int = 4
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        if self.filters < 1:
            raise ValueError("filters must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class HeadWeights:
    conv_kernels: np.ndarray  # (F, T)
    conv_bias: np.ndarray  # (F,)
    dense: np.ndarray  # (F*K,)
    dense_bias: float

    @property
    def n_filters(self) -> int:
        return self.conv_kernels.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.conv_kernels.shape[1]

    @property
    def n_clients(self) -> int:
        return len(self.dense) // self.n_filters

    def copy(self) -> "HeadWeights":
        return HeadWeights(
            conv_kernels=self.conv_kernels.copy(),
            conv_bias=self.conv_bias.copy(),
            dense=self.dense.copy(),
            dense_bias=float(self.dense_bias),
        )

    def allclose(self, other: "HeadWeights", **kw) -> bool:
        return (
            np.allclose(self.conv_kernels, other.conv_kernels, **kw)
            and np.allclose(self.conv_bias, other.conv_bias, **kw)
            and np.allclose(self.dense, other.dense, **kw)
            and np.isclose(self.dense_bias, other.dense_bias, **kw)
        )


def init(k: int, t: int, config: HeadConfig) -> HeadWeights:
    """Zero-mean uniform init scaled by fan-in; deterministic per rng_seed."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be >= 1")
    rng = np.random.default_rng(config.rng_seed)
    f = config.filters
    conv_lim = 1.0 / np.sqrt(t)
    dense_lim = 1.0 / np.sqrt(f * k)
    return HeadWeights(
        conv_kernels=rng.uniform(-conv_lim, conv_lim, size=(f, t)),
        conv_bias=rng.uniform(-conv_lim, conv_lim, size=f),
        dense=rng.uniform(-dense_lim, dense_lim, size=f * k),
        dense_bias=float(rng.uniform(-dense_lim, dense_lim)),
    )


def _sigmoid(z):
    """1 / (1 + exp(-max(z, -500))), in one buffer: per-call cost dominates
    a training step's small arrays.  Capping z at 500 as well would change
    nothing, since 1 + exp(-500) rounds to 1."""
    e = np.maximum(z, -500.0)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def _check_width(w: HeadWeights, v: np.ndarray) -> None:
    k, t = w.n_clients, w.kernel_size
    if v.shape[1] != k * t:
        raise ValueError(f"expected tree vectors of length {k * t}, got {v.shape[1]}")


def forward_batch(w: HeadWeights, v: np.ndarray) -> np.ndarray:
    """Attack probabilities in (0, 1) for a batch of (B, K*T) tree vectors."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    _check_width(w, v)
    d = w.dense.reshape(w.n_filters, -1)
    w_eff = d.T @ w.conv_kernels
    c = w.conv_bias @ d.sum(axis=1) + w.dense_bias
    return _sigmoid(v @ w_eff.ravel() + c)


# Training stacks the clients of a round: client c's parameters are row c of
# a (C, P) buffer, and every numpy call of a step serves all m active clients
# (np.matmul broadcasts over the leading axis).  A step gathers only the
# distinct table rows of each active client's batch.

# Clients of a round train in blocks whose batch buffer holds at most about
# this many float64 values (8 MB).
_ROUND_BLOCK_VALUES = 1 << 20


def _with_bias_tap(w: HeadWeights, v: np.ndarray) -> np.ndarray:
    """(N, K*T) tree vectors as the (N, K*(T+1)) rows training computes
    on: each client's T outputs followed by a 1."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    _check_width(w, v)
    k, t = w.n_clients, w.kernel_size
    out = np.empty((len(v), k, t + 1))
    out[:, :, :t] = v.reshape(len(v), k, t)
    out[:, :, t] = 1.0
    return out.reshape(len(v), k * (t + 1))


def _pack(w: HeadWeights) -> np.ndarray:
    """Flat parameters: A = [kernels | conv_bias] row-major, D row-major, dense_bias."""
    a = np.column_stack([w.conv_kernels, w.conv_bias])
    return np.concatenate([a.ravel(), w.dense, [w.dense_bias]])


def _layout(w: HeadWeights, buf: np.ndarray):
    """Views of stacked `_pack` rows (m, P): A (m, F, T+1), D (m, F, K) and
    dense_bias (m,)."""
    f, k, t = w.n_filters, w.n_clients, w.kernel_size
    m, i = len(buf), f * (t + 1)
    return buf[:, :i].reshape(m, f, t + 1), buf[:, i:-1].reshape(m, f, k), buf[:, -1]


def _unpack(w: HeadWeights, row: np.ndarray) -> HeadWeights:
    a, d, dense_bias = _layout(w, row[None])
    return HeadWeights(conv_kernels=a[0, :, :-1].copy(), conv_bias=a[0, :, -1].copy(),
                       dense=d[0].flatten(), dense_bias=float(dense_bias[0]))


def _backward(params, vd, cnt, pos, grads) -> np.ndarray:
    """Write each client's gradient over its batch into the `_layout` views
    `grads`; return the (m, n) probabilities of the distinct rows.

    vd is (m, n, K*(T+1)): n bias-tapped rows per client, the distinct rows
    of its batch.  Row i of client c stands for cnt[c, i] batch rows, of
    which pos[c, i] are positive, each count scaled by the step's weight
    (1 / batch rows for the mean BCE).  A pad row has both counts 0.
    """
    a, d, dense_bias = params
    g_a, g_d, g_db = grads
    m, n, _ = vd.shape
    a_eff = np.matmul(d.transpose(0, 2, 1), a)
    z = np.matmul(vd, a_eff.reshape(m, -1, 1)).reshape(m, n)
    z += dense_bias[:, None]
    p = _sigmoid(z)
    # dz summed over the batch rows of each distinct row.
    dz = cnt * p
    dz -= pos
    u = np.matmul(dz.reshape(m, 1, n), vd).reshape(m, d.shape[2], -1)
    np.matmul(d, u, out=g_a)
    np.matmul(a, u.transpose(0, 2, 1), out=g_d)
    g_db[:] = u[:, 0, -1]
    return p


def gradients(w: HeadWeights, v: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy loss and its gradients over a batch."""
    v = _with_bias_tap(w, v)
    y = np.asarray(y, dtype=np.float64)
    theta = _pack(w)[None]
    grad = np.empty_like(theta)
    grads = _layout(w, grad)
    p = _backward(_layout(w, theta), v[None], np.full((1, len(v)), 1 / len(v)),
                  y[None] / len(v), grads)[0]
    g_a, g_d, g_db = grads
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return loss, (g_a[0, :, :-1], g_a[0, :, -1], g_d[0].ravel(), float(g_db[0]))


def train_on_matrix(w: HeadWeights, v: np.ndarray, y: np.ndarray, config: HeadConfig) -> HeadWeights:
    """Mini-batch SGD on BCE over shuffled batches; returns updated weights.

    The one-client case of `train_round`, with every row of v its own table
    row, shuffled by config.rng_seed.
    """
    return train_round(w, v, np.arange(len(v)), y, [(0, len(v))], [config.rng_seed],
                       config)[0]


def train_round(w: HeadWeights, table: np.ndarray, ids: np.ndarray, y: np.ndarray, spans,
                seeds, config: HeadConfig) -> list[HeadWeights]:
    """Mini-batch SGD on BCE for every client of a FedAvg round at once.

    Training row i is the (K*T) tree vector table[ids[i]] with label y[i]; rows
    that share an id are trained on as one.  Client j starts from `w` and trains
    on rows spans[j] = (start, stop) of `ids` and `y`, shuffled each epoch by
    its own default_rng(seeds[j]) into batches of config.batch_size, the last
    one short, exactly as a lone run would (config.rng_seed is not used).  So
    each result equals that client's lone run on the expanded rows up to
    summation order.  Returns one HeadWeights per span, in span order; `w` is
    not modified.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"expected a 2-D table of tree vectors, got shape {table.shape}")
    _check_width(w, table)
    ids = np.asarray(ids)
    y = np.asarray(y, dtype=np.float64)
    if ids.ndim != 1 or not (ids.dtype.kind in "iu" or len(ids) == 0):
        raise ValueError("ids must be a 1-D integer array")
    ids = ids.astype(np.intp, copy=False)
    if len(ids) and not 0 <= ids.min() <= ids.max() < len(table):
        raise ValueError(f"every id must be a row of the {len(table)}-row table")
    if len(y) != len(ids):
        raise ValueError(f"got {len(ids)} row ids but {len(y)} labels")
    if len(seeds) != len(spans):
        raise ValueError(f"got {len(spans)} spans but {len(seeds)} seeds")
    spans = [(int(a), int(b)) for a, b in spans]
    if not all(0 <= a < b <= len(ids) for a, b in spans):
        raise ValueError("every span must be a non-empty row range of ids")
    bs = config.batch_size
    steps = [-(-(b - a) // bs) for a, b in spans]
    # Sorted by batch count, descending, the clients still training at any
    # step are a prefix of their block.
    order = sorted(range(len(spans)), key=lambda i: -steps[i])
    width = w.n_clients * (w.kernel_size + 1)  # of a tapped row
    per_block = max(1, _ROUND_BLOCK_VALUES // (bs * width))
    out: list[HeadWeights | None] = [None] * len(spans)
    for block in np.array_split(order, -(-len(order) // per_block)):
        # A block trains on the table rows its clients use, tapped 64 at a
        # time, so neither a tapped copy of the whole table nor an untapped
        # copy of the block's rows is held.  Its row ids become positions
        # among those rows, in the same order.
        rows = np.concatenate([np.arange(*spans[i]) for i in block])
        used, local = np.unique(ids[rows], return_inverse=True)
        tapped = np.empty((len(used), width))
        for lo in range(0, len(used), 64):
            tapped[lo:lo + 64] = _with_bias_tap(w, table[used[lo:lo + 64]])
        bounds = np.cumsum([0] + [spans[i][1] - spans[i][0] for i in block]).tolist()
        theta = _train_block(w, tapped, local, y[rows], list(zip(bounds, bounds[1:])),
                             [seeds[i] for i in block], config)
        for i, row in zip(block, theta):
            out[i] = _unpack(w, row)
    return out


def _train_block(w, table, ids, y, spans, seeds, config) -> np.ndarray:
    """Stacked SGD for clients sorted by batch count, descending; returns
    their (C, P) `_pack` rows."""
    bs, lr = config.batch_size, config.learning_rate
    n_clients, n_table = len(spans), len(table)
    starts = np.array([a for a, _ in spans])
    sizes = np.array([b - a for a, b in spans])
    steps = -(-sizes // bs)
    n_steps = steps[0]
    theta = np.tile(_pack(w), (n_clients, 1))
    grad = np.empty_like(theta)
    active = (steps[None, :] > np.arange(n_steps)[:, None]).sum(axis=1).tolist()
    views = {m: (theta[:m], grad[:m], _layout(w, theta[:m]), _layout(w, grad[:m]))
             for m in set(active)}
    # Batches are numbered step-major, b = step·C + client, and position q of
    # client c's epoch lies in batch (q // bs)·C + c.  Its row with table id
    # i has key b·len(table) + i, so the distinct keys of an epoch are its
    # (batch, distinct row) pairs, in batch order.
    batch = np.concatenate([np.arange(size) // bs * n_clients + c for c, size in enumerate(sizes)])
    batch_keys = batch * n_table
    # Each row weighs lr / (rows of its batch), so that the counts below
    # come out scaled for the step.  A batch past a client's last has no
    # rows and is never looked up.
    rows = np.minimum(sizes - np.arange(n_steps)[:, None] * bs, bs)
    weight = (lr / rows.ravel().clip(min=1))[batch]
    v_buf = np.empty(n_clients * bs * table.shape[1])
    rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(config.epochs):
        order = np.concatenate([start + rng.permutation(size)
                                for rng, start, size in zip(rngs, starts, sizes)])
        distinct, codes = dense_codes(batch_keys + ids[order])
        b_of = distinct // n_table
        per_batch = np.bincount(b_of, minlength=n_steps * n_clients)
        n_distinct = per_batch.reshape(n_steps, n_clients).max(axis=1)
        width = int(n_distinct.max())
        # The r-th distinct row of batch b goes to slot b·width + r of the
        # packed (steps, C, width) arrays; a slot left empty counts 0 rows.
        first = np.cumsum(per_batch) - per_batch
        slot = (np.arange(len(per_batch)) * width - first)[b_of] + np.arange(len(distinct))
        shape = (n_steps, n_clients, width)
        table_ids = np.zeros(shape, dtype=np.intp)
        table_ids.reshape(-1)[slot] = distinct - b_of * n_table
        # Row count and positive count per (batch, distinct row).
        row_slot = slot[codes]
        cnts = np.bincount(row_slot, weights=weight, minlength=table_ids.size).reshape(shape)
        poss = np.bincount(row_slot, weights=y[order] * weight,
                           minlength=table_ids.size).reshape(shape)
        for j, (m, n) in enumerate(zip(active, n_distinct.tolist())):
            th, g, params, grads = views[m]
            vd = v_buf[: m * n * table.shape[1]].reshape(m, n, -1)
            # Every id is a valid row, so mode="clip" never clips; it spares
            # the extra copy mode="raise" makes when `out` is given.
            table.take(table_ids[j, :m, :n], axis=0, out=vd, mode="clip")
            _backward(params, vd, cnts[j, :m, :n], poss[j, :m, :n], grads)
            th -= g
    return theta


# ---------------------------------------------------------------------------
# JSON wire format (round-t payload)


def weights_to_dict(w: HeadWeights) -> dict:
    return {
        "conv_kernels": w.conv_kernels.tolist(),
        "conv_bias": w.conv_bias.tolist(),
        "dense": w.dense.tolist(),
        "dense_bias": w.dense_bias,
    }


def weights_from_dict(d: dict) -> HeadWeights:
    return HeadWeights(
        conv_kernels=np.asarray(d["conv_kernels"], dtype=np.float64),
        conv_bias=np.asarray(d["conv_bias"], dtype=np.float64),
        dense=np.asarray(d["dense"], dtype=np.float64),
        dense_bias=float(d["dense_bias"]),
    )


def weights_to_json(w: HeadWeights) -> str:
    return json.dumps(weights_to_dict(w))


def weights_from_json(s: str) -> HeadWeights:
    return weights_from_dict(json.loads(s))
