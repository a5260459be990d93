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
table rows it uses, tapped once per round: depth-3 trees send most
per-second feature rows to the same leaves, so a batch of 64 rows holds
only a few distinct vectors.  `plan_round` checks the table, ids, labels
and spans once and lays out, for all rounds on the same rows, each block's
clients, the table rows it uses, its rows' local ids and labels, each
epoch position's batch key and weight lr / (rows of the batch), and the
block's layout; `train_round` takes only that plan.  A round draws each
client's shuffles for several epochs with one `permuted` call, the same
draws as that many rng.permutation calls, and those epochs run as one:
every row of every batch gets the key (batch, local id).  Each step takes
dz = cnt·p - pos on a batch's rows, where cnt is how many of the batch's
rows a row stands for and pos how many of those are positive, already
scaled (the summed dz of those rows), in the buffer of p, before the one u
mat-vec, and subtracts the gradient.  A block steps in one of two layouts,
chosen by the plan from the number U of table rows the block uses:

- whole, when U is at most the batch size: every step of every active
  client computes on all U tapped rows, one shared (U, K*(T+1)) array, so
  z and u are two plain 2-D matmuls and nothing is gathered.  A row's key
  is already its slot in the (steps, clients, U) counts, which two
  bincounts fill; a row a batch lacks counts 0.
- gathered, for larger U: the keys are coded in one pass, the same two
  bincounts count each distinct row of a batch, and each step gathers the
  distinct rows of every active client's batch.

Either way a client's step computes on at most batch-size rows.
`train_on_matrix` is the one-client case, each row its own table row.  The
wire format and FedAvg still carry and average the factors
(`conv_kernels`, `conv_bias`, `dense`, `dense_bias`), never W_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._codes import dense_codes

__all__ = [
    "HeadConfig",
    "HeadWeights",
    "init",
    "forward_batch",
    "gradients",
    "train_on_matrix",
    "plan_round",
    "train_round",
    "weights_to_dict",
    "weights_from_dict",
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
    """1 / (1 + exp(-max(z, -500))), in z's own buffer: per-call cost
    dominates a training step's small arrays.  Capping z at 500 as well
    would change nothing, since 1 + exp(-500) rounds to 1."""
    e = np.maximum(z, -500.0, out=z)
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
# (np.matmul broadcasts over the leading axis).  A step computes either on
# all of its block's table rows or on the distinct table rows of each active
# client's batch (`_train_block`).

# Clients of a round train in blocks whose batch buffer holds at most about
# this many float64 values (8 MB).
_ROUND_BLOCK_VALUES = 1 << 20

# A block draws its shuffles, and codes their rows, for as many epochs at a
# time as keep each such array to about this many values.
_EPOCH_GROUP_VALUES = 1 << 14


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


def _step_views(w: HeadWeights, theta: np.ndarray, grad: np.ndarray) -> tuple:
    """What a step of the m clients with stacked `_pack` rows theta (m, P)
    computes with: theta, grad (their gradients), the `_layout` views A, D,
    Dᵀ and the dense-bias column of theta, an (m, K, T+1) buffer for
    W_eff = Dᵀ·A with its (m, K*(T+1)) and (m, K*(T+1), 1) views, and the
    `_layout` views of grad."""
    a, d, dense_bias = _layout(w, theta)
    a_eff = np.empty((len(theta), d.shape[2], a.shape[2]))
    m = len(theta)
    return (theta, grad, a, d, d.transpose(0, 2, 1), dense_bias[:, None], a_eff,
            a_eff.reshape(m, -1), a_eff.reshape(m, -1, 1), *_layout(w, grad))


def _step(s: tuple, rows: np.ndarray, cnt: np.ndarray, pos: np.ndarray) -> None:
    """Write each client's gradient over its batch into the gradient views
    of the `_step_views` s.

    rows holds n bias-tapped rows of width K*(T+1): one (n, K*(T+1)) array
    that every client steps on, or (m, n, K*(T+1)), n rows per client.  Row
    i of client c stands for cnt[c, i] batch rows, of which pos[c, i] are
    positive, each count scaled by the step's weight (1 / batch rows for
    the mean BCE).  A row outside client c's batch has both counts 0.
    """
    _, _, a, d, d_t, dense_bias, a_eff, a_flat, a_col, g_a, g_d, g_db = s
    m = len(a)
    np.matmul(d_t, a, out=a_eff)
    shared = rows.ndim == 2
    z = a_flat @ rows.T if shared else np.matmul(rows, a_col).reshape(m, -1)
    z += dense_bias
    # dz = cnt·p - pos, summed over the batch rows of each row, in the buffer
    # of p.
    dz = _sigmoid(z)
    dz *= cnt
    dz -= pos
    u = dz @ rows if shared else np.matmul(dz.reshape(m, 1, -1), rows)
    u = u.reshape(m, d.shape[2], -1)
    np.matmul(d, u, out=g_a)
    np.matmul(a, u.transpose(0, 2, 1), out=g_d)
    g_db[:] = u[:, 0, -1]


def gradients(w: HeadWeights, v: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy loss and its gradients over a batch."""
    p = forward_batch(w, v)
    y = np.asarray(y, dtype=np.float64)
    theta = _pack(w)[None]
    s = _step_views(w, theta, np.empty_like(theta))
    _step(s, _with_bias_tap(w, v), np.full((1, len(p)), 1 / len(p)), y[None] / len(p))
    g_a, g_d, g_db = s[-3:]
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return loss, (g_a[0, :, :-1], g_a[0, :, -1], g_d[0].ravel(), float(g_db[0]))


def train_on_matrix(w: HeadWeights, v: np.ndarray, y: np.ndarray, config: HeadConfig) -> HeadWeights:
    """Mini-batch SGD on BCE over shuffled batches; returns updated weights.

    The one-client case of `train_round`, with every row of v its own table
    row, shuffled by config.rng_seed.
    """
    plan = plan_round(w, v, np.arange(len(v)), y, [(0, len(v))], config)
    return train_round(w, plan, [config.rng_seed])[0]


@dataclass(frozen=True)
class _Block:
    """Clients of a round that train as one stacked run, and the rows they
    train on, as `plan_round` lays them out."""

    clients: list[int]  # their span indices, by batch count, descending
    used: np.ndarray  # the table rows their rows use, ascending
    local: np.ndarray  # each of their rows' position in `used`
    y: np.ndarray  # each of their rows' label
    spans: list[tuple[int, int]]  # each client's (start, stop) among their rows
    batch_keys: np.ndarray  # batch · len(used) of each epoch position
    weight: np.ndarray  # lr / (rows of its batch) of each epoch position
    active: list[int]  # clients still training at each step
    whole: bool  # each step computes on all of `used`, not on a batch's rows


@dataclass(frozen=True)
class _Plan:
    """What `train_round` trains on, as `plan_round` checks and lays it out."""

    table: np.ndarray  # (rows, K*T) float64 tree vectors
    config: HeadConfig
    blocks: tuple[_Block, ...]


def plan_round(w: HeadWeights, table: np.ndarray, ids: np.ndarray, y: np.ndarray, spans,
               config: HeadConfig) -> _Plan:
    """Check a round's rows and lay out the blocks of clients `train_round`
    trains them in, once for every round on the same rows.

    Training row i is the (K*T) tree vector table[ids[i]] with label y[i];
    rows that share an id are trained on as one.  Client j trains on rows
    spans[j] = (start, stop) of `ids` and `y`.  Only the shapes of `w`
    count.  The blocks hold integers and labels, not tree vectors.
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
    spans = [(int(a), int(b)) for a, b in spans]
    if not spans or not all(0 <= a < b <= len(ids) for a, b in spans):
        raise ValueError("spans must be one or more non-empty row ranges of ids")
    bs, lr = config.batch_size, config.learning_rate
    steps = [-(-(b - a) // bs) for a, b in spans]
    # Sorted by batch count, descending, the clients still training at any
    # step are a prefix of their block.
    order = sorted(range(len(spans)), key=lambda i: -steps[i])
    width = w.n_clients * (w.kernel_size + 1)  # of a tapped row
    per_block = max(1, _ROUND_BLOCK_VALUES // (bs * width))
    blocks = []
    for block in np.array_split(order, -(-len(order) // per_block)):
        clients = block.tolist()
        rows = np.concatenate([np.arange(*spans[i]) for i in clients])
        # The block's row ids become positions among the table rows it uses,
        # in the same order.
        used, local = np.unique(ids[rows], return_inverse=True)
        sizes = np.array([spans[i][1] - spans[i][0] for i in clients])
        bounds = np.cumsum([0, *sizes]).tolist()
        n_steps = steps[clients[0]]
        active = (np.array([steps[i] for i in clients])[None, :]
                  > np.arange(n_steps)[:, None]).sum(axis=1).tolist()
        # Batches are numbered step-major, b = step·C + client, and position
        # q of client c's epoch lies in batch (q // bs)·C + c.  Its row with
        # local id i has key b·len(used) + i, so the distinct keys of an
        # epoch are its (batch, distinct row) pairs, in batch order.
        batch = np.concatenate([np.arange(size) // bs * len(clients) + c
                                for c, size in enumerate(sizes)])
        # Each row weighs lr / (rows of its batch), so that the counts come
        # out scaled for the step.  A batch past a client's last has no rows
        # and is never looked up.
        rows_per_batch = np.minimum(sizes - np.arange(n_steps)[:, None] * bs, bs)
        weight = (lr / rows_per_batch.ravel().clip(min=1))[batch]
        blocks.append(_Block(clients=clients, used=used, local=local, y=y[rows],
                             spans=list(zip(bounds, bounds[1:])), batch_keys=batch * len(used),
                             weight=weight, active=active, whole=len(used) <= bs))
    return _Plan(table=table, config=config, blocks=tuple(blocks))


def train_round(w: HeadWeights, plan: _Plan, seeds) -> list[HeadWeights]:
    """Mini-batch SGD on BCE for every client of a FedAvg round at once, on
    the rows of `plan` (`plan_round`'s).

    Client j starts from `w` and trains on its span's rows, shuffled each
    epoch by its own default_rng(seeds[j]) into batches of the plan's
    batch_size, the last one short, exactly as a lone run would (the plan's
    rng_seed is not used).  So each result equals that client's lone run on
    the expanded rows up to summation order.  Returns one HeadWeights per
    span, in span order; `w` is not modified.
    """
    _check_width(w, plan.table)
    out: list[HeadWeights | None] = [None] * sum(len(b.clients) for b in plan.blocks)
    if len(seeds) != len(out):
        raise ValueError(f"got {len(out)} spans but {len(seeds)} seeds")
    for block in plan.blocks:
        theta = _train_block(w, plan.table, block, [seeds[i] for i in block.clients],
                             plan.config)
        for i, row in zip(block.clients, theta):
            out[i] = _unpack(w, row)
    return out


def _train_block(w, table, block: _Block, seeds, config) -> np.ndarray:
    """Stacked SGD for the clients of one block; returns their (C, P)
    `_pack` rows.

    A block steps in one of two layouts.  Whole (`block.whole`, no more
    used table rows than a batch holds): every step of every active client
    computes on all the block's tapped rows, one shared (U, K*(T+1))
    array, and a row its batch lacks counts 0.  Gathered (any larger
    block): every step gathers the distinct rows of each active client's
    batch.  Either way a client's step computes on at most batch_size rows.
    """
    bs, width = config.batch_size, w.n_clients * (w.kernel_size + 1)
    n_clients, n_used, n_steps = len(block.spans), len(block.used), len(block.active)
    # The block's table rows are tapped 64 at a time, so neither a tapped
    # copy of the whole table nor an untapped copy of the block's rows is
    # held.
    tapped = np.empty((n_used, width))
    for lo in range(0, n_used, 64):
        tapped[lo:lo + 64] = _with_bias_tap(w, table[block.used[lo:lo + 64]])
    theta = np.tile(_pack(w), (n_clients, 1))
    grad = np.empty_like(theta)
    views = {m: _step_views(w, theta[:m], grad[:m]) for m in set(block.active)}
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n_rows, n_batches = len(block.local), n_steps * n_clients
    group = max(1, min(config.epochs, _EPOCH_GROUP_VALUES // n_rows))
    weight = np.tile(block.weight, group)
    v_buf = None if block.whole else np.empty(n_clients * bs * width)
    for e0 in range(0, config.epochs, group):
        g = min(group, config.epochs - e0)
        # Row e of a client's columns becomes the block positions of its rows
        # in epoch e's order: one `permuted` call per client draws the same
        # as g successive rng.permutation calls.
        order = np.empty((g, n_rows), dtype=np.intp)
        order[:] = np.arange(n_rows)
        for (a, b), rng in zip(block.spans, rngs):
            own = order[:, a:b]
            rng.permuted(own, axis=1, out=own)
        # The g epochs run as one of g·steps steps: batch b of epoch e is
        # batch e·n_batches + b, and its row with local id i has key
        # (e·n_batches + b)·len(used) + i.
        keys = block.local.take(order)
        keys += block.batch_keys
        keys += (np.arange(g) * (n_batches * n_used))[:, None]
        keys = keys.reshape(-1)
        if block.whole:
            # A row's key is its slot in the (steps, C, used) counts.
            shape, row_slot = (g * n_steps, n_clients, n_used), keys
            n_rows_of = [n_used] * (g * n_steps)
        else:
            distinct, codes = dense_codes(keys)
            b_of = distinct // n_used
            per_batch = np.bincount(b_of, minlength=g * n_batches)
            n_distinct = per_batch.reshape(g * n_steps, n_clients).max(axis=1)
            most = int(n_distinct.max())
            # The r-th distinct row of batch b goes to slot b·most + r of the
            # packed (steps, C, most) arrays; a slot left empty counts 0 rows.
            first = np.cumsum(per_batch) - per_batch
            slot = (np.arange(g * n_batches) * most - first)[b_of] + np.arange(len(distinct))
            shape, row_slot = (g * n_steps, n_clients, most), slot[codes]
            n_rows_of = n_distinct.tolist()
            table_ids = np.zeros(shape, dtype=np.intp)
            table_ids.reshape(-1)[slot] = distinct - b_of * n_used
        # Row count and positive count per (batch, row).
        cnts = np.bincount(row_slot, weights=weight[:g * n_rows],
                           minlength=math.prod(shape)).reshape(shape)
        poss = np.bincount(row_slot, weights=(block.y.take(order) * block.weight).reshape(-1),
                           minlength=math.prod(shape)).reshape(shape)
        rows = tapped
        for j, (m, n) in enumerate(zip(block.active * g, n_rows_of)):
            s = views[m]
            if not block.whole:
                rows = v_buf[: m * n * width].reshape(m, n, width)
                # Every id is a valid row, so mode="clip" never clips; it
                # spares the extra copy mode="raise" makes when `out` is
                # given.
                tapped.take(table_ids[j, :m, :n], axis=0, out=rows, mode="clip")
            _step(s, rows, cnts[j, :m, :n], poss[j, :m, :n])
            np.subtract(s[0], s[1], out=s[0])  # theta -= grad
    return theta


# ---------------------------------------------------------------------------
# JSON wire format (round-t payload)


def weights_to_dict(w: HeadWeights) -> dict:
    return {f.name: np.asarray(getattr(w, f.name)).tolist() for f in fields(w)}


def weights_from_dict(d: dict) -> HeadWeights:
    """A field declared float as a Python float, the others as float64 arrays."""
    return HeadWeights(**{f.name: float(d[f.name]) if f.type == "float"
                          else np.asarray(d[f.name], dtype=np.float64)
                          for f in fields(HeadWeights)})
