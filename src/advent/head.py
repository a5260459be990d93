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

Inference and training evaluate this form and never build the F*K
activations or a bias-tap copy of v.  Clients train locally with mini-batch
SGD on binary cross-entropy.  `train_round` runs all clients of a FedAvg
round as one stacked SGD run, each client with its own shuffles and
batches, so every step is one batched (clients, batch, K*T) computation;
`train_on_matrix` is its one-client case.  The wire format and FedAvg still
carry and average the factors (`conv_kernels`, `conv_bias`, `dense`,
`dense_bias`), never W_eff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
    """1 / (1 + exp(-clip(z, -500, 500))), in one buffer: per-call cost
    dominates a training step's small arrays (np.clip alone costs more
    than np.maximum and np.minimum together)."""
    e = np.maximum(z, -500.0)
    np.minimum(e, 500.0, out=e)
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
# a (C, P) buffer, and each step gathers the active clients' batches
# straight from the shared tree matrix into one (m, b, K*T) buffer, so every
# numpy call of a step serves all m clients (np.matmul broadcasts over the
# leading axis).  Each client's z adds its own c = conv_bias·ΣD + dense_bias
# and its conv-bias gradient is s·ΣD, so no bias-tap column is stored.

# Clients of a round train in blocks whose batch buffer holds at most about
# this many float64 values (8 MB).
_ROUND_BLOCK_VALUES = 1 << 20


def _pack(w: HeadWeights) -> np.ndarray:
    """Flat parameters: kernels row-major, conv_bias, D row-major, dense_bias."""
    return np.concatenate([w.conv_kernels.ravel(), w.conv_bias, w.dense, [w.dense_bias]])


def _layout(w: HeadWeights, buf: np.ndarray):
    """Views of stacked `_pack` rows (m, P): kernels (m, F, T), conv_bias
    (m, F), D (m, F, K) and dense_bias (m,)."""
    f, k, t = w.n_filters, w.n_clients, w.kernel_size
    m, i, j = len(buf), f * t, f * (t + 1)
    return buf[:, :i].reshape(m, f, t), buf[:, i:j], buf[:, j:-1].reshape(m, f, k), buf[:, -1]


def _unpack(w: HeadWeights, row: np.ndarray) -> HeadWeights:
    kernels, conv_bias, d, dense_bias = _layout(w, row[None])
    return HeadWeights(conv_kernels=kernels[0].copy(), conv_bias=conv_bias[0].copy(),
                       dense=d[0].flatten(), dense_bias=float(dense_bias[0]))


def _backward(params, v, y, div, grads) -> np.ndarray:
    """Write each client's mean-BCE gradient over its batch into the
    `_layout` views `grads`; return the (m, b) probabilities.

    v is (m, b, K*T) and y (m, b); row i of client c divides its loss
    derivative by div[c, i], the row count of its batch, or by inf for a
    pad row, whose derivative is then 0.
    """
    kernels, conv_bias, d, dense_bias = params
    g_k, g_cb, g_d, g_db = grads
    m, _, k = d.shape
    sum_d = d.sum(axis=2)
    w_eff = np.matmul(d.transpose(0, 2, 1), kernels)
    c = (conv_bias * sum_d).sum(axis=1) + dense_bias
    p = _sigmoid(np.matmul(v, w_eff.reshape(m, -1, 1))[:, :, 0] + c[:, None])
    dz = (p - y) / div
    u = np.matmul(dz[:, None, :], v).reshape(m, k, -1)
    s = dz.sum(axis=1)
    np.matmul(d, u, out=g_k)
    np.matmul(kernels, u.transpose(0, 2, 1), out=g_d)
    g_d += conv_bias[:, :, None] * s[:, None, None]
    np.multiply(sum_d, s[:, None], out=g_cb)
    g_db[:] = s
    return p


def gradients(w: HeadWeights, v: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy loss and its gradients over a batch."""
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_width(w, v)
    theta = _pack(w)[None]
    grad = np.empty_like(theta)
    grads = _layout(w, grad)
    p = _backward(_layout(w, theta), v[None], y[None], len(v), grads)[0]
    g_k, g_cb, g_d, g_db = grads
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return loss, (g_k[0], g_cb[0], g_d[0].ravel(), float(g_db[0]))


def train_on_matrix(w: HeadWeights, v: np.ndarray, y: np.ndarray, config: HeadConfig) -> HeadWeights:
    """Mini-batch SGD on BCE over shuffled batches; returns updated weights.

    The one-client case of `train_round`, shuffled by config.rng_seed.
    """
    return train_round(w, v, y, [(0, len(v))], [config.rng_seed], config)[0]


def train_round(w: HeadWeights, v: np.ndarray, y: np.ndarray, spans, seeds,
                config: HeadConfig) -> list[HeadWeights]:
    """Mini-batch SGD on BCE for every client of a FedAvg round at once.

    Client i starts from `w` and trains on rows spans[i] = (start, stop) of
    the (N, K*T) block `v` and of `y`, shuffled each epoch by its own
    default_rng(seeds[i]) into batches of config.batch_size, the last one
    short, exactly as a lone run would (config.rng_seed is not used).  So
    each result equals that client's lone run up to summation order.
    Returns one HeadWeights per span, in span order; `w` is not modified.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_width(w, v)
    if len(y) != len(v):
        raise ValueError(f"got {len(v)} tree vectors but {len(y)} labels")
    if len(seeds) != len(spans):
        raise ValueError(f"got {len(spans)} spans but {len(seeds)} seeds")
    spans = [(int(a), int(b)) for a, b in spans]
    if not all(0 <= a < b <= len(v) for a, b in spans):
        raise ValueError("every span must be a non-empty row range of v")
    bs = config.batch_size
    steps = [-(-(b - a) // bs) for a, b in spans]
    # Sorted by batch count, descending, the clients still training at any
    # step are a prefix of their block.
    order = sorted(range(len(spans)), key=lambda i: -steps[i])
    per_block = max(1, _ROUND_BLOCK_VALUES // (bs * v.shape[1]))
    out: list[HeadWeights | None] = [None] * len(spans)
    for block in np.array_split(order, -(-len(order) // per_block)):
        theta = _train_block(w, v, y, [spans[i] for i in block], [seeds[i] for i in block], config)
        for i, row in zip(block, theta):
            out[i] = _unpack(w, row)
    return out


def _train_block(w, v, y, spans, seeds, config) -> np.ndarray:
    """Stacked SGD for clients sorted by batch count, descending; returns
    their (C, P) `_pack` rows."""
    bs, lr = config.batch_size, config.learning_rate
    starts = np.array([a for a, _ in spans])
    sizes = np.array([b - a for a, b in spans])
    steps = -(-sizes // bs)
    width = steps[0] * bs
    theta = np.tile(_pack(w), (len(spans), 1))
    grad = np.empty_like(theta)
    active = (steps[None, :] > np.arange(steps[0])[:, None]).sum(axis=1).tolist()
    views = {m: (_layout(w, theta[:m]), _layout(w, grad[:m])) for m in set(active)}
    # Position q of a client's epoch lies in batch q // bs; past its last row
    # it is a pad, which gathers the client's first row and divides by inf.
    pos = np.arange(width)
    div = np.minimum(sizes[:, None] - pos // bs * bs, bs).astype(np.float64)
    div[pos >= sizes[:, None]] = np.inf
    idx = np.repeat(starts[:, None], width, axis=1)
    v_batch = np.empty((len(spans), bs, v.shape[1]))
    rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(config.epochs):
        for row, rng, start, size in zip(idx, rngs, starts, sizes):
            row[:size] = start + rng.permutation(size)
        y_epoch = y[idx]
        for j, m in enumerate(active):
            cols = slice(j * bs, (j + 1) * bs)
            params, grads = views[m]
            # `idx` holds valid rows only, so mode="clip" never clips; it
            # spares the extra copy mode="raise" makes when `out` is given.
            np.take(v, idx[:m, cols], axis=0, out=v_batch[:m], mode="clip")
            _backward(params, v_batch[:m], y_epoch[:m, cols], div[:m, cols], grads)
            theta[:m] -= lr * grad[:m]
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
