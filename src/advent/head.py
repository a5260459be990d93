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
activations.  Clients train locally with mini-batch SGD on binary
cross-entropy; the wire format and FedAvg still carry and average the
factors (`conv_kernels`, `conv_bias`, `dense`, `dense_bias`), never W_eff.
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
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


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


# Training works on the augmented form: the conv bias is a (T+1)-th kernel
# tap over a constant-1 input, so A = [kernels | conv_bias] is (F, T+1), each
# client window gains a trailing 1, W_aug = Dᵀ·A = [W_eff | Dᵀ·conv_bias] and
# z = v1 · W_aug + dense_bias.  With u = (dzᵀ·v1).reshape(K, T+1) = [u | s],
# D·u = [dK | s·ΣD] and A·uᵀ = kernels·uᵀ + conv_bias·s = dD: two products give
# every gradient.


def _pack(w: HeadWeights) -> np.ndarray:
    """Flat parameters: A row-major, then D row-major, then dense_bias."""
    a = np.concatenate([w.conv_kernels, w.conv_bias[:, None]], axis=1)
    return np.concatenate([a.ravel(), w.dense, [w.dense_bias]])


def _layout(w: HeadWeights, buf: np.ndarray):
    """Views of a flat `_pack` buffer: A (F, T+1), D (F, K), dense_bias (1,)."""
    f, k, t = w.n_filters, w.n_clients, w.kernel_size
    n = f * (t + 1)
    return buf[:n].reshape(f, t + 1), buf[n:-1].reshape(f, k), buf[-1:]


def _with_bias_tap(w: HeadWeights, v: np.ndarray) -> np.ndarray:
    """(B, K*(T+1)) copy of (B, K*T) tree vectors with a 1 after each window."""
    b, k, t = len(v), w.n_clients, w.kernel_size
    out = np.ones((b, k, t + 1))
    out[:, :, :t] = v.reshape(b, k, t)
    return out.reshape(b, -1)


def _backward(params, v1, y, grads) -> np.ndarray:
    """Write the mean-BCE gradient of a batch of augmented vectors into the
    `_layout` views `grads`; return the batch's probabilities."""
    a, d, dense_bias = params
    g_a, g_d, g_dense_bias = grads
    w_aug = d.T @ a
    p = _sigmoid(v1 @ w_aug.ravel() + dense_bias)
    dz = (p - y) / len(v1)
    u = (dz @ v1).reshape(w_aug.shape)
    np.matmul(d, u, out=g_a)
    np.matmul(a, u.T, out=g_d)
    g_dense_bias[0] = dz.sum()
    return p


def gradients(w: HeadWeights, v: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy loss and its gradients over a batch."""
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_width(w, v)
    theta = _pack(w)
    grad = np.empty_like(theta)
    grads = _layout(w, grad)
    p = _backward(_layout(w, theta), _with_bias_tap(w, v), y, grads)
    g_a, g_d, g_dense_bias = grads
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return loss, (g_a[:, :-1], g_a[:, -1], g_d.ravel(), float(g_dense_bias[0]))


def train_on_matrix(w: HeadWeights, v: np.ndarray, y: np.ndarray, config: HeadConfig) -> HeadWeights:
    """Mini-batch SGD on BCE over shuffled batches; returns updated weights."""
    if len(v) == 0:
        raise ValueError("training rows must be non-empty")
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_width(w, v)
    v1 = _with_bias_tap(w, v)
    theta = _pack(w)
    grad = np.empty_like(theta)
    params, grads = _layout(w, theta), _layout(w, grad)
    v_epoch = np.empty_like(v1)
    rng = np.random.default_rng(config.rng_seed)
    lr, bs = config.learning_rate, config.batch_size
    for _ in range(config.epochs):
        order = rng.permutation(len(v))
        # Reusing one buffer spares a fresh allocation (and its page faults)
        # per epoch; `order` is a permutation, so mode="clip" never clips and
        # only skips the extra copy mode="raise" makes when `out` is given.
        np.take(v1, order, axis=0, out=v_epoch, mode="clip")
        y_epoch = y[order]
        for start in range(0, len(v), bs):
            _backward(params, v_epoch[start : start + bs], y_epoch[start : start + bs], grads)
            theta -= lr * grad
    a, d, dense_bias = params
    return HeadWeights(conv_kernels=a[:, :-1].copy(), conv_bias=a[:, -1].copy(),
                       dense=d.ravel().copy(), dense_bias=float(dense_bias[0]))


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
