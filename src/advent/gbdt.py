"""Gradient-boosted regression trees for binary classification, from scratch.

Second-order boosting on the logistic loss: each tree fits the per-row
gradients/hessians of the current margin, splits maximize the standard
L2-regularized gain, and leaves carry -G/(H+lambda).  Leaf values are stored
pre-shrinkage; shrinkage is applied at prediction time so serialized trees
are scale-independent.

Split search works on exact-value histograms: each feature is binned once per
`train` call into the codes of its sorted distinct values, and a node sums
count, g and h per bin.  An ensemble keeps its trees as flat node arrays, so
prediction walks every tree at once, one vectorized step per level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GbdtConfig",
    "Tree",
    "LocalEnsemble",
    "train",
    "predict_margin_batch",
    "per_tree_output_matrix",
    "ensemble_to_dict",
    "ensemble_from_dict",
    "ensemble_to_json",
    "ensemble_from_json",
]

_MAX_LOG_ODDS = 15.0


@dataclass(frozen=True)
class GbdtConfig:
    trees_per_client: int = 10
    max_depth: int = 3
    shrinkage: float = 0.3
    min_samples_leaf: int = 1
    lambda_l2: float = 1.0

    def __post_init__(self):
        if self.trees_per_client < 1:
            raise ValueError("trees_per_client must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.shrinkage <= 1.0):
            raise ValueError("shrinkage must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.lambda_l2 < 0:
            raise ValueError("lambda_l2 must be >= 0")


@dataclass
class Tree:
    root: int  # index of the tree's root in its ensemble's node arrays
    max_depth: int


@dataclass(eq=False)
class LocalEnsemble:
    """Trees as flat node arrays shared by the whole ensemble.

    Node i is a leaf iff left[i] == right[i] == i; value[i] is then its
    pre-shrinkage log-odds step.  Otherwise a row goes to left[i] when
    x[feature[i]] < threshold[i] and to right[i] when not.  A leaf has
    feature 0, so stepping a row on from its leaf keeps it there.
    """

    client: int
    trees: list[Tree]
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    base_score: float = 0.0
    shrinkage: float = 0.3


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# Gains within this tolerance of each other count as tied; ties resolve to
# the lowest feature index, then the lowest threshold.  The slack absorbs
# summation-order float noise so the choice is stable against a brute-force
# rescan of the same candidates.
GAIN_TOL_REL = 1e-9
GAIN_TOL_ABS = 1e-12
MIN_GAIN = 1e-12


# Rows walk the trees in blocks of about this many (row, tree) pairs.
_WALK_BLOCK_NODES = 1 << 15


def _gain_tol(m: float) -> float:
    return GAIN_TOL_REL * abs(m) + GAIN_TOL_ABS


def _bin_features(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Codes (n_features, n) of each value of x among its feature's sorted distinct values."""
    values = [np.unique(col) for col in x.T]
    codes = np.empty(x.shape[::-1], dtype=np.min_scalar_type(max(map(len, values), default=1) - 1))
    for f, vals in enumerate(values):
        codes[f] = np.searchsorted(vals, x[:, f])
    return codes, values


def _find_best_split(codes, values, g, h, cfg: GbdtConfig):
    """Best (gain, feature, threshold) over midpoints of the node's distinct values.

    `codes` holds the node's rows only; `g` and `h` are theirs, in row order.
    A candidate's left side is the rows of every bin up to it, so its sums
    are cumulative sums over the node's non-empty bins.
    """
    n = codes.shape[1]
    lam = cfg.lambda_l2
    g_total = float(g.sum())
    h_total = float(h.sum())
    parent = g_total * g_total / (h_total + lam)
    msl = cfg.min_samples_leaf
    candidates = []  # (feature, threshold, gain): per-feature best
    for f, vals in enumerate(values):
        c = codes[f].astype(np.intp)
        count = np.bincount(c, minlength=len(vals))
        present = np.flatnonzero(count)
        if len(present) < 2:
            continue
        below = present[:-1]  # candidate j splits after the node's j-th value
        left_n = np.cumsum(count[below])
        pos = np.flatnonzero((left_n >= msl) & ((n - left_n) >= msl))
        if len(pos) == 0:
            continue
        gl = np.cumsum(np.bincount(c, g, len(vals))[below])[pos]
        hl = np.cumsum(np.bincount(c, h, len(vals))[below])[pos]
        gr = g_total - gl
        hr = h_total - hl
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        m = float(gains.max())
        i_best = int(np.argmax(gains >= m - _gain_tol(m)))  # first tied index
        b = pos[i_best]
        candidates.append((f, float(0.5 * (vals[present[b]] + vals[present[b + 1]])),
                           float(gains[i_best])))
    if not candidates:
        return None
    m = max(c[2] for c in candidates)
    if m <= MIN_GAIN:
        return None
    for f, thr, gain in candidates:  # features ascend: first tied feature wins
        if gain >= m - _gain_tol(m):
            return (gain, f, thr)
    return None


def _build_node(nodes, rows, codes, values, g, h, depth, cfg: GbdtConfig, leaf_of_row) -> int:
    """Append the subtree over `rows` (ascending) to `nodes` in preorder.

    Returns its root's index and writes each row's leaf value to leaf_of_row.
    """
    i = len(nodes)
    nodes.append(None)
    split = None
    if depth < cfg.max_depth and len(rows) >= 2 * cfg.min_samples_leaf:
        split = _find_best_split(codes[:, rows], values, g[rows], h[rows], cfg)
    if split is None:
        value = float(-g[rows].sum() / (h[rows].sum() + cfg.lambda_l2))
        leaf_of_row[rows] = value
        nodes[i] = (0, 0.0, i, i, value)
        return i
    _, f, thr = split
    # code < cut exactly when x < thr, since the codes index sorted values.
    goes_left = codes[f, rows] < np.searchsorted(values[f], thr)
    left = _build_node(nodes, rows[goes_left], codes, values, g, h, depth + 1, cfg, leaf_of_row)
    right = _build_node(nodes, rows[~goes_left], codes, values, g, h, depth + 1, cfg, leaf_of_row)
    nodes[i] = (f, thr, left, right, 0.0)
    return i


def _ensemble(client, nodes, roots, max_depths, base_score, shrinkage) -> LocalEnsemble:
    feature, threshold, left, right, value = zip(*nodes) if nodes else ((),) * 5
    return LocalEnsemble(
        client=client,
        trees=[Tree(root=r, max_depth=d) for r, d in zip(roots, max_depths)],
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        base_score=base_score,
        shrinkage=shrinkage,
    )


def train(x: np.ndarray, y: np.ndarray, config: GbdtConfig, client: int = 0) -> LocalEnsemble:
    """Fit trees_per_client trees sequentially on logistic-loss grad/hess.

    Features must be finite and labels 0 or 1.  Single-class input degrades
    to zero-valued trees with a clamped log-odds base score instead of
    failing.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("training rows must be a non-empty 2-D array")
    if y.ndim != 1 or len(x) != len(y):
        raise ValueError("x and y length mismatch")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    depths = [config.max_depth] * config.trees_per_client
    prevalence = float(y.mean())
    if prevalence <= 0.0 or prevalence >= 1.0:
        base = _MAX_LOG_ODDS if prevalence >= 1.0 else -_MAX_LOG_ODDS
        nodes = [(0, 0.0, i, i, 0.0) for i in range(config.trees_per_client)]
        return _ensemble(client, nodes, range(len(nodes)), depths, base, config.shrinkage)
    base = float(np.log(prevalence / (1.0 - prevalence)))
    codes, values = _bin_features(x)
    rows = np.arange(len(y))
    margins = np.full(len(y), base)
    leaf_of_row = np.empty(len(y))
    nodes: list = []
    roots = []
    for _ in range(config.trees_per_client):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        roots.append(_build_node(nodes, rows, codes, values, g, h, 0, config, leaf_of_row))
        margins += config.shrinkage * leaf_of_row
    return _ensemble(client, nodes, roots, depths, base, config.shrinkage)


def _leaf_values(ensembles: list[LocalEnsemble], x: np.ndarray) -> np.ndarray:
    """(n_rows, n_trees) pre-shrinkage leaf value of each row in each tree.

    The ensembles' node arrays are stacked into one forest, and a block of
    rows steps down every tree at once, one vectorized step per level.  The
    blocks bound the walk's temporaries however many rows and trees there are.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("feature rows must be a 2-D array")
    n, n_features = x.shape
    offsets = np.cumsum([0] + [len(e.left) for e in ensembles[:-1]])
    roots = np.array([t.root + o for e, o in zip(ensembles, offsets) for t in e.trees],
                     dtype=np.intp)
    feature = np.concatenate([e.feature for e in ensembles])
    threshold = np.concatenate([e.threshold for e in ensembles])
    left = np.concatenate([e.left + o for e, o in zip(ensembles, offsets)])
    right = np.concatenate([e.right + o for e, o in zip(ensembles, offsets)])
    value = np.concatenate([e.value for e in ensembles])
    internal = left != np.arange(len(left))
    if internal.any() and not 0 <= feature[internal].min() <= feature[internal].max() < n_features:
        raise ValueError(f"trees split on features outside the {n_features} given")
    depth = 0  # of the deepest leaf
    level = roots[internal[roots]]
    while len(level):
        depth += 1
        level = np.concatenate([left[level], right[level]])
        level = level[internal[level]]
    out = np.empty((n, len(roots)))
    block = max(1, _WALK_BLOCK_NODES // max(1, len(roots)))
    row_start = (np.arange(min(n, block)) * n_features)[:, None]
    for lo in range(0, n, block):
        rows = x[lo:lo + block]
        flat = rows.ravel()
        node = np.broadcast_to(roots, (len(rows), len(roots)))
        for _ in range(depth):
            goes_left = flat[row_start[:len(node)] + feature[node]] < threshold[node]
            node = np.where(goes_left, left[node], right[node])
        out[lo:lo + block] = value[node]
    return out


def predict_margin_batch(ensemble: LocalEnsemble, x: np.ndarray) -> np.ndarray:
    steps = _leaf_values([ensemble], x)
    steps *= ensemble.shrinkage
    total = np.full(len(steps), ensemble.base_score)
    for column in steps.T:  # in tree order, so the sum is bitwise stable
        total += column
    return total


def _check_uniform(ensembles: list[LocalEnsemble]) -> list[LocalEnsemble]:
    if not ensembles:
        raise ValueError("need at least one ensemble")
    ordered = sorted(ensembles, key=lambda e: e.client)
    t = len(ordered[0].trees)
    for e in ordered:
        if len(e.trees) != t:
            raise ValueError("ragged ensembles: differing tree counts")
    return ordered


def per_tree_output_matrix(ensembles: list[LocalEnsemble], x: np.ndarray) -> np.ndarray:
    """(n_rows, K*T) shrinkage-scaled per-tree outputs in (client, tree) order."""
    ordered = _check_uniform(ensembles)
    out = _leaf_values(ordered, x)
    out *= np.array([e.shrinkage for e in ordered for _ in e.trees])
    return out


# ---------------------------------------------------------------------------
# JSON wire format (round-0 payload)


def _node_to_dict(e: LocalEnsemble, i: int) -> dict:
    if e.left[i] == i:
        return {"v": float(e.value[i])}
    return {
        "f": int(e.feature[i]),
        "t": float(e.threshold[i]),
        "l": _node_to_dict(e, int(e.left[i])),
        "r": _node_to_dict(e, int(e.right[i])),
    }


def _node_from_dict(nodes: list, d: dict) -> int:
    i = len(nodes)
    nodes.append(None)
    if "v" in d:
        nodes[i] = (0, 0.0, i, i, float(d["v"]))
        return i
    left = _node_from_dict(nodes, d["l"])
    right = _node_from_dict(nodes, d["r"])
    nodes[i] = (int(d["f"]), float(d["t"]), left, right, 0.0)
    return i


def ensemble_to_dict(ensemble: LocalEnsemble) -> dict:
    return {
        "client": ensemble.client,
        "base_score": ensemble.base_score,
        "shrinkage": ensemble.shrinkage,
        "trees": [
            {"max_depth": t.max_depth, "root": _node_to_dict(ensemble, t.root)}
            for t in ensemble.trees
        ],
    }


def ensemble_from_dict(d: dict) -> LocalEnsemble:
    nodes: list = []
    roots = [_node_from_dict(nodes, t["root"]) for t in d["trees"]]
    return _ensemble(int(d["client"]), nodes, roots,
                     [int(t["max_depth"]) for t in d["trees"]],
                     float(d["base_score"]), float(d["shrinkage"]))


def ensemble_to_json(ensemble: LocalEnsemble) -> str:
    return json.dumps(ensemble_to_dict(ensemble), sort_keys=True)


def ensemble_from_json(s: str) -> LocalEnsemble:
    return ensemble_from_dict(json.loads(s))
