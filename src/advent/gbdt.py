"""Gradient-boosted regression trees for binary classification, from scratch.

Second-order boosting on the logistic loss: each tree fits the per-row
gradients/hessians of the current margin, splits maximize the standard
L2-regularized gain, and leaves carry -G/(H+lambda).  Leaf values are stored
pre-shrinkage; shrinkage is applied at prediction time so serialized trees
are scale-independent.

Split search works on exact-value histograms: each feature is binned once per
`train` call into the codes of its sorted distinct values.  A tree grows a
level at a time: one bincount per feature and statistic sums count, g and h
per (node, bin) for every node of the depth, and the gains, tie rules and
row partition are computed for all those nodes at once.  Each bin sums its
rows in row order and each node's totals are sums over its own rows, so the
trees are the same, bit for bit, as a depth-first search of one node at a
time.  A level's histograms take (features x nodes x bins) entries; a level
whose nodes would need more than `_HIST_ENTRIES` is searched in node blocks.
An ensemble keeps its trees as flat node arrays, so prediction walks every
tree at once, one vectorized step per level.
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


# A level's histograms cover as many of its nodes at once as keep them to
# about this many (feature, node, bin) entries.
_HIST_ENTRIES = 1 << 16

# Rows walk the trees in blocks of about this many (row, tree) pairs.
_WALK_BLOCK_NODES = 1 << 15


def _gain_tol(m: float) -> float:
    return GAIN_TOL_REL * abs(m) + GAIN_TOL_ABS


def _bin_features(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes (n_features, n) of each value of x among its feature's sorted distinct values.

    Also returns the distinct values as an (n_features, max distinct) array,
    padded with +inf so that padding never counts among the values below a
    threshold.
    """
    values, inverses = [], []
    for col in x.T:
        vals, inverse = np.unique(col, return_inverse=True)
        values.append(vals)
        # Narrowed at once: the intp inverses of every feature would take
        # 8 bytes a value at the same time.
        inverses.append(inverse.astype(np.min_scalar_type(len(vals) - 1)))
    n_bins = max(map(len, values), default=1)
    codes = np.empty(x.shape[::-1], dtype=np.min_scalar_type(n_bins - 1))
    padded = np.full((len(values), n_bins), np.inf)
    for f, (vals, inverse) in enumerate(zip(values, inverses)):
        codes[f] = inverse
        padded[f, :len(vals)] = vals
    return codes, padded


def _level_splits(codes, values, slot, count, g, h, g_tot, h_tot, cfg: GbdtConfig):
    """Best split of every node of one level: (feature, threshold, cut) arrays.

    `slot` is each row's node in the level, or len(count) once the row's
    leaf is set.  Feature is -1 where a node does not split; otherwise its
    rows with code < cut go left.  One bincount per feature and statistic
    builds the (feature, node, bin) histograms, and each bin sums its rows in
    row order.  A bin is a candidate when its cumulative sums leave at least
    min_samples_leaf rows on each side.  Empty bins add +0.0, so those sums
    equal sums over the node's non-empty bins alone, and an empty bin ties
    with the non-empty one before it, which comes first and wins.
    """
    n_nodes = len(count)
    n_features, n_bins = values.shape
    size = (n_nodes + 1) * n_bins  # the last node's bins collect the finished rows
    hist = np.empty((3, n_features, size))
    base = np.multiply(slot, n_bins, dtype=np.intp)
    for f, c in enumerate(codes):
        key = base + c
        hist[0, f] = np.bincount(key, minlength=size)
        hist[1, f] = np.bincount(key, g, size)
        hist[2, f] = np.bincount(key, h, size)
    n_left, gl, hl = np.cumsum(hist.reshape(3, n_features, n_nodes + 1, n_bins)[:, :, :n_nodes],
                               axis=3)
    msl, lam = cfg.min_samples_leaf, cfg.lambda_l2
    cand = (n_left >= msl) & (n_left <= (count - msl)[:, None])
    at = np.flatnonzero(cand)
    gl, hl = gl.ravel()[at], hl.ravel()[at]
    node = at // n_bins % n_nodes
    g_node, h_node = g_tot[node], h_tot[node]
    gr = g_node - gl
    hr = h_node - hl
    gains = np.full(cand.shape, -np.inf)
    gains.ravel()[at] = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                               - g_node * g_node / (h_node + lam))
    # Within a feature, the first candidate tied with its max; a NaN or
    # infinite max ties with nothing, and then the first candidate wins.
    m = gains.max(axis=2, keepdims=True)
    tied = gains >= m - _gain_tol(m)
    tied |= cand & ~tied.any(axis=2, keepdims=True)
    best = tied.argmax(axis=2)
    chosen = gains[np.arange(n_features)[:, None], np.arange(n_nodes), best]
    # Across features, the first whose gain ties with the max of the chosen
    # gains.  Like Python's max() over the features in order, that max skips
    # NaNs unless the first feature with a candidate has one, and NaN ties
    # with nothing.  A feature with no candidate has gain -inf.
    top = np.fmax.reduce(chosen, axis=0)
    lead = chosen[cand.any(axis=2).argmax(axis=0), np.arange(n_nodes)]
    tied = chosen >= top - _gain_tol(top)
    splits = (top > MIN_GAIN) & ~np.isnan(lead) & tied.any(axis=0)
    feature = np.where(splits, tied.argmax(axis=0), -1)
    s = np.flatnonzero(splits)
    f = feature[s]
    b = best[f, s]
    # The threshold is the midpoint of the bin and the node's next non-empty
    # bin (where the count next rises), or the upper value when the midpoint
    # of two adjacent doubles rounds down onto the lower one; the cut counts
    # the values below it, as np.searchsorted does.
    after = n_left[f, s] > n_left[f, s, b][:, None]
    lower, upper = values[f, b], values[f, after.argmax(axis=1)]
    mid = 0.5 * (lower + upper)
    threshold = np.zeros(n_nodes)
    threshold[s] = np.where(mid > lower, mid, upper)
    cut = np.zeros(n_nodes, dtype=np.intp)
    cut[s] = (values[f] < threshold[s][:, None]).sum(axis=1)
    return feature, threshold, cut


def _grow_tree(nodes, codes, values, g, h, cfg: GbdtConfig, leaf_of_row) -> int:
    """Append one tree, grown a level at a time, to `nodes` in preorder.

    Returns its root's index and writes each row's leaf value to leaf_of_row.
    A node's totals are pairwise sums over its own rows in row order.
    """
    lam = cfg.lambda_l2
    kids: list = [None]  # per node, in level order: (f, thr, left, right) or its leaf value
    ids = [0]  # the level's nodes
    # Each row's node in the level; one past the last once its leaf is set.
    slot = np.zeros(len(g), dtype=np.min_scalar_type(min(2 ** cfg.max_depth, len(g))))
    rows = np.arange(len(g))  # the level's rows, grouped by node
    sizes = np.array([len(g)])
    for depth in range(cfg.max_depth + 1):
        g_rows, h_rows = g[rows], h[rows]
        ends = np.cumsum(sizes).tolist()
        starts = [0] + ends[:-1]
        g_tot = np.array([g_rows[lo:hi].sum() for lo, hi in zip(starts, ends)])
        h_tot = np.array([h_rows[lo:hi].sum() for lo, hi in zip(starts, ends)])
        value = -g_tot / (h_tot + lam)
        if depth < cfg.max_depth and len(codes):
            step = max(1, _HIST_ENTRIES // values.size)
            found = []
            for lo in range(0, len(ids), step):
                hi = min(lo + step, len(ids))
                local = slot
                if hi - lo < len(ids):  # the other nodes' rows count as finished
                    lut = np.arange(len(ids) + 1) - lo
                    lut[(lut < 0) | (lut > hi - lo)] = hi - lo
                    local = lut.astype(slot.dtype)[slot]
                found.append(_level_splits(codes, values, local, sizes[lo:hi], g, h,
                                           g_tot[lo:hi], h_tot[lo:hi], cfg))
            feature, threshold, cut = map(np.concatenate, zip(*found))
        else:
            feature, threshold, cut = np.full(len(ids), -1), np.zeros(len(ids)), None
        if (feature < 0).any():  # a split node's rows get their leaf below it
            leaf_of_row[rows] = np.repeat(value, sizes)
        next_ids = []
        for i, f, thr, v in zip(ids, feature.tolist(), threshold.tolist(), value.tolist()):
            if f < 0:
                kids[i] = v
            else:
                kids[i] = (f, thr, len(kids), len(kids) + 1)
                next_ids += [len(kids), len(kids) + 1]
                kids += [None, None]
        if not next_ids:
            break
        # A split node's rows go to its left child, or to the right one (the
        # next slot) when code >= cut; a leaf's rows leave the level.
        splits = feature >= 0
        to_left = np.where(splits, 2 * np.cumsum(splits) - 2, len(next_ids))
        new = np.append(to_left, len(next_ids)).astype(slot.dtype)[slot]
        for s in np.flatnonzero(splits).tolist():
            new += (slot == s) & (codes[feature[s]] >= cut[s])
        slot = new
        sizes = np.bincount(slot, minlength=len(next_ids) + 1)[:-1]
        rows = np.argsort(slot, kind="stable")[:sizes.sum()]
        ids = next_ids
    return _write_preorder(nodes, kids, 0)


def _write_preorder(nodes, kids, i) -> int:
    """Append node i of `kids` and its subtree to `nodes` in preorder; return its index."""
    j = len(nodes)
    nodes.append(None)
    if isinstance(kids[i], float):
        nodes[j] = (0, 0.0, j, j, kids[i])
    else:
        f, thr, left, right = kids[i]
        nodes[j] = (f, thr, _write_preorder(nodes, kids, left),
                    _write_preorder(nodes, kids, right), 0.0)
    return j


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
    margins = np.full(len(y), base)
    leaf_of_row = np.empty(len(y))
    nodes: list = []
    roots = []
    for _ in range(config.trees_per_client):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        roots.append(_grow_tree(nodes, codes, values, g, h, config, leaf_of_row))
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
