"""Gradient-boosted regression trees for binary classification, from scratch.

Second-order boosting on the logistic loss: each tree fits the per-row
gradients/hessians of the current margin, splits maximize the standard
L2-regularized gain, and leaves carry -G/(H+lambda).  Leaf values are stored
pre-shrinkage; shrinkage is applied at prediction time so serialized trees
are scale-independent.

Split search works on exact-value histograms: each client's features are
binned once per fit into the codes of its own sorted distinct values.
`train_clients` fits many clients at once (`train` is the one-client call):
tree t of every client with both classes grows in the same level-wise pass.
A level's nodes are every client's nodes at that depth, and its rows are
grouped by node, each node's in row order.  A node's histograms hold, per
feature and bin, the rows, g and h at or below the bin.  Below the root only
the smaller child of each split is histogrammed from its own rows (one
bincount per feature and statistic for all of them); its sibling's
histograms are its parent's, kept from the level above, less the smaller
child's.  The level puts the smaller children first, in their parents'
order, and their siblings after them in the same order, so the rows to
histogram are one prefix of the level's rows; the child ids in each split
say which is which, and the trees' preorder does not change.  Counts come
out exact.  A subtracted g or h sum can differ from the direct one by
rounding; gains within the gain tolerance tie, so that rounding changes no
split unless two candidates' gains differ by about the tolerance.  Node
totals and leaf values are still pairwise sums over each node's own rows in
row order, so the trees are the same, bit for bit, as a depth-first search
of one node at a time on one client's rows.  The gains, tie rules and row
partition are computed for many nodes at once; a level whose search would
need more than `_HIST_ENTRIES` (feature, node, bin) entries is searched in
node blocks, and only the split nodes' histograms are kept for the next
level.  The root level's row counts are the same for every tree and are
counted once.  An ensemble keeps its trees as flat node arrays, so
prediction walks every tree at once, one vectorized step per level; a tree
whose root is a leaf is not walked.
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
    "train_clients",
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


# A level's split search covers as many of its nodes at once as keep its
# temporaries to about this many (feature, node, bin) entries.
_HIST_ENTRIES = 1 << 16

# Rows walk the trees in blocks of about this many (row, tree) pairs.
_WALK_BLOCK_NODES = 1 << 15


def _gain_tol(m: float) -> float:
    return GAIN_TOL_REL * abs(m) + GAIN_TOL_ABS


def _bin_features(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes (n, n_features) of each value of x among its feature's sorted distinct values.

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
    codes = np.empty(x.shape, dtype=np.min_scalar_type(n_bins - 1))
    padded = np.full((len(values), n_bins), np.inf)
    for f, (vals, inverse) in enumerate(zip(values, inverses)):
        codes[:, f] = inverse
        padded[f, :len(vals)] = vals
    return codes, padded


def _histograms(codes, sizes, n_bins, weights, out) -> None:
    """Cumulative histograms of nodes' rows over their features' bins.

    The rows are grouped by node, sizes[i] rows for node i, each node's in
    row order, and `codes` are theirs.  out[k, i, f, b] becomes the sum of
    weights[k] (None counts the rows) over node i's rows whose code on
    feature f is at most b.  One bincount per feature and weight sums each
    bin's rows in row order.
    """
    n_nodes = len(sizes)
    base = np.repeat(np.arange(0, n_nodes * n_bins, n_bins), sizes)
    for f in range(codes.shape[1]):
        key = base + codes[:, f]
        for k, w in enumerate(weights):
            out[k, :, f] = np.bincount(key, w, n_nodes * n_bins).reshape(n_nodes, n_bins)
    np.cumsum(out, axis=3, out=out)


def _level_splits(hist, values, client, count, g_tot, h_tot, cfg: GbdtConfig):
    """Best split of each node of a block of one level: (feature, threshold, cut, left) arrays.

    `hist` holds the nodes' cumulative histograms as (rows, g, h) x node x
    feature x bin (see `_histograms`); `client` is each node's client, whose
    distinct values `values[client]` the bins index, and `count` its rows.
    Feature is -1 where a node does not split; otherwise its rows with code <
    cut go left, `left` of them.  A bin is a candidate when it leaves at
    least min_samples_leaf rows on each side.  An empty bin has its
    predecessor's sums, up to the rounding of a subtracted histogram, so it
    ties with the non-empty bin before it, which comes first and wins.
    """
    n_left, gl, hl = hist
    n_nodes, n_features, n_bins = n_left.shape
    msl, lam = cfg.min_samples_leaf, cfg.lambda_l2
    cand = (n_left >= msl) & (n_left <= (count - msl)[:, None, None])
    at = np.flatnonzero(cand)
    gl, hl = gl.ravel()[at], hl.ravel()[at]
    node = at // (n_features * n_bins)
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
    chosen = np.take_along_axis(gains, best[:, :, None], axis=2)[:, :, 0]
    # Across features, the first whose gain ties with the max of the chosen
    # gains.  Like Python's max() over the features in order, that max skips
    # NaNs unless the first feature with a candidate has one, and NaN ties
    # with nothing.  A feature with no candidate has gain -inf.
    top = np.fmax.reduce(chosen, axis=1)
    lead = chosen[np.arange(n_nodes), cand.any(axis=2).argmax(axis=1)]
    tied = chosen >= (top - _gain_tol(top))[:, None]
    splits = (top > MIN_GAIN) & ~np.isnan(lead) & tied.any(axis=1)
    feature = np.where(splits, tied.argmax(axis=1), -1)
    s = np.flatnonzero(splits)
    f = feature[s]
    b = best[s, f]
    # The threshold is the midpoint of the bin and the node's next non-empty
    # bin (where the count next rises), or the upper value when the midpoint
    # of two adjacent doubles rounds down onto the lower one; the cut counts
    # the values below it, as np.searchsorted does.
    pick = np.arange(len(s))
    below = n_left[s, f]
    left = below[pick, b]
    vals = values[client[s], f]
    lower = vals[pick, b]
    upper = vals[pick, (below > left[:, None]).argmax(axis=1)]
    mid = 0.5 * (lower + upper)
    threshold = np.zeros(n_nodes)
    threshold[s] = np.where(mid > lower, mid, upper)
    cut = np.zeros(n_nodes, dtype=np.intp)
    cut[s] = (vals < threshold[s][:, None]).sum(axis=1)
    n_go_left = np.zeros(n_nodes, dtype=np.intp)
    n_go_left[s] = left
    return feature, threshold, cut, n_go_left


def _grow_trees(codes, values, sizes, gh, cfg: GbdtConfig, leaf_of_row, root_counts) -> list:
    """Grow one tree per client, all of them a level at a time.

    The rows are grouped by client, sizes[c] rows for client c; client c's
    root is node c of the returned list, which holds each node, level by
    level, as (f, thr, left, right) or as its leaf value.  Each row's leaf
    value goes to leaf_of_row.  `root_counts` is the clients' cumulative row
    counts, `_histograms` with no weight, the same for every tree of the
    same rows.  Below the root a level's nodes are the smaller children of
    the last level's splits, in their parents' order, then their siblings in
    the same order.  Its rows are grouped by node, each node's in row order,
    so a node's totals are pairwise sums over its own rows in row order.
    The smaller children's rows come first and alone are histogrammed; each
    sibling's histograms are its parent's less the smaller child's.  A level
    whose split search would need more than `_HIST_ENTRIES` histogram
    entries is searched in blocks of nodes.
    """
    lam = cfg.lambda_l2
    n_features, n_bins = values.shape[1:]
    kids: list = [None] * len(sizes)
    ids = range(len(sizes))  # the level's nodes
    client = np.arange(len(sizes))  # each node's client
    sizes = np.asarray(sizes)
    rows = np.arange(gh.shape[1])  # the level's rows, grouped by node
    level_gh = gh  # g and h of the level's rows
    flat_codes = codes.reshape(-1)
    # The level's cumulative (rows, g, h) histograms, node by node.
    hist = np.empty((3, len(sizes), n_features, n_bins))
    hist[:1] = root_counts
    _histograms(codes, sizes, n_bins, gh, hist[1:])
    step = max(1, _HIST_ENTRIES // max(1, n_features * n_bins))
    for depth in range(cfg.max_depth + 1):
        ends = np.cumsum(sizes).tolist()
        starts = [0] + ends[:-1]
        tot = np.array([level_gh[:, lo:hi].sum(axis=1) for lo, hi in zip(starts, ends)])
        g_tot, h_tot = tot[:, 0], tot[:, 1]
        value = -g_tot / (h_tot + lam)
        if depth < cfg.max_depth and n_features:
            feature, threshold, cut, n_left = map(np.concatenate, zip(*(
                _level_splits(hist[:, lo:lo + step], values, client[lo:lo + step],
                              sizes[lo:lo + step], g_tot[lo:lo + step], h_tot[lo:lo + step], cfg)
                for lo in range(0, len(ids), step))))
        else:
            feature, threshold = np.full(len(ids), -1), np.zeros(len(ids))
            n_left = np.zeros(len(ids), dtype=np.intp)
        if (feature < 0).any():  # a split node's rows get their leaf below it
            leaf_of_row[rows] = np.repeat(value, sizes)
        splits = feature >= 0
        n_split = int(splits.sum())
        n_left = n_left[splits]
        n_right = sizes[splits] - n_left
        right_small = n_right < n_left
        # The next level's smaller children (the left one on a tie) take its
        # first n_split ids.
        first = len(kids)
        swap = iter(right_small.tolist())
        for i, f, thr, v in zip(ids, feature.tolist(), threshold.tolist(), value.tolist()):
            if f < 0:
                kids[i] = v
            else:
                small, large = first, first + n_split
                kids[i] = (f, thr, large, small) if next(swap) else (f, thr, small, large)
                first += 1
        if not n_split:
            break
        ids = range(len(kids), len(kids) + 2 * n_split)
        kids += [None] * (2 * n_split)
        # A split node's rows go left when their code on its feature is below
        # its cut; a leaf's rows leave the level.
        if n_split < len(sizes):
            rows = rows[np.repeat(splits, sizes)]
        sizes = sizes[splits]
        right = flat_codes[rows * n_features + np.repeat(feature[splits], sizes)] \
            >= np.repeat(cut[splits], sizes)
        to_large = right != np.repeat(right_small, sizes)
        rows = rows[np.concatenate([np.flatnonzero(~to_large), np.flatnonzero(to_large)])]
        sizes = np.concatenate([np.minimum(n_left, n_right), np.maximum(n_left, n_right)])
        client = np.tile(client[splits], 2)
        level_gh = None  # freed before the next level's are taken
        level_gh = np.take(gh, rows, axis=1)
        if depth + 1 < cfg.max_depth:
            parent = hist[:, splits]
            hist = None
            hist = np.empty((3, 2 * n_split, n_features, n_bins))
            m = int(sizes[:n_split].sum())
            _histograms(np.take(codes, rows[:m], axis=0), sizes[:n_split], n_bins,
                        (None, *level_gh[:, :m]), hist[:, :n_split])
            np.subtract(parent, hist[:, :n_split], out=hist[:, n_split:])
            parent = None
    return kids


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
    return train_clients([x], [y], config, [client])[0]


def _joined(arrays: list) -> np.ndarray:
    """The arrays end to end: a lone array as it is, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def train_clients(xs, ys, config: GbdtConfig, clients) -> list[LocalEnsemble]:
    """`train` for each client on its own rows xs[i], ys[i], in one pass.

    Tree t of every client with both classes grows in the same level-wise
    pass, each client with its own feature bins, base score and margins, so
    each ensemble is the same, bit for bit, as the client's own `train`.
    """
    if not len(xs) == len(ys) == len(clients):
        raise ValueError("need one x and one y per client")
    depths = [config.max_depth] * config.trees_per_client
    out: list = [None] * len(clients)
    fits = []  # (index, x, y, base score) of each client with both classes
    for i, (x, y, client) in enumerate(zip(xs, ys, clients)):
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
        prevalence = float(y.mean())
        if prevalence <= 0.0 or prevalence >= 1.0:
            base = _MAX_LOG_ODDS if prevalence >= 1.0 else -_MAX_LOG_ODDS
            nodes = [(0, 0.0, t, t, 0.0) for t in range(config.trees_per_client)]
            out[i] = _ensemble(client, nodes, range(len(nodes)), depths, base,
                               config.shrinkage)
        else:
            fits.append((i, x, y, float(np.log(prevalence / (1.0 - prevalence)))))
    if not fits:
        return out
    if len({x.shape[1] for _, x, _, _ in fits}) > 1:
        raise ValueError("every client's rows must have the same features")
    # Each client's codes index its own distinct values, padded with +inf.
    binned = [_bin_features(x) for _, x, _, _ in fits]
    codes = _joined([c for c, _ in binned])
    n_bins = max(v.shape[1] for _, v in binned)
    values = np.full((len(fits), len(binned[0][1]), n_bins), np.inf)
    for c, (_, v) in enumerate(binned):
        values[c, :, :v.shape[1]] = v
    del binned  # the codes live on in `codes` alone
    sizes = [len(y) for _, _, y, _ in fits]
    y = _joined([y for _, _, y, _ in fits])
    margins = np.repeat([base for *_, base in fits], sizes)
    gh = np.empty((2, len(y)))  # g and h of every row
    leaf_of_row = np.empty(len(y))
    root_counts = np.empty((1, len(fits), values.shape[1], n_bins))
    _histograms(codes, sizes, n_bins, [None], root_counts)
    nodes: list = [[] for _ in fits]
    roots: list = [[] for _ in fits]
    for _ in range(config.trees_per_client):
        p = _sigmoid(margins)
        np.subtract(p, y, out=gh[0])
        np.multiply(p, 1.0 - p, out=gh[1])
        kids = _grow_trees(codes, values, sizes, gh, config, leaf_of_row, root_counts)
        for c in range(len(fits)):
            roots[c].append(_write_preorder(nodes[c], kids, c))
        margins += config.shrinkage * leaf_of_row
    for c, (i, _, _, base) in enumerate(fits):
        out[i] = _ensemble(clients[i], nodes[c], roots[c], depths, base, config.shrinkage)
    return out


def _leaf_values(ensembles: list[LocalEnsemble], x: np.ndarray) -> np.ndarray:
    """(n_rows, n_trees) pre-shrinkage leaf value of each row in each tree.

    The ensembles' node arrays are stacked into one forest, and a block of
    rows steps down every tree whose root splits at once, one vectorized step
    per level.  The blocks bound the walk's temporaries however many rows and
    trees there are.
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
    out = np.empty((n, len(roots)))
    # A tree whose root is a leaf gives every row its value.
    splits = internal[roots]
    if splits.all():
        columns = slice(None)
    else:
        out[:, ~splits] = value[roots[~splits]]
        columns = np.flatnonzero(splits)
        roots = roots[splits]
    depth = 0  # of the deepest leaf
    level = roots
    while len(level):
        depth += 1
        level = np.concatenate([left[level], right[level]])
        level = level[internal[level]]
    block = max(1, _WALK_BLOCK_NODES // max(1, len(roots)))
    row_start = (np.arange(min(n, block)) * n_features)[:, None]
    for lo in range(0, n, block):
        rows = x[lo:lo + block]
        flat = rows.ravel()
        node = np.broadcast_to(roots, (len(rows), len(roots)))
        for _ in range(depth):
            goes_left = flat[row_start[:len(node)] + feature[node]] < threshold[node]
            node = np.where(goes_left, left[node], right[node])
        out[lo:lo + block, columns] = value[node]
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
