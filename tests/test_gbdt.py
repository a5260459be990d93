import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advent import gbdt
from advent.gbdt import (
    GbdtConfig,
    compile_forest,
    ensemble_from_dict,
    ensemble_to_dict,
    per_tree_output_matrix,
    predict_margin_batch,
    train,
)


def ensemble_to_json(ensemble) -> str:
    """An ensemble's wire form as canonical JSON: equal strings mean equal
    trees, each leaf and threshold equal bit for bit."""
    return json.dumps(ensemble_to_dict(ensemble), sort_keys=True)


def split_threshold(lo, hi):
    """The midpoint of two neighbouring values, or the upper one when the
    midpoint of adjacent doubles rounds down onto the lower one (and would
    send no row left)."""
    mid = 0.5 * (lo + hi)
    return mid if mid > lo else hi


def brute_force_split(x, g, h, cfg):
    """Exhaustive scan over all (feature, midpoint) candidates; same tie rule
    as production: gains within tolerance tie, lowest feature then lowest
    threshold wins."""
    n, nf = x.shape
    lam = cfg.lambda_l2
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot * g_tot / (h_tot + lam)
    per_feature = []
    for f in range(nf):
        best = None
        vals = np.unique(x[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = split_threshold(lo, hi)
            mask = x[:, f] < thr
            nl = int(mask.sum())
            if nl < cfg.min_samples_leaf or n - nl < cfg.min_samples_leaf:
                continue
            gl, hl = g[mask].sum(), h[mask].sum()
            gr, hr = g_tot - gl, h_tot - hl
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
            if best is None or gain > best[2] + gbdt._gain_tol(best[2]):
                best = (f, thr, gain)
        if best is not None:
            per_feature.append(best)
    if not per_feature:
        return None
    m = max(c[2] for c in per_feature)
    if m <= gbdt.MIN_GAIN:
        return None
    for f, thr, gain in per_feature:
        if gain >= m - gbdt._gain_tol(m):
            return (gain, f, thr)
    return None


def logistic_gh(margins, y):
    p = 1.0 / (1.0 + np.exp(-margins))
    return p - y, p * (1.0 - p)


# ---------------------------------------------------------------------------
# Test-side references: a per-row walk of the JSON trees, the argsort
# trainer the histogram split search replaced, and the recursive per-node
# histogram trainer the level-wise growth replaced.


def walk(node: dict, row) -> float:
    while "v" not in node:
        node = node["l"] if row[node["f"]] < node["t"] else node["r"]
    return node["v"]


def walk_margins(ens_dict: dict, x) -> np.ndarray:
    """Per-row margins, adding the trees in order as production does."""
    total = np.full(len(x), ens_dict["base_score"])
    for t in ens_dict["trees"]:
        total += np.array([walk(t["root"], row) for row in x])
    return total


def tree_depth(e) -> int:
    """The depth of the ensemble's deepest leaf."""
    internal = e.left != np.arange(len(e.left))
    d, level = 0, e.trees
    while len(level := level[internal[level]]):
        d += 1
        level = np.concatenate([e.left[level], e.right[level]])
    return d


def leaf_values(e, x, values) -> np.ndarray:
    """(n_rows, n_trees) values[leaf] of each row's leaf in each tree of the
    ensemble, in the dtype of `values`, which holds one entry per node: the
    float walk that leaf masks replaced.  A block of rows steps down every
    tree whose root splits at once, one vectorized step per level."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, n_features = x.shape
    roots = e.trees
    out = np.empty((n, len(roots)), dtype=values.dtype)
    splits = e.left[roots] != roots
    out[:, ~splits] = values[roots[~splits]]
    columns, roots = np.flatnonzero(splits), roots[splits]
    block = max(1, (1 << 15) // max(1, len(roots)))
    row_start = (np.arange(min(n, block)) * n_features)[:, None]
    for lo in range(0, n, block):
        rows = x[lo:lo + block]
        flat = rows.ravel()
        node = np.broadcast_to(roots, (len(rows), len(roots)))
        for _ in range(tree_depth(e)):
            goes_left = flat[row_start[:len(node)] + e.feature[node]] < e.threshold[node]
            node = np.where(goes_left, e.left[node], e.right[node])
        out[lo:lo + block, columns] = values[node]
    return out


def _argsort_best_split(x, g, h, cfg):
    n, n_features = x.shape
    lam = cfg.lambda_l2
    g_total = float(g.sum())
    h_total = float(h.sum())
    parent = g_total * g_total / (h_total + lam)
    msl = cfg.min_samples_leaf
    candidates = []
    for f in range(n_features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        gs = np.cumsum(g[order])
        hs = np.cumsum(h[order])
        distinct = xs[:-1] < xs[1:]
        if not distinct.any():
            continue
        pos = np.nonzero(distinct)[0]
        left_n = pos + 1
        pos = pos[(left_n >= msl) & ((n - left_n) >= msl)]
        if len(pos) == 0:
            continue
        gl = gs[pos]
        hl = hs[pos]
        gr = g_total - gl
        hr = h_total - hl
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        m = float(gains.max())
        i_best = int(np.argmax(gains >= m - gbdt._gain_tol(m)))
        candidates.append((f, float(split_threshold(xs[pos[i_best]], xs[pos[i_best] + 1])),
                           float(gains[i_best])))
    if not candidates:
        return None
    m = max(c[2] for c in candidates)
    if m <= gbdt.MIN_GAIN:
        return None
    for f, thr, gain in candidates:
        if gain >= m - gbdt._gain_tol(m):
            return (gain, f, thr)
    return None


def _argsort_build_node(x, g, h, depth, cfg) -> dict:
    leaf = {"v": float(-g.sum() / (h.sum() + cfg.lambda_l2)) * cfg.shrinkage}
    if depth >= cfg.max_depth or len(x) < 2 * cfg.min_samples_leaf:
        return leaf
    split = _argsort_best_split(x, g, h, cfg)
    if split is None:
        return leaf
    _, f, thr = split
    mask = x[:, f] < thr
    return {"f": f, "t": thr,
            "l": _argsort_build_node(x[mask], g[mask], h[mask], depth + 1, cfg),
            "r": _argsort_build_node(x[~mask], g[~mask], h[~mask], depth + 1, cfg)}


def reference_train(x, y, cfg, client=0) -> dict:
    """The argsort trainer, returning the ensemble in its wire form."""
    prevalence = float(y.mean())
    base = float(np.log(prevalence / (1.0 - prevalence)))
    margins = np.full(len(y), base)
    trees = []
    for _ in range(cfg.trees_per_client):
        g, h = logistic_gh(margins, y)
        root = _argsort_build_node(x, g, h, 0, cfg)
        trees.append({"root": root})
        margins += np.array([walk(root, row) for row in x])
    return {"client": client, "base_score": base, "trees": trees}


def _recursive_bin_features(x):
    values = [np.unique(col) for col in x.T]
    codes = np.empty(x.shape[::-1], dtype=np.min_scalar_type(max(map(len, values), default=1) - 1))
    for f, vals in enumerate(values):
        codes[f] = np.searchsorted(vals, x[:, f])
    return codes, values


def _recursive_best_split(codes, values, g, h, cfg):
    n = codes.shape[1]
    lam = cfg.lambda_l2
    g_total = float(g.sum())
    h_total = float(h.sum())
    parent = g_total * g_total / (h_total + lam)
    msl = cfg.min_samples_leaf
    candidates = []
    for f, vals in enumerate(values):
        c = codes[f].astype(np.intp)
        count = np.bincount(c, minlength=len(vals))
        present = np.flatnonzero(count)
        if len(present) < 2:
            continue
        below = present[:-1]
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
        i_best = int(np.argmax(gains >= m - gbdt._gain_tol(m)))
        b = pos[i_best]
        candidates.append((f, float(split_threshold(vals[present[b]], vals[present[b + 1]])),
                           float(gains[i_best])))
    if not candidates:
        return None
    m = max(c[2] for c in candidates)
    if m <= gbdt.MIN_GAIN:
        return None
    for f, thr, gain in candidates:
        if gain >= m - gbdt._gain_tol(m):
            return (gain, f, thr)
    return None


def _recursive_build_node(nodes, rows, codes, values, g, h, depth, cfg, leaf_of_row):
    i = len(nodes)
    nodes.append(None)
    split = None
    if depth < cfg.max_depth and len(rows) >= 2 * cfg.min_samples_leaf:
        split = _recursive_best_split(codes[:, rows], values, g[rows], h[rows], cfg)
    if split is None:
        value = float(-g[rows].sum() / (h[rows].sum() + cfg.lambda_l2)) * cfg.shrinkage
        leaf_of_row[rows] = value
        nodes[i] = (0, 0.0, i, i, value)
        return i
    _, f, thr = split
    goes_left = codes[f, rows] < np.searchsorted(values[f], thr)
    left = _recursive_build_node(nodes, rows[goes_left], codes, values, g, h, depth + 1, cfg,
                                 leaf_of_row)
    right = _recursive_build_node(nodes, rows[~goes_left], codes, values, g, h, depth + 1, cfg,
                                  leaf_of_row)
    nodes[i] = (f, thr, left, right, 0.0)
    return i


def recursive_train(x, y, cfg, client=0) -> str:
    """The recursive trainer: each node searches its own rows' histograms,
    depth first.  Returns the ensemble's JSON."""
    prevalence = float(y.mean())
    base = float(np.log(prevalence / (1.0 - prevalence)))
    codes, values = _recursive_bin_features(x)
    rows = np.arange(len(y))
    margins = np.full(len(y), base)
    leaf_of_row = np.empty(len(y))
    nodes, roots = [], []
    for _ in range(cfg.trees_per_client):
        g, h = logistic_gh(margins, y)
        roots.append(_recursive_build_node(nodes, rows, codes, values, g, h, 0, cfg, leaf_of_row))
        margins += leaf_of_row
    ens = gbdt._ensemble(client, nodes, roots, base)
    return ensemble_to_json(ens)


def _leaf_depths(ens, i, depth=0):
    if ens.left[i] == i:
        return [depth]
    return _leaf_depths(ens, ens.left[i], depth + 1) + _leaf_depths(ens, ens.right[i], depth + 1)


def _is_leaf(ens, i):
    return ens.left[i] == i


def test_config_invariants():
    with pytest.raises(ValueError):
        GbdtConfig(trees_per_client=0)
    with pytest.raises(ValueError):
        GbdtConfig(shrinkage=0.0)
    with pytest.raises(ValueError):
        GbdtConfig(max_depth=0)


def test_separable_1d_split():
    # Oracle: the only gain-maximizing split for cleanly separable data on
    # feature 0 lies between the largest negative and smallest positive value.
    rng = np.random.default_rng(0)
    x = np.zeros((40, 10))
    x[:, 0] = np.concatenate([rng.uniform(0, 4.5, 20), rng.uniform(5.0, 9.0, 20)])
    x[:, 1:] = rng.random((40, 9))
    y = (x[:, 0] >= 5.0).astype(float)
    cfg = GbdtConfig(trees_per_client=1, max_depth=1)
    ens = train(x, y, cfg)
    root = ens.trees[0]
    assert ens.feature[root] == 0
    assert x[y == 0, 0].max() <= ens.threshold[root] <= x[y == 1, 0].min()


def test_single_class_fallback():
    x = np.random.default_rng(1).random((15, 10))
    y = np.zeros(15)
    ens = train(x, y, GbdtConfig())
    margins = predict_margin_batch(ens, x)
    assert np.all(margins == ens.base_score)
    assert ens.base_score < -10


def test_manual_tree_routing():
    tree = {"f": 0, "t": 5.0, "l": {"v": -0.3}, "r": {"v": 0.3}}
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0,
                              "trees": [{"max_depth": 1, "root": tree}]})
    rows = np.zeros((3, 10))
    rows[:, 0] = [3.0, 7.0, 5.0]  # on the threshold goes right
    assert predict_margin_batch(ens, rows).tolist() == [-0.3, 0.3, 0.3]
    assert predict_margin_batch(ens, rows[1:2])[0] == 0.3


def test_predict_dimension_error():
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "trees": []})
    with pytest.raises(ValueError):
        predict_margin_batch(ens, np.zeros(3))
    split_on_4 = {"f": 4, "t": 0.5, "l": {"v": -1.0}, "r": {"v": 1.0}}
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0,
                              "trees": [{"max_depth": 1, "root": split_on_4}]})
    assert predict_margin_batch(ens, np.zeros((2, 5))).tolist() == [-1.0, -1.0]
    for x in (np.zeros((2, 4)), np.zeros(5)):
        with pytest.raises(ValueError):
            predict_margin_batch(ens, x)
        with pytest.raises(ValueError):
            per_tree_output_matrix(compile_forest([ens]), x)
    split_on_neg = dict(split_on_4, f=-1)
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0,
                              "trees": [{"max_depth": 1, "root": split_on_neg}]})
    with pytest.raises(ValueError):
        predict_margin_batch(ens, np.zeros((2, 5)))


def test_train_rejects_non_finite_and_bad_labels():
    rng = np.random.default_rng(12)
    x = rng.random((20, 4))
    y = (x[:, 0] > 0.5).astype(float)
    for bad in (np.nan, np.inf, -np.inf):
        xb = x.copy()
        xb[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            train(xb, y, GbdtConfig())
    for bad in (2.0, -1.0, 0.5, np.nan):
        yb = y.copy()
        yb[5] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            train(x, yb, GbdtConfig())
    # Labels may come as ints or bools.
    assert ensemble_to_json(train(x, y.astype(int), GbdtConfig())) == \
        ensemble_to_json(train(x, y.astype(bool), GbdtConfig()))


def test_training_loss_non_increasing_per_round():
    # Oracle: recompute the mean logistic loss after each boosting round.
    rng = np.random.default_rng(7)
    x = rng.random((150, 10)) * 10
    y = (x[:, 0] + 0.5 * x[:, 3] + rng.normal(0, 1, 150) > 7).astype(float)
    cfg = GbdtConfig(trees_per_client=8)
    ens = train(x, y, cfg)
    margins = np.full(len(y), ens.base_score)
    losses = []
    for column in per_tree_output_matrix(ens, x).T:
        margins += column
        p = 1.0 / (1.0 + np.exp(-margins))
        losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert all(b <= a + 1e-12 for a, b in zip(losses[:-1], losses[1:]))


def test_root_split_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(5, 120))
        x = np.round(rng.random((n, 10)) * rng.integers(2, 40), 2)
        y = (rng.random(n) > 0.5).astype(float)
        cfg = GbdtConfig(trees_per_client=1, max_depth=1,
                         min_samples_leaf=int(rng.integers(1, 4)))
        if y.min() == y.max():
            continue
        base = np.log(y.mean() / (1 - y.mean()))
        g, h = logistic_gh(np.full(n, base), y)
        expected = brute_force_split(x, g, h, cfg)
        ens = train(x, y, cfg)
        root = ens.trees[0]
        if expected is None:
            assert _is_leaf(ens, root)
        else:
            assert (ens.feature[root], ens.threshold[root]) == (expected[1], expected[2])


@pytest.mark.parametrize("max_depth", [3, 4])
def test_every_node_matches_brute_force(max_depth):
    # Oracle: every internal node of every tree is the exhaustive best split
    # of that node's own rows and gradients; every leaf above max_depth with
    # enough rows has no split with positive gain.
    rng = np.random.default_rng(20 + max_depth)
    checked = 0
    for trial in range(12):
        n = int(rng.integers(30, 160))
        nf = int(rng.integers(2, 7))
        if trial % 2:
            x = rng.poisson(2.0, (n, nf)).astype(float)
        else:
            x = np.round(rng.random((n, nf)) * rng.integers(2, 20), 2)
        y = ((x[:, 0] + rng.normal(0, 1.5, n)) > np.median(x[:, 0])).astype(float)
        if y.min() == y.max():
            continue
        cfg = GbdtConfig(trees_per_client=3, max_depth=max_depth,
                         min_samples_leaf=int(rng.integers(1, 4)))
        ens = train(x, y, cfg)
        margins = np.full(n, ens.base_score)
        for root, column in zip(ens.trees, per_tree_output_matrix(ens, x).T):
            g, h = logistic_gh(margins, y)
            stack = [(root, np.arange(n), 0)]
            while stack:
                i, rows, depth = stack.pop()
                expected = None
                if depth < max_depth and len(rows) >= 2 * cfg.min_samples_leaf:
                    expected = brute_force_split(x[rows], g[rows], h[rows], cfg)
                if _is_leaf(ens, i):
                    assert expected is None
                    assert ens.value[i] == \
                        -g[rows].sum() / (h[rows].sum() + cfg.lambda_l2) * cfg.shrinkage
                    continue
                assert expected is not None
                assert (ens.feature[i], ens.threshold[i]) == (expected[1], expected[2])
                checked += 1
                goes_left = x[rows, ens.feature[i]] < ens.threshold[i]
                stack.append((ens.left[i], rows[goes_left], depth + 1))
                stack.append((ens.right[i], rows[~goes_left], depth + 1))
            margins += column
    assert checked > 100


@pytest.mark.parametrize("shrinkage", [0.1, 0.3, 0.7])
def test_leaves_store_the_shrunk_step(shrinkage):
    # A first tree's gradients do not depend on the shrinkage, so its leaves
    # are the unshrunk fit's times the shrinkage, bit for bit, and a row's
    # margin is the base score plus its leaf as stored.
    rng = np.random.default_rng(31)
    x = rng.poisson(3.0, (200, 4)).astype(float)
    y = ((x[:, 0] + rng.normal(0, 1.5, 200)) > 3).astype(float)
    whole = train(x, y, GbdtConfig(trees_per_client=1, shrinkage=1.0))
    shrunk = train(x, y, GbdtConfig(trees_per_client=1, shrinkage=shrinkage))
    assert tree_depth(shrunk) == 3
    assert np.array_equal(shrunk.threshold, whole.threshold)
    assert shrunk.value.tobytes() == (whole.value * shrinkage).tobytes()
    leaf = per_tree_output_matrix(shrunk, x)[:, 0]
    assert predict_margin_batch(shrunk, x).tobytes() == (shrunk.base_score + leaf).tobytes()


def _tie_heavy_datasets():
    rng = np.random.default_rng(30)
    out = []
    for trial in range(40):
        n = int(rng.integers(3, 400))
        nf = int(rng.integers(1, 8))
        kind = trial % 5
        if kind == 0:  # integer packet counts, heavy ties
            x = rng.poisson(rng.uniform(0.3, 6.0), (n, nf)).astype(float)
        elif kind == 1:  # 2-decimal floats
            x = np.round(rng.random((n, nf)) * rng.integers(2, 40), 2)
        elif kind == 2:  # constant features next to count features
            x = rng.integers(0, 4, (n, nf)).astype(float)
            x[:, rng.integers(0, nf)] = 3.0
        elif kind == 3:  # more than 256 distinct values: wider codes
            x = rng.normal(size=(n, nf)) * 100
        else:  # few rows for the leaf minimum
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 3, (n, nf)).astype(float)
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        cfg = GbdtConfig(trees_per_client=int(rng.integers(1, 6)),
                         max_depth=int(rng.integers(1, 5)),
                         min_samples_leaf=int(rng.integers(1, 8)),
                         lambda_l2=float(rng.choice([0.0, 1.0, 3.0])))
        out.append((x, y, cfg))
    return out


def test_matches_argsort_reference_trainer():
    covered = set()
    for x, y, cfg in _tie_heavy_datasets():
        n = len(x)
        if n < 2 * cfg.min_samples_leaf:
            covered.add("n < 2*msl")
        if cfg.min_samples_leaf > 1:
            covered.add("msl > 1")
        if n > 256 and len(np.unique(x)) > 256:
            covered.add("wide codes")
        expected = json.dumps(reference_train(x, y, cfg, client=4), sort_keys=True)
        assert ensemble_to_json(train(x, y, cfg, client=4)) == expected
    assert covered == {"n < 2*msl", "msl > 1", "wide codes"}


def _level_case(name):
    """(x, y, config) of one named case for the recursive-reference test."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 160
    x = rng.poisson(3.0, (n, 4)).astype(float)
    y = ((x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 1.5, n)) > 4.5).astype(float)
    cfg = dict(trees_per_client=3, max_depth=3)
    if name.startswith("depth"):
        cfg["max_depth"] = int(name[5:])
    elif name.startswith("msl"):
        cfg["min_samples_leaf"] = int(name[3:])
    elif name == "mixed-depths":
        # The x0 < 2 side is pure, so it stops early; the rest grows on.
        x[:, 0] = np.where(rng.random(n) < 0.3, 1.0, rng.poisson(6.0, n) + 2.0)
        y = np.where(x[:, 0] < 2, 0.0, (rng.random(n) < 0.5).astype(float))
        cfg["max_depth"] = 4
    elif name == "wide-codes":  # more than 256 distinct values: uint16 codes
        n = 400
        x = rng.normal(size=(n, 3)) * 100
        y = (x[:, 0] + rng.normal(0, 60, n) > 0).astype(float)
    elif name.startswith("adjacent"):
        # Neighbouring doubles: the midpoint of 1 and 1+2^-52 rounds down
        # onto 1, so the upper value is the threshold; that of 1+2^-52 and
        # 1+2^-51 rounds up onto the upper value itself.
        lo, mid, hi = 1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        pair = (lo, mid) if name == "adjacent-down" else (mid, hi)
        x[:, 0] = np.where(y == 1, pair[1], pair[0])
    elif name == "lambda0":
        cfg["lambda_l2"] = 0.0
    elif name == "mirror-ties":
        # Positive ends, negative middle: cutting off either end gains the
        # same, up to rounding, and the first within tolerance must win.
        x = np.column_stack([np.repeat([0.0, 1.0, 2.0, 3.0], 33), rng.integers(0, 3, 132)])
        y = np.repeat([1.0, 0.0, 0.0, 1.0], 33)
        perm = rng.permutation(132)
        x, y = x[perm], y[perm]
        cfg = dict(trees_per_client=2, max_depth=2)
    return x, y, GbdtConfig(**cfg)


LEVEL_CASES = ["depth1", "depth2", "depth3", "depth4", "depth5", "msl1", "msl2", "msl3",
               "mixed-depths", "wide-codes", "adjacent-down", "adjacent-up", "lambda0",
               "mirror-ties"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entries", [None, 1], ids=["one-histogram", "node-per-histogram"])
@pytest.mark.parametrize("name", LEVEL_CASES)
def test_matches_recursive_reference_trainer(name, entries, monkeypatch):
    # Oracle: the recursive per-node trainer must give the same bits.  With
    # one entry per histogram, each node of a level gets a histogram of its own.
    if entries is not None:
        monkeypatch.setattr(gbdt, "_HIST_ENTRIES", entries)
    x, y, cfg = _level_case(name)
    ens = train(x, y, cfg, client=3)
    assert ensemble_to_json(ens) == recursive_train(x, y, cfg, client=3)
    internal = ens.left != np.arange(len(ens.left))
    depths = [_leaf_depths(ens, root) for root in ens.trees]
    if name == "mixed-depths":
        assert any(len(set(d)) > 1 for d in depths)
    if name.startswith("depth"):
        assert max(map(max, depths)) == cfg.max_depth
    if name == "wide-codes":
        assert gbdt._bin_features(x)[0].dtype == np.uint16
    if name.startswith("adjacent"):
        # The threshold is the upper of the two values.
        on_value = ens.threshold[internal & (ens.feature == 0)]
        assert np.isin(on_value, x[:, 0]).any()
        assert (on_value[np.isin(on_value, x[:, 0])] == x[:, 0].max()).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_adjacent_doubles_split(lam):
    # The midpoint of 1 and 1+2^-52 rounds down onto 1; a threshold there
    # would send no row left, leave both classes at one margin and, with
    # lambda 0, give the empty leaf 0/0.
    x = np.repeat([1.0, np.nextafter(1.0, 2.0)], 20)[:, None]
    y = np.repeat([0.0, 1.0], 20)
    cfg = GbdtConfig(trees_per_client=3, max_depth=2, lambda_l2=lam)
    ens = train(x, y, cfg)
    assert np.isfinite(ens.value).all() and np.isfinite(ens.threshold).all()
    margins = predict_margin_batch(ens, x)
    assert margins[y == 1].min() > margins[y == 0].max()
    assert ensemble_to_json(ens) == recursive_train(x, y, cfg)
    assert brute_force_split(x, *logistic_gh(np.zeros(40), y), cfg)[2] == x[-1, 0]


def _saturating_case(seed):
    """λ = 0 and shrinkage 1: two positive rows alone at the lowest values of
    one feature get a large leaf, their p rounds to 1 and so g = h = 0, and a
    later candidate with only them on its left has gain 0/0 = NaN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(80, 200))
    x = np.zeros((n, 2))
    y = np.zeros(n)
    y[:2] = 1.0
    spiked = seed % 2
    x[:, spiked] = np.concatenate([[0, 1], rng.integers(2, 10, n - 2)])
    x[2:, 1 - spiked] = rng.integers(0, 6, n - 2)
    y[2:] = (x[2:, 1 - spiked] + rng.normal(0, 1, n - 2) > rng.uniform(5, 7)).astype(float)
    cfg = GbdtConfig(trees_per_client=int(rng.integers(3, 9)), max_depth=int(rng.integers(1, 3)),
                     shrinkage=1.0, lambda_l2=0.0, min_samples_leaf=2)
    return x, y, cfg


@pytest.mark.parametrize("seed", [4, 7, 10])
def test_matches_recursive_reference_with_nan_gains(seed):
    # Oracle: NaN gains resolve as the recursive search's max() over its
    # candidate list does.  A NaN first in the list wins it (no split); a
    # NaN after it is skipped.  Seeds 4 and 10 put the NaN feature first,
    # seed 7 second.  Both trainers warn when they divide 0 by 0.
    x, y, cfg = _saturating_case(seed)
    with pytest.warns(RuntimeWarning):
        expected = recursive_train(x, y, cfg)
    with pytest.warns(RuntimeWarning):
        assert ensemble_to_json(train(x, y, cfg)) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wide_level_matches_recursive_reference():
    # Unregularized, a linear gradient splits every node at its middle, so
    # level d holds 2^d nodes of each client.  Two clients with their own
    # values and gradients grow in one pass: level 9 holds 1,024 nodes, and
    # the next level's node slots need uint16.
    n = 1024
    xs = [np.arange(n, dtype=float)[:, None], 0.5 * np.arange(n)[:, None] + 3.0]
    gs = [np.linspace(-1.0, 1.0, n), np.linspace(2.0, -2.0, n)]
    h = np.ones(n)
    cfg = GbdtConfig(max_depth=10, lambda_l2=0.0)
    binned = [gbdt._bin_features(x) for x in xs]
    leaf_of_row = np.empty(2 * n)
    codes = np.concatenate([c for c, _ in binned])
    root_counts = np.empty((1, 2, 1, n))
    gbdt._histograms(codes, [n, n], n, [None], root_counts)
    kids = gbdt._grow_trees(codes, np.stack([v for _, v in binned]), [n, n],
                            np.stack([np.concatenate(gs), np.tile(h, 2)]), cfg, leaf_of_row,
                            root_counts)
    for c, (x, g) in enumerate(zip(xs, gs)):
        nodes = []
        gbdt._node_from_dict(nodes, kids[c])
        ref_nodes, ref_leaf_of_row = [], np.empty(n)
        _recursive_build_node(ref_nodes, np.arange(n), *_recursive_bin_features(x), g, h, 0,
                              cfg, ref_leaf_of_row)
        assert nodes == ref_nodes
        assert np.array_equal(leaf_of_row[c * n:(c + 1) * n], ref_leaf_of_row)
        depths = [0] * len(nodes)
        for i, (_, _, left, right, _) in enumerate(nodes):
            if left != i:
                depths[left] = depths[right] = depths[i] + 1
        assert np.bincount(depths).tolist() == [2 ** d for d in range(11)]


def _grow_and_trace(xs, gs, hs, cfg):
    """Grow one tree per client with `_grow_trees` on the given g and h, and
    check every histogram its split search saw against a direct bincount of
    the node's own rows.

    A root's or a smaller child's histograms must be the direct ones, bit for
    bit.  A larger sibling's, taken as its parent's less the smaller child's,
    must have the same counts, and g and h sums within the rounding that its
    chain of subtractions can add: each cumulative sum in the chain is off by
    at most (rows + bins) units of rounding of the client's absolute sums,
    and a node at depth d ends a chain of d subtractions.  Each level's
    smaller children must come first, in their parents' order.  Returns the
    tree's kids and whether each node's histograms were subtracted."""
    binned = [gbdt._bin_features(x) for x in xs]
    n_bins = max(v.shape[1] for _, v in binned)
    nf = xs[0].shape[1]
    values = np.full((len(xs), nf, n_bins), np.inf)
    for c, (_, v) in enumerate(binned):
        values[c, :, :v.shape[1]] = v
    codes = np.concatenate([c for c, _ in binned])
    sizes = [len(x) for x in xs]
    root_counts = np.empty((1, len(xs), nf, n_bins))
    gbdt._histograms(codes, sizes, n_bins, [None], root_counts)
    seen = []
    search = gbdt._level_splits

    def spy(hist, *args):
        seen.append(hist.copy())
        return search(hist, *args)

    gbdt._level_splits = spy
    try:
        kids = gbdt._grow_trees(codes, values, sizes,
                                np.stack([np.concatenate(gs), np.concatenate(hs)]), cfg,
                                np.empty(sum(sizes)), root_counts)
    finally:
        gbdt._level_splits = search
    x, g, h = np.concatenate(xs), np.concatenate(gs), np.concatenate(hs)
    bounds = np.cumsum([0] + sizes)
    rows = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    client, depth, subtracted = list(range(len(xs))), [0] * len(xs), [False] * len(xs)
    # Each node's id: its index in the kids list, found by object identity.
    ids = {id(node): i for i, node in enumerate(kids)}
    assert len(ids) == len(kids)
    level = list(range(len(xs)))
    while level:
        smalls, larges = [], []
        for i in level:
            assert sorted(kids[i]) in (["v"], ["f", "l", "r", "t"])
            if "v" not in kids[i]:
                f, thr = kids[i]["f"], kids[i]["t"]
                left, right = ids[id(kids[i]["l"])], ids[id(kids[i]["r"])]
                goes_left = x[rows[i], f] < thr
                n_left = int(goes_left.sum())
                if n_left <= len(goes_left) - n_left:
                    smalls.append((left, i, goes_left))
                    larges.append((right, i, ~goes_left))
                else:
                    smalls.append((right, i, ~goes_left))
                    larges.append((left, i, goes_left))
        # The smaller children take the next ids in their parents' order,
        # then their siblings in the same order.
        level = [kid for kid, _, _ in smalls + larges]
        assert level == list(range(len(rows), len(rows) + len(level)))
        for kid, parent, mask in smalls + larges:
            rows.append(rows[parent][mask])
            client.append(client[parent])
            depth.append(depth[parent] + 1)
        subtracted += [False] * len(smalls) + [True] * len(larges)
    assert len(rows) == len(kids)
    hist = np.concatenate(seen, axis=1)
    assert hist.shape[1] == sum(d < cfg.max_depth for d in depth)
    eps = np.finfo(float).eps
    for i in range(hist.shape[1]):
        c = client[i]
        for f in range(nf):
            code = codes[rows[i], f].astype(np.intp)
            direct = [np.cumsum(np.bincount(code, w, n_bins)) for w in
                      (None, g[rows[i]], h[rows[i]])]
            assert np.array_equal(hist[0, i, f], direct[0])
            for k, w in ((1, g), (2, h)):
                if not subtracted[i]:
                    assert np.array_equal(hist[k, i, f], direct[k])
                    continue
                whole = np.cumsum(np.bincount(codes[rows[c], f].astype(np.intp),
                                              np.abs(w[rows[c]]), n_bins))
                tol = 2 * depth[i] * (sizes[c] + n_bins) * eps * whole
                assert (np.abs(hist[k, i, f] - direct[k]) <= tol).all()
    return kids, subtracted


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from([0.0, 1.0]), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from([None, 1, 40]), st.integers(0, 2**32 - 1))
def test_level_growth_matches_recursive_property(n, nf, depth, msl, lam, trees, kind, entries,
                                                 seed):
    rng = np.random.default_rng(seed)
    if kind == 0:
        x = rng.poisson(2.0, (n, nf)).astype(float)
    elif kind == 1:
        x = np.round(rng.random((n, nf)) * 5, 1)
    elif kind == 2:  # neighbouring doubles
        x = 1.0 + rng.integers(0, 4, (n, nf)) * np.finfo(float).eps
    else:
        x = rng.normal(size=(n, nf))
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = [0.0, 1.0]
    cfg = GbdtConfig(trees_per_client=trees, max_depth=depth, min_samples_leaf=msl,
                     lambda_l2=lam)
    saved = gbdt._HIST_ENTRIES
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = recursive_train(x, y, cfg)
    try:
        if entries is not None:
            gbdt._HIST_ENTRIES = entries
        with warnings.catch_warnings():
            # No warning the recursive search did not give as well.
            warnings.simplefilter("ignore" if caught else "error", RuntimeWarning)
            assert ensemble_to_json(train(x, y, cfg)) == expected
    finally:
        gbdt._HIST_ENTRIES = saved


def _client_rows(rng, n, nf, kind):
    """n rows of nf features: small counts, one-decimal values, neighbouring
    doubles, or wide normal values (more than 256 distinct in 300 rows)."""
    if kind == 0:
        return rng.poisson(2.0, (n, nf)).astype(float)
    if kind == 1:
        return np.round(rng.random((n, nf)) * 5, 1)
    if kind == 2:
        return 1.0 + rng.integers(0, 4, (n, nf)) * np.finfo(float).eps
    return rng.normal(size=(n, nf)) * 100


def _check_train_clients(xs, ys, cfg, cids):
    """Each client's ensemble from one `train_clients` call must be, in JSON,
    its lone `train` and, given both classes, the recursive trainer's."""
    out = gbdt.train_clients(xs, ys, cfg, cids)
    assert [e.client for e in out] == list(cids)
    for x, y, cid, ens in zip(xs, ys, cids, out):
        got = ensemble_to_json(ens)
        assert got == ensemble_to_json(train(x, y, cfg, client=cid))
        if 0 < y.mean() < 1:
            assert got == recursive_train(x, y, cfg, client=cid)
        else:  # the single-class fallback: single zero leaves
            assert ens.base_score == (15.0 if y.mean() else -15.0)
            assert len(ens.trees) == cfg.trees_per_client and not ens.value.any()
            assert all(_is_leaf(ens, root) for root in ens.trees)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entries", [None, 1, 40],
                         ids=["one-histogram", "node-per-histogram", "node-blocks"])
def test_train_clients_matches_lone_and_recursive(entries, monkeypatch):
    # Oracle: per client, its own fit and the recursive trainer.  The clients
    # differ in size and in their numbers of distinct values, so most
    # clients' bins are padded; one needs uint16 codes.  Some have one class,
    # one has a single row, and one only a row of each class.
    if entries is not None:
        monkeypatch.setattr(gbdt, "_HIST_ENTRIES", entries)
    rng = np.random.default_rng(21)
    xs, ys = [], []
    for n, kind, labels in [(120, 0, "mixed"), (300, 3, "mixed"), (30, 1, "zeros"),
                            (1, 0, "ones"), (2, 1, "mixed"), (20, 2, "ones"),
                            (60, 2, "mixed"), (45, 1, "mixed")]:
        x = _client_rows(rng, n, 3, kind)
        if labels == "mixed":
            y = (x[:, 0] + x[:, 1] * rng.random(n) > np.median(x[:, 0])).astype(float)
            y[:2] = [0.0, 1.0]
        else:
            y = np.full(n, float(labels == "ones"))
        xs.append(x)
        ys.append(y)
    xs[-1][:, 2] = 7.0  # one value: a feature with no candidate
    assert gbdt._bin_features(xs[1])[0].dtype == np.uint16
    assert len({gbdt._bin_features(x)[1].shape[1] for x in xs}) > 4
    cids = [9, 4, 12, 1, 7, 30, 2, 5]  # in no order: each ensemble keeps its own
    for cfg in (GbdtConfig(trees_per_client=3, max_depth=4),
                GbdtConfig(trees_per_client=2, max_depth=2, min_samples_leaf=3, lambda_l2=0.0)):
        _check_train_clients(xs, ys, cfg, cids)


@pytest.mark.parametrize("entries", [None, 1])
def test_train_clients_with_nan_gains(entries, monkeypatch):
    # Oracle: the saturating cases of the NaN-gain test as three clients of
    # one call, so that one level's nodes resolve NaN gains each their own
    # way: seeds 4 and 10 put the NaN feature first, seed 7 second.
    if entries is not None:
        monkeypatch.setattr(gbdt, "_HIST_ENTRIES", entries)
    cases = [_saturating_case(seed)[:2] for seed in (4, 7, 10)]
    cfg = GbdtConfig(trees_per_client=5, max_depth=2, shrinkage=1.0, lambda_l2=0.0,
                     min_samples_leaf=2)
    with pytest.warns(RuntimeWarning):
        expected = [recursive_train(x, y, cfg, client=c) for c, (x, y) in enumerate(cases)]
    with pytest.warns(RuntimeWarning):
        out = gbdt.train_clients([x for x, _ in cases], [y for _, y in cases], cfg, [0, 1, 2])
    assert [ensemble_to_json(e) for e in out] == expected


def test_train_clients_rejects_bad_input():
    x = np.random.default_rng(5).random((20, 3))
    y = (x[:, 0] > 0.5).astype(float)
    cfg = GbdtConfig(trees_per_client=2)
    with pytest.raises(ValueError, match="one x and one y"):
        gbdt.train_clients([x, x], [y], cfg, [0, 1])
    with pytest.raises(ValueError, match="same features"):
        gbdt.train_clients([x, x[:, :2]], [y, y], cfg, [0, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        gbdt.train_clients([x, x], [y, y + 0.5], cfg, [0, 1])
    assert gbdt.train_clients([], [], cfg, []) == []


# (rows, value kind, labels) of one client
_CLIENT = st.tuples(st.integers(1, 40), st.integers(0, 3),
                    st.sampled_from(["mixed", "zeros", "ones"]))


def _draw_clients(rng, clients, nf):
    """Each `_CLIENT` draw's rows and labels; a mixed client of two or more
    rows has both classes."""
    xs, ys = [], []
    for n, kind, labels in clients:
        xs.append(_client_rows(rng, n, nf, kind))
        y = (rng.random(n) < 0.5).astype(float) if labels == "mixed" else \
            np.full(n, float(labels == "ones"))
        if labels == "mixed" and n >= 2:
            y[:2] = [0.0, 1.0]
        ys.append(y)
    return xs, ys


@settings(max_examples=40, deadline=None)
@given(st.lists(_CLIENT, min_size=1, max_size=5), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 3), st.sampled_from([0.0, 1.0]), st.integers(1, 3),
       st.sampled_from([None, 1, 40]), st.integers(0, 2**32 - 1))
def test_train_clients_matches_recursive_property(clients, nf, depth, msl, lam, trees, entries,
                                                  seed):
    xs, ys = _draw_clients(np.random.default_rng(seed), clients, nf)
    cfg = GbdtConfig(trees_per_client=trees, max_depth=depth, min_samples_leaf=msl,
                     lambda_l2=lam)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x, y in zip(xs, ys):
            if 0 < y.mean() < 1:
                recursive_train(x, y, cfg)
    saved = gbdt._HIST_ENTRIES
    try:
        if entries is not None:
            gbdt._HIST_ENTRIES = entries
        with warnings.catch_warnings():
            # No warning the recursive search did not give as well.
            warnings.simplefilter("ignore" if caught else "error", RuntimeWarning)
            _check_train_clients(xs, ys, cfg, list(range(len(xs))))
    finally:
        gbdt._HIST_ENTRIES = saved


@settings(max_examples=40, deadline=None)
@given(st.lists(_CLIENT, min_size=1, max_size=5), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fitted_nodes_equal_their_wire_round_trip(clients, nf, depth, trees, seed):
    # The fit builds its node arrays from its trees' wire form with the
    # upload decoder's builder, so a fitted ensemble and its decoded wire
    # form hold equal arrays, dtype and bits.
    xs, ys = _draw_clients(np.random.default_rng(seed), clients, nf)
    cfg = GbdtConfig(trees_per_client=trees, max_depth=depth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fitted = gbdt.train_clients(xs, ys, cfg, list(range(len(xs))))
    for ens in fitted:
        back = ensemble_from_dict(ensemble_to_dict(ens))
        for name in ("trees", "feature", "threshold", "left", "right", "value"):
            a, b = getattr(ens, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (back.client, back.base_score) == (ens.client, ens.base_score)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("smaller", ["left", "right", "same-size"])
def test_subtracted_sibling_matches_direct_histograms(smaller):
    # Oracle: direct bincounts of each node's rows, and the recursive
    # trainer.  The root's best split sends 10 of 40 rows left, 10 right, or
    # 20 each way; its smaller child is histogrammed from its rows and takes
    # the next level's first id, and the sibling's histograms are subtracted.
    rng = np.random.default_rng(50)
    n = 40
    x = np.column_stack([np.arange(n, dtype=float), rng.integers(0, 5, n).astype(float)])
    cut = {"left": 10, "right": 30, "same-size": 20}[smaller]
    g = np.where(x[:, 0] < cut, 1.0, -1.0) + rng.normal(0, 0.2, n)
    h = rng.uniform(0.1, 0.3, n)
    cfg = GbdtConfig(max_depth=3)
    kids, subtracted = _grow_and_trace([x], [g], [h], cfg)
    root = kids[0]
    assert (root["f"], root["t"]) == (0, cut - 0.5)
    small, large = (root["r"], root["l"]) if smaller == "right" else (root["l"], root["r"])
    assert small is kids[1] and large is kids[2]
    assert subtracted[2] and not subtracted[1]
    nodes = []
    gbdt._node_from_dict(nodes, root)
    ref_nodes = []
    _recursive_build_node(ref_nodes, np.arange(n), *_recursive_bin_features(x), g, h, 0, cfg,
                          np.empty(n))
    assert nodes == ref_nodes


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 3)), min_size=1, max_size=5),
       st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.sampled_from([0.0, 1.0]),
       st.sampled_from([None, 1, 40]), st.integers(0, 2**32 - 1))
def test_subtracted_histograms_property(clients, nf, depth, msl, lam, entries, seed):
    # Over random levels of several clients, every histogram the split search
    # sees is a direct one, or a subtracted one with exact counts and g and h
    # sums within the subtractions' rounding of the direct sums.  g and h
    # span six orders of magnitude, so sums carry rounding.
    rng = np.random.default_rng(seed)
    xs = [_client_rows(rng, n, nf, kind) for n, kind in clients]
    gs = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n) for n, _ in clients]
    hs = [rng.uniform(0.01, 1.0, n) * 10.0 ** rng.uniform(-3, 3, n) for n, _ in clients]
    cfg = GbdtConfig(max_depth=depth, min_samples_leaf=msl, lambda_l2=lam)
    saved = gbdt._HIST_ENTRIES
    try:
        if entries is not None:
            gbdt._HIST_ENTRIES = entries
        _grow_and_trace(xs, gs, hs, cfg)
    finally:
        gbdt._HIST_ENTRIES = saved


@pytest.mark.parametrize("block", [None, 7, 40])
def test_apply_matches_json_walk(block, monkeypatch):
    # Oracle: a per-row recursive walk of the wire-format trees.  Small slot
    # blocks take one row, or two, at a time.
    if block is not None:
        monkeypatch.setattr(gbdt, "_SLOT_BLOCK", block)
    rng = np.random.default_rng(40)
    ensembles = []
    for client, depth in enumerate((1, 3, 4), start=2):
        x = rng.poisson(3.0, (120, 6)).astype(float)
        y = (x[:, client] + rng.normal(0, 1, 120) > 3).astype(float)
        cfg = GbdtConfig(trees_per_client=4, max_depth=depth, shrinkage=0.1 * client)
        ensembles.append(train(x, y, cfg, client=client))
    # Trees whose root is a leaf, alone and among trees of several depths:
    # a single-class client's, and single leaves mixed with the trees above.
    x = rng.poisson(3.0, (50, 6)).astype(float)
    ensembles.append(train(x, np.ones(50), GbdtConfig(trees_per_client=4), client=5))
    roots = [t["root"] for e in ensembles[:3] for t in ensemble_to_dict(e)["trees"]]
    mixed = [{"v": 0.75}, roots[9], {"v": -1.25}, roots[1]]
    assert "l" in roots[9]["l"] and "l" in roots[1]
    ensembles.append(ensemble_from_dict({"client": 6, "base_score": 0.5,
                                         "trees": [{"max_depth": 4, "root": r} for r in mixed]}))
    leaves = [{"v": 0.5}, {"v": -0.25}, {"v": 2.0}, {"v": 0.0}]
    ensembles.append(ensemble_from_dict({"client": 7, "base_score": 0.0,
                                         "trees": [{"max_depth": 1, "root": r} for r in leaves]}))
    # Probe rows hit every threshold exactly as well as values between them.
    probe = rng.poisson(3.0, (80, 6)).astype(float)
    probe[:10] += 0.5
    for forest in (ensembles, ensembles[3::2]):
        matrix = per_tree_output_matrix(compile_forest(forest), probe)
        assert matrix.shape == (80, 4 * len(forest)) and matrix.flags.c_contiguous
        col = 0
        for e in forest:
            d = ensemble_to_dict(e)
            assert np.array_equal(predict_margin_batch(e, probe), walk_margins(d, probe))
            for t in d["trees"]:
                expected = [walk(t["root"], row) for row in probe]
                assert np.array_equal(matrix[:, col], expected)
                col += 1
            assert np.array_equal(predict_margin_batch(e, probe[:0]), np.empty(0))


def _json_depth(node: dict) -> int:
    return 0 if "v" in node else 1 + max(_json_depth(node["l"]), _json_depth(node["r"]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compiled_forest_matches_per_ensemble_walk(data):
    # The compiled forest's tree outputs equal, bit for bit, each ensemble's
    # own outputs, the float walk and a per-row walk of the wire-format
    # trees.  Forests mix single-leaf trees, zero clients (every tree one 0.0
    # leaf), trees of several depths and -0.0 leaves; small slot blocks take
    # one row or a few.
    cuts = [-1.0, 0.0, 0.5, 2.0]

    def tree(depth):
        if depth == 0 or data.draw(st.integers(0, 3)) == 0:
            return {"v": data.draw(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]))}
        return {"f": data.draw(st.integers(0, 2)), "t": data.draw(st.sampled_from(cuts)),
                "l": tree(depth - 1), "r": tree(depth - 1)}

    ensembles = []
    for client in range(data.draw(st.integers(1, 5))):
        n_trees = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            trees = [{"v": 0.0}] * n_trees
        else:
            depth = data.draw(st.integers(0, 4))
            trees = [tree(depth) for _ in range(n_trees)]
        ensembles.append(ensemble_from_dict({
            "client": client, "base_score": 0.0, "trees": [{"root": t} for t in trees]}))
    values = cuts + [-0.0, 0.25, 1.0, 3.0, -7.0]
    x = np.array(data.draw(st.lists(st.lists(st.sampled_from(values), min_size=3, max_size=3),
                                    min_size=1, max_size=20)))
    forest = compile_forest(ensembles)
    with mock.patch.object(gbdt, "_SLOT_BLOCK", data.draw(st.sampled_from([1, 7, 1 << 15]))):
        matrix = per_tree_output_matrix(forest, x)
        own = np.hstack([per_tree_output_matrix(e, x) for e in ensembles])
    assert matrix.tobytes() == own.tobytes()
    dicts = [ensemble_to_dict(e) for e in ensembles]
    expected = [[walk(t["root"], row) for d in dicts for t in d["trees"]]
                for row in x]
    assert matrix.tobytes() == np.array(expected).reshape(matrix.shape).tobytes()
    assert matrix.tobytes() == leaf_values(forest, x, forest.value).tobytes()
    assert tree_depth(forest) == max(_json_depth(t["root"]) for d in dicts for t in d["trees"])


def test_per_tree_outputs_single():
    x = np.random.default_rng(2).random((30, 10))
    y = (x[:, 0] > 0.5).astype(float)
    ens = train(x, y, GbdtConfig(trees_per_client=1), client=4)
    v = per_tree_output_matrix(compile_forest([ens]), x[:1])
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(predict_margin_batch(ens, x[:1])[0] - ens.base_score)


def test_row_order_invariance():
    rng = np.random.default_rng(5)
    x = rng.random((60, 10))
    y = (x[:, 2] > 0.5).astype(float)
    perm = rng.permutation(60)
    e1 = train(x, y, GbdtConfig())
    e2 = train(x[perm], y[perm], GbdtConfig())
    probe = rng.random((10, 10))
    assert np.allclose(predict_margin_batch(e1, probe), predict_margin_batch(e2, probe))


def test_serialization_roundtrip_exact():
    rng = np.random.default_rng(6)
    x = rng.random((50, 10))
    y = (x[:, 0] > 0.4).astype(float)
    ens = train(x, y, GbdtConfig(), client=9)
    s = ensemble_to_json(ens)
    back = ensemble_from_dict(json.loads(s))
    assert ensemble_to_json(back) == s
    assert back.client == 9
    assert back.base_score == ens.base_score
    assert np.array_equal(predict_margin_batch(back, x), predict_margin_batch(ens, x))
    # Wire format uses the compact node keys.
    d = json.loads(s)
    root = d["trees"][0]["root"]
    assert set(root) <= {"f", "t", "l", "r", "v"}


def test_tree_dict_holds_only_its_root():
    # A tree's depth bound is the config's, so the wire carries no max_depth;
    # a tree dict that still has one loads as before.
    x = np.random.default_rng(7).random((40, 10))
    ens = train(x, (x[:, 0] > 0.5).astype(float), GbdtConfig(trees_per_client=3), client=2)
    d = ensemble_to_dict(ens)
    assert [set(t) for t in d["trees"]] == [{"root"}] * 3
    old = dict(d, trees=[dict(t, max_depth=3) for t in d["trees"]])
    back = ensemble_from_dict(old)
    assert ensemble_to_dict(back) == d
    assert np.array_equal(predict_margin_batch(back, x), predict_margin_batch(ens, x))


def test_output_matrix_matches_vector_api():
    rng = np.random.default_rng(8)
    x = rng.random((25, 10))
    y = (x[:, 0] > 0.5).astype(float)
    forest = compile_forest([train(x, y, GbdtConfig(trees_per_client=2), client=c)
                             for c in (1, 2)])
    mat = per_tree_output_matrix(forest, x)
    assert mat.shape == (25, 4)
    for i in (0, 7, 24):
        assert np.array_equal(mat[i], per_tree_output_matrix(forest, x[i:i + 1])[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distinct_outputs_partition_rows_by_threshold_side(data):
    # The rows whose leaves' classes the slot step finds are one per
    # threshold code: their sides of the forest's splits are pairwise
    # distinct, and as many as the rows' distinct sides, so rows fall in
    # one code exactly when every split sends them the same way.  Rows share
    # an id exactly when their tree vectors are equal bit for bit; a forest
    # of single leaves gives every row one code.  The thresholds repeat across trees and
    # clients, include ±inf and a NaN (which sends every row right), and
    # the rows hold NaN, ±inf and values exactly at a threshold.
    n_features = data.draw(st.integers(1, 4))
    cuts = [-1.0, 0.0, 0.5, 2.0, np.inf, -np.inf, np.nan]
    values = [-1.0, -0.0, 0.0, 0.5, 0.25, 2.0, 3.0, np.nan, np.inf, -np.inf]

    def tree(depth):
        if depth == 0 or data.draw(st.integers(0, 3)) == 0:
            return {"v": data.draw(st.sampled_from([0.0, 0.5, -1.0]))}
        return {"f": data.draw(st.integers(0, n_features - 1)), "t": data.draw(st.sampled_from(cuts)),
                "l": tree(depth - 1), "r": tree(depth - 1)}

    t = data.draw(st.integers(1, 3))
    depth = data.draw(st.sampled_from([0, 3]))  # 0: a forest of single leaves
    ensembles = [ensemble_from_dict({"client": c, "base_score": 0.0,
                                     "trees": [{"root": tree(depth)} for _ in range(t)]})
                 for c in range(data.draw(st.integers(1, 3)))]
    x = np.array(data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_features,
                                             max_size=n_features), min_size=1, max_size=30)))
    forest = compile_forest(ensembles)
    walked = []
    step = gbdt._leaf_blocks

    def spy(m, codes, table):
        if table is m.classes:
            walked.append(codes.T.copy())
        return step(m, codes, table)

    with mock.patch.object(gbdt, "_leaf_blocks", spy):
        table, ids = gbdt.distinct_outputs(forest, x)
    assert ids.shape == (len(x),)
    splits = [(f, thr) for e in ensembles for i, (f, thr) in enumerate(zip(e.feature, e.threshold))
              if e.left[i] != i]

    def sides(rows):
        return [tuple(bool(row[f] < thr) for f, thr in splits) for row in rows]

    # The rows that found their leaves' classes, each as a row of x with its codes.
    row_of = {code.tobytes(): row for code, row in zip(gbdt._coded(forest, x)[1].T, x)}
    walked_sides = sides([row_of[code.tobytes()] for code in np.concatenate(walked)])
    assert len(set(walked_sides)) == len(walked_sides) == len(set(sides(x)))
    vectors = per_tree_output_matrix(compile_forest(ensembles), x)
    assert table[ids].tobytes() == vectors.tobytes()
    for i in range(len(x)):
        for j in range(len(x)):
            assert (ids[i] == ids[j]) == (vectors[i].tobytes() == vectors[j].tobytes())


def test_distinct_outputs_rejects_features_outside_rows():
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0,
                              "trees": [{"root": {"f": 2, "t": 1.0, "l": {"v": 0.0},
                                                  "r": {"v": 1.0}}}]})
    with pytest.raises(ValueError, match="outside the 2 given"):
        gbdt.distinct_outputs(compile_forest([ens]), np.zeros((3, 2)))
    table, ids = gbdt.distinct_outputs(compile_forest([ens]), np.zeros((0, 3)))
    assert table.shape == (0, 1) and ids.shape == (0,)


def _random_tree(rng, depth, leaf_p, n_features, cuts, leaves) -> dict:
    """A wire-format tree of at most `depth` levels, each node below the
    root a leaf with probability leaf_p."""
    if depth == 0 or rng.random() < leaf_p:
        return {"v": float(rng.choice(leaves))}
    return {"f": int(rng.integers(n_features)), "t": float(rng.choice(cuts)),
            "l": _random_tree(rng, depth - 1, leaf_p, n_features, cuts, leaves),
            "r": _random_tree(rng, depth - 1, leaf_p, n_features, cuts, leaves)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leaf_slots_match_the_float_walk(data):
    # Oracle: the level-by-level float walk.  What the leaf masks give
    # equals it bit for bit: each tree's output, the margin summed in tree
    # order, and the table of distinct outputs.  Forests mix single-leaf
    # trees, zero clients (every tree one 0.0 leaf) and trees of up to 8
    # levels, whose up to 256 leaves take one mask word of 8 to 64 bits or
    # several 64-bit words.  Thresholds include NaN, ±inf and -0.0, leaves
    # -0.0, and rows NaN, ±inf and values at and between thresholds, or
    # there are no rows.  Small slot blocks take one row or a few.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_features = data.draw(st.integers(1, 4))
    cuts = np.concatenate([[np.nan, np.inf, -np.inf, -0.0, 0.5],
                           rng.normal(size=data.draw(st.sampled_from([2, 50])))])
    leaves = [0.0, -0.0, 0.5, -1.25, 3.0, 1e-300]
    ensembles = []
    for client in range(data.draw(st.integers(1, 4))):
        n_trees = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            trees = [{"v": 0.0}] * n_trees
        else:
            depth = data.draw(st.integers(0, 8))
            leaf_p = data.draw(st.sampled_from([0.0, 0.1, 0.4]))
            trees = [_random_tree(rng, depth, leaf_p, n_features, cuts, leaves)
                     for _ in range(n_trees)]
        ensembles.append(ensemble_from_dict({"client": client, "base_score": float(rng.normal()),
                                             "trees": [{"root": t} for t in trees]}))
    shape = (data.draw(st.sampled_from([0, 1, 30])), n_features)
    x = np.where(rng.random(shape) < 0.5, rng.choice(np.append(cuts, 1.0), shape),
                 rng.normal(size=shape))
    forest = compile_forest(ensembles)
    with mock.patch.object(gbdt, "_SLOT_BLOCK", data.draw(st.sampled_from([1, 7, 1 << 15]))):
        for e in [*ensembles, forest]:
            walked = leaf_values(e, x, e.value)
            assert per_tree_output_matrix(e, x).tobytes() == walked.tobytes()
            margin = np.full(len(x), e.base_score)
            for column in walked.T:
                margin += column
            assert predict_margin_batch(e, x).tobytes() == margin.tobytes()
        table, ids = gbdt.distinct_outputs(forest, x)
    assert table[ids].tobytes() == walked.tobytes()
    assert len({row.tobytes() for row in table}) == len(table)


def _full_tree(depth: int, lo: int = 0) -> dict:
    """A tree of 2**depth leaves on feature 0 that sends the integer value k
    in [lo, lo + 2**depth) to its k-th leaf, whose value is k."""
    if depth == 0:
        return {"v": float(lo)}
    half = 2 ** (depth - 1)
    return {"f": 0, "t": lo + half - 0.5, "l": _full_tree(depth - 1, lo),
            "r": _full_tree(depth - 1, lo + half)}


@pytest.mark.parametrize("depth, word, words", [
    (1, "u1", 1), (3, "u1", 1), (4, "u2", 1), (5, "u4", 1), (6, "u8", 1), (7, "u8", 2),
    (8, "u8", 4)])
def test_masks_take_the_narrowest_words_that_hold_the_leaves(depth, word, words):
    # Every leaf of a full tree, a single leaf beside it, is reached, the
    # ones on each side of a word's edge too, and the masks' words are the
    # narrowest unsigned type that holds 2**depth leaves, or 64-bit words
    # past 64 leaves.
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "trees": [
        {"root": {"v": -0.0}}, {"root": _full_tree(depth)}]})
    x = np.arange(2 ** depth, dtype=float)[:, None]
    assert per_tree_output_matrix(ens, x).tobytes() == np.column_stack(
        [np.full(len(x), -0.0), x[:, 0]]).tobytes()
    masks = gbdt._compiled(ens).always
    assert masks.dtype == np.dtype(word) and masks.shape == (1, words)


def test_each_ensemble_compiles_its_masks_once(monkeypatch):
    # `compile_forest` compiles the forest's masks, and a trained ensemble
    # compiles its own at its first prediction; no later call compiles
    # again.
    compiled = []
    compile_masks = gbdt._compile
    monkeypatch.setattr(gbdt, "_compile", lambda e: compiled.append(e) or compile_masks(e))
    rng = np.random.default_rng(9)
    x = rng.poisson(3.0, (60, 4)).astype(float)
    ens = train(x, (x[:, 0] > 3).astype(float), GbdtConfig(trees_per_client=3))
    forest = compile_forest([ens, ens])
    assert compiled == [forest]
    for _ in range(2):
        predict_margin_batch(ens, x)
        per_tree_output_matrix(ens, x[:5])
        per_tree_output_matrix(forest, x)
        gbdt.distinct_outputs(forest, x)
    assert compiled == [forest, ens]
