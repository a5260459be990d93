import json

import numpy as np
import pytest

from advent import gbdt
from advent.gbdt import (
    GbdtConfig,
    ensemble_from_dict,
    ensemble_from_json,
    ensemble_to_dict,
    ensemble_to_json,
    per_tree_output_matrix,
    predict_margin_batch,
    train,
)


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
            thr = 0.5 * (lo + hi)
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
# Test-side references: a per-row walk of the JSON trees, and the argsort
# trainer the histogram split search replaced.


def walk(node: dict, row) -> float:
    while "v" not in node:
        node = node["l"] if row[node["f"]] < node["t"] else node["r"]
    return node["v"]


def walk_margins(ens_dict: dict, x) -> np.ndarray:
    """Per-row margins, adding the trees in order as production does."""
    total = np.full(len(x), ens_dict["base_score"])
    for t in ens_dict["trees"]:
        total += ens_dict["shrinkage"] * np.array([walk(t["root"], row) for row in x])
    return total


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
        candidates.append((f, float(0.5 * (xs[pos[i_best]] + xs[pos[i_best] + 1])),
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
    lam = cfg.lambda_l2
    if depth >= cfg.max_depth or len(x) < 2 * cfg.min_samples_leaf:
        return {"v": float(-g.sum() / (h.sum() + lam))}
    split = _argsort_best_split(x, g, h, cfg)
    if split is None:
        return {"v": float(-g.sum() / (h.sum() + lam))}
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
        trees.append({"max_depth": cfg.max_depth, "root": root})
        margins += cfg.shrinkage * np.array([walk(root, row) for row in x])
    return {"client": client, "base_score": base, "shrinkage": cfg.shrinkage, "trees": trees}


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
    root = ens.trees[0].root
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
    tree = {"f": 0, "t": 5.0, "l": {"v": -1.0}, "r": {"v": 1.0}}
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "shrinkage": 0.3,
                              "trees": [{"max_depth": 1, "root": tree}]})
    rows = np.zeros((3, 10))
    rows[:, 0] = [3.0, 7.0, 5.0]  # on the threshold goes right
    assert predict_margin_batch(ens, rows) == pytest.approx([-0.3, 0.3, 0.3])
    assert predict_margin_batch(ens, rows[1:2])[0] == pytest.approx(0.3)


def test_predict_dimension_error():
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "shrinkage": 0.3, "trees": []})
    with pytest.raises(ValueError):
        predict_margin_batch(ens, np.zeros(3))
    split_on_4 = {"f": 4, "t": 0.5, "l": {"v": -1.0}, "r": {"v": 1.0}}
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "shrinkage": 0.3,
                              "trees": [{"max_depth": 1, "root": split_on_4}]})
    assert predict_margin_batch(ens, np.zeros((2, 5))) == pytest.approx([-0.3, -0.3])
    for x in (np.zeros((2, 4)), np.zeros(5)):
        with pytest.raises(ValueError):
            predict_margin_batch(ens, x)
        with pytest.raises(ValueError):
            per_tree_output_matrix([ens], x)
    split_on_neg = dict(split_on_4, f=-1)
    ens = ensemble_from_dict({"client": 0, "base_score": 0.0, "shrinkage": 0.3,
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
    for column in per_tree_output_matrix([ens], x).T:
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
        root = ens.trees[0].root
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
        for tree, column in zip(ens.trees, per_tree_output_matrix([ens], x).T):
            g, h = logistic_gh(margins, y)
            stack = [(tree.root, np.arange(n), 0)]
            while stack:
                i, rows, depth = stack.pop()
                expected = None
                if depth < max_depth and len(rows) >= 2 * cfg.min_samples_leaf:
                    expected = brute_force_split(x[rows], g[rows], h[rows], cfg)
                if _is_leaf(ens, i):
                    assert expected is None
                    assert ens.value[i] == -g[rows].sum() / (h[rows].sum() + cfg.lambda_l2)
                    continue
                assert expected is not None
                assert (ens.feature[i], ens.threshold[i]) == (expected[1], expected[2])
                checked += 1
                goes_left = x[rows, ens.feature[i]] < ens.threshold[i]
                stack.append((ens.left[i], rows[goes_left], depth + 1))
                stack.append((ens.right[i], rows[~goes_left], depth + 1))
            margins += column
    assert checked > 100


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


@pytest.mark.parametrize("block", [None, 7, 40])
def test_apply_matches_json_walk(block, monkeypatch):
    # Oracle: a per-row recursive walk of the wire-format trees.  Small walk
    # blocks take one row, or three rows and a partial last block, at a time.
    if block is not None:
        monkeypatch.setattr(gbdt, "_WALK_BLOCK_NODES", block)
    rng = np.random.default_rng(40)
    ensembles = []
    for client, depth in enumerate((1, 3, 4), start=2):
        x = rng.poisson(3.0, (120, 6)).astype(float)
        y = (x[:, client] + rng.normal(0, 1, 120) > 3).astype(float)
        cfg = GbdtConfig(trees_per_client=4, max_depth=depth, shrinkage=0.1 * client)
        ensembles.append(train(x, y, cfg, client=client))
    # Probe rows hit every threshold exactly as well as values between them.
    probe = rng.poisson(3.0, (80, 6)).astype(float)
    probe[:10] += 0.5
    matrix = per_tree_output_matrix(ensembles[::-1], probe)
    assert matrix.shape == (80, 12) and matrix.flags.c_contiguous
    col = 0
    for e in ensembles:
        d = ensemble_to_dict(e)
        assert np.array_equal(predict_margin_batch(e, probe), walk_margins(d, probe))
        for t in d["trees"]:
            expected = [d["shrinkage"] * walk(t["root"], row) for row in probe]
            assert np.array_equal(matrix[:, col], expected)
            col += 1
        assert np.array_equal(predict_margin_batch(e, probe[:0]), np.empty(0))


def test_per_tree_outputs_single():
    x = np.random.default_rng(2).random((30, 10))
    y = (x[:, 0] > 0.5).astype(float)
    ens = train(x, y, GbdtConfig(trees_per_client=1), client=4)
    v = per_tree_output_matrix([ens], x[:1])
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(predict_margin_batch(ens, x[:1])[0] - ens.base_score)


def test_per_tree_outputs_ordering_and_permutation():
    rng = np.random.default_rng(3)
    x = rng.random((40, 10))
    y = (x[:, 1] > 0.5).astype(float)
    cfg = GbdtConfig(trees_per_client=3)
    e1 = train(x[:20], y[:20], cfg, client=1)
    e2 = train(x[20:], y[20:], cfg, client=2)
    row = x[5:6]
    v = per_tree_output_matrix([e2, e1], row)
    assert v.shape == (1, 6)
    assert np.array_equal(v, per_tree_output_matrix([e1, e2], row))
    assert np.allclose(v[:, :3], per_tree_output_matrix([e1], row))


def test_per_tree_outputs_ragged_rejected():
    x = np.random.default_rng(4).random((20, 10))
    y = (x[:, 0] > 0.5).astype(float)
    e1 = train(x, y, GbdtConfig(trees_per_client=2), client=1)
    e2 = train(x, y, GbdtConfig(trees_per_client=3), client=2)
    with pytest.raises(ValueError):
        per_tree_output_matrix([e1, e2], x[:1])


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
    back = ensemble_from_json(s)
    assert ensemble_to_json(back) == s
    assert back.client == 9
    assert back.base_score == ens.base_score
    assert np.array_equal(predict_margin_batch(back, x), predict_margin_batch(ens, x))
    # Wire format uses the compact node keys.
    d = json.loads(s)
    root = d["trees"][0]["root"]
    assert set(root) <= {"f", "t", "l", "r", "v"}


def test_output_matrix_matches_vector_api():
    rng = np.random.default_rng(8)
    x = rng.random((25, 10))
    y = (x[:, 0] > 0.5).astype(float)
    es = [train(x, y, GbdtConfig(trees_per_client=2), client=c) for c in (1, 2)]
    mat = per_tree_output_matrix(es, x)
    assert mat.shape == (25, 4)
    for i in (0, 7, 24):
        assert np.array_equal(mat[i], per_tree_output_matrix(es, x[i:i + 1])[0])
