import json
import re

import numpy as np
import pytest

from agbmap import forest as forest_module
from agbmap.errors import ConfigError, EmptyDesign
from agbmap.forest import GROUP_ROWS, Forest, ForestParams, fit_random_forest, rf_importance
from agbmap.linear import DesignMatrix
from agbmap.model_io import load_model, save_model

PARAMS = ForestParams(n_trees=40, min_leaf=3)


def dm(X, y, categorical=()):
    X = np.asarray(X, dtype=float)
    names = [f"x{j}" for j in range(X.shape[1])]
    return DesignMatrix(names, X, np.asarray(y, dtype=float), frozenset(categorical))


def test_constant_target_predicts_constant():
    rng = np.random.default_rng(0)
    d = dm(rng.normal(0, 1, (50, 3)), np.full(50, 7.5))
    f = fit_random_forest(d, PARAMS, seed=1)
    assert np.allclose(f.predict(d.X), 7.5)


def test_predictions_bounded_by_target_range():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (80, 2))
    y = rng.uniform(10, 90, 80)
    f = fit_random_forest(dm(X, y), PARAMS, seed=2)
    pred = f.predict(rng.normal(0, 3, (200, 2)))
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_leaf_means_within_target_range():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (60, 2))
    y = rng.uniform(-5, 5, 60)
    f = fit_random_forest(dm(X, y), PARAMS, seed=3)
    for tree in f.trees:
        leaves = [v for feat, v in zip(tree.feature, tree.value) if feat < 0]
        assert min(leaves) >= y.min() - 1e-12
        assert max(leaves) <= y.max() + 1e-12


def test_oob_beats_mean_predictor_on_smooth_function():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 4 * np.pi, 500))[:, None]
    y = np.sin(x[:, 0]) + rng.normal(0, 0.15, 500)
    f = fit_random_forest(dm(x, y), ForestParams(n_trees=80, min_leaf=5), seed=4)
    assert np.sqrt(f.oob_error) < np.std(y)  # mean-predictor RMSE baseline


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (60, 3))
    y = X[:, 0] + rng.normal(0, 0.3, 60)
    d = dm(X, y)
    f1 = fit_random_forest(d, PARAMS, seed=11)
    f2 = fit_random_forest(d, PARAMS, seed=11)
    assert np.array_equal(f1.predict(X), f2.predict(X))
    assert f1.oob_error == f2.oob_error
    f3 = fit_random_forest(d, PARAMS, seed=12)
    assert not np.array_equal(f1.predict(X), f3.predict(X))


def test_empty_design_rejected():
    with pytest.raises(EmptyDesign):
        fit_random_forest(DesignMatrix([], np.empty((0, 0)), np.empty(0)), PARAMS)
    with pytest.raises(ValueError, match="n_trees must be >= 1"):
        fit_random_forest(dm(np.arange(10.0)[:, None], np.arange(10.0)), ForestParams(n_trees=0))


def test_categorical_subset_splits():
    rng = np.random.default_rng(5)
    cats = rng.integers(0, 4, 200).astype(float)
    means = {0.0: 10.0, 1.0: 50.0, 2.0: 12.0, 3.0: 48.0}
    y = np.array([means[c] for c in cats]) + rng.normal(0, 1, 200)
    X = np.column_stack([cats, rng.normal(0, 1, 200)])
    d = dm(X, y, categorical=["x0"])
    f = fit_random_forest(d, ForestParams(n_trees=30, min_leaf=5), seed=6)
    # categories 1 and 3 belong together despite not being threshold-adjacent
    pred = f.predict(np.array([[c, 0.0] for c in (0.0, 1.0, 2.0, 3.0)]))
    assert abs(pred[1] - pred[3]) < 6
    assert pred[1] - pred[0] > 25
    assert any(t.left_cats[0] is not None or any(lc is not None for lc in t.left_cats)
               for t in f.trees)


def test_importance_ranks_signal_over_noise():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (120, 3))
    y = X[:, 0] + rng.normal(0, 0.3, 120)
    imp = rf_importance(dm(X, y), ForestParams(n_trees=40), repetitions=10, seed=7)
    wins = np.mean(imp.per_repetition[:, 0] > imp.per_repetition[:, 1])
    assert wins >= 0.95
    assert imp.mean[0] > imp.mean[1]
    assert imp.per_repetition.shape == (10, 3)


def test_importance_duplicated_feature_still_beats_noise():
    rng = np.random.default_rng(7)
    base = rng.normal(0, 1, 150)
    X = np.column_stack([base, base, rng.normal(0, 1, 150)])
    y = 2 * base + rng.normal(0, 0.3, 150)
    imp = rf_importance(dm(X, y), ForestParams(n_trees=50), repetitions=8, seed=8)
    assert imp.mean[0] > imp.mean[2]
    assert imp.mean[1] > imp.mean[2]


def test_importance_of_unused_feature_is_zero():
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.normal(0, 1, 100), np.zeros(100)])
    y = 3 * X[:, 0] + rng.normal(0, 0.2, 100)
    imp = rf_importance(dm(X, y), ForestParams(n_trees=30), repetitions=3, seed=9)
    assert imp.mean[1] == 0.0  # constant column is never split on


def test_forest_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    cats = rng.integers(0, 3, 80).astype(float)
    X = np.column_stack([rng.normal(0, 1, 80), cats])
    y = X[:, 0] + (cats == 2) * 5 + rng.normal(0, 0.2, 80)
    d = dm(X, y, categorical=["x1"])
    f = fit_random_forest(d, ForestParams(n_trees=15, min_leaf=4), seed=10)
    p1 = tmp_path / "f1.json"
    p2 = tmp_path / "f2.json"
    save_model(f, p1)
    loaded = load_model(p1)
    assert isinstance(loaded, Forest)
    assert np.array_equal(loaded.predict(X), f.predict(X))
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["trees"][1].pop("left"), "missing key 'trees[1].left'"),
    (lambda doc: doc["trees"][2]["feature"].__setitem__(0, 0.5),
     "key 'trees[2].feature[0]' must be int, got 0.5"),
    (lambda doc: doc["params"].__setitem__("n_trees", "3"),
     "key 'params.n_trees' must be int, got '3'"),
    (lambda doc: doc.pop("y_max"), "missing key 'y_max'"),
    # a node that is its own child made predict loop for ever
    (lambda doc: doc["trees"][0]["left"].__setitem__(0, 0),
     "key 'trees[0].left[0]' must be in 1.."),
    (lambda doc: doc["trees"][0]["right"].__setitem__(0, 999),
     "key 'trees[0].right[0]' must be in 1.."),
    (lambda doc: doc["trees"][0]["feature"].__setitem__(0, 7),
     "key 'trees[0].feature[0]' must be < 2, got 7"),
    (lambda doc: doc["trees"][1]["value"].pop(), "key 'trees[1].value' must be a list of "),
    (lambda doc: doc["trees"][2].update({k: [] for k in doc["trees"][2]}),
     "key 'trees[2].feature' must be a non-empty list, got []"),
    (lambda doc: doc.__setitem__("trees", []), "key 'trees' must be a non-empty list, got []"),
])
def test_load_model_bad_forest_key_names_key(tmp_path, edit, message):
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (40, 2))
    p = tmp_path / "f.json"
    save_model(fit_random_forest(dm(X, X[:, 0]), ForestParams(n_trees=3), seed=1), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}: {message}')}"):
        load_model(p)


def test_load_model_rejects_categorical_split_sending_nothing_left(tmp_path):
    # a hand-written three-node forest; with no value routed left, predict
    # indexed an empty category list
    doc = {"format": "agbmap-model", "version": 1, "kind": "forest",
           "params": {"n_trees": 1, "mtry": None, "min_leaf": 1, "max_depth": None},
           "seed": 0, "oob_error": 0.0, "feature_names": ["c"], "categorical": ["c"],
           "y_min": 0.0, "y_max": 1.0,
           "trees": [{"feature": [0, -1, -1], "threshold": [0, 0, 0],
                      "left_cats": [[], None, None], "left": [1, -1, -1],
                      "right": [2, -1, -1], "value": [0.5, 0.0, 1.0]}]}
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    message = "key 'trees[0].left_cats[0]' must be null or a non-empty list, got []"
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_model(p)
    doc["trees"][0]["left_cats"][0] = [1.0]
    p.write_text(json.dumps(doc))
    assert load_model(p).predict(np.array([[1.0], [2.0]])).tolist() == [0.0, 1.0]


def _bootstrap(n, seed, tree=0, n_trees=1):
    """Tree `tree`'s bootstrap rows: the first draw from its own stream."""
    ss = np.random.SeedSequence(seed).spawn(n_trees)[tree]
    return np.random.default_rng(ss).integers(0, n, size=n)


def oracle_tree_predict(tree, X):
    """Leaf values of one tree for the rows of X: the per-tree depth loop,
    with its own categorical routing table, that prediction used before the
    forest kept one node table."""
    cat_nodes = [k for k, c in enumerate(tree.left_cats) if c is not None]
    cat_values = np.unique(np.concatenate([tree.left_cats[k] for k in cat_nodes]
                                          or [np.empty(0)]))
    cat_row = np.full(tree.feature.size, -1, dtype=np.intp)
    cat_row[cat_nodes] = np.arange(len(cat_nodes))
    cat_left = np.zeros((len(cat_nodes), cat_values.size), dtype=bool)
    for i, k in enumerate(cat_nodes):
        cat_left[i, np.searchsorted(cat_values, tree.left_cats[k])] = True
    node = np.zeros(X.shape[0], dtype=np.intp)
    live = np.arange(X.shape[0])  # rows not yet at a leaf
    while live.size:
        f = tree.feature[node[live]]
        inner = f >= 0
        live, f = live[inner], f[inner]
        nd = node[live]
        xv = X[live, f]
        go_left = xv <= tree.threshold[nd]
        on = cat_row[nd] >= 0
        if on.any():
            # a value unseen in training goes right
            xc = xv[on]
            pos = np.minimum(np.searchsorted(cat_values, xc), cat_values.size - 1)
            go_left[on] = (cat_values[pos] == xc) & cat_left[cat_row[nd][on], pos]
        node[live] = np.where(go_left, tree.left[nd], tree.right[nd])
    return tree.value[node]


def oracle_predict(forest, X):
    """Forest prediction as a sum over trees, one tree at a time."""
    acc = np.zeros(X.shape[0])
    for tree in forest.trees:
        acc += oracle_tree_predict(tree, X)
    return acc / len(forest.trees)


def oracle_oob_error(forest, d):
    """Out-of-bag MSE with one per-tree walk per tree."""
    oob_sum = np.zeros(d.n)
    oob_cnt = np.zeros(d.n)
    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(~forest.inbag[t])
        if rows.size:
            oob_sum[rows] += oracle_tree_predict(tree, d.X[rows])
            oob_cnt[rows] += 1
    covered = oob_cnt > 0
    return float(np.mean((d.y[covered] - oob_sum[covered] / oob_cnt[covered]) ** 2))


def oracle_importance(d, params, repetitions, seed):
    """rf_importance's per-repetition %IncMSE, one tree and one permuted
    feature at a time."""
    var_floor = 1e-12 * max(float(np.var(d.y)), 1.0)
    per_rep = np.zeros((repetitions, d.p))
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(repetitions)):
        forest_ss, perm_ss = ss.spawn(2)
        forest = fit_random_forest(d, params, seed=forest_ss)
        rng = np.random.default_rng(perm_ss)
        increases = np.zeros((len(forest.trees), d.p))
        used = np.zeros(len(forest.trees), dtype=bool)
        for t, tree in enumerate(forest.trees):
            rows = np.flatnonzero(~forest.inbag[t])
            if rows.size < 2:
                continue
            used[t] = True
            Xo = d.X[rows]
            base = float(np.mean((d.y[rows] - oracle_tree_predict(tree, Xo)) ** 2))
            denom = max(base, var_floor)
            for j in range(d.p):
                perm = rng.permutation(rows.size)
                Xp = Xo.copy()
                Xp[:, j] = Xo[perm, j]
                mse = float(np.mean((d.y[rows] - oracle_tree_predict(tree, Xp)) ** 2))
                increases[t, j] = (mse - base) / denom
        per_rep[r] = 100.0 * increases[used].mean(axis=0)
    return per_rep


def _categorical_design(n, seed):
    """A numeric column with heavy ties, a categorical column with rare
    categories (so bootstraps see different subsets of them) and a
    continuous column."""
    rng = np.random.default_rng(seed)
    cats = rng.choice(8, size=n, p=[0.3, 0.25, 0.2, 0.15, 0.05, 0.03, 0.01, 0.01]).astype(float)
    X = np.column_stack([rng.integers(0, 5, n), cats, rng.normal(0, 1, n)]).astype(float)
    y = 2 * X[:, 0] + np.where(np.isin(cats, [1.0, 4.0, 6.0]), 6.0, 0.0) \
        + X[:, 2] + rng.normal(0, 0.5, n)
    return dm(X, y, categorical=["x1"])


def test_forest_walk_matches_per_tree_oracle():
    d = _categorical_design(300, 20)
    f = fit_random_forest(d, ForestParams(n_trees=40, min_leaf=2), seed=21)
    assert any(lc is not None for t in f.trees for lc in t.left_cats)
    rng = np.random.default_rng(22)
    # category 9 never occurs in training; rows x trees span two chunks
    Xq = np.column_stack([rng.integers(-1, 7, 1000), rng.integers(0, 10, 1000),
                          rng.normal(0, 2, 1000)]).astype(float)
    assert GROUP_ROWS < 40 * Xq.shape[0] < 2 * GROUP_ROWS
    assert np.array_equal(f.predict(Xq), oracle_predict(f, Xq))
    assert f.oob_error == oracle_oob_error(f, d)


@pytest.mark.parametrize("group_rows", [GROUP_ROWS, 1000])
def test_importance_matches_per_tree_oracle(monkeypatch, group_rows):
    # 1000 pairs walk one tree's out-of-bag rows and their permutations at a time
    monkeypatch.setattr(forest_module, "GROUP_ROWS", group_rows)
    d = _categorical_design(120, 23)
    params = ForestParams(n_trees=15, min_leaf=3)
    imp = rf_importance(d, params, repetitions=3, seed=24)
    assert np.array_equal(imp.per_repetition, oracle_importance(d, params, 3, 24))


def test_presorted_order_equals_composite_key_order(monkeypatch):
    """At every depth of every tree group, each feature's slots come in the
    order of a stable argsort of node * n_values + code: equal values keep
    slot order, so the cumulative sums add in the same order."""
    d = _categorical_design(300, 25)
    levels = [np.unique(d.X[:, f], return_inverse=True) for f in range(d.p)]
    calls = []

    def checked(levels_, cat_idx, ys, value, row, node, slots, min_leaf):
        for f, s in enumerate(slots):
            vals, codes = levels[f]
            sel = np.isin(node, node[s])  # every slot of the nodes that may use f
            key = node[sel] * vals.size + codes[row[sel]]
            assert np.array_equal(s, np.flatnonzero(sel)[np.argsort(key, kind="stable")])
        calls.append(value.size)
        return best_splits(levels_, cat_idx, ys, value, row, node, slots, min_leaf)

    def grow(*args):
        groups.append(len(calls))
        return grow_trees(*args)

    best_splits, grow_trees, groups = forest_module._best_splits, forest_module._grow_trees, []
    monkeypatch.setattr(forest_module, "_best_splits", checked)
    monkeypatch.setattr(forest_module, "_grow_trees", grow)
    monkeypatch.setattr(forest_module, "GROUP_ROWS", 2000)  # 6 trees of 300 rows a group
    fit_random_forest(d, ForestParams(n_trees=15, min_leaf=2), seed=26)
    assert [calls[i] for i in groups] == [6, 6, 3]  # each group's roots
    assert len(calls) > 3 * 5  # every group grows more than five levels


def test_forest_with_per_tree_category_subsets_round_trips(tmp_path):
    d = _categorical_design(200, 27)
    f = fit_random_forest(d, ForestParams(n_trees=20, min_leaf=2), seed=28)
    routed = [lc for t in f.trees for lc in t.left_cats if lc is not None]
    assert all(lc == sorted(set(lc)) for lc in routed)
    seen = {frozenset(v for lc in t.left_cats if lc is not None for v in lc) for t in f.trees}
    assert len(seen) > 1  # trees route different category subsets
    p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
    save_model(f, p1)
    loaded = load_model(p1)
    assert np.array_equal(loaded.predict(d.X), f.predict(d.X))
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _leaf_of(tree, x):
    """Naive walk of one row from the root to its leaf."""
    k = 0
    while tree.feature[k] >= 0:
        v = x[tree.feature[k]]
        cats = tree.left_cats[k]
        go_left = v in cats if cats is not None else v <= tree.threshold[k]
        k = tree.left[k] if go_left else tree.right[k]
    return k


def test_root_split_matches_brute_force():
    rng = np.random.default_rng(10)
    n, min_leaf = 70, 4
    X = rng.normal(0, 1, (n, 3))
    y = X[:, 1] ** 2 + 0.5 * X[:, 2] + rng.normal(0, 0.3, n)
    tree = fit_random_forest(dm(X, y), ForestParams(n_trees=1, mtry=3, min_leaf=min_leaf),
                             seed=12).trees[0]
    boot = _bootstrap(n, 12)
    Xb, yb = X[boot], y[boot]
    best = None
    for f in range(3):
        v = np.unique(Xb[:, f])
        for thr in 0.5 * (v[:-1] + v[1:]):
            left = Xb[:, f] <= thr
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            sse = np.sum((yb[left] - yb[left].mean()) ** 2) \
                + np.sum((yb[~left] - yb[~left].mean()) ** 2)
            if best is None or sse < best[0]:
                best = (sse, f, thr)
    assert (tree.feature[0], tree.threshold[0]) == best[1:]


def test_ties_go_to_lowest_position_then_lowest_feature():
    # mirror-symmetric target: splits after x = 0 and after x = 2 tie exactly,
    # and the duplicated column ties with the first on every split
    x = np.arange(4.0)
    d = dm(np.column_stack([x, x]), [0.0, 1.0, 1.0, 0.0])
    seed = next(s for s in range(1000) if np.array_equal(np.sort(_bootstrap(4, s)), np.arange(4)))
    tree = fit_random_forest(d, ForestParams(n_trees=1, mtry=2, min_leaf=1), seed=seed).trees[0]
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
    assert 1 not in tree.feature


def test_depth_loop_predict_matches_per_row_walk():
    rng = np.random.default_rng(11)
    cats = rng.integers(0, 5, 150).astype(float)
    X = np.column_stack([rng.normal(0, 1, 150), cats, rng.uniform(0, 1, 150)])
    y = X[:, 0] + np.where(np.isin(cats, [1.0, 3.0]), 4.0, 0.0) + rng.normal(0, 0.2, 150)
    f = fit_random_forest(dm(X, y, categorical=["x1"]), ForestParams(n_trees=12, min_leaf=3),
                          seed=13)
    assert any(lc is not None for t in f.trees for lc in t.left_cats)
    assert any(ft >= 0 and lc is None for t in f.trees for ft, lc in zip(t.feature, t.left_cats))
    # fresh rows, including a category never seen in training
    Xq = np.column_stack([rng.normal(0, 1.5, 80), rng.integers(0, 7, 80).astype(float),
                          rng.uniform(-0.2, 1.2, 80)])
    n_trees, n = len(f.trees), Xq.shape[0]
    tree_ids, rows = np.repeat(np.arange(n_trees), n), np.tile(np.arange(n), n_trees)
    naive = [t.value[_leaf_of(t, x)] for t in f.trees for x in Xq]
    assert np.array_equal(f.table.leaves(Xq, tree_ids, rows), naive)
    # the forest walk and the per-tree walk it replaced reach the same leaves
    assert np.array_equal(f.table.leaves(Xq, tree_ids, rows),
                          np.concatenate([oracle_tree_predict(t, Xq) for t in f.trees]))
    total = np.zeros(n)
    for t in f.trees:
        total += [t.value[_leaf_of(t, x)] for x in Xq]
    assert np.array_equal(f.predict(Xq), total / n_trees)


@pytest.mark.parametrize("max_depth", [None, 4])
def test_leaves_hold_min_leaf_rows_and_depth_bound(max_depth):
    rng = np.random.default_rng(12)
    n, min_leaf, n_trees = 200, 4, 6
    X = rng.normal(0, 1, (n, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] + rng.normal(0, 0.2, n)
    params = ForestParams(n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth)
    f = fit_random_forest(dm(X, y), params, seed=14)
    for t, tree in enumerate(f.trees):
        leaves = [_leaf_of(tree, X[i]) for i in _bootstrap(n, 14, t, n_trees)]
        counts = np.bincount(leaves, minlength=tree.feature.size)
        is_leaf = tree.feature < 0
        assert counts[is_leaf].min() >= min_leaf
        assert counts[~is_leaf].sum() == 0
        depth = np.zeros(tree.feature.size, dtype=int)
        for k in np.flatnonzero(~is_leaf):
            depth[[tree.left[k], tree.right[k]]] = depth[k] + 1
        assert np.all(np.diff(depth) >= 0)  # nodes are numbered breadth-first
        if max_depth is not None:
            assert depth.max() == max_depth


def test_tree_does_not_depend_on_grouping():
    rng = np.random.default_rng(13)
    n = 1000  # 40 trees of 1000 rows grow in two groups, 3 trees in one
    X = rng.normal(0, 1, (n, 4))
    y = X[:, 0] - X[:, 2] + rng.normal(0, 0.5, n)
    d = dm(X, y)
    many = fit_random_forest(d, ForestParams(n_trees=40, min_leaf=5), seed=15)
    few = fit_random_forest(d, ForestParams(n_trees=3, min_leaf=5), seed=15)
    for a, b in zip(many.trees[:3], few.trees):
        assert a.to_dict() == b.to_dict()


# ------------------------------------------------------------- forked growth

def test_forked_fit_equals_in_process_fit(monkeypatch, forks):
    d = _categorical_design(300, 29)
    params = ForestParams(n_trees=25, min_leaf=2)
    one = fit_random_forest(d, params, seed=30)
    assert forks == []
    monkeypatch.setattr(forest_module, "_WORKER_PAIRS", 600)  # two processes from 4 trees up
    monkeypatch.setattr(forest_module, "GROUP_ROWS", 2000)  # runs of 12 and 13 trees, 6 a group
    two = fit_random_forest(d, params, seed=30)
    assert forks == [1]
    assert any(lc is not None for t in two.trees for lc in t.left_cats)
    for name in ("root", "feature", "threshold", "child", "value", "cat_values", "cat_row",
                 "cat_left"):
        assert np.array_equal(getattr(one.table, name), getattr(two.table, name)), name
    assert np.array_equal(one.inbag, two.inbag)
    assert one.oob_error == two.oob_error
