import json
import re

import numpy as np
import pytest

from agbmap.errors import ConfigError, EmptyDesign
from agbmap.forest import Forest, ForestParams, fit_random_forest, rf_importance
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


def _bootstrap(n, seed, tree=0, n_trees=1):
    """Tree `tree`'s bootstrap rows: the first draw from its own stream."""
    ss = np.random.SeedSequence(seed).spawn(n_trees)[tree]
    return np.random.default_rng(ss).integers(0, n, size=n)


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
    for tree in f.trees:
        naive = [tree.value[_leaf_of(tree, x)] for x in Xq]
        assert np.array_equal(tree.predict(Xq), naive)


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
