"""Random-forest regression on CART trees, built for determinism.

Trees are grown on bootstrap samples with per-node feature subsampling
(mtry). Numeric features split on thresholds; qualitative features split
on category subsets found by ordering categories by their node-mean target,
which is optimal for squared error.

Growth is level-wise. At each depth, every frontier node of a group of
trees is split in one pass: for each feature, the group's bootstrap rows are
ordered by (node, value) and each node's best split comes from segment-wise
cumulative sums. Ties go to the lowest split position within a feature and
to the lowest feature index across features. Nodes are numbered
breadth-first within a tree, and node k's mtry subset is the k-th draw from
its tree's stream, after that tree's bootstrap. Every tree has its own
stream spawned off the master seed, so a tree depends neither on fitting
order nor on how trees are grouped. Prediction moves all rows down a tree
one depth at a time.

Permutation importance (%IncMSE) follows the out-of-bag protocol: per tree,
the relative out-of-bag MSE increase after permuting one feature, averaged
over trees; the whole measurement can be repeated with fresh seeds to get
a mean and spread per feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDesign
from .linear import DesignMatrix

# bootstrap rows grown together in one group of trees; bounds fit memory
GROUP_ROWS = 2 ** 15


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    mtry: int | None = None   # None -> ceil(p / 3)
    min_leaf: int = 5
    max_depth: int | None = None

    def resolve_mtry(self, p: int) -> int:
        m = self.mtry if self.mtry is not None else math.ceil(p / 3)
        return max(1, min(m, p))


@dataclass(eq=False)
class Tree:
    """Nodes in breadth-first order; node 0 is the root."""
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray  # numeric splits
    left_cats: list        # categorical splits: sorted values routed left, else None
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray      # node mean of the target

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.intp)
        self.right = np.asarray(self.right, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=float)
        # categorical routing table: row per categorical node, column per value
        cat_nodes = [k for k, c in enumerate(self.left_cats) if c is not None]
        self._cat_values = np.unique(np.concatenate(
            [self.left_cats[k] for k in cat_nodes] or [np.empty(0)]))
        self._cat_row = np.full(self.feature.size, -1, dtype=np.intp)
        self._cat_row[cat_nodes] = np.arange(len(cat_nodes))
        self._cat_left = np.zeros((len(cat_nodes), self._cat_values.size), dtype=bool)
        for i, k in enumerate(cat_nodes):
            self._cat_left[i, np.searchsorted(self._cat_values, self.left_cats[k])] = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        live = np.arange(X.shape[0])  # rows not yet at a leaf
        while live.size:
            f = self.feature[node[live]]
            inner = f >= 0
            live, f = live[inner], f[inner]
            nd = node[live]
            xv = X[live, f]
            go_left = xv <= self.threshold[nd]
            cat_row = self._cat_row[nd]
            on = cat_row >= 0
            if on.any():
                # a value unseen in training goes right
                vals, xc = self._cat_values, xv[on]
                pos = np.minimum(np.searchsorted(vals, xc), vals.size - 1)
                go_left[on] = (vals[pos] == xc) & self._cat_left[cat_row[on], pos]
            node[live] = np.where(go_left, self.left[nd], self.right[nd])
        return self.value[node]

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left_cats": self.left_cats, "left": self.left.tolist(),
                "right": self.right.tolist(), "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(d["feature"], d["threshold"], list(d["left_cats"]),
                   d["left"], d["right"], d["value"])


def _best_splits(levels, cat_idx, ys, value, row, node, use, min_leaf):
    """Best split of every frontier node over the features it may use.

    `levels[f]` holds feature f's sorted distinct values and each sample's
    index into them. Slots (bootstrap rows) are given by sample `row`,
    target `ys` and frontier `node`, sorted by node; `value` is each node's
    mean target and `use[k, f]` says whether node k may split on feature f.
    Returns per node the winning feature (-1: no valid split) and numeric
    threshold (0 unless a numeric feature wins), and per categorical feature
    the sorted keys node * n_values + code routed left.
    """
    nf, p = use.shape
    best = np.full(nf, -np.inf)
    best_f = np.full(nf, -1, dtype=np.intp)
    thr = np.zeros(nf)
    left_keys = {}
    yc = ys - value[node]  # centred per node, so cumulative sums stay small
    for f in range(p):
        sel = use[node, f]
        if not sel.any():
            continue
        nd, yv = node[sel], yc[sel]
        vals, codes = levels[f][0], levels[f][1][row[sel]]
        key = nd * vals.size + codes
        if f in cat_idx:
            _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
            group_mean = np.bincount(inv, weights=ys[sel]) / cnt
            # categories ordered by their node mean, ties by category value
            order = np.lexsort((codes, group_mean[inv], nd))
            xk = codes[order]
            boundary = xk[:-1] != xk[1:]
        else:
            # same order as a stable lexsort by (node, value)
            order = np.argsort(key, kind="stable")
            xk = vals[codes[order]]
            boundary = xk[:-1] < xk[1:]
        nd, cs = nd[order], np.cumsum(yv[order])
        # a split after sorted position i sends positions first..i left
        cnt = np.bincount(nd, minlength=nf)
        first = np.cumsum(cnt) - cnt
        cs0 = np.concatenate(([0.0], cs))
        tot = cs0[first + cnt] - cs0[first]
        i = np.flatnonzero(boundary & (nd[:-1] == nd[1:]))
        k = nd[i]
        n_left = i + 1 - first[k]
        n_right = cnt[k] - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        i, k, n_left, n_right = i[ok], k[ok], n_left[ok], n_right[ok]
        if i.size == 0:
            continue
        s_left = cs[i] - cs0[first[k]]
        # between-child sum of squares: the SSE reduction of the split
        score = s_left ** 2 / n_left + (tot[k] - s_left) ** 2 / n_right
        heads = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        top = np.maximum.reduceat(score, heads)
        at_top = score == np.repeat(top, np.diff(np.append(heads, i.size)))
        win = i[np.minimum.reduceat(np.where(at_top, np.arange(i.size), i.size), heads)]
        k = k[heads]
        better = top > best[k]
        k, win = k[better], win[better]
        best[k] = top[better]
        best_f[k] = f
        if f in cat_idx:
            last = np.full(nf, -1)
            last[k] = win
            lft = np.arange(nd.size) <= last[nd]
            left_keys[f] = np.unique(nd[lft] * vals.size + xk[lft])
            thr[k] = 0.0
        else:
            lo, hi = xk[win], xk[win + 1]
            mid = 0.5 * (lo + hi)
            # the midpoint of adjacent floats may round up to `hi`
            thr[k] = np.where(mid < hi, mid, lo)
    return best_f, thr, left_keys


def _grow_trees(X, y, levels, cat_idx, boots, rngs, mtry, params):
    """Grow one tree per bootstrap, all frontier nodes of a depth at once."""
    n_trees, p = len(boots), X.shape[1]
    row = np.concatenate(boots)
    node = np.repeat(np.arange(n_trees), boots[0].size)  # slots stay sorted by node
    tree_of = np.arange(n_trees)                         # tree of each frontier node
    frontiers = []
    depth = 0
    while tree_of.size:
        nf = tree_of.size
        ys = y[row]
        cnt = np.bincount(node, minlength=nf)
        value = np.bincount(node, weights=ys, minlength=nf) / cnt
        first = np.cumsum(cnt) - cnt
        spread = np.maximum.reduceat(ys, first) - np.minimum.reduceat(ys, first)
        can_split = (cnt >= 2 * params.min_leaf) & (spread > 0)
        if params.max_depth is not None and depth >= params.max_depth:
            can_split[:] = False
        if mtry < p:
            # every node takes one draw, in breadth-first order within its tree
            per_tree = np.bincount(tree_of, minlength=n_trees)
            u = np.concatenate([rngs[t].random((m, p)) for t, m in enumerate(per_tree) if m])
            use = np.zeros((nf, p), dtype=bool)
            np.put_along_axis(use, np.argsort(u, axis=1)[:, :mtry], True, axis=1)
            use &= can_split[:, None]
        else:
            use = np.repeat(can_split[:, None], p, axis=1)
        best_f, thr, left_keys = _best_splits(levels, cat_idx, ys, value, row, node,
                                              use, params.min_leaf)
        split = best_f >= 0
        left_cats = [None] * nf
        for f, keys in left_keys.items():
            vals = levels[f][0]
            for k in np.flatnonzero(best_f == f):
                lo, hi = np.searchsorted(keys, [k * vals.size, (k + 1) * vals.size])
                left_cats[k] = vals[keys[lo:hi] - k * vals.size].tolist()
        # children of the k-th splitting node are 2k and 2k + 1 of the next frontier
        first_child = np.where(split, 2 * (np.cumsum(split) - 1), -1)
        frontiers.append((tree_of, best_f, thr, left_cats, value, first_child))

        keep = split[node]
        row, node = row[keep], node[keep]
        f = best_f[node]
        go_left = X[row, f] <= thr[node]
        for g, keys in left_keys.items():
            on = f == g
            vals, codes = levels[g]
            go_left[on] = np.isin(node[on] * vals.size + codes[row[on]], keys)
        child = first_child[node] + ~go_left
        order = np.argsort(child, kind="stable")
        row, node = row[order], child[order]
        tree_of = np.repeat(tree_of[split], 2)
        depth += 1
    return _assemble(frontiers, n_trees)


def _assemble(frontiers, n_trees):
    """Per-tree breadth-first node tables from the per-depth frontiers."""
    tree_of, feature, threshold, left_cats, value, first_child = zip(*frontiers)
    # left child's index into the concatenated frontiers, -1 at a leaf
    offsets = np.cumsum([t.size for t in tree_of])
    child = np.concatenate([np.where(fc >= 0, off + fc, -1)
                            for off, fc in zip(offsets, first_child)])
    tree_of, feature, threshold, value = (np.concatenate(a)
                                          for a in (tree_of, feature, threshold, value))
    left_cats = [c for level in left_cats for c in level]
    order = np.argsort(tree_of, kind="stable")  # per tree, breadth-first
    size = np.bincount(tree_of, minlength=n_trees)
    start = np.cumsum(size) - size
    local = np.empty(order.size, dtype=np.intp)
    local[order] = np.arange(order.size) - np.repeat(start, size)
    left = np.where(child >= 0, local[child], -1)
    right = np.where(child >= 0, local[child + 1], -1)
    trees = []
    for t in range(n_trees):
        ids = order[start[t]:start[t] + size[t]]
        trees.append(Tree(feature[ids], threshold[ids], [left_cats[i] for i in ids],
                          left[ids], right[ids], value[ids]))
    return trees


@dataclass
class Forest:
    trees: list
    feature_names: list
    categorical: frozenset
    params: ForestParams
    seed: int | None
    oob_error: float
    y_min: float
    y_max: float
    inbag: np.ndarray | None = None  # (n_trees, n) bool, training-time only

    def _align(self, X, names):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if names is not None and list(names) != list(self.feature_names):
            cols = [list(names).index(f) for f in self.feature_names]
            X = X[:, cols]
        return X

    def predict(self, X: np.ndarray, names=None) -> np.ndarray:
        X = self._align(X, names)
        acc = np.zeros(X.shape[0])
        for t in self.trees:
            acc += t.predict(X)
        return acc / len(self.trees)

    def predict_design(self, d: DesignMatrix) -> np.ndarray:
        return self.predict(d.X, d.feature_names)


def fit_random_forest(d: DesignMatrix, params: ForestParams | None = None,
                      seed: int = 0) -> Forest:
    if d.n == 0 or d.p == 0:
        raise EmptyDesign("design matrix has no rows or no features")
    params = params or ForestParams()
    mtry = params.resolve_mtry(d.p)
    cat_idx = frozenset(d.feature_names.index(f) for f in d.categorical)
    levels = [np.unique(d.X[:, f], return_inverse=True) for f in range(d.p)]
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(params.n_trees)
    trees = []
    inbag = np.zeros((params.n_trees, d.n), dtype=bool)
    group = max(1, GROUP_ROWS // d.n)
    for g in range(0, params.n_trees, group):
        rngs = [np.random.default_rng(ss) for ss in streams[g:g + group]]
        boots = [rng.integers(0, d.n, size=d.n) for rng in rngs]
        for t, boot in enumerate(boots, start=g):
            inbag[t, boot] = True
        trees += _grow_trees(d.X, d.y, levels, cat_idx, boots, rngs, mtry, params)

    # out-of-bag error over samples covered by at least one tree
    oob_sum = np.zeros(d.n)
    oob_cnt = np.zeros(d.n)
    for t, tree in enumerate(trees):
        rows = np.flatnonzero(~inbag[t])
        if rows.size:
            oob_sum[rows] += tree.predict(d.X[rows])
            oob_cnt[rows] += 1
    covered = oob_cnt > 0
    if covered.any():
        oob_pred = oob_sum[covered] / oob_cnt[covered]
        oob_error = float(np.mean((d.y[covered] - oob_pred) ** 2))
    else:
        oob_error = float("nan")
    seed_tag = int(seed) if isinstance(seed, (int, np.integer)) else None
    return Forest(trees, list(d.feature_names), frozenset(d.categorical), params,
                  seed_tag, oob_error, float(d.y.min()), float(d.y.max()), inbag)


@dataclass
class ImportanceResult:
    feature_names: list
    mean: np.ndarray            # %IncMSE per feature
    sd: np.ndarray
    per_repetition: np.ndarray  # (repetitions, p)


def rf_importance(d: DesignMatrix, params: ForestParams | None = None,
                  repetitions: int = 50, seed: int = 0) -> ImportanceResult:
    """%IncMSE per feature over `repetitions` independently seeded forests.

    Per tree: relative OOB MSE increase after permuting one feature's
    out-of-bag values, averaged over trees and scaled to percent. A feature
    the forest never splits on scores exactly 0.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    params = params or ForestParams()
    var_floor = 1e-12 * max(float(np.var(d.y)), 1.0)
    streams = np.random.SeedSequence(seed).spawn(repetitions)
    per_rep = np.zeros((repetitions, d.p))
    for r, ss in enumerate(streams):
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
            base = float(np.mean((d.y[rows] - tree.predict(Xo)) ** 2))
            denom = max(base, var_floor)
            for j in range(d.p):
                perm = rng.permutation(rows.size)
                Xp = Xo.copy()
                Xp[:, j] = Xo[perm, j]
                mse = float(np.mean((d.y[rows] - tree.predict(Xp)) ** 2))
                increases[t, j] = (mse - base) / denom
        per_rep[r] = 100.0 * increases[used].mean(axis=0)
    return ImportanceResult(list(d.feature_names), per_rep.mean(axis=0),
                            per_rep.std(axis=0), per_rep)
