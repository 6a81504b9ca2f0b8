"""Random-forest regression on CART trees, built for determinism.

Trees are grown on bootstrap samples with per-node feature subsampling
(mtry). Numeric features split on thresholds; qualitative features split
on category subsets found by ordering categories by their node-mean target,
which is optimal for squared error.

Growth is level-wise. At each depth, every frontier node of a group of
trees is split in one pass: for each feature, the group's bootstrap rows are
ordered by (node, value) and each node's best split comes from segment-wise
cumulative sums. That order comes from presorted attribute lists (SLIQ,
Mehta, Agrawal & Rissanen 1996; SPRINT, Shafer, Agrawal & Mehta 1996): each
feature's rows are sorted by value once per group, and each depth reorders
them with a stable sort of the node ids alone, so equal values keep row
order. Ties go to the lowest split position within a feature and to the
lowest feature index across features. Nodes are numbered breadth-first
within a tree, and node k's mtry subset is the k-th draw from its tree's
stream, after that tree's bootstrap. Every tree has its own stream spawned
off the master seed, so a tree depends neither on fitting order nor on how
trees are grouped.

Once every bootstrap is drawn, a large forest grows in contiguous runs of
trees on the pool of `parallel`, joined in tree order, so the forest is
bit-identical to one grown in one process.

A fitted forest is one node table: the trees' nodes concatenated, a root
offset per tree and one categorical routing table. Prediction, the
out-of-bag error and permutation importance all walk it the same way: every
(tree, row) pair moves down one depth per step, in chunks of at most
GROUP_ROWS pairs, and per-row sums add the trees in tree order.

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
from .parallel import map_runs

# (tree, row) pairs handled at once: the bootstrap rows of one group of trees
# in the fit, one chunk of a walk; bounds memory
GROUP_ROWS = 2 ** 15
_WORKER_PAIRS = 25_000  # (tree, row) pairs per process at least, so under 50 000 none is forked


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
    """One tree of a forest as its own node lists: breadth-first, node 0 the
    root, children as indices into these lists."""
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray  # numeric splits
    left_cats: list        # categorical splits: sorted values routed left, else None
    left: np.ndarray       # -1 at a leaf
    right: np.ndarray
    value: np.ndarray      # node mean of the target

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left_cats": self.left_cats, "left": self.left.tolist(),
                "right": self.right.tolist(), "value": self.value.tolist()}


class NodeTable:
    """Every node of a forest in one set of arrays.

    Tree t holds nodes root[t] .. root[t + 1] - 1 in breadth-first order,
    its root first. child[k, 1] is node k's left child and child[k, 0] its
    right one, as indices into the whole table, so that a row goes on to
    child[k, go_left]; a leaf is both its own children. Categorical splits
    route through one table over the union of the values they send left:
    node k sends value cat_values[j] left when cat_left[cat_row[k], j]
    holds (cat_row is -1 at the other nodes).
    """

    def __init__(self, root, feature, threshold, child, value, left_cats: dict):
        """`left_cats` maps each categorical split node to the values it
        sends left."""
        self.root, self.feature, self.threshold = root, feature, threshold
        self.child, self.value = child, value
        nodes = sorted(left_cats)
        self.cat_values = np.unique(np.concatenate(
            [left_cats[k] for k in nodes] or [np.empty(0)]))
        self.cat_row = np.full(feature.size, -1, dtype=np.intp)
        self.cat_row[nodes] = np.arange(len(nodes))
        self.cat_left = np.zeros((len(nodes), self.cat_values.size), dtype=bool)
        for i, k in enumerate(nodes):
            self.cat_left[i, np.searchsorted(self.cat_values, left_cats[k])] = True
        self._reads = np.maximum(feature, 0)  # the feature a node tests, 0 at a leaf
        self._depth = 0  # edges from a root to the deepest leaf
        level = root[:-1]
        while (level := level[feature[level] >= 0]).size:
            level = np.unique(child[level])
            self._depth += 1

    @classmethod
    def concat(cls, blocks) -> "NodeTable":
        """The table of blocks of whole trees laid end to end. A block is
        (node count per tree, feature, threshold, child, value, left_cats),
        with child entries and left_cats keys indexing the block's nodes."""
        sizes, feature, threshold, child, value, cats = zip(*blocks)
        start = np.cumsum([0] + [f.size for f in feature])  # first node of each block
        return cls(np.concatenate(([0], np.cumsum(np.concatenate(sizes)))),
                   np.concatenate(feature), np.concatenate(threshold),
                   np.concatenate([c + s for c, s in zip(child, start)]),
                   np.concatenate(value),
                   {int(s) + k: v for s, c in zip(start, cats) for k, v in c.items()})

    @classmethod
    def from_trees(cls, trees: list) -> "NodeTable":
        """The table of per-tree node lists laid out as `Tree.to_dict` writes them."""
        blocks = []
        for t in trees:
            feature = np.asarray(t["feature"], dtype=np.intp)
            inner, own = feature >= 0, np.arange(feature.size)
            child = np.column_stack([np.where(inner, np.asarray(t[side], dtype=np.intp), own)
                                     for side in ("right", "left")])
            blocks.append(([feature.size], feature, np.asarray(t["threshold"], dtype=float),
                           child, np.asarray(t["value"], dtype=float),
                           {k: c for k, c in enumerate(t["left_cats"]) if c is not None}))
        return cls.concat(blocks)

    @property
    def n_trees(self) -> int:
        return self.root.size - 1

    def tree(self, t: int) -> Tree:
        """Tree t with tree-local node indices."""
        a, b = self.root[t], self.root[t + 1]
        left_cats = [None] * (b - a)
        for k in np.flatnonzero(self.cat_row[a:b] >= 0):
            left_cats[k] = self.cat_values[self.cat_left[self.cat_row[a + k]]].tolist()
        inner = self.feature[a:b] >= 0
        right, left = (np.where(inner, c - a, -1) for c in self.child[a:b].T)
        return Tree(self.feature[a:b], self.threshold[a:b], left_cats, left, right,
                    self.value[a:b])

    def leaves(self, X: np.ndarray, tree: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Value of the leaf that each pair (tree[i], X[row[i]]) reaches. All
        pairs move down one depth per step, as many steps as the deepest tree
        is deep; a pair at a leaf stays there."""
        flat = np.ascontiguousarray(X, dtype=float).ravel()  # X[i, f] is flat[i * p + f]
        at = row * X.shape[1]
        child = self.child.ravel()  # node k's children at 2k (right) and 2k + 1 (left)
        node = self.root[tree]
        for _ in range(self._depth):
            xv = flat[at + self._reads[node]]
            go_left = xv <= self.threshold[node]
            if self.cat_left.shape[0]:  # some node splits on categories
                cat_row = self.cat_row[node]
                on = cat_row >= 0
                # a value unseen in training goes right
                vals, xc = self.cat_values, xv[on]
                pos = np.minimum(np.searchsorted(vals, xc), vals.size - 1)
                go_left[on] = (vals[pos] == xc) & self.cat_left[cat_row[on], pos]
            node = child[2 * node + go_left]
        return self.value[node]

    def tree_sums(self, X: np.ndarray, use: np.ndarray | None = None) -> np.ndarray:
        """Per row of X, the sum over trees, in tree order, of the leaf values
        reached, counting tree t for row i only where use[t, i] holds (every
        tree by default). Rows go in chunks of at most GROUP_ROWS pairs."""
        n_trees, n = self.n_trees, X.shape[0]
        total = np.zeros(n)
        step = max(1, GROUP_ROWS // n_trees)
        for lo in range(0, n, step):
            on = np.ones((n_trees, min(step, n - lo)), dtype=bool) if use is None \
                else use[:, lo:lo + step]
            tree, row = np.nonzero(on)
            leaf = np.zeros(on.shape)
            leaf[on] = self.leaves(X, tree, lo + row)
            # a cumulative sum adds tree by tree, as a loop over trees would
            total[lo:lo + step] += np.cumsum(leaf, axis=0)[-1]
        return total


def _best_splits(levels, cat_idx, ys, value, row, node, slots, min_leaf):
    """Best split of every frontier node over the features it may use.

    `levels[f]` holds feature f's sorted distinct values and each sample's
    index into them. Slots (bootstrap rows) are given by sample `row`,
    target `ys` and frontier `node`; `value` is each node's mean target and
    `slots[f]` lists the slots of the nodes that may split on feature f,
    ordered by (node, value, slot). Returns per node the winning feature
    (-1: no valid split) and numeric threshold (0 unless a numeric feature
    wins), and per categorical feature the sorted keys node * n_values +
    code routed left.
    """
    nf = value.size
    best = np.full(nf, -np.inf)
    best_f = np.full(nf, -1, dtype=np.intp)
    thr = np.zeros(nf)
    left_keys = {}
    yc = ys - value[node]  # centred per node, so cumulative sums stay small
    for f, s in enumerate(slots):
        if s.size == 0:
            continue
        nd, yv = node[s], yc[s]
        vals, codes = levels[f][0], levels[f][1][row[s]]
        if f in cat_idx:
            key = nd * vals.size + codes
            _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
            group_mean = np.bincount(inv, weights=ys[s]) / cnt
            # categories ordered by their node mean, ties by category value
            order = np.lexsort((codes, group_mean[inv], nd))
            nd, yv, xk = nd[order], yv[order], codes[order]
            boundary = xk[:-1] != xk[1:]
        else:
            xk = vals[codes]
            boundary = xk[:-1] < xk[1:]
        cs = np.cumsum(yv)
        # a split after sorted position i sends positions first..i left
        cnt = np.bincount(nd, minlength=nf)
        first = np.cumsum(cnt) - cnt
        cs0 = np.concatenate(([0.0], cs))
        tot = cs0[first + cnt] - cs0[first]
        i = np.flatnonzero(boundary & (nd[:-1] == nd[1:]))
        k = nd[i]
        n_left = i + 1 - first[k]
        n_right = cnt[k] - n_left
        ok = np.flatnonzero((n_left >= min_leaf) & (n_right >= min_leaf))
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


def _radix_argsort(keys, n):
    """Stable argsort of integer keys in 0..n - 1. On the narrowest unsigned
    type that holds them, numpy sorts keys of up to 16 bits by radix."""
    return np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")


def _grow_trees(X, y, levels, cat_idx, boots, rngs, mtry, params):
    """Grow one tree per bootstrap, all frontier nodes of a depth at once.
    Returns the trees as one block of nodes (see NodeTable.concat)."""
    n_trees, p = len(boots), X.shape[1]
    row = np.concatenate(boots)
    node = np.repeat(np.arange(n_trees), boots[0].size)  # slots stay sorted by node
    tree_of = np.arange(n_trees)                         # tree of each frontier node
    # per feature, the slots sorted by value, ties by slot: sorted once, then
    # each depth drops the slots of finished nodes and renumbers the rest
    by_value = [_radix_argsort(codes[row], vals.size) for vals, codes in levels]
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
        # a stable sort by node keeps each node's slots in (value, slot) order
        slots = []
        for f, s in enumerate(by_value):
            nd = node[s]
            on = np.flatnonzero(use[nd, f])
            slots.append(s[on][_radix_argsort(nd[on], nf)])
        best_f, thr, left_keys = _best_splits(levels, cat_idx, ys, value, row, node,
                                              slots, params.min_leaf)
        split = best_f >= 0
        left_cats = {}
        for f, keys in left_keys.items():
            vals = levels[f][0]
            for k in np.flatnonzero(best_f == f):
                lo, hi = np.searchsorted(keys, [k * vals.size, (k + 1) * vals.size])
                left_cats[int(k)] = vals[keys[lo:hi] - k * vals.size].tolist()
        # children of the k-th splitting node are 2k and 2k + 1 of the next frontier
        first_child = np.where(split, 2 * (np.cumsum(split) - 1), -1)
        frontiers.append((tree_of, best_f, thr, left_cats, value, first_child))

        n_slots, kept = node.size, np.flatnonzero(split[node])
        row, node = row[kept], node[kept]
        f = best_f[node]
        go_left = X[row, f] <= thr[node]
        for g, keys in left_keys.items():
            on = f == g
            vals, codes = levels[g]
            go_left[on] = np.isin(node[on] * vals.size + codes[row[on]], keys)
        child = first_child[node] + ~go_left
        order = _radix_argsort(child, 2 * nf)
        row, node = row[order], child[order]
        renumber = np.full(n_slots, -1)
        renumber[kept[order]] = np.arange(order.size)
        by_value = [s[np.flatnonzero(s >= 0)] for s in (renumber[s] for s in by_value)]
        tree_of = np.repeat(tree_of[split], 2)
        depth += 1
    return _assemble(frontiers, n_trees)


def _assemble(frontiers, n_trees):
    """The block of the trees grown depth by depth in `frontiers`."""
    tree_of, feature, threshold, left_cats, value, first_child = zip(*frontiers)
    # left child's index into the concatenated frontiers, -1 at a leaf
    size = [t.size for t in tree_of]
    offsets = np.cumsum(size)
    child = np.concatenate([np.where(fc >= 0, off + fc, -1)
                            for off, fc in zip(offsets, first_child)])
    tree_of = np.concatenate(tree_of)
    order = _radix_argsort(tree_of, n_trees)  # per tree, breadth-first
    at = np.empty(order.size, dtype=np.intp)  # block index of each frontier node
    at[order] = np.arange(order.size)
    child = child[order]
    # each node's (right, left) children as block indices, a leaf its own
    inner, own = child >= 0, np.arange(order.size)
    child = np.column_stack([np.where(inner, at[child + 1], own), np.where(inner, at[child], own)])
    cats = {int(at[off - n + k]): c for off, n, level in zip(offsets, size, left_cats)
            for k, c in level.items()}
    feature, threshold, value = (np.concatenate(a)[order] for a in (feature, threshold, value))
    return np.bincount(tree_of, minlength=n_trees), feature, threshold, child, value, cats


@dataclass
class Forest:
    """A fitted forest. `table` holds every node; `trees` gives each tree
    with its own node indices, for persistence and inspection."""
    table: NodeTable
    feature_names: list
    categorical: frozenset
    params: ForestParams
    seed: int | None
    oob_error: float
    y_min: float
    y_max: float
    inbag: np.ndarray | None = None  # (n_trees, n) bool, training-time only

    @property
    def trees(self) -> list:
        return [self.table.tree(t) for t in range(self.table.n_trees)]

    def _align(self, X, names):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if names is not None and list(names) != list(self.feature_names):
            cols = [list(names).index(f) for f in self.feature_names]
            X = X[:, cols]
        return X

    def predict(self, X: np.ndarray, names=None) -> np.ndarray:
        X = self._align(X, names)
        return self.table.tree_sums(X) / self.table.n_trees

    def predict_design(self, d: DesignMatrix) -> np.ndarray:
        return self.predict(d.X, d.feature_names)


def fit_random_forest(d: DesignMatrix, params: ForestParams | None = None,
                      seed: int = 0) -> Forest:
    if d.n == 0 or d.p == 0:
        raise EmptyDesign("design matrix has no rows or no features")
    params = params or ForestParams()
    if params.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    mtry = params.resolve_mtry(d.p)
    cat_idx = frozenset(d.feature_names.index(f) for f in d.categorical)
    levels = [np.unique(d.X[:, f], return_inverse=True) for f in range(d.p)]
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(ss) for ss in root.spawn(params.n_trees)]
    boots = [rng.integers(0, d.n, size=d.n) for rng in rngs]
    inbag = np.zeros((params.n_trees, d.n), dtype=bool)
    for t, boot in enumerate(boots):
        inbag[t, boot] = True
    group = max(1, GROUP_ROWS // d.n)

    def grow(trees):
        """The blocks of a run of trees, grown a group at a time."""
        return [_grow_trees(d.X, d.y, levels, cat_idx, boots[g:min(g + group, trees.stop)],
                            rngs[g:min(g + group, trees.stop)], mtry, params)
                for g in range(trees.start, trees.stop, group)]

    runs = map_runs(grow, params.n_trees, params.n_trees * d.n, _WORKER_PAIRS)
    table = NodeTable.concat([block for run in runs for block in run])
    del runs  # the table holds their nodes; free them before the out-of-bag walk

    # out-of-bag error over samples covered by at least one tree
    oob_sum = table.tree_sums(d.X, ~inbag)
    oob_cnt = np.sum(~inbag, axis=0)
    covered = oob_cnt > 0
    if covered.any():
        oob_pred = oob_sum[covered] / oob_cnt[covered]
        oob_error = float(np.mean((d.y[covered] - oob_pred) ** 2))
    else:
        oob_error = float("nan")
    seed_tag = int(seed) if isinstance(seed, (int, np.integer)) else None
    return Forest(table, list(d.feature_names), frozenset(d.categorical), params,
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
    the forest never splits on scores exactly 0. Trees are walked in groups
    of at most GROUP_ROWS (tree, row) pairs, each tree's out-of-bag rows once
    as they are and once per permuted feature.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    params = params or ForestParams()
    var_floor = 1e-12 * max(float(np.var(d.y)), 1.0)
    streams = np.random.SeedSequence(seed).spawn(repetitions)
    per_rep = np.zeros((repetitions, d.p))
    group = max(1, GROUP_ROWS // ((d.p + 1) * d.n))
    for r, ss in enumerate(streams):
        forest_ss, perm_ss = ss.spawn(2)
        forest = fit_random_forest(d, params, seed=forest_ss)
        rng = np.random.default_rng(perm_ss)
        oob = [np.flatnonzero(~b) for b in forest.inbag]
        used = [t for t, rows in enumerate(oob) if rows.size >= 2]
        increases = np.zeros((len(used), d.p))
        for g in range(0, len(used), group):
            trees = used[g:g + group]
            blocks = []
            for t in trees:
                # permutations are drawn tree by tree, feature by feature
                Xo = d.X[oob[t]]
                Xp = np.repeat(Xo[None], d.p + 1, axis=0)
                for j in range(d.p):
                    Xp[j + 1, :, j] = Xo[rng.permutation(oob[t].size), j]
                blocks.append(Xp.reshape(-1, d.p))
            sizes = [b.shape[0] for b in blocks]
            leaf = forest.table.leaves(np.concatenate(blocks), np.repeat(trees, sizes),
                                       np.arange(sum(sizes)))
            for i, (t, pred) in enumerate(zip(trees, np.split(leaf, np.cumsum(sizes)[:-1]))):
                mse = np.mean((d.y[oob[t]] - pred.reshape(d.p + 1, -1)) ** 2, axis=1)
                increases[g + i] = (mse[1:] - mse[0]) / max(mse[0], var_floor)
        per_rep[r] = 100.0 * increases.mean(axis=0)
    return ImportanceResult(list(d.feature_names), per_rep.mean(axis=0),
                            per_rep.std(axis=0), per_rep)
