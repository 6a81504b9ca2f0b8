"""Linear models: OLS, bidirectional BIC-stepwise selection, k-fold CV and
the model writer.

BIC is n*ln(RSS/n) + k*ln(n) with k counting the intercept. Inside the
BIC the RSS is floored at 1e-24 of the target's total sum of squares:
below that level residuals are pure floating-point noise, and clamping
them makes interpolating models compare by parameter count alone, so
stepwise still prunes redundant features from exact fits.

Every fit is an SVD of the design [1, X_s] with s features. The rank rule
is numpy's matrix_rank default: a design with n > s is fitted when every
singular value exceeds S.max() * max(n, s + 1) * eps, and the fit is then
the minimum-norm solution that lstsq returns.

Qualitative features enter through one-hot encoding with the first level
as reference; encoding happens inside the fitters and the fitted model
re-applies it at prediction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadK, RankDeficient

_RSS_FLOOR = 1e-300


@dataclass
class DesignMatrix:
    feature_names: list
    X: np.ndarray            # (n, p)
    y: np.ndarray            # (n,)
    categorical: frozenset = frozenset()

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X must be (n, p) with len(y) == n")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match X columns")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("design matrix holds non-finite values")
        self.categorical = frozenset(self.categorical)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(name)]

    def subset_rows(self, idx) -> "DesignMatrix":
        return DesignMatrix(list(self.feature_names), self.X[idx], self.y[idx],
                            self.categorical)


@dataclass
class OneHotEncoder:
    """Per-feature level lists; the first level of each is the reference."""
    levels: dict

    def encode(self, names, X):
        out_names = []
        cols = []
        for j, name in enumerate(names):
            if name in self.levels:
                levs = self.levels[name]
                for lev in levs[1:]:
                    out_names.append(f"{name}={lev:g}")
                    cols.append((X[:, j] == lev).astype(float))
            else:
                out_names.append(name)
                cols.append(X[:, j])
        mat = np.column_stack(cols) if cols else np.empty((X.shape[0], 0))
        return out_names, mat


def encode_categorical(d: DesignMatrix):
    """(encoded DesignMatrix, encoder or None)."""
    if not d.categorical:
        return d, None
    levels = {}
    for name in d.feature_names:
        if name in d.categorical:
            levels[name] = sorted(set(d.column(name).tolist()))
    enc = OneHotEncoder(levels)
    names, X = enc.encode(d.feature_names, d.X)
    return DesignMatrix(names, X, d.y), enc


@dataclass
class LinearModel:
    intercept: float
    coefficients: dict
    selected_features: list
    rss: float
    bic: float
    r2: float
    n: int
    encoder: OneHotEncoder | None = None
    raw_features: list = field(default_factory=list)

    def predict(self, X: np.ndarray, names=None) -> np.ndarray:
        """Predict for rows of X; `names` labels the columns of X.

        When the model was fitted with categorical features, X must carry
        the raw (un-encoded) columns and names.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if names is None:
            names = self.raw_features if self.encoder else list(self.coefficients)
        if self.encoder is not None:
            names, X = self.encoder.encode(list(names), X)
        out = np.full(X.shape[0], self.intercept)
        for fname, coef in self.coefficients.items():
            out += coef * X[:, names.index(fname)]
        return out

    def predict_design(self, d: DesignMatrix) -> np.ndarray:
        return self.predict(d.X, d.feature_names)


def save_model(model: LinearModel, path) -> None:
    """Write model to path as a versioned `agbmap-model` document: canonical
    JSON (sorted keys, no whitespace) in which floats keep every digit."""
    doc = {"format": "agbmap-model", "version": 1, "kind": "linear",
           "intercept": model.intercept, "coefficients": model.coefficients,
           "selected_features": model.selected_features,
           "rss": model.rss, "bic": model.bic, "r2": model.r2, "n": model.n,
           "raw_features": model.raw_features,
           "encoder": model.encoder.levels if model.encoder else None}
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def bic_score(n: int, rss: float, n_params: int, tss: float = 0.0) -> float:
    floor = max(1e-24 * tss, _RSS_FLOOR)
    return n * math.log(max(rss, floor) / n) + n_params * math.log(n)


def _fit_subsets(enc_d: DesignMatrix, subsets) -> list:
    """(beta, rss, bic) of y on [1, X_s] for each column subset s, in input
    order, or None where the rank rule rejects the design. Subsets of one
    size are solved as one stacked SVD."""
    n, y = enc_d.n, enc_d.y
    tss = float(np.sum((y - y.mean()) ** 2))
    out = [None] * len(subsets)
    for size in {len(s) for s in subsets if len(s) < n}:
        idx = np.array([i for i, s in enumerate(subsets) if len(s) == size])
        cols = np.array([subsets[i] for i in idx], dtype=int)
        A = np.concatenate([np.ones((len(idx), n, 1)),
                            enc_d.X[:, cols].transpose(1, 0, 2)], axis=2)
        U, S, Vt = np.linalg.svd(A, full_matrices=False)
        ok = np.all(S > S[:, :1] * max(n, size + 1) * np.finfo(float).eps, axis=1)
        A, U, S, Vt = A[ok], U[ok], S[ok], Vt[ok]
        beta = np.einsum("mji,mj->mi", Vt, (y @ U) / S)
        resid = y - np.einsum("mnk,mk->mn", A, beta)
        for i, b, r in zip(idx[ok], beta, np.einsum("mn,mn->m", resid, resid).tolist()):
            out[i] = (b, r, bic_score(n, r, size + 1, tss))
    return out


def _model(d: DesignMatrix, enc_d: DesignMatrix, enc, subset, fit) -> LinearModel:
    beta, rss, bic = fit
    names = [enc_d.feature_names[j] for j in subset]
    tss = float(np.sum((d.y - d.y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return LinearModel(float(beta[0]), dict(zip(names, beta[1:].tolist())), names,
                       rss, bic, r2, d.n, encoder=enc, raw_features=list(d.feature_names))


def _max_independent(enc_d: DesignMatrix, candidates) -> tuple:
    """Greedy maximal subset of columns independent of each other and the
    intercept; aliased columns drop out the way R's lm treats them."""
    kept = ()
    for j in candidates:
        if _fit_subsets(enc_d, [kept + (j,)])[0] is not None:
            kept += (j,)
    return kept


def fit_ols(d: DesignMatrix) -> LinearModel:
    """Least-squares fit on all non-constant features.

    Constant columns alias the intercept and are excluded; a column aliased
    with the intercept and the columns before it is dropped too, greedily
    in column order, the way R's lm drops aliased columns.
    """
    enc_d, enc = encode_categorical(d)
    keep = _max_independent(enc_d, [j for j in range(enc_d.p)
                                    if np.ptp(enc_d.X[:, j]) > 0])
    return _model(d, enc_d, enc, keep, _fit_subsets(enc_d, [keep])[0])


def _descend(enc_d: DesignMatrix, nonconst, start):
    """Bidirectional single-feature descent from one starting subset."""
    current = start
    state = _fit_subsets(enc_d, [current])[0]
    while True:
        moves = [tuple(f for f in current if f != j) for j in current]
        moves += [tuple(sorted(current + (j,))) for j in nonconst if j not in current]
        fits = _fit_subsets(enc_d, moves)
        bics = [math.inf if fit is None else fit[2] for fit in fits]
        best = int(np.argmin(bics))  # the first of equal lowest BICs
        if not bics[best] < state[2] - 1e-12:
            return current, state
        current, state = moves[best], fits[best]


def stepwise_bic(d: DesignMatrix) -> LinearModel:
    """Bidirectional stepwise selection.

    The primary descent starts from the full model, with aliased and
    constant columns dropped first the way R's lm treats them; a second
    descent from the intercept-only model guards against suppressor
    configurations that trap the full-start descent in a local minimum,
    and the lower-BIC endpoint wins. Each step evaluates every
    single-feature drop and add and takes the move with the lowest BIC,
    stopping when no move improves. The returned BIC is never above the
    full model's.
    """
    if d.p < 2:
        raise RankDeficient("stepwise needs at least 2 candidate features")
    enc_d, enc = encode_categorical(d)
    nonconst = tuple(j for j in range(enc_d.p) if np.ptp(enc_d.X[:, j]) > 0)
    full = _max_independent(enc_d, nonconst)
    if not full:
        raise RankDeficient("no usable candidate features")
    current, state = _descend(enc_d, nonconst, full)
    alt_current, alt_state = _descend(enc_d, nonconst, ())
    if alt_state[2] < state[2] - 1e-12:
        current, state = alt_current, alt_state
    return _model(d, enc_d, enc, current, state)


def kfold_cv(d: DesignMatrix, fitter, k: int, seed: int = 0):
    """(r2, rmse) of pooled out-of-fold predictions.

    `fitter` maps a DesignMatrix to a model exposing predict_design.
    Folds are a seeded disjoint partition; k = n gives leave-one-out.
    """
    if k < 2 or k > d.n:
        raise BadK(f"k must be in [2, n]; got k={k}, n={d.n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(d.n)
    preds = np.empty(d.n)
    for fold in np.array_split(order, k):
        mask = np.ones(d.n, dtype=bool)
        mask[fold] = False
        model = fitter(d.subset_rows(mask))
        preds[fold] = model.predict_design(d.subset_rows(fold))
    resid = d.y - preds
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    tss = float(np.sum((d.y - d.y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 1.0
    return r2, rmse
