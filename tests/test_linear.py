import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.errors import BadK, RankDeficient
from agbmap.linear import (DesignMatrix, bic_score, encode_categorical, fit_ols,
                           kfold_cv, save_model, stepwise_bic, _fit_subsets)


def dm(X, y, names=None, categorical=()):
    X = np.asarray(X, dtype=float)
    names = names or [f"x{j}" for j in range(X.shape[1])]
    return DesignMatrix(names, X, np.asarray(y, dtype=float),
                        frozenset(categorical))


# ------------------------------------------------------------------- ols

def test_exact_line():
    x = np.linspace(0, 10, 20)
    m = fit_ols(dm(x[:, None], 3 * x + 1))
    assert m.intercept == pytest.approx(1.0, abs=1e-9)
    assert m.coefficients["x0"] == pytest.approx(3.0, abs=1e-10)
    assert m.rss == pytest.approx(0.0, abs=1e-18)
    assert m.r2 == pytest.approx(1.0)


def test_two_point_fit_passes_through_both():
    m = fit_ols(dm([[0.0], [2.0]], [5.0, 9.0]))
    assert m.predict(np.array([[0.0], [2.0]])) == pytest.approx([5.0, 9.0])


def test_random_system_matches_normal_equations_oracle():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (50, 3))
    y = rng.normal(0, 1, 50)
    m = fit_ols(dm(X, y))
    A = np.column_stack([np.ones(50), X])
    beta = np.linalg.solve(A.T @ A, A.T @ y)  # independent normal-equations solve
    got = np.array([m.intercept] + [m.coefficients[f"x{j}"] for j in range(3)])
    assert np.max(np.abs(got - beta)) < 1e-8


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 2, (40, 4))
    y = rng.normal(0, 3, 40)
    m = fit_ols(dm(X, y))
    resid = y - m.predict(X)
    for j in range(4):
        dot = abs(X[:, j] @ resid)
        assert dot < 1e-6 * np.linalg.norm(X[:, j]) * max(np.linalg.norm(resid), 1e-12)


def test_constant_and_aliased_columns_dropped():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    m = fit_ols(dm(X, np.arange(10.0)))
    assert m.selected_features == ["x1"]
    dup = np.column_stack([np.arange(10.0), np.arange(10.0)])
    assert fit_ols(dm(dup, np.arange(10.0))).selected_features == ["x0"]
    m = fit_ols(dm(np.random.default_rng(0).normal(0, 1, (3, 5)), np.zeros(3)))
    assert m.selected_features == ["x0", "x1"]  # n - 1 columns at most


def test_one_hot_encoding_first_level_reference():
    X = np.column_stack([[1.0, 1.0, 2.0, 3.0, 3.0, 2.0], np.arange(6.0)])
    d = dm(X, [0, 0, 1, 2, 2, 1], names=["geol", "z"], categorical=["geol"])
    enc_d, enc = encode_categorical(d)
    assert enc_d.feature_names == ["geol=2", "geol=3", "z"]
    m = fit_ols(d)
    pred = m.predict(X, ["geol", "z"])
    assert pred == pytest.approx([0, 0, 1, 2, 2, 1], abs=1e-9)


# ---------------------------------------------------------------- subsets

def oracle_fit(X, y):
    """(beta, rss, bic) of y on [1, X] by matrix_rank and lstsq, one fit at
    a time; None when n <= p or [1, X] is rank deficient."""
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X])
    if n <= X.shape[1] or np.linalg.matrix_rank(A) < A.shape[1]:
        return None
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ beta
    rss = float(resid @ resid)
    return beta, rss, bic_score(n, rss, A.shape[1], float(np.sum((y - y.mean()) ** 2)))


def test_fit_subsets_matches_one_at_a_time_oracle():
    subsets = [(), (0,), (3, 1), (0, 1, 2, 3), (2,), (0, 1, 3), (0, 1, 3, 4),
               (1, 3, 4), (4,), (0, 1, 2, 3, 4), (0, 2)]
    nones = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = (3, 4, 5, 12, 40, 134)[seed]
        X = rng.normal(0, 1, (n, 5))
        X[:, 4] = X[:, 0] - X[:, 1] - X[:, 3]  # exactly aliased, like trail = wext - tch - lead
        y = X[:, :4] @ rng.normal(0, 1, 4) + rng.normal(0, 1, n)
        tss = float(np.sum((y - y.mean()) ** 2))
        for s, got in zip(subsets, _fit_subsets(dm(X, y), subsets)):
            want = oracle_fit(X[:, list(s)], y)
            assert (got is None) == (want is None), (n, s)
            nones += want is None
            if want is not None:
                assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
                assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-12 * tss)
                assert got[2] == pytest.approx(want[2], rel=1e-9)
    assert nones > 6 * 2  # the aliased subsets and the n <= s ones


# ---------------------------------------------------------------- stepwise

def exhaustive_bic_minimum(d):
    """Brute force over every feature subset, intercept-only included."""
    best = None
    for r in range(d.p + 1):
        for subset in itertools.combinations(range(d.p), r):
            fit = oracle_fit(d.X[:, list(subset)], d.y)
            if fit is not None and (best is None or fit[2] < best[0] - 1e-12):
                best = (fit[2], frozenset(d.feature_names[j] for j in subset))
    return best


def test_stepwise_agrees_with_exhaustive_p3():
    rng = np.random.default_rng(31)
    for _ in range(20):
        X = rng.normal(0, 1, (35, 3))
        y = 1.5 * X[:, 0] + rng.normal(0, 1, 35)
        d = dm(X, y)
        m = stepwise_bic(d)
        bic, subset = exhaustive_bic_minimum(d)
        assert frozenset(m.selected_features) == subset or m.bic == pytest.approx(bic)


def test_stepwise_exact_relationship_selects_single_feature():
    rng = np.random.default_rng(13)
    X = rng.normal(0, 1, (60, 4))
    y = 5.0 * X[:, 2]
    m = stepwise_bic(dm(X, y))
    assert m.selected_features == ["x2"]
    assert m.coefficients["x2"] == pytest.approx(5.0, abs=1e-8)
    assert m.r2 == pytest.approx(1.0)


def test_stepwise_pure_noise_keeps_penalty_low():
    rng = np.random.default_rng(14)
    X = rng.normal(0, 1, (80, 3))
    y = rng.normal(0, 1, 80)
    m = stepwise_bic(dm(X, y))
    full = fit_ols(dm(X, y))
    assert len(m.selected_features) <= 1
    assert m.bic <= full.bic + 1e-12


def test_stepwise_bic_never_above_full_model():
    rng = np.random.default_rng(15)
    for seed in range(10):
        r = np.random.default_rng(seed)
        X = r.normal(0, 1, (40, 5))
        y = X @ r.normal(0, 1, 5) + r.normal(0, 2, 40)
        d = dm(X, y)
        assert stepwise_bic(d).bic <= fit_ols(d).bic + 1e-12


def test_stepwise_handles_aliased_columns():
    rng = np.random.default_rng(16)
    base = rng.normal(0, 1, 50)
    X = np.column_stack([base, 2 * base, rng.normal(0, 1, 50)])
    y = 3 * base + rng.normal(0, 0.1, 50)
    m = stepwise_bic(dm(X, y))
    assert set(m.selected_features) & {"x0", "x1"}


def test_stepwise_requires_two_candidates():
    with pytest.raises(RankDeficient):
        stepwise_bic(dm(np.arange(10.0)[:, None], np.arange(10.0)))


# ---------------------------------------------------------------- kfold

def test_kfold_exact_linear_data():
    rng = np.random.default_rng(20)
    X = rng.normal(0, 1, (30, 2))
    y = 2 * X[:, 0] - X[:, 1] + 4
    r2, rmse = kfold_cv(dm(X, y), fit_ols, k=5, seed=0)
    assert rmse == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_kfold_null_target_r2_near_zero():
    med = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (60, 2))
        y = rng.normal(0, 1, 60)
        r2, _ = kfold_cv(dm(X, y), fit_ols, k=5, seed=seed)
        med.append(r2)
    assert np.median(med) <= 0.1


def test_kfold_equals_loo_oracle_at_k_n():
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (10, 2))
    y = X @ [1.0, -2.0] + rng.normal(0, 0.5, 10)
    d = dm(X, y)
    r2, rmse = kfold_cv(d, fit_ols, k=10, seed=3)
    preds = np.empty(10)
    for i in range(10):  # explicit leave-one-out oracle
        mask = np.ones(10, dtype=bool)
        mask[i] = False
        m = fit_ols(dm(X[mask], y[mask]))
        preds[i] = m.predict(X[i:i + 1])[0]
    rmse_oracle = float(np.sqrt(np.mean((y - preds) ** 2)))
    r2_oracle = 1 - np.sum((y - preds) ** 2) / np.sum((y - y.mean()) ** 2)
    assert rmse == pytest.approx(rmse_oracle, rel=1e-12)
    assert r2 == pytest.approx(r2_oracle, rel=1e-12)


def test_kfold_bad_k():
    d = dm(np.arange(10.0)[:, None], np.arange(10.0))
    with pytest.raises(BadK):
        kfold_cv(d, fit_ols, k=1)
    with pytest.raises(BadK):
        kfold_cv(d, fit_ols, k=11)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_kfold_deterministic_given_seed(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (24, 2))
    y = X[:, 0] + rng.normal(0, 1, 24)
    d = dm(X, y)
    assert kfold_cv(d, fit_ols, k=4, seed=7) == kfold_cv(d, fit_ols, k=4, seed=7)


def test_save_model_writes_canonical_json(tmp_path):
    X = np.column_stack([[1.0, 1.0, 2.0, 3.0, 3.0, 2.0], np.arange(6.0)])
    d = dm(X, [0.5, 0.1, 1.4, 2.2, 2.3, 1.1], names=["geol", "z"],
           categorical=["geol"])
    m = stepwise_bic(d)
    p = tmp_path / "m.json"
    save_model(m, p)
    text = p.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert (doc["format"], doc["version"], doc["kind"]) == ("agbmap-model", 1, "linear")
    # floats keep every digit
    assert doc["coefficients"] == m.coefficients and doc["bic"] == m.bic
    assert doc["encoder"] == m.encoder.levels == {"geol": [1.0, 2.0, 3.0]}
