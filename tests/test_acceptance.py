"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is asserted exactly as stated; timing guards use
wall-clock seconds.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from agbmap.allometry import carbon_stock, tree_agb
from agbmap.cli import main as cli_main
from agbmap.forest import ForestParams, rf_importance
from agbmap.geostat import (EmpiricalVariogram, OrdinaryKriger, SampleSet,
                            VariogramModel, empirical_variogram, fit_exponential)
from agbmap.linear import DesignMatrix, stepwise_bic
from agbmap.pipeline import build_map
from agbmap.raster import Grid, band_pca
from agbmap.synth import generate_scene, small_config
from agbmap.textures import DEFAULT_OFFSETS, glcm_textures
from agbmap.waveform import METRIC_COLUMNS, Waveforms, filter_waveforms, process_waveforms

from test_linear import exhaustive_bic_minimum
from test_raster import stack_of
from test_textures import center_values, oracle_stats


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -------------------------------------------------------------------------
# 1. kriging correctness

def dense_solve(xy, values, model, target):
    """The full (n+1)-square ordinary-kriging system, solved directly."""
    xy = np.asarray(xy, dtype=float)
    n = len(values)
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = model.gamma(np.hypot(xy[:, None, 0] - xy[None, :, 0],
                                     xy[:, None, 1] - xy[None, :, 1]))
    a[n, n] = 0.0
    b = np.ones(n + 1)
    b[:n] = model.gamma(np.hypot(xy[:, 0] - target[0], xy[:, 1] - target[1]))
    sol = scipy.linalg.solve(a, b)
    return float(sol[:n] @ np.asarray(values)), float(sol[:n] @ b[:n] + sol[n])


def test_criterion_1_kriging_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    for case in range(50):
        n = int(rng.integers(5, 201))
        xy = rng.uniform(0, 5000, (n, 2))
        v = rng.normal(100, 30, n)
        nugget = float(rng.uniform(0, 5)) if case % 3 else 0.0
        model = VariogramModel(nugget, float(rng.uniform(5, 50)),
                               float(rng.uniform(300, 3000)))
        s = SampleSet(xy, v)
        kriger = OrdinaryKriger(s, model, neighborhood=n)
        target = tuple(rng.uniform(0, 5000, 2))
        est, var = kriger.predict(*target)
        oest, ovar = dense_solve(s.xy.tolist(), s.values.tolist(), model, target)
        assert abs(est - oest) < 1e-6
        assert abs(var - max(ovar, 0.0)) < 1e-6
        _, lam, _ = kriger.weights_at(*target)
        assert abs(lam.sum() - 1.0) < 1e-9
        if nugget == 0.0:
            i = int(rng.integers(0, s.n))
            est_i, _ = kriger.predict(*s.xy[i])
            assert abs(est_i - s.values[i]) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"50 sample sets: local OK == dense solve within 1e-6, "
              f"weights sum to 1 within 1e-9, nugget-0 exactness within 1e-8 "
              f"({elapsed:.1f}s < 10s)")


# -------------------------------------------------------------------------
# 2. variogram correctness

def brute_force_variogram(xy, values, bin_width, max_lag):
    nbins = int(math.floor(max_lag / bin_width + 0.5))
    sums = [0.0] * (nbins + 1)
    counts = [0] * (nbins + 1)
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            h = math.hypot(xy[i][0] - xy[j][0], xy[i][1] - xy[j][1])
            b = int(round(h / bin_width))
            if 1 <= b <= nbins:
                sums[b] += (values[i] - values[j]) ** 2
                counts[b] += 1
    return {b: (sums[b] / (2 * counts[b]), counts[b])
            for b in range(1, nbins + 1) if counts[b]}


def test_criterion_2_variogram_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2002)
    for _ in range(6):
        n = int(rng.integers(10, 501))
        xy = rng.uniform(0, 3000, (n, 2))
        v = rng.normal(0, 8, n)
        bw = float(rng.uniform(40, 120))
        ml = float(rng.uniform(800, 1500))
        ev = empirical_variogram(SampleSet(xy, v), bin_width=bw, max_lag=ml)
        oracle = brute_force_variogram(xy.tolist(), v.tolist(), bw, ml)
        assert len(ev) == len(oracle)
        for lag, g, c in zip(ev.lags, ev.gamma, ev.counts):
            og, oc = oracle[int(round(lag / bw))]
            assert c == oc
            assert abs(g - og) <= 1e-10

    true = (3.5, 6.5, 1500.0)
    errs = []
    for seed in range(20):
        r = np.random.default_rng(seed)
        xy = r.uniform(0, 10_000, (2000, 2))
        d = np.hypot(xy[:, 0][:, None] - xy[:, 0][None, :],
                     xy[:, 1][:, None] - xy[:, 1][None, :])
        cov = true[1] * np.exp(-3 * d / true[2])
        L = np.linalg.cholesky(cov + 1e-10 * true[1] * np.eye(2000))
        z = L @ r.standard_normal(2000) + r.normal(0, math.sqrt(true[0]), 2000)
        ev = empirical_variogram(SampleSet(xy, z), bin_width=120.0, max_lag=4000.0)
        fit = fit_exponential(ev)
        errs.append([abs(fit.nugget - true[0]) / true[0],
                     abs(fit.psill - true[1]) / true[1],
                     abs(fit.range_m - true[2]) / true[2]])
    med = np.median(np.array(errs), axis=0)
    assert np.all(med < 0.15), med
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"brute-force equality to 1e-10 (n<=500); planted "
              f"(nugget, psill, range) recovered with medians "
              f"{med[0]*100:.1f}/{med[1]*100:.1f}/{med[2]*100:.1f}% < 15% "
              f"over 20 seeds ({elapsed:.1f}s < 60s)")


# -------------------------------------------------------------------------
# 3. regression-kriging improvement

def test_criterion_3_rk_improvement():
    t0 = time.time()
    improvements = []
    for seed in range(20):
        cfg = small_config(seed=3000 + seed, n_footprints=500, n_plots=0)
        scene = generate_scene(cfg)
        xy = np.array([[w.lon, w.lat] for w in scene.footprints])
        vals = np.array([scene.footprint_truth[w.id][0] for w in scene.footprints])
        rng = np.random.default_rng(seed)
        samples = SampleSet(xy, np.maximum(vals + rng.normal(0, 10, len(vals)), 0))
        product = build_map(samples, scene.covariates, 250.0, "lm", seed=seed)
        truth = scene.truth_agb.values
        mask = product.agb.valid_mask()
        rmse_rk = np.sqrt(np.mean((product.agb.values[mask] - truth[mask]) ** 2))
        trend = np.maximum(product.trend_grid.values[mask], 0)
        rmse_tr = np.sqrt(np.mean((trend - truth[mask]) ** 2))
        improvements.append((rmse_tr - rmse_rk) / rmse_tr)
    imp = np.array(improvements)
    frac_improved = float(np.mean(imp > 0))
    mean_improvement = float(imp.mean())
    elapsed = time.time() - t0
    assert frac_improved >= 0.90
    assert mean_improvement >= 0.03
    assert elapsed < 300.0
    report(3, f"RK beats trend-only in {frac_improved*100:.0f}% of 20 scenes "
              f"(>=90%), mean relative improvement {mean_improvement*100:.1f}% "
              f"(>=3%) ({elapsed:.0f}s < 300s)")


# -------------------------------------------------------------------------
# 4. waveform recovery and filter exactness

def _recover(scene, max_components):
    """Canopy-height error of each footprint through the driver on a flat
    DEM with the SNR and elevation rules off; inf where no signal is found
    or no fit converges."""
    flat = Grid(np.zeros((1, 1)), 0.0, 0.0, scene.config.extent)
    _, table = process_waveforms(scene.footprints, flat, max_components=max_components,
                                 snr_min=0.0, max_elev_gap=math.inf)
    tch = dict(zip(table.ids, table.metrics[:, METRIC_COLUMNS.index("tch")]))
    return np.array([abs(tch[w.id] - scene.footprint_truth[w.id][1]) if w.id in tch
                     else math.inf for w in scene.footprints])


def test_criterion_4_waveform_recovery_and_filter():
    t0 = time.time()
    clean = generate_scene(small_config(seed=4001, n_footprints=300, n_plots=0,
                                        noise_sd=0.5, canopy_noise_sd=0.0))
    errs = _recover(clean, max_components=3)
    bin_size = clean.config.bin_size
    assert np.all(errs <= bin_size), errs.max()

    # noise sd at 10 percent of the peak return
    peak = 100.0 + 8.0
    noisy = generate_scene(small_config(seed=4002, n_footprints=1000, n_plots=0,
                                        noise_sd=0.1 * peak, canopy_noise_sd=0.0))
    errs_n = _recover(noisy, max_components=3)
    frac = float(np.mean(errs_n <= 2 * bin_size))
    assert frac >= 0.95, frac

    # planted violations of each filter rule are rejected exactly
    mixed = generate_scene(small_config(
        seed=4003, n_footprints=500, n_plots=0, cloud_violation_rate=0.06,
        sat_violation_rate=0.05, low_snr_rate=0.05, elev_mismatch_rate=0.04))
    reasons = filter_waveforms(Waveforms.pack(mixed.footprints)).reason
    got = {w.id: reason for w, reason in zip(mixed.footprints, reasons) if reason}
    assert got == mixed.expected_rejects
    elapsed = time.time() - t0
    report(4, f"canopy height within 1 bin on all 300 noiseless footprints "
              f"(max {errs.max():.3f} m); within 2 bins for {frac*100:.1f}% of "
              f"1000 noisy footprints (>=95%); filter rejected exactly the "
              f"{len(got)} planted violations ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 5. model selection

def test_criterion_5_model_selection():
    t0 = time.time()
    rng = np.random.default_rng(5005)
    for case in range(100):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(20, 61))
        X = rng.normal(0, 1, (n, p))
        beta = np.zeros(p)
        k_sig = int(rng.integers(0, p + 1))
        if k_sig:
            beta[rng.choice(p, k_sig, replace=False)] = rng.normal(0, 1.5, k_sig)
        y = X @ beta + rng.normal(0, 1, n)
        d = DesignMatrix([f"x{j}" for j in range(p)], X, y)
        m = stepwise_bic(d)
        obic, oset = exhaustive_bic_minimum(d)
        assert frozenset(m.selected_features) == oset or \
            m.bic == pytest.approx(obic, abs=1e-9), f"case {case}"

    hits = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        X = r.normal(0, 1, (80, 2))
        y = 2 * X[:, 0] + r.normal(0, 0.5, 80)
        m = stepwise_bic(DesignMatrix(["x1", "x2"], X, y))
        hits += m.selected_features == ["x1"]
    assert hits >= 95, hits

    r = np.random.default_rng(55)
    X = r.normal(0, 1, (150, 3))
    y = X[:, 0] + r.normal(0, 0.3, 150)
    imp = rf_importance(DesignMatrix(["x1", "x2", "x3"], X, y),
                        ForestParams(n_trees=60), repetitions=50, seed=55)
    wins = np.mean((imp.per_repetition[:, 0] > imp.per_repetition[:, 1])
                   & (imp.per_repetition[:, 0] > imp.per_repetition[:, 2]))
    assert wins >= 0.95, wins
    elapsed = time.time() - t0
    report(5, f"stepwise == exhaustive BIC on 100/100 cases (p<=4); planted "
              f"signal selected in {hits}/100 seeds (>=95); %IncMSE ranks "
              f"signal first in {wins*100:.0f}% of 50 repetitions "
              f"({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 6. allometry and carbon

def test_criterion_6_allometry_and_carbon():
    # oracle: direct evaluation of the allometric equation
    oracle_kg = 0.0673 * (0.6 * 30.0 ** 2 * 30.0) ** 0.973
    got = tree_agb(0.6, 30.0, 30.0)
    assert got == pytest.approx(oracle_kg, rel=1e-3)
    # the 12470 figure quoted alongside this case is the bare power term,
    # i.e. the evaluation with the 0.0673 coefficient dropped
    assert (0.6 * 30.0 ** 2 * 30.0) ** 0.973 == pytest.approx(12_470.0, rel=1e-3)

    stock = carbon_stock(Grid(np.array([[400.0]]), 0, 0, 1000.0))
    assert stock.total_tc == pytest.approx(20_000.0, rel=1e-12)

    rng = np.random.default_rng(6006)
    vals = rng.uniform(0, 400, (10, 10))
    whole = carbon_stock(Grid(vals, 0, 0, 500.0)).total_tc
    mask = (np.add.outer(np.arange(10), np.arange(10)) % 2).astype(bool)
    parts = carbon_stock(Grid(np.where(mask, vals, -9999.0), 0, 0, 500.0)).total_tc \
        + carbon_stock(Grid(np.where(~mask, vals, -9999.0), 0, 0, 500.0)).total_tc
    assert parts == pytest.approx(whole, rel=1e-9)

    fine = carbon_stock(Grid(np.kron(vals, np.ones((2, 2))), 0, 0, 250.0)).total_tc
    assert fine == pytest.approx(whole, rel=1e-9)
    report(6, f"tree mass {got:.1f} kg matches direct equation evaluation "
              f"within 0.1% (the quoted 12470 is the power term before the "
              f"0.0673 coefficient); 1 km cell at 400 Mg/ha -> 20000 t C; "
              f"partition-additive and refinement-invariant within 1e-9")


# -------------------------------------------------------------------------
# 7. texture and PCA kernels

def test_criterion_7_texture_pca_kernels():
    rng = np.random.default_rng(7007)
    windows = [rng.integers(0, 40, (3, 3)).astype(float) for _ in range(8)]
    windows.append(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    windows.append(np.arange(9, dtype=float).reshape(3, 3))
    assert len(windows) == 10
    for win in windows:
        grid = Grid(win, 0, 0, 100.0)
        got = center_values(glcm_textures(grid, levels=4))
        want = oracle_stats(win.tolist(), 4, DEFAULT_OFFSETS)
        for name, val in want.items():
            assert got[name] == pytest.approx(val, abs=1e-12), name

    stack = stack_of([(f"b{i}", Grid(rng.normal(i, 1 + i, (15, 12)), 0, 0, 100.0))
                      for i in range(5)])
    pca = band_pca(stack)
    gram = pca.loadings @ pca.loadings.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8
    data = stack.cube.reshape(5, -1) - pca.band_means[:, None]
    recon = pca.loadings.T @ (pca.loadings @ data)
    assert np.max(np.abs(recon - data)) < 1e-8
    report(7, "all 8 GLCM statistics match the hand-built co-occurrence "
              "oracle on 10 fixed windows; PCA orthonormal and reconstructs "
              "within 1e-8")


# -------------------------------------------------------------------------
# 8. end-to-end determinism

def test_criterion_8_byte_identical_runs(tmp_path):
    t0 = time.time()
    scene_dir = tmp_path / "scene"
    import json
    overrides = tmp_path / "ov.json"
    overrides.write_text(json.dumps({
        "n_footprints": 200, "n_plots": 240, "extent": 10_000.0}))
    assert cli_main(["simulate", "--seed", "88", "--out", str(scene_dir),
                     "--config", str(overrides)]) == 0
    cfg = json.load((scene_dir / "run_config.json").open())
    cfg.update({"grid_sizes": [500, 1000], "n_trees": 50,
                "out_dir": str(tmp_path / "run"), "min_plots_per_cell": 2})
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_and_snapshot():
        assert cli_main(["map", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_and_snapshot()
    second = run_and_snapshot()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    elapsed = time.time() - t0
    report(8, f"two full map runs into one out_dir produced byte-identical "
              f"{len(first)} artifacts ({elapsed:.0f}s)")
