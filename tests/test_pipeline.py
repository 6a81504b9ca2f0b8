import json
import math
import os

import numpy as np
import pytest

from agbmap import pipeline
from agbmap.errors import ConfigError, NoPairs, NoQualifyingCells, RankDeficient
from agbmap.forest import ForestParams, fit_random_forest
from agbmap.geostat import SampleSet
from agbmap.linear import stepwise_bic
from agbmap.pipeline import (METRIC_FEATURES, RunConfig, _covariate_rows, build_map,
                             calibration_pairs, calibration_sweep, fit_footprint_agb_model,
                             predict_footprints, run_mapping, split_plots, validate_map)
from agbmap.allometry import PlotTable, load_plots
from agbmap.raster import Grid, GridStack, read_ascii_grid
from agbmap.synth import generate_scene, small_config, write_scene
from agbmap.waveform import (METRIC_COLUMNS, FootprintTable, process_waveforms,
                             read_waveforms, write_waveforms)

from test_raster import stack_of

COL = {c: j for j, c in enumerate(METRIC_COLUMNS)}  # metric matrix column of each name


def plot_table(rows):
    """The PlotTable of (x, y, agb) rows, with ids p0, p1, ..."""
    rows = np.array(rows, dtype=float).reshape(-1, 3)
    return PlotTable(tuple(f"p{i}" for i in range(len(rows))), rows[:, :2], rows[:, 2])


def feature_matrix(features):
    """The metric matrix whose METRIC_FEATURES columns hold the columns of
    features, in that order; the other columns are 0."""
    features = np.atleast_2d(features)
    out = np.zeros((len(features), len(METRIC_COLUMNS)))
    out[:, [COL[f] for f in METRIC_FEATURES]] = features
    return out


# ------------------------------------------------------------ calibration

def test_fit_footprint_model_exact_tch_relationship():
    rng = np.random.default_rng(1)
    metrics = feature_matrix(rng.uniform(1, 50, (60, len(METRIC_FEATURES))))
    agb = 5.0 * metrics[:, COL["tch"]]
    m = fit_footprint_agb_model(metrics, agb)
    assert m.selected_features == ["tch"]
    assert m.coefficients["tch"] == pytest.approx(5.0, abs=1e-8)
    assert m.r2 == pytest.approx(1.0)


def test_fit_footprint_model_selects_planted_subset():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rows, noise = [], []
        for _ in range(90):
            rows.append(rng.uniform(1, 50, len(METRIC_FEATURES)))
            noise.append(rng.normal(0, 4))
        metrics = feature_matrix(rows)
        agb = 3.0 * metrics[:, COL["wext"]] + 6.0 * metrics[:, COL["tch"]] + noise
        m = fit_footprint_agb_model(metrics, agb)
        hits += {"wext", "tch"} <= set(m.selected_features)
    assert hits / 40 >= 0.95


def test_fit_footprint_model_pair_guard():
    metrics = feature_matrix(np.random.default_rng(0).uniform(1, 5, (10, len(METRIC_FEATURES))))
    with pytest.raises(RankDeficient):
        fit_footprint_agb_model(metrics, list(range(10)))


def test_predict_footprints_pass_through_and_clamping():
    rng = np.random.default_rng(2)
    metrics = feature_matrix(rng.uniform(1, 50, (60, len(METRIC_FEATURES))))
    agb = 4.0 * metrics[:, COL["tch"]]
    model = fit_footprint_agb_model(metrics, agb)
    xy = np.repeat(np.arange(60.0)[:, None], 2, axis=1)
    samples, clamped = predict_footprints(model, FootprintTable(xy, metrics))
    assert clamped == 0
    assert samples.n == 60
    assert np.array_equal(samples.xy, xy)
    assert samples.values[7] == pytest.approx(agb[7], rel=1e-9)
    empty, c0 = predict_footprints(
        model, FootprintTable(np.empty((0, 2)), np.empty((0, len(METRIC_COLUMNS)))))
    assert empty.n == 0 and c0 == 0


def test_predict_footprints_clamps_negatives():
    rng = np.random.default_rng(3)
    metrics = feature_matrix(rng.uniform(1, 50, (60, len(METRIC_FEATURES))))
    agb = 2.0 * metrics[:, COL["tch"]] - 30.0  # negative for low canopies
    model = fit_footprint_agb_model(metrics, agb)
    low = metrics[:1].copy()
    low[0, COL["tch"]] = 1.0
    samples, clamped = predict_footprints(model, FootprintTable(np.zeros((1, 2)), low))
    assert clamped == 1
    assert samples.values[0] == 0.0


# ------------------------------------------------------------ sweep

def structured_metric_row(h, rng):
    """Metric matrix row shaped like the real extractor's output: everything
    a near-deterministic function of canopy height, so columns are collinear."""
    row = np.zeros(len(METRIC_COLUMNS))
    wext = h + 24.0 + rng.normal(0, 0.3)
    row[[COL[c] for c in ("wext", "tch", "lead", "trail", "ti", "slope")]] = (
        wext, h + rng.normal(0, 0.2), 5.0 + rng.normal(0, 0.3), 4.0 + rng.normal(0, 0.3),
        abs(rng.normal(0, 0.5)), abs(rng.normal(0, 0.05)))
    for q in range(10, 100, 10):
        row[COL[f"h{q}"]] = wext * (q / 100.0) * 0.9 + rng.normal(0, 0.1)
    return row


def synthetic_pairs_scene(seed=5):
    # footprints cover only the west half, so growing the match radius
    # admits genuinely distant cross-matches, as sparse track data would
    cfg = small_config(seed=seed, n_footprints=600, n_plots=500,
                      canopy_noise_sd=0.4, plot_noise_sd=6.0,
                      residual_psill=4000.0, residual_range=2000.0,
                      trend_coefficients=(15.0, -10.0, 8.0))
    scene = generate_scene(cfg)
    rng = np.random.default_rng(seed)
    west = [w for w in scene.footprints if w.lon < 7500.0]
    footprints = FootprintTable(
        np.array([[w.lon, w.lat] for w in west]),
        np.array([structured_metric_row(scene.footprint_truth[w.id][1], rng) for w in west]))
    return scene, footprints


def test_sweep_r2_decays_with_distance():
    scene, footprints = synthetic_pairs_scene()
    rows = calibration_sweep(scene.plots, footprints, [300.0, 9000.0],
                             kfold=5, seed=0)
    assert [r.n_pairs for r in rows] == sorted(r.n_pairs for r in rows)
    # pairs beyond the residual correlation range dilute the fit
    assert rows[0].r2 > rows[-1].r2 + 0.1


def test_sweep_no_pairs_and_duplicates():
    plots = plot_table([(0.0, 0.0, 100.0)])
    fps = FootprintTable(np.array([[5000.0, 5000.0]]), np.ones((1, len(METRIC_COLUMNS))))
    with pytest.raises(NoPairs):
        calibration_sweep(plots, fps, [10.0])
    scene, footprints = synthetic_pairs_scene(seed=6)
    rows = calibration_sweep(scene.plots, footprints, [900.0, 900.0], kfold=5, seed=0)
    assert rows[0] == rows[1]


# ------------------------------------------------------------ build_map

def scene_samples(scene, noise=10.0, seed=0):
    ids = [w.id for w in scene.footprints]
    xy = np.array([[w.lon, w.lat] for w in scene.footprints])
    vals = np.array([scene.footprint_truth[i][0] for i in ids])
    rng = np.random.default_rng(seed)
    return SampleSet(xy, np.maximum(vals + rng.normal(0, noise, len(vals)), 0.0))


def cell_of(grid, x, y):
    """(row, col) of the cell holding the point, or None outside: one point
    at a time, in scalar arithmetic."""
    col = math.floor((x - grid.origin_x) / grid.cellsize)
    row = grid.nrows - 1 - math.floor((y - grid.origin_y) / grid.cellsize)
    return (row, col) if 0 <= row < grid.nrows and 0 <= col < grid.ncols else None


def test_covariate_rows_match_per_point_cell_of():
    ox, oy, cs = 1000.0, 2000.0, 30.0
    a = np.arange(20.0).reshape(4, 5)
    b = a + 100.0
    b[2, 3] = -9999.0  # nodata in one band only
    stack = stack_of([("a", Grid(a, ox, oy, cs)), ("b", Grid(b, ox, oy, cs))])
    geom = stack.geometry
    rng = np.random.default_rng(4)
    xy = np.vstack([
        rng.uniform([ox - 40, oy - 40], [ox + 5 * cs + 40, oy + 4 * cs + 40], (200, 2)),
        [[ox - 1e-9, oy + 10], [ox + 10, oy - 1e-9],              # west, south
         [ox + 5 * cs + 1, oy + 10], [ox + 10, oy + 4 * cs + 1],  # east, north
         [ox, oy], [ox, oy + 45.0],                              # on the origin edges
         [ox + 5 * cs, oy + 10], [ox + 10, oy + 4 * cs],          # on the far edges
         geom.cell_center(2, 3)]])                                # the cell NaN in b
    cube = stack.cube
    keep, rows = [], []
    for i, (x, y) in enumerate(xy):
        rc = cell_of(geom, x, y)
        if rc is not None and np.isfinite(cube[:, rc[0], rc[1]]).all():
            keep.append(i)
            rows.append(cube[:, rc[0], rc[1]])
    got_keep, got_X = _covariate_rows(stack, xy)
    assert np.array_equal(got_keep, keep)
    assert np.array_equal(got_X, np.array(rows))
    n = len(xy)
    assert {n - 5, n - 4} <= set(got_keep)  # origin edges are inside
    assert not {n - 9, n - 8, n - 7, n - 6, n - 3, n - 2, n - 1} & set(got_keep)


def test_build_map_zero_residuals_equals_trend():
    scene = generate_scene(small_config(seed=6, n_footprints=250, n_plots=0))
    samples = scene_samples(scene, noise=0.0)
    product = build_map(samples, scene.covariates, 250.0, "lm", seed=0)
    # residuals are not literally zero, but trend cells stay valid in the sum
    assert np.array_equal(product.agb.valid_mask(), product.trend_grid.valid_mask())
    assert np.all(product.krige_var.values[product.krige_var.valid_mask()] >= 0)


def test_build_map_rk_beats_trend_on_synthetic_scene():
    cfg = small_config(seed=7, n_footprints=450, n_plots=0)
    scene = generate_scene(cfg)
    product = build_map(scene_samples(scene, noise=10.0, seed=7),
                        scene.covariates, 250.0, "lm", seed=7)
    truth = scene.truth_agb.values
    mask = product.agb.valid_mask()
    rk = np.sqrt(np.mean((product.agb.values[mask] - truth[mask]) ** 2))
    tr = np.sqrt(np.mean((np.maximum(product.trend_grid.values[mask], 0) - truth[mask]) ** 2))
    assert rk < tr


def test_build_map_rf_trend_and_resampling():
    cfg = small_config(seed=8, n_footprints=350, n_plots=0)
    scene = generate_scene(cfg)
    product = build_map(scene_samples(scene, seed=8), scene.covariates, 500.0, "rf",
                        seed=8, forest_params=ForestParams(n_trees=30, min_leaf=5))
    assert product.agb.cellsize == 500.0
    mask = product.agb.valid_mask()
    assert np.all(product.agb.values[mask] >= 0)
    with pytest.raises(ConfigError):
        build_map(scene_samples(scene, seed=8), scene.covariates, 600.0, "rf")
    with pytest.raises(ConfigError):
        build_map(scene_samples(scene, seed=8), scene.covariates, 500.0, "boost")


def test_build_map_native_grid_size_short_circuit():
    scene = generate_scene(small_config(seed=9, n_footprints=200, n_plots=0))
    product = build_map(scene_samples(scene, seed=9), scene.covariates, 250.0, "lm")
    assert product.agb.cellsize == scene.covariates.geometry.cellsize


def test_build_map_top_k_screening_and_categorical(monkeypatch):
    scene = generate_scene(small_config(seed=14, n_footprints=300, n_plots=0))
    # add a qualitative covariate band (geology-like class codes)
    covariates = scene.covariates
    rng = np.random.default_rng(14)
    classes = rng.integers(0, 4, covariates.cube.shape[1:]).astype(float)
    stack = GridStack(covariates.names + ("rocks",),
                      np.concatenate([covariates.cube, classes[None]]), covariates.geometry)
    samples = scene_samples(scene, seed=14)
    forests = []
    monkeypatch.setattr(pipeline, "fit_random_forest",
                        lambda *args: forests.append(fit_random_forest(*args)) or forests[-1])
    product = build_map(samples, stack, 250.0, "rf", seed=14,
                        categorical=("rocks",),
                        forest_params=ForestParams(n_trees=20, min_leaf=5),
                        trend_top_k=2)
    assert len(forests) == 1 and len(forests[0].feature_names) == 2
    assert np.all(product.agb.values[product.agb.valid_mask()] >= 0)


def test_multi_resolution_mean_consistency():
    cfg = small_config(seed=10, n_footprints=400, n_plots=0, extent=16_000.0)
    scene = generate_scene(cfg)
    samples = scene_samples(scene, seed=10)
    m1000 = build_map(samples, scene.covariates, 1000.0, "lm", seed=10)
    m2000 = build_map(samples, scene.covariates, 2000.0, "lm", seed=10)
    a = m1000.agb.values[m1000.agb.valid_mask()].mean()
    b = m2000.agb.values[m2000.agb.valid_mask()].mean()
    assert abs(a - b) / a < 0.05


# ------------------------------------------------------------ validate

def plot_at(grid, r, c, agb):
    """An (x, y, agb) row at the centre of cell (r, c)."""
    return (*grid.cell_center(r, c), agb)


def test_validate_map_perfect_and_thresholds():
    g = Grid(np.array([[100.0, 200.0], [300.0, 400.0]]), 0, 0, 1000.0)
    plots = []
    for r in range(2):
        for c in range(2):
            for i in range(4):
                plots.append(plot_at(g, r, c, g.values[r, c]))
    plots = plot_table(plots)
    rmsep, r2, n = validate_map(g, plots, min_count=4)
    assert rmsep == pytest.approx(0.0)
    assert r2 == pytest.approx(1.0)
    assert n == 4
    with pytest.raises(NoQualifyingCells):
        validate_map(g, plots, min_count=5)


def test_validate_map_monotone_in_min_count():
    g = Grid(np.full((3, 3), 150.0), 0, 0, 1000.0)
    rng = np.random.default_rng(11)
    plots = []
    for _ in range(60):
        r, c = rng.integers(0, 3, 2)
        plots.append(plot_at(g, r, c, float(rng.uniform(100, 200))))
    plots = plot_table(plots)
    sizes = []
    for mc in (1, 3, 5, 8):
        try:
            sizes.append(validate_map(g, plots, min_count=mc)[2])
        except NoQualifyingCells:
            sizes.append(0)
    assert sizes == sorted(sizes, reverse=True)


def test_validate_map_equals_per_plot_loop():
    # the reference groups the plots in a dict cell by cell and averages
    # each cell's list; np.mean sums cells of 8 and more plots pairwise
    g = Grid(np.random.default_rng(2).uniform(50, 300, (4, 5)), 0, 0, 100.0)
    g.values[1, 2] = g.nodata
    g.values[3, 0] = np.nan
    rng = np.random.default_rng(8)
    plots = plot_table(np.column_stack([rng.uniform(-30, 530, (700, 2)),  # some outside
                                        rng.uniform(0, 400, 700)]))
    for min_count in (1, 9, 25):
        per_cell = {}
        for (x, y), agb in zip(plots.xy, plots.agb):
            rc = cell_of(g, x, y)
            if rc is not None and g.valid_mask()[rc]:
                per_cell.setdefault(rc, []).append(agb)
        keys = sorted(rc for rc, v in per_cell.items() if len(v) >= min_count)
        obs = np.array([np.mean(per_cell[rc]) for rc in keys])
        resid = np.array([g.values[rc] for rc in keys]) - obs
        r2 = 1.0 - float(resid @ resid) / float(np.sum((obs - obs.mean()) ** 2))
        assert 0 < len(keys) < 20
        assert validate_map(g, plots, min_count) == (np.sqrt(np.mean(resid ** 2)), r2, len(keys))


def test_validate_against_truth_field_oracle():
    cfg = small_config(seed=12, n_footprints=200, n_plots=600, plot_noise_sd=5.0)
    scene = generate_scene(cfg)
    truth = scene.truth_agb
    rmsep, r2, n = validate_map(truth, scene.plots, min_count=2)
    # plots are truth + sd-5 noise; cell means of k plots err by ~5/sqrt(k)
    assert n > 10
    assert rmsep < 10.0
    assert r2 > 0.9


# ------------------------------------------------------------ run config

def test_split_plots_seeded_and_disjoint():
    plots = plot_table([(i, i, 1.0 * i) for i in range(21)])
    a1, b1 = split_plots(plots, 5)
    a2, b2 = split_plots(plots, 5)
    assert a1.ids == a2.ids
    assert len(a1.ids) == 10 and len(b1.ids) == 11
    assert sorted(a1.ids + b1.ids) == sorted(plots.ids)
    for part in (a1, b1):  # each row keeps its coordinates and density
        rows = [plots.ids.index(i) for i in part.ids]
        assert np.array_equal(part.xy, plots.xy[rows])
        assert np.array_equal(part.agb, plots.agb[rows])


def test_run_config_paths_resolve_against_its_directory(tmp_path, monkeypatch):
    scene = tmp_path / "data" / "scene"
    scene.mkdir(parents=True)
    for name in ("w.ndjson", "d.asc", "c.asc", "p.csv", "t.csv"):
        (scene / name).write_text("")
    (scene / "cfg.json").write_text(json.dumps({
        "waveforms": "w.ndjson", "dem": "d.asc", "covariates": {"c": "c.asc"},
        "plots": "p.csv", "trees": "t.csv", "out_dir": "run"}))
    (tmp_path / "other").mkdir()
    monkeypatch.chdir(tmp_path / "other")
    cfg = RunConfig.from_json("../data/scene/cfg.json")
    for path in (cfg.waveforms, cfg.dem, cfg.covariates["c"], cfg.plots, cfg.trees):
        assert os.path.isfile(path), path
    assert os.path.samefile(os.path.dirname(cfg.out_dir), scene)
    # an absolute path stays as it is
    (scene / "cfg.json").write_text(json.dumps({
        "waveforms": str(scene / "w.ndjson"), "dem": "d.asc", "covariates": {"c": "c.asc"},
        "plots": "p.csv", "out_dir": "run"}))
    cfg = RunConfig.from_json("../data/scene/cfg.json")
    assert cfg.waveforms == str(scene / "w.ndjson") and cfg.trees is None


def test_run_config_json_round_trip(tmp_path):
    doc = {"waveforms": "w.ndjson", "dem": "d.asc", "covariates": {"c": "c.asc"},
           "plots": "p.csv", "out_dir": "out", "grid_sizes": [500], "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfig.from_json(path)
    assert cfg.grid_sizes == (500,)
    assert cfg.trend == "rf"
    assert cfg.config_hash() == RunConfig.from_json(path).config_hash()
    doc["bogus"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)
    path.write_text(json.dumps({"waveforms": "w"}))
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)
    path.write_text('{"waveforms": "w",\n "dem" "d"}')
    with pytest.raises(ConfigError, match=r"cfg\.json:2: Expecting ':' delimiter"):
        RunConfig.from_json(path)
    path.write_text("[1]")
    with pytest.raises(ConfigError, match="a JSON object"):
        RunConfig.from_json(path)


# ------------------------------------------------------------ end to end

def test_run_mapping_end_to_end(tmp_path):
    cfg_scene = small_config(seed=13, n_footprints=220, n_plots=300,
                             extent=10_000.0, cloud_violation_rate=0.05)
    scene = generate_scene(cfg_scene)
    paths = write_scene(scene, tmp_path / "scene")
    cfg = RunConfig(
        waveforms=paths["waveforms"], dem=paths["dem"],
        covariates=paths["covariates"], plots=paths["plots"],
        out_dir=str(tmp_path / "run"), grid_sizes=(500.0, 1000.0), trend="lm",
        seed=13, calib_max_dist=700.0, sweep_distances=(300.0, 700.0),
        max_components=3, min_plots_per_cell=2, n_trees=40)
    manifest = run_mapping(cfg)
    out = tmp_path / "run"
    for name in ("agb_500.asc", "krigevar_500.asc", "variogram_500.csv",
                 "validation_500.csv", "carbon_500.csv", "agb_1000.asc",
                 "sweep.csv", "metrics.csv", "footprint_model.json", "run_manifest.json"):
        assert (out / name).exists(), name
    t = manifest["telemetry"]
    assert t["n_kept"] + sum(t["rejects"].values()) == t["n_waveforms"]
    assert t["rejects"].get("Cloud", 0) == len(scene.expected_rejects)
    assert t["calibration"]["n_pairs"] >= 30
    agb = read_ascii_grid(out / "agb_500.asc")
    var = read_ascii_grid(out / "krigevar_500.asc")
    mask = agb.valid_mask()
    assert np.all(agb.values[mask] >= 0)
    assert np.all(var.values[var.valid_mask()] >= 0)
    # trend-valid cells stay valid in the final map
    assert mask.sum() > 0


def test_footprint_sharing_a_calibration_id_keeps_its_estimate(tmp_path):
    # calibration footprints leave the kriging samples by row: a kept
    # footprint renamed to the id of a matched one still gets an estimate
    scene = generate_scene(small_config(seed=13, n_footprints=220, n_plots=300,
                                        extent=10_000.0))
    paths = write_scene(scene, tmp_path / "scene")
    cfg = RunConfig(
        waveforms=paths["waveforms"], dem=paths["dem"], covariates=paths["covariates"],
        plots=paths["plots"], out_dir=str(tmp_path / "run"), grid_sizes=(1000.0,),
        trend="lm", seed=13, calib_max_dist=700.0, max_components=3)
    records = read_waveforms(cfg.waveforms)
    _, table = process_waveforms(records, read_ascii_grid(cfg.dem), max_components=3)
    calib_plots, _ = split_plots(load_plots(cfg.plots), cfg.seed)
    matched = np.unique(calibration_pairs(calib_plots, table, cfg.calib_max_dist)[0])
    unmatched = np.setdiff1d(np.arange(len(table.xy)), matched)
    renamed = next(w for w in records if w.id == table.ids[unmatched[0]])
    renamed.id = table.ids[matched[0]]
    write_waveforms(records, cfg.waveforms)
    t = run_mapping(cfg)["telemetry"]
    assert t["n_kept"] == len(table.xy)
    assert t["n_footprint_estimates"] == len(table.xy) - matched.size
