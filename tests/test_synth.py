import numpy as np
import pytest

from agbmap.errors import ConfigError
from agbmap.geostat import SampleSet, empirical_variogram, fit_exponential
from agbmap.synth import (SceneConfig, generate_scene, simulate_exponential_field,
                          small_config, write_scene)
from agbmap.raster import Grid
from agbmap.waveform import METRIC_COLUMNS, Waveforms, filter_waveforms, process_waveforms


def test_same_seed_bit_identical():
    cfg = small_config(seed=42, n_footprints=60, n_plots=30)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    assert np.array_equal(a.truth_agb.values, b.truth_agb.values)
    assert np.array_equal(a.dem.values, b.dem.values)
    for wa, wb in zip(a.footprints, b.footprints):
        assert np.array_equal(wa.intensities, wb.intensities)
    assert np.array_equal(a.plots.agb, b.plots.agb)
    c = generate_scene(small_config(seed=43, n_footprints=60, n_plots=30))
    assert not np.array_equal(a.truth_agb.values, c.truth_agb.values)


def test_zero_psill_truth_equals_trend():
    cfg = small_config(seed=1, residual_psill=0.0, residual_nugget=0.0,
                       n_footprints=20, n_plots=0)
    scene = generate_scene(cfg)
    trend = np.full_like(scene.truth_agb.values, cfg.trend_intercept)
    for coef, (_, grid) in zip(cfg.trend_coefficients, scene.covariates.items()):
        trend = trend + coef * grid.values
    assert np.allclose(scene.truth_agb.values, np.maximum(trend, 0.0))


def test_residual_field_variogram_self_consistency():
    # the oracle validates the oracle: the simulated residual field's own
    # variogram must recover the requested (nugget, psill, range)
    true_nugget, true_psill, true_range = 2000.0, 2500.0, 2500.0
    errs = []
    for seed in range(20):
        fld = simulate_exponential_field(120, 120, 250.0, true_psill, true_range,
                                         np.random.default_rng(seed))
        rng = np.random.default_rng(1000 + seed)
        fld = fld + rng.normal(0.0, np.sqrt(true_nugget), fld.shape)
        idx = rng.choice(120 * 120, size=1800, replace=False)
        rows, cols = np.divmod(idx, 120)
        xy = np.column_stack([cols * 250.0 + 125.0, rows * 250.0 + 125.0])
        ev = empirical_variogram(SampleSet(xy, fld[rows, cols]),
                                 bin_width=250.0, max_lag=6000.0)
        fit = fit_exponential(ev)
        errs.append([abs(fit.nugget - true_nugget) / true_nugget,
                     abs(fit.psill - true_psill) / true_psill,
                     abs(fit.range_m - true_range) / true_range])
    med = np.median(np.array(errs), axis=0)
    assert np.all(med < 0.15), med


def test_extraction_recovers_planted_height_noiseless():
    cfg = small_config(seed=2, n_footprints=40, n_plots=0, noise_sd=0.5,
                       canopy_noise_sd=0.0)
    scene = generate_scene(cfg)
    # a flat DEM, with the SNR and elevation rules off
    reasons, table = process_waveforms(scene.footprints, Grid(np.zeros((1, 1)), 0.0, 0.0,
                                                              cfg.extent),
                                       max_components=3, snr_min=0.0, max_elev_gap=np.inf)
    assert reasons == [""] * len(scene.footprints)
    for fid, tch in zip(table.ids, table.metrics[:, METRIC_COLUMNS.index("tch")]):
        _, h, _ = scene.footprint_truth[fid]
        assert abs(tch - h) <= cfg.bin_size


def test_planted_weak_shots_read_snr_between_detection_and_the_rule():
    # 200 seeds of 20 footprints, 5 of them weak shots
    weak = []
    for seed in range(200):
        scene = generate_scene(small_config(seed=seed, n_footprints=20, n_plots=0,
                                            low_snr_rate=0.25))
        weak += [w for w in scene.footprints if scene.expected_rejects.get(w.id) == "SNR"]
    assert len(weak) == 1000
    screen = filter_waveforms(Waveforms.pack(weak))
    assert screen.reason.tolist() == ["SNR"] * len(weak)
    assert 4.5 < screen.snr.min() and screen.snr.max() < 15.0


def test_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(extent=-5).validate()
    with pytest.raises(ConfigError):
        SceneConfig(residual_range=60_000.0).validate()
    with pytest.raises(ConfigError):
        SceneConfig(noise_sd=0.0).validate()
    with pytest.raises(ConfigError):
        SceneConfig(cloud_violation_rate=0.8, sat_violation_rate=0.5).validate()
    with pytest.raises(ConfigError):
        SceneConfig(trend_coefficients=(1.0,)).validate()
    # each of these crashed generate_scene before validate caught it
    for field in ("bin_size", "agb_per_meter", "covariate_range"):
        with pytest.raises(ConfigError, match=f"{field}.* must be > 0"):
            SceneConfig(**{field: 0.0}).validate()
    with pytest.raises(ConfigError, match="n_covariates must be >= 1"):
        SceneConfig(n_covariates=0, trend_coefficients=()).validate()
    with pytest.raises(ConfigError, match="whole number of cells, got 2.5"):
        SceneConfig(extent=15_000.0, cellsize=6000.0).validate()
    for field, value in (("extent", float("inf")), ("residual_range", float("nan")),
                         ("trend_coefficients", (1.0, float("-inf"), 2.0))):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SceneConfig(**{field: value}).validate()


def test_write_scene_emits_pipeline_formats(tmp_path):
    scene = generate_scene(small_config(seed=3, n_footprints=25, n_plots=10))
    paths = write_scene(scene, tmp_path / "scene")
    from agbmap.raster import read_ascii_grid
    from agbmap.waveform import read_waveforms
    from agbmap.allometry import load_plots
    assert len(read_waveforms(paths["waveforms"])) == 25
    plots = load_plots(paths["plots"])
    assert type(plots) is type(scene.plots) and plots.ids == scene.plots.ids
    assert plots.xy == pytest.approx(scene.plots.xy, rel=1e-9)
    assert plots.agb == pytest.approx(scene.plots.agb, rel=1e-9)
    truth = read_ascii_grid(paths["truth"])
    assert truth.cellsize == scene.truth_agb.cellsize
    for name, p in paths["covariates"].items():
        g = read_ascii_grid(p)
        assert g.nrows == scene.truth_agb.nrows


def test_footprints_inside_extent_and_truth_nonnegative():
    scene = generate_scene(small_config(seed=4, n_footprints=80, n_plots=20))
    assert np.all(scene.truth_agb.values >= 0)
    for w in scene.footprints:
        assert 0 <= w.lon <= scene.config.extent
        assert 0 <= w.lat <= scene.config.extent
