"""The four-step mapping chain: footprint calibration, wall-to-wall trend,
residual kriging, validation.

Footprint AGB comes from a stepwise-selected linear model of the waveform
metrics, calibrated against plots matched within a maximum distance. Those
footprint estimates drive a trend model (linear or random forest) on the
covariate stack at the target grid size; the trend's residuals at the
footprints are kriged and added back, and held-out plots score the result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import parallel
from .allometry import PlotTable, carbon_stock, load_plots, write_carbon_report
from .errors import (ConfigError, EmptyDesign, FitFailure, NoPairs,
                     NoQualifyingCells, RankDeficient, TooFewSamples)
from .forest import ForestParams, fit_random_forest, rf_importance
from .geostat import (EmpiricalVariogram, SampleSet, VariogramModel, at_range_bound,
                      empirical_variogram, fit_exponential, regression_krige,
                      write_variogram_report)
from .linear import DesignMatrix, fit_ols, kfold_cv, save_model, stepwise_bic
from .raster import Grid, GridStack, match_points, read_ascii_grid, resample, write_ascii_grid
from .readers import POSITIVE, check_fields, read_json
from .waveform import (DETECT_K, MAX_COMPONENTS, MAX_ELEV_GAP, METRIC_COLUMNS, SNR_MIN,
                       FootprintTable, process_waveforms, read_waveforms, write_filter_csv,
                       write_metrics_csv)

METRIC_FEATURES = ("wext", "h10", "h20", "h30", "h40", "h50", "h60", "h70",
                   "h80", "h90", "ti", "slope", "tch", "lead", "trail")
_FEATURE_COLUMNS = [METRIC_COLUMNS.index(f) for f in METRIC_FEATURES]
# run_mapping's jobs per process at least: on two cores, the CV and one map
# forked took 0.84-0.98 of their in-caller time on a scene of 33 footprint
# estimates, the smallest tried, and more jobs or estimates gained more
_WORKER_JOBS = 1


@dataclass(frozen=True)
class CalibrationSweepRow:
    max_dist: float
    n_pairs: int
    r2: float
    rmse: float


@dataclass
class MapProduct:
    agb: Grid
    krige_var: Grid
    trend_grid: Grid
    variogram: VariogramModel | None
    empirical: EmpiricalVariogram | None
    trend_model: object
    grid_size: float
    warning: str = ""
    n_clamped: int = 0


def _metric_design(metrics, y):
    """The METRIC_FEATURES columns of a footprint metric matrix against y."""
    return DesignMatrix(list(METRIC_FEATURES), metrics[:, _FEATURE_COLUMNS],
                        np.asarray(y, dtype=float))


def calibration_pairs(plots: PlotTable, footprints: FootprintTable, max_dist: float):
    """Each plot paired with its nearest footprint within max_dist.

    Returns (matched footprint rows, the pairs' plot AGB densities), in
    plot order; raises NoPairs when nothing matches.
    """
    plot_rows, foot_rows, _ = match_points(plots.xy, footprints.xy, max_dist)
    if plot_rows.size == 0:
        raise NoPairs(f"no plot-footprint pairs within {max_dist} m")
    return foot_rows, plots.agb[plot_rows]


def calibration_sweep(plots: PlotTable, footprints: FootprintTable, distances, kfold: int = 10,
                      seed: int = 0):
    """One row per max distance: matched pair count plus CV score of the
    all-metrics linear model. Distances too small for any pair raise NoPairs.
    """
    rows = []
    for dist in distances:
        foot_rows, y = calibration_pairs(plots, footprints, dist)
        n = len(y)
        if n >= len(METRIC_FEATURES) + 3:
            d = _metric_design(footprints.metrics[foot_rows], y)
            r2, rmse = kfold_cv(d, fit_ols, k=min(kfold, n), seed=seed)
        else:
            r2, rmse = float("nan"), float("nan")  # too few pairs to fit
        rows.append(CalibrationSweepRow(float(dist), n, r2, rmse))
    return rows


def write_sweep_csv(rows, f) -> None:
    """One line per CalibrationSweepRow under a header."""
    w = csv.writer(f)
    w.writerow(["max_dist", "n_pairs", "r2", "rmse"])
    for r in rows:
        w.writerow(["%.10g" % r.max_dist, r.n_pairs, "%.10g" % r.r2, "%.10g" % r.rmse])


def fit_footprint_agb_model(pair_metrics, pair_agb):
    """Stepwise-selected linear model of AGB on the waveform metrics, from
    the pairs' (n, len(METRIC_COLUMNS)) metric matrix."""
    n = len(pair_agb)
    if n < 2 * len(METRIC_FEATURES):
        raise RankDeficient(
            f"need at least {2 * len(METRIC_FEATURES)} pairs for selection, got {n}")
    return stepwise_bic(_metric_design(pair_metrics, pair_agb))


def predict_footprints(model, footprints: FootprintTable):
    """(SampleSet of footprint AGB, clamp count); negatives clamp to zero."""
    pred = model.predict(footprints.metrics[:, _FEATURE_COLUMNS], list(METRIC_FEATURES))
    clamped = int(np.sum(pred < 0))
    return SampleSet(footprints.xy, np.maximum(pred, 0.0)), clamped


def _resample_factor(stack: GridStack, grid_size: float) -> int:
    """The number of native cells along a side of a grid_size cell;
    ConfigError unless grid_size is a whole multiple of the native size
    and no longer than either side of the stack."""
    geom = stack.geometry()
    factor = grid_size / geom.cellsize
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        raise ConfigError(
            f"grid size {grid_size} is not an integer multiple of native {geom.cellsize}")
    if round(factor) > min(geom.nrows, geom.ncols):
        raise ConfigError(f"grid size {grid_size} is larger than the "
                          f"{geom.width:g} x {geom.height:g} m covariate grid")
    return int(round(factor))


def _resample_stack(stack: GridStack, grid_size: float) -> GridStack:
    factor = _resample_factor(stack, grid_size)
    if factor == 1:
        return stack
    return GridStack([(n, resample(g, factor)) for n, g in stack.items()])


def _covariate_rows(stack: GridStack, xy: np.ndarray):
    """(indices of the points inside the grid on a cell valid in every band,
    matrix of band values at those cells)."""
    row, col, inside = stack.geometry().locate(xy)
    X = stack.array()[:, row, col].T
    keep = np.flatnonzero(inside & np.isfinite(X).all(axis=1))
    return keep, X[keep]


def build_map(footprint_agb: SampleSet, covariates: GridStack, grid_size: float,
              trend: str = "rf", *, seed: int = 0, categorical=(),
              forest_params: ForestParams | None = None, neighborhood: int = 32,
              variogram_nbins: int = 30, variogram_max_lag: float | None = None,
              trend_top_k: int | None = None) -> MapProduct:
    """Trend fit, wall-to-wall prediction, residual kriging.

    A variogram fit failure degrades to a trend-only map with the warning
    recorded on the product and an all-nodata variance grid.
    """
    if trend not in ("lm", "rf"):
        raise ConfigError(f"trend must be 'lm' or 'rf', got {trend!r}")
    if footprint_agb.n == 0:
        raise EmptyDesign("no footprint AGB samples")
    stack = _resample_stack(covariates, grid_size)
    geom = stack.geometry()
    keep, X = _covariate_rows(stack, footprint_agb.xy)
    if keep.size == 0:
        raise EmptyDesign("no footprint falls on a valid covariate cell")
    names = stack.names
    d = DesignMatrix(names, X, footprint_agb.values[keep],
                     frozenset(categorical) & frozenset(names))

    if trend == "lm":
        model = stepwise_bic(d)
    else:
        params = forest_params or ForestParams()
        if trend_top_k is not None and trend_top_k < d.p:
            imp = rf_importance(d, params, repetitions=1, seed=seed)
            top = [imp.feature_names[j]
                   for j in np.argsort(imp.mean)[::-1][:trend_top_k]]
            cols = [names.index(f) for f in top]
            d = DesignMatrix(top, d.X[:, cols], d.y,
                             frozenset(categorical) & frozenset(top))
        model = fit_random_forest(d, params, seed)

    cube = stack.array()
    complete = stack.complete_mask()
    cells = np.column_stack([cube[b][complete] for b in range(cube.shape[0])])
    pred_cells = model.predict(cells, names)
    trend_vals = np.full(complete.shape, geom.nodata)
    trend_vals[complete] = pred_cells
    trend_grid = geom.copy_with(trend_vals)

    resid = d.y - model.predict_design(d)
    resid_samples = SampleSet(footprint_agb.xy[keep], resid)

    warning = ""
    variogram = None
    empirical = None
    try:
        max_lag = variogram_max_lag
        if max_lag is None:
            max_lag = 0.5 * float(np.hypot(geom.width, geom.height))
        empirical = empirical_variogram(resid_samples, bin_width=max_lag / variogram_nbins,
                                        max_lag=max_lag)
        variogram = fit_exponential(empirical)
    except (FitFailure, TooFewSamples) as e:
        warning = f"variogram fit failed, trend-only map: {e}"

    if variogram is not None:
        final, krige_var = regression_krige(trend_grid, resid_samples, variogram,
                                            neighborhood)
    else:
        final = trend_grid.copy_with(trend_grid.values)
        krige_var = geom.like(geom.nodata)

    mask = final.valid_mask()
    n_clamped = int(np.sum(mask & (final.values < 0)))
    vals = final.values.copy()
    vals[mask] = np.maximum(vals[mask], 0.0)
    return MapProduct(final.copy_with(vals), krige_var, trend_grid, variogram,
                      empirical, model, grid_size, warning=warning,
                      n_clamped=n_clamped)


def validate_map(agb_map: Grid, plots: PlotTable, min_count: int = 4):
    """(rmsep, r2, n_cells) comparing cell values against the mean AGB of
    the plots each valid cell contains; cells need at least min_count plots."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    row, col, inside = agb_map.locate(plots.xy)
    on_map = np.flatnonzero(inside & agb_map.valid_mask()[row, col])
    cell = row[on_map] * agb_map.ncols + col[on_map]
    by_cell = np.argsort(cell, kind="stable")  # cells in row-major order, plots in file order
    cells, starts, counts = np.unique(cell[by_cell], return_index=True, return_counts=True)
    groups = np.split(plots.agb[on_map[by_cell]], starts[1:])
    qualifying = counts >= min_count
    if not qualifying.any():
        raise NoQualifyingCells(f"no cell contains >= {min_count} plots")
    # np.mean per cell sums each group pairwise, as a mean over a list does
    obs = np.array([np.mean(g) for g, q in zip(groups, qualifying) if q])
    pred = agb_map.values.flat[cells[qualifying]]
    resid = pred - obs
    rmsep = float(np.sqrt(np.mean(resid ** 2)))
    tss = float(np.sum((obs - obs.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else float("nan")
    return rmsep, r2, len(obs)


VALIDATION_FIELDS = ("rmsep", "r2", "n_cells")  # validate_map's tuple


def write_validation_csv(validation, f) -> None:
    """Header plus the validate_map row; the header alone for None."""
    w = csv.writer(f)
    w.writerow(VALIDATION_FIELDS)
    if validation is not None:
        rmsep, r2, n_cells = validation
        w.writerow(["%.10g" % rmsep, "%.10g" % r2, n_cells])


# ---------------------------------------------------------------------------
# run orchestration

@dataclass
class RunConfig:
    waveforms: str
    dem: str
    covariates: dict
    plots: str
    out_dir: str
    trees: str | None = None
    grid_sizes: tuple = (500.0, 1000.0, 2000.0)
    trend: str = "rf"
    seed: int = 0
    calib_max_dist: float = 250.0
    sweep_distances: tuple = ()
    min_plots_per_cell: int = 4
    snr_min: float = SNR_MIN
    max_elev_gap: float = MAX_ELEV_GAP
    detect_k: float = DETECT_K
    max_components: int = MAX_COMPONENTS
    neighborhood: int = 32
    kfold: int = 10
    n_trees: int = 500
    min_leaf: int = 5
    mtry: int | None = None
    trend_top_k: int | None = None
    categorical: tuple = ()
    variogram_nbins: int = 30
    variogram_max_lag: float | None = None

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """The config in a JSON file, its relative paths joined to the file's
        directory; a malformed file, an unknown or missing key or a value of
        the wrong type or out of range raises ConfigError."""
        doc = check_fields(cls, read_json(path), path, items=_ITEM_TYPES, ranges=_RANGES,
                           required=("waveforms", "dem", "covariates", "plots", "out_dir"))
        cfg = cls(**doc)
        base = os.path.dirname(path)
        for name in ("waveforms", "dem", "plots", "trees", "out_dir"):
            if getattr(cfg, name) is not None:
                setattr(cfg, name, os.path.join(base, getattr(cfg, name)))
        cfg.covariates = {k: os.path.join(base, v) for k, v in cfg.covariates.items()}
        for name in ("grid_sizes", "sweep_distances", "categorical"):
            setattr(cfg, name, tuple(getattr(cfg, name)))
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in ("grid_sizes", "sweep_distances", "categorical"):
            d[name] = list(d[name])
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def forest_params(self) -> ForestParams:
        return ForestParams(n_trees=self.n_trees, mtry=self.mtry,
                            min_leaf=self.min_leaf)


# JSON types of the items of RunConfig's list- and dict-valued keys
_ITEM_TYPES = {"covariates": (str,), "grid_sizes": (int, float),
               "sweep_distances": (int, float), "categorical": (str,)}
# (test, wording) of the values each key may take
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_FINITE = (math.isfinite, "finite")
_RANGES = {"n_trees": _AT_LEAST_1, "min_leaf": _AT_LEAST_1, "neighborhood": _AT_LEAST_1,
           "variogram_nbins": _AT_LEAST_1, "min_plots_per_cell": _AT_LEAST_1,
           "mtry": _AT_LEAST_1, "trend_top_k": _AT_LEAST_1,
           "seed": (lambda v: v >= 0, ">= 0"), "kfold": (lambda v: v >= 2, ">= 2"),
           "max_components": (lambda v: 1 <= v <= MAX_COMPONENTS, f"in 1..{MAX_COMPONENTS}"),
           "calib_max_dist": POSITIVE, "detect_k": POSITIVE,
           "snr_min": _FINITE, "max_elev_gap": _FINITE,
           "variogram_max_lag": (lambda v: 0 < v < math.inf, "finite and > 0"),
           "trend": (lambda v: v in ("lm", "rf"), "'lm' or 'rf'"),
           "grid_sizes": (lambda v: v and all(0 < s < math.inf for s in v),
                          "a non-empty list of finite sizes > 0"),
           "sweep_distances": (lambda v: all(0 < d < math.inf for d in v),
                               "a list of finite distances > 0"),
           "covariates": (bool, "a non-empty map of band names to files")}


def split_plots(plots: PlotTable, seed: int):
    """Seeded 50/50 partition into (calibration, validation) tables."""
    order = np.random.default_rng(seed).permutation(len(plots.ids))
    half = len(plots.ids) // 2
    return plots.take(order[:half]), plots.take(order[half:])


def _size_tag(size: float) -> str:
    return "%g" % size


def _read_covariates(paths: dict) -> GridStack:
    """The stack of the covariate grids at paths (band name -> file);
    ConfigError naming both files where a grid's geometry differs from the
    first one's."""
    bands = [(name, read_ascii_grid(path)) for name, path in paths.items()]
    first = next(iter(paths.values()))
    for name, grid in bands[1:]:
        if not grid.same_geometry(bands[0][1]):
            raise ConfigError(f"{paths[name]}: grid geometry differs from that of {first}")
    return GridStack(bands)


def run_mapping(cfg: RunConfig) -> dict:
    """Execute the full chain and write every artifact under cfg.out_dir.
    That is made once the inputs are read, every grid size is found to be
    a whole multiple of the covariate cell size that fits in the covariate
    grid, and at least one footprint is kept.

    Once the footprint model is fitted, the calibration CV and one
    build_map per grid size, in that order, are independent jobs on
    parallel.map_runs (at least _WORKER_JOBS jobs per process); a job that
    runs on the pool forks nothing inside. Their outputs are written here,
    in job order, once every job has returned, so a failed job leaves no
    map file.

    Returns the manifest dictionary (also written as run_manifest.json).
    """
    records = read_waveforms(cfg.waveforms)
    dem = read_ascii_grid(cfg.dem)
    stack = _read_covariates(cfg.covariates)
    plots = load_plots(cfg.plots, cfg.trees)
    for size in cfg.grid_sizes:
        try:
            _resample_factor(stack, size)
        except ConfigError as e:
            first = next(iter(cfg.covariates.values()))
            raise ConfigError(f"key 'grid_sizes': {e} ({first})") from None
    reasons, footprints = process_waveforms(records, dem, k=cfg.detect_k,
                                            max_components=cfg.max_components,
                                            snr_min=cfg.snr_min, max_elev_gap=cfg.max_elev_gap)
    rejects = Counter(reason for reason in reasons if reason)
    if not len(footprints.xy):
        raise EmptyDesign(f"{cfg.waveforms}: no footprint was kept; rejects: "
                          + ", ".join(f"{r} {n}" for r, n in sorted(rejects.items())))
    os.makedirs(cfg.out_dir, exist_ok=True)

    outputs = []

    def output(name):
        """The path of name under cfg.out_dir; name joins the run's outputs."""
        outputs.append(name)
        return os.path.join(cfg.out_dir, name)

    with open(output("metrics.csv"), "w", newline="") as f:
        write_metrics_csv(footprints, f)
    with open(output("filter.csv"), "w", newline="") as f:
        write_filter_csv([w.id for w in records], reasons, f)
    calib_plots, valid_plots = split_plots(plots, cfg.seed)

    telemetry: dict = {
        "n_waveforms": len(records), "n_kept": len(footprints.xy),
        "rejects": dict(sorted(rejects.items())),
        "n_plots": len(plots.ids), "n_calibration_plots": len(calib_plots.ids),
    }

    if cfg.sweep_distances:
        rows = calibration_sweep(calib_plots, footprints, cfg.sweep_distances,
                                 kfold=cfg.kfold, seed=cfg.seed)
        with open(output("sweep.csv"), "w", newline="") as f:
            write_sweep_csv(rows, f)

    foot_rows, pair_agb = calibration_pairs(calib_plots, footprints, cfg.calib_max_dist)
    pair_metrics = footprints.metrics[foot_rows]
    footprint_model = fit_footprint_agb_model(pair_metrics, pair_agb)
    remaining = np.setdiff1d(np.arange(len(footprints.xy)), foot_rows)
    footprint_agb, n_clamped = predict_footprints(footprint_model, FootprintTable(
        footprints.xy[remaining], footprints.metrics[remaining]))

    jobs = [partial(kfold_cv, _metric_design(pair_metrics, pair_agb), stepwise_bic,
                    k=min(cfg.kfold, len(pair_agb)), seed=cfg.seed)]
    jobs += [partial(build_map, footprint_agb, stack, size, cfg.trend, seed=cfg.seed,
                     categorical=cfg.categorical, forest_params=cfg.forest_params(),
                     neighborhood=cfg.neighborhood, variogram_nbins=cfg.variogram_nbins,
                     variogram_max_lag=cfg.variogram_max_lag, trend_top_k=cfg.trend_top_k)
             for size in cfg.grid_sizes]
    runs = parallel.map_runs(lambda run: [jobs[i]() for i in run], len(jobs), len(jobs),
                             _WORKER_JOBS)
    (cv_r2, cv_rmse), *products = [result for run in runs for result in run]

    save_model(footprint_model, output("footprint_model.json"))
    telemetry["calibration"] = {
        "n_pairs": len(pair_agb), "max_dist": cfg.calib_max_dist,
        "cv_r2": cv_r2, "cv_rmse": cv_rmse,
        "selected": footprint_model.selected_features,
    }
    telemetry["n_footprint_estimates"] = footprint_agb.n
    telemetry["n_negative_clamped"] = n_clamped

    telemetry["maps"] = {}
    for size, product in zip(cfg.grid_sizes, products):
        tag = _size_tag(size)
        write_ascii_grid(product.agb, output(f"agb_{tag}.asc"))
        write_ascii_grid(product.krige_var, output(f"krigevar_{tag}.asc"))
        if product.empirical is not None:
            with open(output(f"variogram_{tag}.csv"), "w", newline="") as f:
                write_variogram_report(product.empirical, product.variogram, f)
        try:
            validation = validate_map(product.agb, valid_plots, cfg.min_plots_per_cell)
        except NoQualifyingCells:
            validation = None
        with open(output(f"validation_{tag}.csv"), "w", newline="") as f:
            write_validation_csv(validation, f)
        stock = carbon_stock(product.agb)
        with open(output(f"carbon_{tag}.csv"), "w", newline="") as f:
            write_carbon_report(stock, f)
        telemetry["maps"][tag] = {
            "validation": None if validation is None else
            dict(zip(VALIDATION_FIELDS, validation)),
            "carbon_ktc": stock.total_ktc,
            "n_clamped": product.n_clamped,
            "warning": product.warning,
            "variogram": None if product.variogram is None else {
                "nugget": product.variogram.nugget,
                "psill": product.variogram.psill,
                "range": product.variogram.range_m,
                "at_range_bound": at_range_bound(product.variogram, product.empirical),
            },
        }

    manifest = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
                "outputs": sorted(outputs), "telemetry": telemetry}
    with open(os.path.join(cfg.out_dir, "run_manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    return manifest
