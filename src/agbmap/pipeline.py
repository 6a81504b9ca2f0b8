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
from dataclasses import asdict, dataclass

import numpy as np

from .allometry import carbon_stock, load_plots, plot_agb_density, write_carbon_report
from .errors import (ConfigError, EmptyDesign, FitFailure, NoPairs,
                     NoQualifyingCells, RankDeficient, TooFewSamples)
from .forest import ForestParams, fit_random_forest, rf_importance
from .geostat import (EmpiricalVariogram, SampleSet, VariogramModel, at_range_bound,
                      empirical_variogram, fit_exponential, regression_krige,
                      write_variogram_report)
from .linear import DesignMatrix, fit_ols, kfold_cv, stepwise_bic
from .model_io import save_model
from .raster import Grid, GridStack, match_points, read_ascii_grid, resample, write_ascii_grid
from .readers import check_fields, read_json
from .waveform import (DETECT_K, MAX_COMPONENTS, MAX_ELEV_GAP, METRIC_COLUMNS, SNR_MIN,
                       process_waveforms, read_waveforms, write_filter_csv,
                       write_metrics_csv)

METRIC_FEATURES = ("wext", "h10", "h20", "h30", "h40", "h50", "h60", "h70",
                   "h80", "h90", "ti", "slope", "tch", "lead", "trail")


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


def _metric_design(pair_rows, y):
    X = np.array([[m[f] for f in METRIC_FEATURES] for m in pair_rows])
    return DesignMatrix(list(METRIC_FEATURES), X, np.asarray(y, dtype=float))


def calibration_pairs(plots, footprints, max_dist: float):
    """Each plot paired with its nearest footprint within max_dist.

    plots: PlotRecord list; footprints: rows of (id, x, y, metrics dict).
    Returns (pair metric dicts, pair plot AGB densities, matched footprint
    ids); raises NoPairs when nothing matches.
    """
    plot_xy = np.array([[p.lon, p.lat] for p in plots])
    densities = np.array([plot_agb_density(p) for p in plots])
    foot_xy = np.array([[x, y] for _, x, y, _ in footprints])
    pairs = match_points(plot_xy, foot_xy, max_dist)
    if not pairs:
        raise NoPairs(f"no plot-footprint pairs within {max_dist} m")
    metrics = [footprints[j][3] for _, j, _ in pairs]
    agb = densities[[i for i, _, _ in pairs]]
    return metrics, agb, {footprints[j][0] for _, j, _ in pairs}


def calibration_sweep(plots, footprints, distances, kfold: int = 10, seed: int = 0):
    """One row per max distance: matched pair count plus CV score of the
    all-metrics linear model. Distances too small for any pair raise NoPairs.

    plots: PlotRecord list; footprints: rows of (id, x, y, metrics dict).
    """
    rows = []
    for dist in distances:
        metric_rows, y, _ = calibration_pairs(plots, footprints, dist)
        n = len(y)
        if n >= len(METRIC_FEATURES) + 3:
            d = _metric_design(metric_rows, y)
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
    """Stepwise-selected linear model of AGB on the waveform metrics."""
    n = len(pair_agb)
    if n < 2 * len(METRIC_FEATURES):
        raise RankDeficient(
            f"need at least {2 * len(METRIC_FEATURES)} pairs for selection, got {n}")
    return stepwise_bic(_metric_design(pair_metrics, pair_agb))


def predict_footprints(model, footprints):
    """(SampleSet of footprint AGB, clamp count); negatives clamp to zero."""
    if not footprints:
        return SampleSet(np.empty((0, 2)), np.empty(0)), 0
    xy = np.array([[x, y] for _, x, y, _ in footprints])
    X = np.array([[m[f] for f in METRIC_FEATURES] for _, _, _, m in footprints])
    pred = model.predict(X, list(METRIC_FEATURES))
    clamped = int(np.sum(pred < 0))
    return SampleSet(xy, np.maximum(pred, 0.0)), clamped


def _resample_stack(stack: GridStack, grid_size: float) -> GridStack:
    native = stack.geometry().cellsize
    if grid_size == native:
        return stack
    factor = grid_size / native
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        raise ConfigError(
            f"grid size {grid_size} is not an integer multiple of native {native}")
    return GridStack([(n, resample(g, int(round(factor))))
                      for n, g in stack.items()])


def _covariate_rows(stack: GridStack, xy: np.ndarray):
    """(indices of the points inside the grid on a cell valid in every band,
    matrix of band values at those cells), located as Grid.cell_of does."""
    geom = stack.geometry()
    col = np.floor((xy[:, 0] - geom.origin_x) / geom.cellsize)
    row = geom.nrows - 1 - np.floor((xy[:, 1] - geom.origin_y) / geom.cellsize)
    keep = np.flatnonzero((0 <= row) & (row < geom.nrows) & (0 <= col) & (col < geom.ncols))
    X = stack.array()[:, row[keep].astype(int), col[keep].astype(int)].T
    complete = np.isfinite(X).all(axis=1)
    return keep[complete], X[complete]


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


def validate_map(agb_map: Grid, plots, min_count: int = 4):
    """(rmsep, r2, n_cells) comparing cell values against the mean AGB of
    the plots each cell contains; cells need at least min_count plots."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    per_cell: dict = {}
    for p in plots:
        rc = agb_map.cell_of(p.lon, p.lat)
        if rc is None:
            continue
        v = agb_map.values[rc]
        if not np.isfinite(v) or v == agb_map.nodata:
            continue
        per_cell.setdefault(rc, []).append(plot_agb_density(p))
    cells = {rc: vals for rc, vals in per_cell.items() if len(vals) >= min_count}
    if not cells:
        raise NoQualifyingCells(f"no cell contains >= {min_count} plots")
    keys = sorted(cells)
    obs = np.array([float(np.mean(cells[rc])) for rc in keys])
    pred = np.array([agb_map.values[rc] for rc in keys])
    resid = pred - obs
    rmsep = float(np.sqrt(np.mean(resid ** 2)))
    tss = float(np.sum((obs - obs.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else float("nan")
    return rmsep, r2, len(keys)


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
        """The config in a JSON file; a malformed file, an unknown or missing
        key or a value of the wrong type or out of range raises ConfigError."""
        doc = check_fields(cls, read_json(path), path, items=_ITEM_TYPES, ranges=_RANGES,
                           required=("waveforms", "dem", "covariates", "plots", "out_dir"))
        cfg = cls(**doc)
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
_POSITIVE = (lambda v: v > 0, "> 0")
_RANGES = {"n_trees": _AT_LEAST_1, "min_leaf": _AT_LEAST_1, "neighborhood": _AT_LEAST_1,
           "variogram_nbins": _AT_LEAST_1, "min_plots_per_cell": _AT_LEAST_1,
           "mtry": _AT_LEAST_1, "trend_top_k": _AT_LEAST_1,
           "seed": (lambda v: v >= 0, ">= 0"), "kfold": (lambda v: v >= 2, ">= 2"),
           "max_components": (lambda v: 1 <= v <= MAX_COMPONENTS, f"in 1..{MAX_COMPONENTS}"),
           "calib_max_dist": _POSITIVE, "detect_k": _POSITIVE,
           "variogram_max_lag": (lambda v: 0 < v < math.inf, "finite and > 0"),
           "trend": (lambda v: v in ("lm", "rf"), "'lm' or 'rf'"),
           "grid_sizes": (lambda v: all(s > 0 for s in v), "a list of sizes > 0")}


def split_plots(plots, seed: int):
    """Seeded 50/50 partition into (calibration, validation)."""
    order = np.random.default_rng(seed).permutation(len(plots))
    half = len(plots) // 2
    calib = [plots[i] for i in order[:half]]
    valid = [plots[i] for i in order[half:]]
    return calib, valid


def _size_tag(size: float) -> str:
    return "%g" % size


def run_mapping(cfg: RunConfig) -> dict:
    """Execute the full chain and write every artifact under cfg.out_dir.

    Returns the manifest dictionary (also written as run_manifest.json).
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    records = read_waveforms(cfg.waveforms)
    dem = read_ascii_grid(cfg.dem)
    stack = GridStack([(name, read_ascii_grid(path))
                       for name, path in cfg.covariates.items()])
    plots = load_plots(cfg.plots, cfg.trees)

    results = process_waveforms(records, dem, k=cfg.detect_k,
                                max_components=cfg.max_components,
                                snr_min=cfg.snr_min, max_elev_gap=cfg.max_elev_gap)
    kept = [fr for fr in results if fr.result.kept]
    reject_counts: dict = {}
    for fr in results:
        if not fr.result.kept:
            reject_counts[fr.result.reason] = reject_counts.get(fr.result.reason, 0) + 1

    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="") as f:
        write_metrics_csv(results, f)
    filter_path = os.path.join(cfg.out_dir, "filter.csv")
    with open(filter_path, "w", newline="") as f:
        write_filter_csv(results, f)
    outputs = ["metrics.csv", "filter.csv"]

    footprints = [(fr.record.id, fr.record.lon, fr.record.lat,
                   {c: getattr(fr.metrics, c) for c in METRIC_COLUMNS})
                  for fr in kept]
    calib_plots, valid_plots = split_plots(plots, cfg.seed)

    telemetry: dict = {
        "n_waveforms": len(records), "n_kept": len(kept),
        "rejects": dict(sorted(reject_counts.items())),
        "n_plots": len(plots), "n_calibration_plots": len(calib_plots),
    }

    if cfg.sweep_distances:
        rows = calibration_sweep(calib_plots, footprints, cfg.sweep_distances,
                                 kfold=cfg.kfold, seed=cfg.seed)
        with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", newline="") as f:
            write_sweep_csv(rows, f)
        outputs.append("sweep.csv")

    pair_metrics, pair_agb, used = calibration_pairs(calib_plots, footprints,
                                                     cfg.calib_max_dist)
    footprint_model = fit_footprint_agb_model(pair_metrics, pair_agb)
    d_pairs = _metric_design(pair_metrics, pair_agb)
    cv_r2, cv_rmse = kfold_cv(d_pairs, stepwise_bic,
                              k=min(cfg.kfold, len(pair_agb)), seed=cfg.seed)
    model_path = os.path.join(cfg.out_dir, "footprint_model.json")
    save_model(footprint_model, model_path)
    outputs.append("footprint_model.json")
    telemetry["calibration"] = {
        "n_pairs": len(pair_agb), "max_dist": cfg.calib_max_dist,
        "cv_r2": cv_r2, "cv_rmse": cv_rmse,
        "selected": footprint_model.selected_features,
    }

    remaining = [fp for fp in footprints if fp[0] not in used]
    footprint_agb, n_clamped = predict_footprints(footprint_model, remaining)
    telemetry["n_footprint_estimates"] = footprint_agb.n
    telemetry["n_negative_clamped"] = n_clamped

    telemetry["maps"] = {}
    for size in cfg.grid_sizes:
        tag = _size_tag(size)
        product = build_map(footprint_agb, stack, size, cfg.trend, seed=cfg.seed,
                            categorical=cfg.categorical,
                            forest_params=cfg.forest_params(),
                            neighborhood=cfg.neighborhood,
                            variogram_nbins=cfg.variogram_nbins,
                            variogram_max_lag=cfg.variogram_max_lag,
                            trend_top_k=cfg.trend_top_k)
        write_ascii_grid(product.agb, os.path.join(cfg.out_dir, f"agb_{tag}.asc"))
        write_ascii_grid(product.krige_var,
                         os.path.join(cfg.out_dir, f"krigevar_{tag}.asc"))
        outputs += [f"agb_{tag}.asc", f"krigevar_{tag}.asc"]
        if product.empirical is not None:
            with open(os.path.join(cfg.out_dir, f"variogram_{tag}.csv"),
                      "w", newline="") as f:
                write_variogram_report(product.empirical, product.variogram, f)
            outputs.append(f"variogram_{tag}.csv")
        try:
            validation = validate_map(product.agb, valid_plots, cfg.min_plots_per_cell)
        except NoQualifyingCells:
            validation = None
        with open(os.path.join(cfg.out_dir, f"validation_{tag}.csv"),
                  "w", newline="") as f:
            write_validation_csv(validation, f)
        outputs.append(f"validation_{tag}.csv")
        stock = carbon_stock(product.agb)
        with open(os.path.join(cfg.out_dir, f"carbon_{tag}.csv"),
                  "w", newline="") as f:
            write_carbon_report(stock, f)
        outputs.append(f"carbon_{tag}.csv")
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
