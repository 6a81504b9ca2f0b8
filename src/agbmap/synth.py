"""Seeded miniature scenes with known ground truth.

A scene holds smooth covariate fields, a truth AGB surface composed of a
linear trend on the covariates plus a spatially correlated residual field
with a requested exponential variogram, waveform footprints whose canopy
Gaussian encodes the local truth AGB through a fixed linear map, and noisy
plot observations of the truth. Everything derives from one master seed
through spawned substreams, so a scene is bit-reproducible and independent
of generation order.

The residual field uses circulant embedding: the covariance is laid out on
a doubled torus, its FFT gives the eigenvalues, and complex white noise
shaped by their square root transforms back to a stationary field. Tiny
negative embedding eigenvalues are clamped to zero; the variogram of the
output is validated in the test suite rather than trusted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .allometry import PlotTable, write_plots
from .errors import ConfigError
from .raster import Grid, GridStack, write_ascii_grid
from .readers import check_fields, read_json
from .waveform import WaveformRecord, write_waveforms


@dataclass(frozen=True)
class SceneConfig:
    extent: float = 50_000.0          # square side, metres
    cellsize: float = 250.0
    n_covariates: int = 3
    covariate_range: float = 15_000.0
    trend_intercept: float = 250.0
    trend_coefficients: tuple = (60.0, -40.0, 25.0)
    residual_nugget: float = 100.0    # (Mg/ha)^2 micro-scale variance
    residual_psill: float = 2500.0
    residual_range: float = 6000.0
    n_footprints: int = 3000
    n_plots: int = 200
    agb_per_meter: float = 8.0        # Mg/ha per metre of canopy height
    canopy_noise_sd: float = 0.0      # m, jitter between AGB and canopy height
    plot_noise_sd: float = 25.0       # Mg/ha observation noise
    bin_size: float = 0.3             # m
    noise_mean: float = 8.0           # counts
    noise_sd: float = 1.0             # counts, must stay > 0
    ground_amplitude: float = 100.0
    canopy_amplitude: float = 70.0
    ground_sigma: float = 1.5
    canopy_sigma: float = 3.0
    cloud_violation_rate: float = 0.0
    sat_violation_rate: float = 0.0
    low_snr_rate: float = 0.0
    elev_mismatch_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not all(-math.inf < v < math.inf for v in np.ravel(value).tolist()):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.extent <= 0 or self.cellsize <= 0 or self.extent < 2 * self.cellsize:
            raise ConfigError("extent and cellsize must be positive with extent >= 2 cells")
        cells = self.extent / self.cellsize  # inf for a subnormal cellsize, which fails here
        if not min(cells % 1, -cells % 1) <= 1e-9 * cells:
            raise ConfigError(f"extent must be a whole number of cells, got {cells:g}")
        if not all(v > 0 for v in (self.bin_size, self.agb_per_meter, self.covariate_range)):
            raise ConfigError("bin_size, agb_per_meter and covariate_range must be > 0")
        if self.n_covariates < 1:
            raise ConfigError("n_covariates must be >= 1")
        if self.residual_range >= self.extent:
            raise ConfigError("residual range must be below the extent")
        if min(self.residual_nugget, self.residual_psill) < 0:
            raise ConfigError("variogram parameters must be nonnegative")
        if self.n_footprints < 1 or self.n_plots < 0:
            raise ConfigError("n_footprints must be >= 1 and n_plots >= 0")
        if self.noise_sd <= 0:
            raise ConfigError("noise_sd must be > 0; zero spread trips the "
                              "degenerate-noise guard in signal detection")
        rates = (self.cloud_violation_rate, self.sat_violation_rate,
                 self.low_snr_rate, self.elev_mismatch_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1:
            raise ConfigError("violation rates must be nonnegative and sum to <= 1")
        if len(self.trend_coefficients) != self.n_covariates:
            raise ConfigError("need one trend coefficient per covariate")


@dataclass
class Scene:
    config: SceneConfig
    covariates: GridStack
    dem: Grid
    truth_agb: Grid
    footprints: list
    footprint_truth: dict          # id -> (agb, canopy_height, ground_elev)
    plots: PlotTable
    expected_rejects: dict = field(default_factory=dict)  # id -> reason


def simulate_exponential_field(nrows: int, ncols: int, cellsize: float,
                               variance: float, range_m: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Stationary Gaussian field with covariance variance*exp(-3h/range)."""
    if variance <= 0:
        return np.zeros((nrows, ncols))
    nr2, nc2 = 2 * nrows, 2 * ncols
    ry = np.minimum(np.arange(nr2), nr2 - np.arange(nr2)) * cellsize
    rx = np.minimum(np.arange(nc2), nc2 - np.arange(nc2)) * cellsize
    h = np.hypot(ry[:, None], rx[None, :])
    cov = variance * np.exp(-3.0 * h / range_m)
    lam = np.fft.fft2(cov).real
    lam = np.maximum(lam, 0.0)
    eps = rng.standard_normal((nr2, nc2)) + 1j * rng.standard_normal((nr2, nc2))
    npoints = nr2 * nc2
    spec = eps * np.sqrt(lam / npoints)
    fld = np.fft.ifft2(spec).real * npoints
    return fld[:nrows, :ncols]


def synthesize_waveform(fid: str, x: float, y: float, ground_elev: float,
                        canopy_height: float, cfg: SceneConfig,
                        rng: np.random.Generator,
                        amplitude_factor: float = 1.0, pad: float = 0.0) -> WaveformRecord:
    """Two-Gaussian waveform: ground return plus a canopy return above it.

    Margins scale with canopy height so the first/last 10 percent of bins
    stay clear of the Gaussian tails and estimate pure background noise.
    `amplitude_factor` shrinks both returns to fake a weak-signal shot, and
    `pad` adds that many metres of background at each end.
    """
    top = ground_elev + canopy_height + 15.0 + 0.15 * canopy_height + pad
    bottom = ground_elev - (9.0 + 0.12 * canopy_height) - pad
    nbins = int(math.ceil((top - bottom) / cfg.bin_size)) + 1
    elev = top - np.arange(nbins) * cfg.bin_size
    signal = amplitude_factor * (
        cfg.ground_amplitude
        * np.exp(-0.5 * ((elev - ground_elev) / cfg.ground_sigma) ** 2)
        + cfg.canopy_amplitude
        * np.exp(-0.5 * ((elev - (ground_elev + canopy_height)) / cfg.canopy_sigma) ** 2))
    noise = rng.normal(cfg.noise_mean, cfg.noise_sd, nbins)
    return WaveformRecord(id=fid, lon=x, lat=y, bin_top_elev=float(top),
                          bin_size=cfg.bin_size,
                          intensities=np.maximum(signal + noise, 0.0),
                          srtm_elev=float(ground_elev))


def generate_scene(cfg: SceneConfig) -> Scene:
    cfg.validate()
    ncells = int(round(cfg.extent / cfg.cellsize))
    root = np.random.SeedSequence(cfg.seed)
    (ss_cov, ss_dem, ss_resid, ss_nugget, ss_place, ss_canopy, ss_violate,
     ss_plots, ss_noise) = root.spawn(9)

    def make_grid(values):
        return Grid(values, 0.0, 0.0, cfg.cellsize)

    # standardized smooth covariates
    bands = []
    for i, child in enumerate(ss_cov.spawn(cfg.n_covariates)):
        fld = simulate_exponential_field(ncells, ncells, cfg.cellsize, 1.0,
                                         cfg.covariate_range,
                                         np.random.default_rng(child))
        fld = (fld - fld.mean()) / max(fld.std(), 1e-12)
        bands.append((f"cov{i + 1}", make_grid(fld)))
    covariates = GridStack(bands)

    dem_fld = simulate_exponential_field(ncells, ncells, cfg.cellsize, 1.0,
                                         cfg.extent / 2,
                                         np.random.default_rng(ss_dem))
    dem_fld = (dem_fld - dem_fld.mean()) / max(dem_fld.std(), 1e-12)
    dem = make_grid(120.0 + 15.0 * dem_fld)

    trend = np.full((ncells, ncells), cfg.trend_intercept)
    for coef, (_, grid) in zip(cfg.trend_coefficients, covariates.items()):
        trend = trend + coef * grid.values
    residual = simulate_exponential_field(ncells, ncells, cfg.cellsize,
                                          cfg.residual_psill, cfg.residual_range,
                                          np.random.default_rng(ss_resid))
    if cfg.residual_nugget > 0:
        residual = residual + np.random.default_rng(ss_nugget).normal(
            0.0, math.sqrt(cfg.residual_nugget), residual.shape)
    truth = make_grid(np.maximum(trend + residual, 0.0))

    place_rng = np.random.default_rng(ss_place)
    fxy = place_rng.uniform(0.0, cfg.extent, size=(cfg.n_footprints, 2))
    canopy_rng = np.random.default_rng(ss_canopy)

    n = cfg.n_footprints
    counts = [int(round(r * n)) for r in (cfg.cloud_violation_rate,
                                          cfg.sat_violation_rate,
                                          cfg.low_snr_rate,
                                          cfg.elev_mismatch_rate)]
    order = np.random.default_rng(ss_violate).permutation(n)
    cursor = 0
    injected = {}
    for reason, cnt in zip(("Cloud", "Saturated", "SNR", "ElevationMismatch"), counts):
        for i in order[cursor:cursor + cnt]:
            injected[int(i)] = reason
        cursor += cnt

    footprints = []
    footprint_truth = {}
    expected_rejects = {}
    noise_children = ss_noise.spawn(n)
    # a weak shot: detectable above mean + 4.5 sd yet safely under SNR 15. It
    # peaks 7 noise sds up, and 60 m of background at each end give its noise
    # estimate 100-150 bins: 20 000 such shots read SNR 5.7-12.6 (9 sds on
    # 22-66 bins read 5.9-19.6)
    low_snr_factor = (7.0 * cfg.noise_sd) / cfg.ground_amplitude
    for i, ((x, y), agb, ground) in enumerate(zip(fxy, truth.sample(fxy).tolist(),
                                                  dem.sample(fxy).tolist())):
        fid = f"fp{i:06d}"
        h = agb / cfg.agb_per_meter
        if cfg.canopy_noise_sd > 0:
            h += canopy_rng.normal(0.0, cfg.canopy_noise_sd)
        h = float(np.clip(h, 8.0, 60.0))
        reason = injected.get(i)
        rng_i = np.random.default_rng(noise_children[i])
        weak = reason == "SNR"
        w = synthesize_waveform(fid, x, y, ground, h, cfg, rng_i,
                                amplitude_factor=low_snr_factor if weak else 1.0,
                                pad=60.0 if weak else 0.0)
        if reason == "Cloud":
            w.cloud_flag = 0
        elif reason == "Saturated":
            w.sat_ndx = 1
        elif reason == "ElevationMismatch":
            w.srtm_elev = ground + 160.0
        if reason is not None:
            expected_rejects[fid] = reason
        footprints.append(w)
        footprint_truth[fid] = (agb, h, ground)

    plot_rng = np.random.default_rng(ss_plots)
    pxy = plot_rng.uniform(0.0, cfg.extent, size=(cfg.n_plots, 2))
    obs = plot_rng.normal(0.0, cfg.plot_noise_sd, cfg.n_plots) \
        if cfg.plot_noise_sd > 0 else np.zeros(cfg.n_plots)
    plots = PlotTable(tuple(f"plot{i:04d}" for i in range(cfg.n_plots)), pxy,
                      np.maximum(truth.sample(pxy) + obs, 0.0))

    return Scene(cfg, covariates, dem, truth, footprints, footprint_truth,
                 plots, expected_rejects)


def write_scene(scene: Scene, outdir) -> dict:
    """Emit the exact file set the mapping pipeline consumes.

    Returns {role: path}; truth_agb.asc is for scoring only.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    wf = os.path.join(outdir, "waveforms.ndjson")
    write_waveforms(scene.footprints, wf)
    paths["waveforms"] = wf
    pl = os.path.join(outdir, "plots.csv")
    write_plots(scene.plots, pl)
    paths["plots"] = pl
    dm = os.path.join(outdir, "dem.asc")
    write_ascii_grid(scene.dem, dm)
    paths["dem"] = dm
    paths["covariates"] = {}
    for name, grid in scene.covariates.items():
        p = os.path.join(outdir, f"{name}.asc")
        write_ascii_grid(grid, p)
        paths["covariates"][name] = p
    tr = os.path.join(outdir, "truth_agb.asc")
    write_ascii_grid(scene.truth_agb, tr)
    paths["truth"] = tr
    return paths


def small_config(**overrides) -> SceneConfig:
    """A fast desk-test profile; overrides replace individual fields."""
    base = SceneConfig(extent=15_000.0, cellsize=250.0, residual_range=3000.0,
                       n_footprints=400, n_plots=400, plot_noise_sd=15.0,
                       canopy_noise_sd=1.0)
    return replace(base, **overrides)


def scene_config(seed: int, full_scale: bool, overrides=None) -> SceneConfig:
    """The full-scale or desk profile with seed and the fields set in the JSON
    file at path overrides. A malformed file, an unknown key, a `seed` key
    (the caller sets the seed), a value of the wrong type or a scene that
    fails validate raises ConfigError naming the file."""
    fields = {}
    if overrides is not None:
        fields = check_fields(SceneConfig, read_json(overrides), overrides,
                              items={"trend_coefficients": (int, float)})
        if "seed" in fields:
            raise ConfigError(f"{overrides}: key 'seed' is not allowed; --seed sets it")
    cfg = replace(SceneConfig() if full_scale else small_config(), seed=seed, **fields)
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"{overrides}: {e}") from None
    return cfg
