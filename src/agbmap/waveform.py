"""Large-footprint LiDAR waveform processing.

A waveform is a sequence of return intensities over elevation bins ordered
top to bottom. Processing runs in four stages: background-noise estimation
and signal-bound detection against a mean + k*sd threshold, Gaussian
decomposition of the noise-subtracted signal with BIC model-order
selection, ground-peak identification as the stronger of the two lowest
peaks, and extraction of the canopy metrics (extent, canopy-top height,
leading/trailing edges, energy quantile depths, terrain index and slope).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import BadRecord, DegenerateNoise, FitFailure, NoSignal
from .lsq import plm
from .readers import csv_rows, finite

DETECT_K = 4.5
SNR_MIN = 15.0
CLOUD_OK = 15
MAX_ELEV_GAP = 100.0
QUANTILES = (10, 20, 30, 40, 50, 60, 70, 80, 90)
MAX_COMPONENTS = 6  # largest Gaussian count a decomposition may try
MIN_AMPLITUDE_SDS = 3.0    # a significant component reaches this many noise sds
MIN_AMPLITUDE_FRAC = 0.08  # and this fraction of the strongest amplitude


@dataclass
class WaveformRecord:
    id: str
    lon: float
    lat: float
    bin_top_elev: float      # elevation of bin 0, metres
    bin_size: float          # metres, > 0
    intensities: np.ndarray  # counts, top to bottom
    sat_ndx: int = 0
    cloud_flag: int = CLOUD_OK
    srtm_elev: float = 0.0
    acquired_at: str | None = None

    def __post_init__(self):
        for name in ("lon", "lat", "bin_top_elev", "srtm_elev"):
            setattr(self, name, finite(getattr(self, name), f"waveform {self.id}: {name}"))
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.intensities.ndim != 1 or self.intensities.size < 10:
            raise ValueError(f"waveform {self.id}: need >= 10 intensity bins")
        if not self.bin_size > 0:
            raise ValueError(f"waveform {self.id}: bin_size must be > 0")
        if np.any(self.intensities < 0) or not np.all(np.isfinite(self.intensities)):
            raise ValueError(f"waveform {self.id}: intensities must be finite and >= 0")

    @property
    def nbins(self) -> int:
        return self.intensities.size

    @property
    def elevations(self) -> np.ndarray:
        return self.bin_top_elev - np.arange(self.nbins) * self.bin_size


@dataclass(frozen=True)
class NoiseStats:
    mean: float
    sd: float
    snr: float


@dataclass(frozen=True)
class GaussianComponent:
    amplitude: float
    center_elev: float
    sigma: float


@dataclass
class WaveformMetrics:
    wext: float
    tch: float
    lead: float
    trail: float
    h10: float
    h20: float
    h30: float
    h40: float
    h50: float
    h60: float
    h70: float
    h80: float
    h90: float
    ti: float
    slope: float
    begin_elev: float
    end_elev: float
    ground_elev: float

    def quantile_depths(self) -> np.ndarray:
        return np.array([getattr(self, f"h{q}") for q in QUANTILES])


@dataclass(frozen=True)
class FilterResult:
    kept: bool
    reason: str = ""


def _noise_window(n: int):
    m = max(1, int(round(0.1 * n)))
    idx = np.zeros(n, dtype=bool)
    idx[:m] = True
    idx[n - m:] = True
    return idx


def detect_signal_bounds(w: WaveformRecord, k: float = DETECT_K):
    """(NoiseStats, begin_elev, end_elev) from a mean + k*sd threshold.

    Noise comes from the first and last 10 percent of bins; if the detected
    signal reaches into that window the estimate is refined once with the
    signal bins excluded. Raises NoSignal when nothing clears the
    threshold and DegenerateNoise when the noise window has zero spread
    while the waveform itself varies.
    """
    if not k > 0:
        raise ValueError("k must be > 0")
    v = w.intensities
    window = _noise_window(w.nbins)
    mean = float(v[window].mean())
    sd = float(v[window].std())
    if sd == 0.0:
        if np.ptp(v) == 0.0:
            raise NoSignal(f"waveform {w.id}: flat waveform")
        raise DegenerateNoise(f"waveform {w.id}: zero noise spread in window")

    def bounds(mean_, sd_):
        above = np.flatnonzero(v > mean_ + k * sd_)
        if above.size == 0:
            return None
        return int(above[0]), int(above[-1])

    b = bounds(mean, sd)
    if b is not None:
        sig = np.zeros(w.nbins, dtype=bool)
        sig[b[0]:b[1] + 1] = True
        refined = window & ~sig
        if refined.sum() >= 2 and refined.sum() < window.sum():
            mean = float(v[refined].mean())
            sd = float(v[refined].std())
            if sd > 0.0:
                b = bounds(mean, sd)
    if b is None:
        raise NoSignal(f"waveform {w.id}: no bin exceeds mean + {k}*sd")
    snr = (float(v.max()) - mean) / sd if sd > 0 else float("inf")
    elev = w.elevations
    return NoiseStats(mean, sd, snr), float(elev[b[0]]), float(elev[b[1]])


# Stop rules of lsq.plm for the Gaussian fits: relative step, relative cost
# decrease, projected gradient, model evaluations per fit.
_XTOL = 1e-10
_FTOL = 1e-10
_GTOL = 1e-8
_MAX_NFEV = 400
_BLOCK = 32  # footprints fitted together: memory grows with the block, speed does not


def _residuals(p: np.ndarray, x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    """Masked residuals (n, B) and Jacobian (n, P, B) of the Gaussian sums
    whose (amplitude, center, sigma) triples fill each row of p (n, P)."""
    a, c, s = (p[:, i::3, None] for i in range(3))
    z = (x[:, None, :] - c) / s
    e = np.exp(-0.5 * z * z)
    ae = a * e
    r = (ae.sum(axis=1) - y) * mask
    jac = np.stack([e, ae * z / s, ae * z * z / s], axis=2) * mask[:, None, None, :]
    return r, jac.reshape(p.shape[0], -1, x.shape[1])


def _initial_centers(y: np.ndarray, x: np.ndarray, ncomp: int, bin_size: float):
    """Candidate centers from local maxima of a lightly smoothed signal."""
    kernel = np.exp(-0.5 * (np.arange(-4, 5) / 2.0) ** 2)
    kernel /= kernel.sum()
    ys = np.convolve(y, kernel, mode="same")
    interior = (ys[1:-1] >= ys[:-2]) & (ys[1:-1] > ys[2:]) & (ys[1:-1] > 0)
    peaks = np.flatnonzero(interior) + 1
    peaks = peaks[np.argsort(ys[peaks])[::-1]]
    centers = list(x[peaks[:ncomp]])
    amps = list(np.maximum(ys[peaks[:ncomp]], 1e-3))
    while len(centers) < ncomp:
        # fall back to evenly spaced centers through the window
        frac = (len(centers) + 1) / (ncomp + 1)
        centers.append(x[0] + frac * (x[-1] - x[0]))
        amps.append(max(float(ys.max()), 1e-3) / 2)
    sigma0 = max(2.0 * bin_size, 0.5)
    return centers, amps, sigma0


def _start(x: np.ndarray, y: np.ndarray, bin_size: float, ncomp: int):
    """(p0, lo, hi) of an ncomp-component fit to one window."""
    amp_hi = 2.0 * max(float(y.max()), 1e-6)
    lo_c = x.min() - 2 * bin_size
    hi_c = x.max() + 2 * bin_size
    sig_lo = 0.4 * bin_size
    sig_hi = max(x.max() - x.min(), 1.0)
    centers, amps, sigma0 = _initial_centers(y, x, ncomp, bin_size)
    p0 = [v for c0, a0 in zip(centers, amps)
          for v in (min(max(a0, 1e-6), amp_hi * 0.99), c0, sigma0)]
    return p0, [1e-9, lo_c, sig_lo] * ncomp, [amp_hi, hi_c, sig_hi] * ncomp


def _pad(windows):
    """(x, y, mask) blocks (n, B) of (x, y, bin_size) windows, zero-padded
    to the longest; padding bins repeat x[0] so they stay finite."""
    width = max(x.size for x, _, _ in windows)
    xs, ys, mask = np.zeros((3, len(windows), width))
    for i, (x, y, _) in enumerate(windows):
        xs[i] = x[0]
        xs[i, :x.size], ys[i, :y.size], mask[i, :y.size] = x, y, 1.0
    return xs, ys, mask


def _fit_orders(windows, max_components: int) -> list:
    """(params, rss) of the BIC-best component count for each (x, y,
    bin_size) window, or None where no count converged.

    Counts 1..max_components are fitted level by level over blocks of
    _BLOCK windows; a window leaves the scan once two consecutive counts
    fail to improve its best BIC.
    """
    best = [None] * len(windows)
    for start in range(0, len(windows), _BLOCK):
        block = windows[start:start + _BLOCK]
        xs, ys, mask = _pad(block)
        scanning = list(range(len(block)))
        stale = [0] * len(block)
        for ncomp in range(1, max_components + 1):
            p0, lo, hi = map(np.array, zip(*(_start(*block[i], ncomp) for i in scanning)))
            params, rss, ok = plm(_residuals, p0, lo, hi,
                                  (xs[scanning], ys[scanning], mask[scanning]), xtol=_XTOL,
                                  ftol=_FTOL, gtol=_GTOL, max_nfev=_MAX_NFEV)
            still = []
            for i, p, e, converged in zip(scanning, params, rss, ok):
                if converged:
                    m = block[i][0].size
                    bic = m * math.log(max(e, 1e-300) / m) + 3 * ncomp * math.log(m)
                    b = best[start + i]
                    if b is None or bic < b[0]:
                        best[start + i] = (bic, p, float(e))
                        stale[i] = 0
                    else:
                        stale[i] += 1
                if stale[i] < 2:
                    still.append(i)
            scanning = still
            if not scanning:
                break
    return [None if b is None else b[1:] for b in best]


def _check_components(max_components: int) -> None:
    if not 1 <= max_components <= MAX_COMPONENTS:
        raise ValueError(f"max_components must be in 1..{MAX_COMPONENTS}")


def _fit_window(w: WaveformRecord, noise: NoiseStats, begin_elev: float, end_elev: float):
    """(x, y, bin_size): the noise-subtracted signal within three bins of
    the bounds. Raises FitFailure when it holds fewer than four bins."""
    elev = w.elevations
    margin = 3 * w.bin_size
    sel = (elev <= begin_elev + margin) & (elev >= end_elev - margin)
    if sel.sum() < 4:
        raise FitFailure(f"waveform {w.id}: too few signal bins to fit")
    return elev[sel], w.intensities[sel] - noise.mean, w.bin_size


def _significant(w: WaveformRecord, noise: NoiseStats, fit, m: int):
    """(significant components by descending elevation, residual RMS)."""
    if fit is None:
        raise FitFailure(f"waveform {w.id}: Gaussian decomposition did not converge")
    params, rss = fit
    comps = [GaussianComponent(float(a), float(c), float(s))
             for a, c, s in params.reshape(-1, 3)]
    floor = max(MIN_AMPLITUDE_SDS * noise.sd,
                MIN_AMPLITUDE_FRAC * max(g.amplitude for g in comps))
    significant = [g for g in comps if g.amplitude >= floor]
    if not significant:
        significant = [max(comps, key=lambda g: g.amplitude)]
    significant.sort(key=lambda g: -g.center_elev)
    return significant, math.sqrt(rss / m)


def decompose_gaussians(w: WaveformRecord, noise: NoiseStats,
                        max_components: int = MAX_COMPONENTS, *, bounds):
    """Gaussian mixture fit of the noise-subtracted signal between the
    (begin_elev, end_elev) bounds.

    The component count minimizing BIC over 1..max_components wins; each
    count is fitted by bounded nonlinear least squares (projected
    Levenberg-Marquardt) initialized from smoothed local maxima. The scan
    stops early once two consecutive counts fail to improve the best BIC.
    Components are discarded as insignificant when their amplitude stays
    under MIN_AMPLITUDE_SDS noise spreads, or under MIN_AMPLITUDE_FRAC of
    the strongest component (shoulder artifacts of an overparameterized
    mixture fit); the strongest one always survives. Returns (components
    ordered by descending center elevation, residual RMS). Raises
    FitFailure when no count converges.
    """
    _check_components(max_components)
    window = _fit_window(w, noise, *bounds)
    fit = _fit_orders([window], max_components)[0]
    return _significant(w, noise, fit, window[0].size)


def identify_ground_peak(components) -> GaussianComponent:
    """The stronger of the two lowest-elevation components.

    Components must be ordered by descending center elevation. Equal
    amplitudes break toward the lower component; a single component is
    its own ground.
    """
    if not components:
        raise ValueError("no components")
    if len(components) == 1:
        return components[0]
    upper, lower = components[-2], components[-1]
    return upper if upper.amplitude > lower.amplitude else lower


def _plane_slope_deg(patch: np.ndarray, cellsize: float) -> float:
    """Slope of the least-squares plane through a 3x3 elevation patch."""
    yy, xx = np.mgrid[0:3, 0:3]
    a = np.column_stack([np.ones(9), xx.ravel() * cellsize, -yy.ravel() * cellsize])
    coef, _, _, _ = np.linalg.lstsq(a, patch.ravel(), rcond=None)
    return math.degrees(math.atan(math.hypot(coef[1], coef[2])))


def extract_metrics(w: WaveformRecord, components, dem_patch, *, noise: NoiseStats,
                    bounds, dem_cellsize: float = 90.0) -> WaveformMetrics:
    """Canopy metrics from decomposed components, a 3x3 DEM patch and the
    (begin_elev, end_elev) signal bounds.

    Quantile heights are depths below the signal beginning at which the
    cumulative noise-subtracted energy (top-down, inside the signal
    bounds) reaches 10..90 percent, linearly interpolated between bins.
    """
    begin_elev, end_elev = bounds
    ground = identify_ground_peak(components)
    top = components[0]
    wext = begin_elev - end_elev
    tch = top.center_elev - ground.center_elev
    lead = max(begin_elev - top.center_elev, 0.0)
    trail = max(ground.center_elev - end_elev, 0.0)

    elev = w.elevations
    sel = (elev <= begin_elev) & (elev >= end_elev)
    energy = np.maximum(w.intensities[sel] - noise.mean, 0.0)
    depths = begin_elev - elev[sel]
    total = float(energy.sum())
    if total <= 0:
        hq = np.full(len(QUANTILES), wext)
    else:
        cum = np.cumsum(energy) / total
        hq = np.empty(len(QUANTILES))
        for qi, q in enumerate(QUANTILES):
            t = q / 100.0
            j = int(np.searchsorted(cum, t))
            if j == 0:
                prev_c, prev_d = 0.0, 0.0
            else:
                prev_c, prev_d = cum[j - 1], depths[j - 1]
            j = min(j, cum.size - 1)
            dc = cum[j] - prev_c
            frac = (t - prev_c) / dc if dc > 0 else 1.0
            hq[qi] = prev_d + frac * (depths[j] - prev_d)

    patch = np.asarray(dem_patch, dtype=float)
    ti = float(np.ptp(patch))
    slope = _plane_slope_deg(patch, dem_cellsize)
    return WaveformMetrics(
        wext=wext, tch=tch, lead=lead, trail=trail,
        h10=hq[0], h20=hq[1], h30=hq[2], h40=hq[3], h50=hq[4],
        h60=hq[5], h70=hq[6], h80=hq[7], h90=hq[8],
        ti=ti, slope=slope,
        begin_elev=begin_elev, end_elev=end_elev,
        ground_elev=ground.center_elev)


def centroid_elevation(w: WaveformRecord, noise: NoiseStats,
                       begin_elev: float, end_elev: float) -> float:
    """Energy-weighted mean elevation of the noise-subtracted signal."""
    elev = w.elevations
    sel = (elev <= begin_elev) & (elev >= end_elev)
    energy = np.maximum(w.intensities[sel] - noise.mean, 0.0)
    total = energy.sum()
    if total <= 0:
        return 0.5 * (begin_elev + end_elev)
    return float((energy * elev[sel]).sum() / total)


def quality_filter(w: WaveformRecord, bounds_result, snr_min: float = SNR_MIN,
                   max_elev_gap: float = MAX_ELEV_GAP) -> FilterResult:
    """Keep a footprint only when it passes, in order: signal-to-noise at
    least snr_min, cloud flag equal to CLOUD_OK, saturation index zero, and
    reference-elevation gap within max_elev_gap metres."""
    noise, begin_elev, end_elev = bounds_result
    if noise.snr < snr_min:
        return FilterResult(False, "SNR")
    if w.cloud_flag != CLOUD_OK:
        return FilterResult(False, "Cloud")
    if w.sat_ndx > 0:
        return FilterResult(False, "Saturated")
    centroid = centroid_elevation(w, noise, begin_elev, end_elev)
    if abs(w.srtm_elev - centroid) > max_elev_gap:
        return FilterResult(False, "ElevationMismatch")
    return FilterResult(True)


# ---------------------------------------------------------------------------
# batch processing and file interfaces

@dataclass
class FootprintResult:
    record: WaveformRecord
    result: FilterResult
    metrics: WaveformMetrics | None = None


def process_waveforms(records, dem, *, k: float = DETECT_K,
                      max_components: int = MAX_COMPONENTS, snr_min: float = SNR_MIN,
                      max_elev_gap: float = MAX_ELEV_GAP) -> list:
    """Bounds, filter, decomposition and metrics for every waveform record.

    A footprint outside the dem Grid is rejected as OutsideDem; with
    dem=None the terrain patch is flat (only the filter report, which
    writes no metrics, runs without a DEM). Bounds and the quality filter
    run per record; the kept records are decomposed together. Detection or
    fit failures become rejects carrying the error name.
    """
    _check_components(max_components)
    cellsize = 90.0 if dem is None else dem.cellsize
    results = [None] * len(records)
    todo = []
    for i, w in enumerate(records):
        patch = np.zeros((3, 3)) if dem is None else dem.patch3x3(w.lon, w.lat)
        if patch is None:
            results[i] = FootprintResult(w, FilterResult(False, "OutsideDem"))
            continue
        try:
            noise, begin_elev, end_elev = detect_signal_bounds(w, k)
        except (NoSignal, DegenerateNoise) as e:
            results[i] = FootprintResult(w, FilterResult(False, type(e).__name__))
            continue
        fr = quality_filter(w, (noise, begin_elev, end_elev), snr_min=snr_min,
                            max_elev_gap=max_elev_gap)
        if not fr.kept:
            results[i] = FootprintResult(w, fr)
            continue
        try:
            todo.append((i, noise, (begin_elev, end_elev), patch,
                         _fit_window(w, noise, begin_elev, end_elev)))
        except FitFailure as e:
            results[i] = FootprintResult(w, FilterResult(False, type(e).__name__))
    fits = _fit_orders([window for *_, window in todo], max_components)
    for (i, noise, bounds, patch, window), fit in zip(todo, fits):
        w = records[i]
        try:
            comps, _ = _significant(w, noise, fit, window[0].size)
        except FitFailure as e:
            results[i] = FootprintResult(w, FilterResult(False, type(e).__name__))
            continue
        metrics = extract_metrics(w, comps, patch, noise=noise, bounds=bounds,
                                  dem_cellsize=cellsize)
        results[i] = FootprintResult(w, FilterResult(True), metrics)
    return results


def read_waveforms(path) -> list:
    """Newline-delimited records, one JSON object per waveform.

    Raises BadRecord naming path:line for a line that is not UTF-8 JSON,
    lacks a required key or does not make a valid record.
    """
    records = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line.decode("utf-8"))
                records.append(WaveformRecord(
                    id=d["id"], lon=d["lon"], lat=d["lat"],
                    bin_top_elev=d["bin_top_elev"], bin_size=d["bin_size"],
                    intensities=np.array(d["intensities"], dtype=float),
                    sat_ndx=d.get("sat_ndx", 0), cloud_flag=d.get("cloud_flag", CLOUD_OK),
                    srtm_elev=d.get("srtm_elev", 0.0),
                    acquired_at=d.get("acquired_at")))
            except KeyError as e:
                raise BadRecord(f"{path}:{lineno}: missing key {e}") from None
            except (ValueError, TypeError) as e:
                raise BadRecord(f"{path}:{lineno}: {e}") from None
    return records


def write_waveforms(records, path) -> None:
    with open(path, "w") as f:
        for w in records:
            d = {"id": w.id, "lon": w.lon, "lat": w.lat,
                 "bin_top_elev": w.bin_top_elev, "bin_size": w.bin_size,
                 "intensities": [round(float(v), 6) for v in w.intensities],
                 "sat_ndx": w.sat_ndx, "cloud_flag": w.cloud_flag,
                 "srtm_elev": w.srtm_elev}
            if w.acquired_at is not None:
                d["acquired_at"] = w.acquired_at
            f.write(json.dumps(d, sort_keys=True))
            f.write("\n")


METRIC_COLUMNS = tuple(f.name for f in fields(WaveformMetrics))  # the metrics CSV's order


@dataclass(frozen=True)
class FootprintTable:
    """Footprints as arrays: xy (n, 2) lon/lat and metrics (n, len(METRIC_COLUMNS))
    in METRIC_COLUMNS order, with the ids when the source names them."""
    xy: np.ndarray
    metrics: np.ndarray
    ids: tuple | None = None


def footprint_table(results) -> FootprintTable:
    """The kept footprints of process_waveforms results, in result order."""
    kept = [fr for fr in results if fr.metrics is not None]
    return FootprintTable(
        np.array([[fr.record.lon, fr.record.lat] for fr in kept]).reshape(-1, 2),
        np.array([[getattr(fr.metrics, c) for c in METRIC_COLUMNS] for fr in kept],
                 dtype=float).reshape(-1, len(METRIC_COLUMNS)),
        tuple(fr.record.id for fr in kept))


def write_metrics_csv(table: FootprintTable, f) -> None:
    """One row per footprint of the table; the reject_reason column stays empty."""
    w = csv.writer(f)
    w.writerow(["id", "lon", "lat", *METRIC_COLUMNS, "reject_reason"])
    for fid, xy, metrics in zip(table.ids, table.xy, table.metrics):
        w.writerow([fid, *("%.10g" % v for v in (*xy, *metrics)), ""])


def read_metrics_csv(path) -> FootprintTable:
    """The footprint table in a metrics CSV; a row that lacks a column or
    holds a value that is not a finite number raises BadRecord naming
    path:line."""
    columns = ("lon", "lat", *METRIC_COLUMNS)
    rows = csv_rows(path, lambda row: (row["id"], [finite(row[c], c) for c in columns]))
    values = np.array([v for _, v in rows]).reshape(-1, len(columns))
    return FootprintTable(values[:, :2], values[:, 2:], tuple(fid for fid, _ in rows))


def write_filter_csv(results, f) -> None:
    w = csv.writer(f)
    w.writerow(["id", "kept", "reason"])
    for fr in results:
        w.writerow([fr.record.id, int(fr.result.kept), fr.result.reason])
