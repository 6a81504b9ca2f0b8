"""Large-footprint LiDAR waveform processing.

A waveform is a sequence of return intensities over elevation bins ordered
top to bottom. The footprint driver packs the records into one intensity
matrix and runs every stage over all rows at once: background-noise
estimation, signal-bound detection against a mean + k*sd threshold and the
quality rules (the filter stage), Gaussian decomposition of the
noise-subtracted signal with BIC model-order selection, ground-peak
identification as the stronger of the two lowest peaks, and extraction of
the canopy metrics (extent, canopy-top height, leading/trailing edges,
energy quantile depths, terrain index and slope).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadRecord
from .lsq import plm
from .parallel import map_runs
from .readers import POSITIVE, csv_rows, finite

DETECT_K = 4.5
SNR_MIN = 15.0
CLOUD_OK = 15
MAX_ELEV_GAP = 100.0
QUANTILES = (10, 20, 30, 40, 50, 60, 70, 80, 90)
MAX_COMPONENTS = 6  # largest Gaussian count a decomposition may try
MIN_AMPLITUDE_SDS = 3.0    # a significant component reaches this many noise sds
MIN_AMPLITUDE_FRAC = 0.08  # and this fraction of the strongest amplitude
METRIC_COLUMNS = ("wext", "tch", "lead", "trail", *(f"h{q}" for q in QUANTILES), "ti", "slope",
                  "begin_elev", "end_elev", "ground_elev")  # the metrics CSV's order


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

    def __post_init__(self):
        for name in ("lon", "lat", "bin_top_elev", "srtm_elev"):
            setattr(self, name, finite(getattr(self, name), f"waveform {self.id}: {name}"))
        self.bin_size = finite(self.bin_size, f"waveform {self.id}: bin_size", POSITIVE)
        for name in ("sat_ndx", "cloud_flag"):
            finite(getattr(self, name), f"waveform {self.id}: {name}")
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.intensities.ndim != 1 or self.intensities.size < 10:
            raise ValueError(f"waveform {self.id}: need >= 10 intensity bins")
        if np.any(self.intensities < 0) or not np.all(np.isfinite(self.intensities)):
            raise ValueError(f"waveform {self.id}: intensities must be finite and >= 0")

    @property
    def nbins(self) -> int:
        return self.intensities.size


@dataclass(frozen=True)
class Waveforms:
    """Records as arrays: ids, xy (n, 2) lon/lat, the intensities as one
    (n, width) matrix zero-padded past each row's nbins, and the per-record
    scalars."""
    ids: tuple
    xy: np.ndarray
    values: np.ndarray
    nbins: np.ndarray
    bin_top_elev: np.ndarray
    bin_size: np.ndarray
    sat_ndx: np.ndarray
    cloud_flag: np.ndarray
    srtm_elev: np.ndarray

    @classmethod
    def pack(cls, records) -> "Waveforms":
        nbins = np.array([w.nbins for w in records], dtype=np.intp)
        values = np.zeros((len(records), max(nbins, default=1)))
        values[np.arange(values.shape[1]) < nbins[:, None]] = np.concatenate(
            [w.intensities for w in records] or [[]])
        scalars = np.array([(w.lon, w.lat, w.bin_top_elev, w.bin_size, w.sat_ndx, w.cloud_flag,
                             w.srtm_elev) for w in records], dtype=float).reshape(-1, 7)
        return cls(tuple(w.id for w in records), scalars[:, :2], values, nbins, *scalars[:, 2:].T)

    @property
    def valid(self) -> np.ndarray:
        """(n, width) mask of the bins each record holds."""
        return np.arange(self.values.shape[1]) < self.nbins[:, None]

    def elevations(self, rows=slice(None)) -> np.ndarray:
        """(len(rows), width) bin elevations, continued past each row's nbins."""
        out = np.multiply(np.arange(self.values.shape[1]), self.bin_size[rows, None])
        return np.subtract(self.bin_top_elev[rows, None], out, out=out)


@dataclass(frozen=True)
class Screen:
    """The filter stage's verdict per record: the reject reason ("" where
    kept), the noise mean, sd and SNR, the signal bounds (elevations of the
    first and last bin above mean + k*sd, NaN where there is none) and the
    noise-subtracted energy between them."""
    reason: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    snr: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    energy: np.ndarray


def _by_row(reduce, a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """reduce(values, axis=1) of each row's values of a over mask (0 where
    the mask is empty). The rows of one count go as one matrix, whose rows
    numpy reduces bit for bit as it reduces a 1-D array."""
    count = mask.sum(axis=1)
    values, start = a[mask], np.cumsum(count) - count
    out = np.zeros(len(a))
    for c in np.flatnonzero(np.bincount(count)[1:]) + 1:
        rows = np.flatnonzero(count == c)
        out[rows] = reduce(values[start[rows, None] + np.arange(c)], axis=1)
    return out


def _above(v: np.ndarray, valid: np.ndarray, threshold: np.ndarray):
    """(first, last) bin of each row above its threshold, -1 where none is."""
    above = valid & (v > threshold[:, None])
    has = above.any(axis=1)
    first = np.where(has, above.argmax(axis=1), -1)
    last = np.where(has, v.shape[1] - 1 - above[:, ::-1].argmax(axis=1), -1)
    return first, last


def _reject(reason: np.ndarray, bad: np.ndarray, name: str) -> None:
    """Give the still-kept rows where bad holds the reason name."""
    reason[(reason == "") & bad] = name


def filter_waveforms(wf: Waveforms, *, k: float = DETECT_K, snr_min: float = SNR_MIN,
                     max_elev_gap: float = MAX_ELEV_GAP) -> Screen:
    """The filter stage: noise, signal bounds and quality rules of every record.

    Noise comes from the first and last 10 percent of bins; if the detected
    signal reaches into that window the estimate is refined once with the
    signal bins excluded. A record is rejected, at its first failure, as
    NoSignal (flat, or no bin above mean + k*sd) or DegenerateNoise (zero
    noise spread in a waveform that varies), then as SNR (below snr_min),
    Cloud (cloud flag not CLOUD_OK), Saturated (saturation index above
    zero) or ElevationMismatch (reference elevation more than max_elev_gap
    metres from the energy-weighted centroid of the signal).
    """
    if not k > 0:
        raise ValueError("k must be > 0")
    v, valid = wf.values, wf.valid
    n, width = v.shape
    col = np.arange(width)
    m = np.maximum(1, np.round(0.1 * wf.nbins)).astype(np.intp)[:, None]
    window = (col < m) | (valid & (col >= wf.nbins[:, None] - m))
    mean, sd = _by_row(np.mean, v, window), _by_row(np.std, v, window)
    reason = np.full(n, "", dtype=object)
    vmax = v.max(axis=1)  # intensities are >= 0, so the padding never wins
    _reject(reason, (sd == 0) & (np.where(valid, v, np.inf).min(axis=1) == vmax), "NoSignal")
    _reject(reason, sd == 0, "DegenerateNoise")
    first, last = _above(v, valid, mean + k * sd)
    refined = window & ~((col >= first[:, None]) & (col <= last[:, None]))
    count = refined.sum(axis=1)
    redo = (sd > 0) & (first >= 0) & (count >= 2) & (count < window.sum(axis=1))
    refined &= redo[:, None]
    mean[redo], sd[redo] = _by_row(np.mean, v, refined)[redo], _by_row(np.std, v, refined)[redo]
    again = redo & (sd > 0)
    first[again], last[again] = (i[again] for i in _above(v, valid, mean + k * sd))
    _reject(reason, first < 0, "NoSignal")

    elev = wf.elevations()
    rows = np.arange(n)
    begin = np.where(first >= 0, elev[rows, first], np.nan)
    end = np.where(first >= 0, elev[rows, last], np.nan)
    sel = valid & (elev <= begin[:, None]) & (elev >= end[:, None])
    energy = v - mean[:, None]
    np.maximum(energy, 0.0, out=energy)
    total = _by_row(np.sum, energy, sel)
    energy *= elev
    with np.errstate(invalid="ignore", divide="ignore"):
        snr = np.where(sd > 0, (vmax - mean) / sd, np.inf)
        centroid = np.where(total <= 0, 0.5 * (begin + end), _by_row(np.sum, energy, sel) / total)
    _reject(reason, snr < snr_min, "SNR")
    _reject(reason, wf.cloud_flag != CLOUD_OK, "Cloud")
    _reject(reason, wf.sat_ndx > 0, "Saturated")
    _reject(reason, np.abs(wf.srtm_elev - centroid) > max_elev_gap, "ElevationMismatch")
    return Screen(reason, mean, sd, snr, begin, end, total)


# Stop rules of lsq.plm for the Gaussian fits: relative step, relative cost
# decrease, projected gradient, model evaluations per fit.
_XTOL = 1e-10
_FTOL = 1e-10
_GTOL = 1e-8
_MAX_NFEV = 400
# windows fitted together, sorted by width so that a block pads little; on
# the desk scene 64 ran the driver 25% slower, and 256 needs the 512-record
# packs that _CHUNK avoids
_BLOCK = 128
# records the driver packs at once, two blocks' worth: their (records, bins)
# matrices stay under 1 MB, since larger ones, once freed, raise the C
# library's mmap threshold for the rest of the process (at 512 records the
# desk map's peak RSS rose by 3%)
_CHUNK = 2 * _BLOCK
# records per process at least, so under 320 none is forked: on two cores,
# forking a second pack of 1-64 records took 0.84-1.09 of the in-caller time,
# of 80-96 records 0.78-0.87 and of 144 records 0.64-0.68
_WORKER_RECORDS = 160
_KERNEL = np.exp(-0.5 * (np.arange(-4, 5) / 2.0) ** 2)
_KERNEL /= _KERNEL.sum()


def _residuals(p: np.ndarray, x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    """Masked residuals (n, B) and Jacobian (n, P, B) of the Gaussian sums
    whose (amplitude, center, sigma) triples fill each row of p (n, P)."""
    a, c, s = (p[:, i::3, None] for i in range(3))
    z = x[:, None, :] - c
    z /= s
    t = -0.5 * z  # then exp(-0.5 * z * z), a * e, a * e * z
    t *= z
    np.exp(t, out=t)
    m = mask[:, None, :]
    jac = np.empty((p.shape[0], a.shape[1], 3, x.shape[1]))
    np.multiply(t, m, out=jac[:, :, 0])
    t *= a
    r = (t.sum(axis=1) - y) * mask
    t *= z
    np.multiply(t, z, out=jac[:, :, 2])
    t /= s
    np.multiply(t, m, out=jac[:, :, 1])
    jac[:, :, 2] /= s
    jac[:, :, 2] *= m
    return r, jac.reshape(p.shape[0], -1, x.shape[1])


def _peaks(y: np.ndarray, width: np.ndarray):
    """(smoothed y, columns of its local maxima by descending height, their
    count) of each window row of y, which holds width values then zeros."""
    n, b = y.shape
    # four zeros keep each row's smoothing to itself; a window narrower than
    # the kernel still gets its own values back
    spaced = np.zeros((n, max(b + 4, _KERNEL.size)))
    spaced[:, :b] = y
    ys = np.convolve(spaced.ravel(), _KERNEL, mode="same").reshape(n, -1)[:, :b]
    interior = np.zeros((n, b), dtype=bool)
    interior[:, 1:-1] = ((ys[:, 1:-1] >= ys[:, :-2]) & (ys[:, 1:-1] > ys[:, 2:])
                         & (ys[:, 1:-1] > 0) & (np.arange(1, b - 1) < width[:, None] - 1))
    ranked = np.argsort(np.where(interior, ys, -np.inf), axis=1, kind="stable")[:, ::-1]
    return ys, ranked, interior.sum(axis=1)


def _start(x, y, width, bin_size, ncomp: int, peaks):
    """(p0, lo, hi) of ncomp-component fits to window rows: x descending
    elevations padded with x[0], y padded with zeros, width values each.
    Centers start at the highest local maxima of the smoothed signal, then
    evenly spaced through the window."""
    ys, ranked, npeaks = peaks
    inside = np.arange(x.shape[1]) < width[:, None]
    amp_hi = 2.0 * np.maximum(np.where(inside, y, -np.inf).max(axis=1), 1e-6)
    top, bottom = x.max(axis=1), x.min(axis=1)
    slot = np.arange(ncomp)
    real = slot < npeaks[:, None]
    col = ranked[:, :ncomp]
    last = x[np.arange(len(x)), width - 1]
    spaced = x[:, :1] + (slot + 1) / (ncomp + 1) * (last - x[:, 0])[:, None]
    centers = np.where(real, np.take_along_axis(x, col, axis=1), spaced)
    fill = np.maximum(np.where(inside, ys, -np.inf).max(axis=1), 1e-3) / 2
    amps = np.where(real, np.maximum(np.take_along_axis(ys, col, axis=1), 1e-3), fill[:, None])
    amps = np.minimum(np.maximum(amps, 1e-6), amp_hi[:, None] * 0.99)
    sigma0 = np.maximum(2.0 * bin_size, 0.5)
    p0 = np.stack([amps, centers, np.broadcast_to(sigma0[:, None], amps.shape)], axis=2)
    lo = np.stack([np.full(len(x), 1e-9), bottom - 2 * bin_size, 0.4 * bin_size], axis=1)
    hi = np.stack([amp_hi, top + 2 * bin_size, np.maximum(top - bottom, 1.0)], axis=1)
    return p0.reshape(len(x), -1), np.tile(lo, ncomp), np.tile(hi, ncomp)


def _fit_block(x, y, width, bin_size, max_components: int):
    """(params, ncomp) of the BIC-best component count of each window row
    (see _start): params (n, 3 * max_components) NaN past 3 * ncomp, and
    ncomp 0 where no count converged.

    Counts 1..max_components are fitted level by level over the block; a
    window leaves the scan once two consecutive counts fail to improve its
    best BIC.
    """
    params = np.full((len(x), 3 * max_components), np.nan)
    ncomp = np.zeros(len(x), dtype=int)
    mask = (np.arange(x.shape[1]) < width[:, None]).astype(float)
    peaks = _peaks(y, width)
    best = np.full(len(x), np.inf)
    stale = np.zeros(len(x), dtype=int)
    scan = np.arange(len(x))
    for n in range(1, max_components + 1):
        p0, lo, hi = _start(x[scan], y[scan], width[scan], bin_size[scan], n,
                            tuple(v[scan] for v in peaks))
        p, rss, ok = plm(_residuals, p0, lo, hi, (x[scan], y[scan], mask[scan]),
                         xtol=_XTOL, ftol=_FTOL, gtol=_GTOL, max_nfev=_MAX_NFEV)
        m = width[scan]
        bic = m * np.log(np.maximum(rss, 1e-300) / m) + 3 * n * np.log(m)
        better = ok & (bic < best[scan])
        won = scan[better]
        best[won] = bic[better]
        params[won] = np.nan
        params[won, :3 * n] = p[better]
        ncomp[won] = n
        stale[scan] = np.where(better, 0, stale[scan] + ok)
        scan = scan[stale[scan] < 2]
        if not scan.size:
            break
    return params, ncomp


def _check_components(max_components: int) -> None:
    if not 1 <= max_components <= MAX_COMPONENTS:
        raise ValueError(f"max_components must be in 1..{MAX_COMPONENTS}")


def _window_bins(wf: Waveforms, screen: Screen, rows: np.ndarray):
    """(first, width) of the fit window of each of the rows: the bins
    within three bins of the signal bounds."""
    elev = wf.elevations(rows)
    margin = 3 * wf.bin_size[rows]
    sel = (wf.valid[rows] & (elev <= (screen.begin[rows] + margin)[:, None])
           & (elev >= (screen.end[rows] - margin)[:, None]))
    return sel.argmax(axis=1), sel.sum(axis=1)


def _windows(wf: Waveforms, screen: Screen, rows, first, width):
    """(x, y) of the fit windows of the rows, as _start takes them: bin
    elevations and noise-subtracted intensities, width bins from first."""
    inside = np.arange(width.max()) < width[:, None]
    cols = np.where(inside, first[:, None] + np.arange(inside.shape[1]), first[:, None])
    x = wf.bin_top_elev[rows, None] - cols * wf.bin_size[rows, None]
    y = np.where(inside, wf.values[rows[:, None], cols] - screen.mean[rows, None], 0.0)
    return x, y


def ground_peak(amplitude: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Column of the ground return in each row of components ordered by
    descending center (NaN past the last): the stronger of the two lowest,
    equal amplitudes breaking toward the lower; a single component is its
    own ground."""
    count = (~np.isnan(center)).sum(axis=1)
    if (count == 0).any():
        raise ValueError("no components")
    rows = np.arange(len(center))
    lower, upper = count - 1, np.maximum(count - 2, 0)
    return np.where(amplitude[rows, upper] > amplitude[rows, lower], upper, lower)


def decompose_gaussians(wf: Waveforms, screen: Screen, rows: np.ndarray,
                        max_components: int = MAX_COMPONENTS):
    """Gaussian mixture fits of the noise-subtracted signal within three
    bins of the bounds of the given rows.

    The component count minimizing BIC over 1..max_components wins; each
    count is fitted by bounded nonlinear least squares (projected
    Levenberg-Marquardt) initialized from smoothed local maxima. The scan
    stops early once two consecutive counts fail to improve the best BIC.
    Components are discarded as insignificant when their amplitude stays
    under MIN_AMPLITUDE_SDS noise spreads, or under MIN_AMPLITUDE_FRAC of
    the strongest component (shoulder artifacts of an overparameterized
    mixture fit); the strongest one always survives. Returns (amplitude,
    center), each (len(rows), max_components): the significant components
    by descending center, NaN past the last and on rows whose window holds
    fewer than four bins or where no count converged.
    """
    _check_components(max_components)
    first, width = _window_bins(wf, screen, rows)
    params = np.full((len(rows), 3 * max_components), np.nan)
    ncomp = np.zeros(len(rows), dtype=int)
    fit = np.flatnonzero(width >= 4)
    fit = fit[np.argsort(width[fit], kind="stable")]  # blocks of similar widths pad little
    for start in range(0, fit.size, _BLOCK):
        block = fit[start:start + _BLOCK]
        x, y = _windows(wf, screen, rows[block], first[block], width[block])
        params[block], ncomp[block] = _fit_block(x, y, width[block], wf.bin_size[rows[block]],
                                                 max_components)
    a, c = params[:, 0::3], params[:, 1::3]
    fitted = np.arange(max_components) < ncomp[:, None]
    amp = np.where(fitted, a, -np.inf)
    floor = np.maximum(MIN_AMPLITUDE_SDS * screen.sd[rows], MIN_AMPLITUDE_FRAC * amp.max(axis=1))
    keep = fitted & (a >= floor[:, None])
    lone = np.flatnonzero(~keep.any(axis=1) & (ncomp > 0))
    keep[lone, amp[lone].argmax(axis=1)] = True
    order = np.argsort(np.where(keep, -c, np.inf), axis=1, kind="stable")
    keep = np.take_along_axis(keep, order, axis=1)
    return tuple(np.where(keep, np.take_along_axis(v, order, axis=1), np.nan) for v in (a, c))


def _quantile_depths(wf: Waveforms, screen: Screen, rows: np.ndarray) -> np.ndarray:
    """(len(rows), len(QUANTILES)) depths below the signal beginning at which
    the cumulative noise-subtracted energy (top-down, inside the bounds)
    reaches each quantile, linearly interpolated between bins; the extent
    where the signal holds no energy."""
    begin, end, total = screen.begin[rows], screen.end[rows], screen.energy[rows]
    elev = wf.elevations(rows)
    sel = wf.valid[rows] & (elev <= begin[:, None]) & (elev >= end[:, None])
    cum = wf.values[rows] - screen.mean[rows, None]
    np.maximum(cum, 0.0, out=cum)
    cum[~sel] = 0.0
    np.cumsum(cum, axis=1, out=cum)
    with np.errstate(invalid="ignore", divide="ignore"):
        cum /= total[:, None]
    depths = np.subtract(begin[:, None], elev, out=elev)
    first, count = sel.argmax(axis=1), sel.sum(axis=1)
    r = np.arange(len(rows))
    out = np.empty((len(rows), len(QUANTILES)))
    with np.errstate(invalid="ignore", divide="ignore"):  # rows without energy
        for qi, q in enumerate(QUANTILES):
            t = q / 100.0
            j = (sel & (cum < t)).sum(axis=1)  # searchsorted within the signal
            prev_c = np.where(j > 0, cum[r, first + j - 1], 0.0)
            prev_d = np.where(j > 0, depths[r, first + j - 1], 0.0)
            at = first + np.minimum(j, count - 1)
            dc = cum[r, at] - prev_c
            frac = np.where(dc > 0, (t - prev_c) / dc, 1.0)
            out[:, qi] = prev_d + frac * (depths[r, at] - prev_d)
    return np.where((total > 0)[:, None], out, (begin - end)[:, None])


def _plane_slopes(patches: np.ndarray, cellsize: float) -> np.ndarray:
    """Slope in degrees of the least-squares plane through each 3x3 patch."""
    yy, xx = np.mgrid[0:3, 0:3]
    a = np.column_stack([np.ones(9), xx.ravel() * cellsize, -yy.ravel() * cellsize])
    coef = np.linalg.lstsq(a, patches.reshape(-1, 9).T, rcond=None)[0]
    return np.degrees(np.arctan(np.hypot(coef[1], coef[2])))


def _process_pack(records, dem, k, max_components, snr_min, max_elev_gap):
    """(reasons, xy, metrics, ids) of one pack of records: process_waveforms
    on its rows."""
    wf = Waveforms.pack(records)
    screen = filter_waveforms(wf, k=k, snr_min=snr_min, max_elev_gap=max_elev_gap)
    reason = screen.reason.copy()
    patches, inside = dem.patch3x3(wf.xy)
    _reject(reason, ~inside | np.isnan(patches).any(axis=(1, 2)), "OutsideDem")
    rows = np.flatnonzero(reason == "")
    amp, center = decompose_gaussians(wf, screen, rows, max_components)
    fitted = ~np.isnan(center[:, 0])
    reason[rows[~fitted]] = "FitFailure"
    rows, amp, center = rows[fitted], amp[fitted], center[fitted]
    begin, end = screen.begin[rows], screen.end[rows]
    top = center[:, 0]
    ground = center[np.arange(len(rows)), ground_peak(amp, center)]
    patches = patches[rows]
    metrics = np.column_stack([
        begin - end, top - ground, np.maximum(begin - top, 0.0),
        np.maximum(ground - end, 0.0), _quantile_depths(wf, screen, rows),
        np.ptp(patches, axis=(1, 2)), _plane_slopes(patches, dem.cellsize), begin, end, ground])
    return reason.tolist(), wf.xy[rows], metrics, [wf.ids[i] for i in rows]


def process_waveforms(records, dem, *, k: float = DETECT_K,
                      max_components: int = MAX_COMPONENTS, snr_min: float = SNR_MIN,
                      max_elev_gap: float = MAX_ELEV_GAP):
    """Reject reasons and canopy metrics of the waveform records.

    The filter stage runs first. A footprint it kept that lies outside
    the dem Grid, or whose 3x3 DEM patch holds a nodata cell, is then
    rejected as OutsideDem, and one whose fit window holds fewer than four
    bins or whose Gaussian fits all fail as FitFailure. Returns (reasons,
    FootprintTable): one reason per record ("" where kept), and the kept
    footprints in record order with METRIC_COLUMNS from the decomposition,
    the signal bounds and the 3x3 DEM patch around each footprint.

    The records pass in packs of _CHUNK, counted from record 0, which bound
    the driver's arrays. Contiguous runs of packs go to parallel.map_runs
    (at least _WORKER_RECORDS records per process) and join in record
    order; a pack is processed alike wherever it runs, so no output depends
    on the worker count.
    """
    _check_components(max_components)
    settings = (k, max_components, snr_min, max_elev_gap)

    def run(packs):
        return [_process_pack(records[i * _CHUNK:(i + 1) * _CHUNK], dem, *settings)
                for i in packs]

    npacks = max(1, -(-len(records) // _CHUNK))  # one empty pack when there are none
    packs = [p for r in map_runs(run, npacks, len(records), _WORKER_RECORDS) for p in r]
    reasons, xy, metrics, ids = zip(*packs)
    return ([r for pack in reasons for r in pack],
            FootprintTable(np.concatenate(xy), np.concatenate(metrics),
                           tuple(i for pack in ids for i in pack)))


def filter_records(records, *, k: float = DETECT_K, snr_min: float = SNR_MIN,
                   max_elev_gap: float = MAX_ELEV_GAP) -> list:
    """The filter stage's reject reason of each record ("" where kept), in
    the packs of _CHUNK records that process_waveforms screens."""
    return [r for i in range(0, len(records), _CHUNK)
            for r in filter_waveforms(Waveforms.pack(records[i:i + _CHUNK]), k=k,
                                      snr_min=snr_min, max_elev_gap=max_elev_gap).reason]


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
                    srtm_elev=d.get("srtm_elev", 0.0)))
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
            f.write(json.dumps(d, sort_keys=True))
            f.write("\n")


@dataclass(frozen=True)
class FootprintTable:
    """Footprints as arrays: xy (n, 2) lon/lat and metrics (n, len(METRIC_COLUMNS))
    in METRIC_COLUMNS order, with the ids when the source names them."""
    xy: np.ndarray
    metrics: np.ndarray
    ids: tuple | None = None


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


def write_filter_csv(ids, reasons, f) -> None:
    """One row per record: its id, 1 or 0 for kept, and the reject reason."""
    w = csv.writer(f)
    w.writerow(["id", "kept", "reason"])
    for fid, reason in zip(ids, reasons):
        w.writerow([fid, int(not reason), reason])
