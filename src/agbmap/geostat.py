"""Semivariograms, exponential model fitting, ordinary kriging and the
regression-kriging composition.

The empirical semivariogram is the classical pair estimator
gamma(h) = sum (e_i - e_j)^2 / (2 N(h)) binned by lag. The fitted form is
exponential with the practical-range convention

    gamma(h) = nugget + psill * (1 - exp(-3 h / range)),   gamma(0) = 0,

so gamma(range) covers 95 percent of the partial sill. Ordinary kriging
solves the semivariance system with a Lagrange row enforcing unit weight
sum, over a k-nearest-neighbour window found through a KD-tree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial import cKDTree

from .errors import EmptyNeighborhood, FitFailure, SingularSystem, TooFewSamples
from .raster import Grid

_DUP_TOL = 1e-6  # metres; closer samples are merged by averaging


class SampleSet:
    """Point samples (x, y, value) in projected metres.

    Locations closer than 1e-6 m are merged by averaging their values so
    kriging systems stay nonsingular.
    """

    def __init__(self, xy, values):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        values = np.asarray(values, dtype=float)
        if xy.shape[0] != values.shape[0] or (xy.size and xy.shape[1] != 2):
            raise ValueError("xy must be (n, 2) matching len(values)")
        key = np.round(xy / _DUP_TOL).astype(np.int64)
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        if first.size != xy.shape[0]:
            sums = np.zeros(first.size)
            counts = np.zeros(first.size)
            np.add.at(sums, inverse, values)
            np.add.at(counts, inverse, 1.0)
            order = np.argsort(first)  # restore first-appearance order
            self.xy = xy[first[order]]
            self.values = (sums / counts)[order]
        else:
            self.xy = xy
            self.values = values

    @property
    def n(self) -> int:
        return self.xy.shape[0]


@dataclass
class EmpiricalVariogram:
    lags: np.ndarray        # bin centers, metres
    gamma: np.ndarray       # semivariance per bin
    counts: np.ndarray      # pair count per bin
    bin_width: float
    max_lag: float

    def __len__(self) -> int:
        return self.lags.size


@dataclass(frozen=True)
class VariogramModel:
    nugget: float
    psill: float
    range_m: float

    def gamma(self, h):
        h = np.asarray(h, dtype=float)
        g = self.nugget + self.psill * (1.0 - np.exp(-3.0 * h / self.range_m))
        return np.where(h > 0, g, 0.0)

    @property
    def sill(self) -> float:
        return self.nugget + self.psill


def empirical_variogram(s: SampleSet, bin_width: float | None = None,
                        max_lag: float | None = None) -> EmpiricalVariogram:
    """Binned pair semivariances. Bin j is centred at j*bin_width.

    Defaults: max_lag is half the bounding-box diagonal, bin_width gives
    30 lags. Empty bins are dropped.
    """
    if s.n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {s.n}")
    if max_lag is None:
        span = s.xy.max(axis=0) - s.xy.min(axis=0)
        max_lag = 0.5 * float(np.hypot(span[0], span[1]))
        if max_lag <= 0:
            raise TooFewSamples("all samples at one location")
    if bin_width is None:
        bin_width = max_lag / 30.0
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    nbins = int(math.floor(max_lag / bin_width + 0.5))
    if nbins < 1:
        raise ValueError("max_lag shorter than half a bin")

    sums = np.zeros(nbins + 1)
    counts = np.zeros(nbins + 1, dtype=np.int64)
    xy = s.xy
    v = s.values
    for i in range(s.n - 1):
        dx = xy[i + 1:, 0] - xy[i, 0]
        dy = xy[i + 1:, 1] - xy[i, 1]
        h = np.hypot(dx, dy)
        j = np.rint(h / bin_width).astype(np.int64)
        ok = (j >= 1) & (j <= nbins)
        if not ok.any():
            continue
        dv2 = (v[i + 1:][ok] - v[i]) ** 2
        np.add.at(sums, j[ok], dv2)
        np.add.at(counts, j[ok], 1)
    nonzero = np.flatnonzero(counts[1:]) + 1
    lags = nonzero * bin_width
    gamma = sums[nonzero] / (2.0 * counts[nonzero])
    return EmpiricalVariogram(lags, gamma, counts[nonzero], bin_width, float(max_lag))


def fit_exponential(ev: EmpiricalVariogram) -> VariogramModel:
    """Weighted least squares over (nugget, psill, range), weights = pair count.

    Multi-start on the range initialization; parameters are bounded
    nonnegative with range <= 3 * max_lag.
    """
    if len(ev) < 4:
        raise FitFailure(f"need at least 4 non-empty bins, got {len(ev)}")
    w = np.sqrt(ev.counts.astype(float))
    gmax = float(ev.gamma.max())
    scale = gmax if gmax > 0 else 1.0

    def residuals(x):
        nugget, psill, rng = x
        model = nugget + psill * (1.0 - np.exp(-3.0 * ev.lags / rng))
        return w * (model - ev.gamma) / scale

    hi_range = 3.0 * ev.max_lag
    nugget0 = float(ev.gamma[0])
    tail = float(ev.gamma[-max(len(ev) // 4, 1):].mean())
    best = None
    for r0 in (ev.max_lag / 6, ev.max_lag / 3, ev.max_lag, hi_range / 2):
        for n0 in (nugget0, 0.0):
            p0 = max(tail - n0, 0.05 * scale)
            try:
                res = least_squares(residuals, x0=[n0, p0, r0],
                                    bounds=([0.0, 0.0, 1e-9], [np.inf, np.inf, hi_range]),
                                    xtol=1e-12, ftol=1e-12, gtol=1e-12)
            except (ValueError, np.linalg.LinAlgError):
                continue
            if res.success and (best is None or res.cost < best.cost):
                best = res
    if best is None:
        raise FitFailure("exponential variogram fit did not converge")
    nugget, psill, rng = best.x
    return VariogramModel(float(nugget), float(psill), float(rng))


class OrdinaryKriger:
    """Local-neighbourhood ordinary kriging against a fitted variogram.

    The KD-tree over the sample locations is built once; every prediction
    solves the augmented semivariance system for its k nearest samples.
    """

    def __init__(self, samples: SampleSet, model: VariogramModel,
                 neighborhood: int = 32):
        if neighborhood < 1:
            raise EmptyNeighborhood("neighborhood must be >= 1")
        if samples.n == 0:
            raise EmptyNeighborhood("no samples to krige from")
        self.samples = samples
        self.model = model
        self.k = min(neighborhood, samples.n)
        self.tree = cKDTree(samples.xy)

    def weights_at(self, x: float, y: float):
        """(neighbor indices, weights, lagrange multiplier) at one target."""
        return self._solve(x, y)[:3]

    def _solve(self, x: float, y: float):
        """weights_at plus the semivariance of each neighbour to the target."""
        dist, idx = self.tree.query([x, y], k=self.k)
        idx = np.atleast_1d(idx)
        dist = np.atleast_1d(dist)
        pts = self.samples.xy[idx]
        k = idx.size
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        gram = self.model.gamma(np.hypot(dx, dy))
        a = np.empty((k + 1, k + 1))
        a[:k, :k] = gram
        a[k, :] = 1.0
        a[:, k] = 1.0
        a[k, k] = 0.0
        b = np.empty(k + 1)
        b[:k] = self.model.gamma(dist)
        b[k] = 1.0
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"kriging system singular at ({x}, {y}): {e}") from None
        if not np.all(np.isfinite(sol)):
            raise SingularSystem(f"kriging system singular at ({x}, {y})")
        return idx, sol[:k], float(sol[k]), b[:k]

    def predict(self, x: float, y: float):
        """(estimate, kriging variance) at one target."""
        idx, lam, mu, gamma0 = self._solve(x, y)
        est = float(lam @ self.samples.values[idx])
        var = float(lam @ gamma0 + mu)
        return est, max(var, 0.0)


def regression_krige(trend: Grid, residual_samples: SampleSet, m: VariogramModel,
                     neighborhood: int = 32, threads: int = 1):
    """Add kriged residuals to a trend surface.

    Returns (final Grid, kriging-variance Grid); nodata cells of the trend
    propagate to both outputs. Cells are independent, so `threads` > 1
    farms out row chunks; results are assembled by cell index and do not
    depend on the worker count.
    """
    kriger = OrdinaryKriger(residual_samples, m, neighborhood)
    final = np.full_like(trend.values, trend.nodata)
    variance = np.full_like(trend.values, trend.nodata)
    mask = trend.valid_mask()
    rows, cols = np.nonzero(mask)

    def work(span):
        out = []
        for t in span:
            x, y = trend.cell_center(rows[t], cols[t])
            out.append((t, *kriger.predict(x, y)))
        return out

    idx = np.arange(rows.size)
    if threads > 1 and rows.size > 64:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = [b for chunk in pool.map(work, np.array_split(idx, threads * 4))
                       for b in chunk]
    else:
        batches = work(idx)
    for t, est, var in batches:
        r, c = rows[t], cols[t]
        final[r, c] = trend.values[r, c] + est
        variance[r, c] = var
    return trend.copy_with(final), trend.copy_with(variance)


def write_variogram_report(ev: EmpiricalVariogram, model: VariogramModel | None, f):
    """CSV of the binned variogram plus one `model` row with the fit."""
    w = csv.writer(f)
    w.writerow(["kind", "lag", "gamma", "pairs", "nugget", "psill", "range"])
    for lag, g, c in zip(ev.lags, ev.gamma, ev.counts):
        w.writerow(["bin", "%.10g" % lag, "%.10g" % g, int(c), "", "", ""])
    if model is not None:
        w.writerow(["model", "", "", "", "%.10g" % model.nugget,
                    "%.10g" % model.psill, "%.10g" % model.range_m])
