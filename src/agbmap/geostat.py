"""Semivariograms, exponential model fitting, ordinary kriging and the
regression-kriging composition.

The empirical semivariogram is the classical pair estimator
gamma(h) = sum (e_i - e_j)^2 / (2 N(h)) binned by lag. The fitted form is
exponential with the practical-range convention

    gamma(h) = nugget + psill * (1 - exp(-3 h / range)),   gamma(0) = 0,

so gamma(range) covers 95 percent of the partial sill. Ordinary kriging
solves the semivariance system with a Lagrange row enforcing unit weight
sum, over a k-nearest-neighbour window found by `raster.nearest`.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNeighborhood, FitFailure, SingularSystem, TooFewSamples
from .lsq import plm
from .raster import Grid, nearest

_DUP_TOL = 1e-6  # metres; closer samples are merged by averaging
RANGE_BOUND = 3.0  # fit_exponential caps the range at RANGE_BOUND * max_lag
_VFIT_TOL = 1e-12  # xtol, ftol and gtol of the variogram fit
_VFIT_MAX_NFEV = 300  # model evaluations per start: 100 per parameter, scipy's default
_CHUNK = 32  # kriging targets per stacked solve, on each worker: memory grows with it
_WORKER_TARGETS = 1000  # kriging targets per thread at least, so under 2000 it stays serial


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

    def gamma(self, h, out=None):
        """Semivariances at lags h, written into out (which may be h) when given."""
        h = np.asarray(h, dtype=float)
        zero = ~(h > 0)
        # nugget + psill * (1 - exp(-3 h / range)), one operation at a time in place
        g = np.multiply(-3.0, h, out=np.empty_like(h) if out is None else out)
        g /= self.range_m
        np.exp(g, out=g)
        np.subtract(1.0, g, out=g)
        g *= self.psill
        g += self.nugget
        np.copyto(g, 0.0, where=zero)
        return g

    @property
    def sill(self) -> float:
        return self.nugget + self.psill


def lag_bins(max_lag: float, bin_width: float) -> int:
    """The number of lag bins of width bin_width centred up to max_lag."""
    return int(math.floor(max_lag / bin_width + 0.5))


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
    nbins = lag_bins(max_lag, bin_width)
    if nbins < 1:
        raise TooFewSamples(f"max_lag {max_lag:g} is shorter than half a bin of {bin_width:g}; "
                            f"by default it is half the samples' bounding-box diagonal")

    # bins 0 and nbins + 1 collect the pairs closer than half a bin and
    # beyond max_lag; in-range sums accumulate in pair order
    sums = np.zeros(nbins + 2)
    counts = np.zeros(nbins + 2, dtype=np.int64)
    xy = s.xy
    v = s.values
    for i in range(s.n - 1):
        dx = xy[i + 1:, 0] - xy[i, 0]
        dy = xy[i + 1:, 1] - xy[i, 1]
        j = np.minimum(np.rint(np.sqrt(dx * dx + dy * dy) / bin_width), nbins + 1).astype(np.int64)
        np.add.at(sums, j, (v[i + 1:] - v[i]) ** 2)
        counts += np.bincount(j, minlength=nbins + 2)
    nonzero = np.flatnonzero(counts[1:-1]) + 1
    lags = nonzero * bin_width
    gamma = sums[nonzero] / (2.0 * counts[nonzero])
    return EmpiricalVariogram(lags, gamma, counts[nonzero], bin_width, float(max_lag))


def fit_exponential(ev: EmpiricalVariogram) -> VariogramModel:
    """Weighted least squares over (nugget, psill, range), weights = pair count.

    Multi-start on the range and nugget initializations, all starts solved
    as one block by lsq.plm; the lowest-cost converged start wins.
    Parameters are bounded nonnegative with range <= RANGE_BOUND * max_lag.
    """
    if len(ev) < 4:
        raise FitFailure(f"need at least 4 non-empty bins, got {len(ev)}")
    gmax = float(ev.gamma.max())
    scale = gmax if gmax > 0 else 1.0
    w = np.sqrt(ev.counts.astype(float)) / scale
    lags, gamma = ev.lags, ev.gamma

    def residuals(p):
        nugget, psill, rng = (p[:, i, None] for i in range(3))
        e = np.exp(-3.0 * lags / rng)
        r = w * (nugget + psill * (1.0 - e) - gamma)
        jac = np.stack([np.broadcast_to(w, r.shape), w * (1.0 - e),
                        -3.0 * w * psill * e * lags / (rng * rng)], axis=1)
        return r, jac

    hi_range = RANGE_BOUND * ev.max_lag
    nugget0 = float(gamma[0])
    tail = float(gamma[-max(len(ev) // 4, 1):].mean())
    p0 = np.array([(n0, max(tail - n0, 0.05 * scale), r0)
                   for r0 in (ev.max_lag / 6, ev.max_lag / 3, ev.max_lag, hi_range / 2)
                   for n0 in (nugget0, 0.0)])
    lo = np.tile([0.0, 0.0, 1e-9], (len(p0), 1))
    hi = np.tile([np.inf, np.inf, hi_range], (len(p0), 1))
    params, rss, ok = plm(residuals, p0, lo, hi, (), xtol=_VFIT_TOL, ftol=_VFIT_TOL,
                          gtol=_VFIT_TOL, max_nfev=_VFIT_MAX_NFEV)
    if not ok.any():
        raise FitFailure("exponential variogram fit did not converge")
    nugget, psill, rng = params[np.argmin(np.where(ok, rss, np.inf))]
    return VariogramModel(float(nugget), float(psill), float(rng))


def at_range_bound(model: VariogramModel, ev: EmpiricalVariogram) -> bool:
    """Whether the fitted range ends at fit_exponential's upper bound (to a
    relative 1e-9, as the solver stops on or just inside it), so the data
    fixed no range of their own."""
    return model.range_m >= RANGE_BOUND * ev.max_lag * (1 - 1e-9)


def kriging_workers(n_targets: int) -> int:
    """Threads that krige n_targets: one per core this process may run on,
    but no more than give each _WORKER_TARGETS targets, and at least one.
    numpy releases the interpreter lock in the stacked solves and the
    semivariance arithmetic, so the chunks of two threads run at once."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(cores, n_targets // _WORKER_TARGETS))


class OrdinaryKriger:
    """Local-neighbourhood ordinary kriging against a fitted variogram.

    The k nearest samples of every target are found in one search; targets
    are solved _CHUNK at a time, as one stack of augmented systems, on
    kriging_workers threads that each take a contiguous run of chunks and
    solve each chunk as one thread would.
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

    def weights_at(self, x: float, y: float):
        """(neighbor indices, weights, lagrange multiplier) at one target."""
        target = np.array([[x, y]], dtype=float)
        dist, idx = nearest(self.samples.xy, target, self.k)
        lam, mu, _ = self._solve(target, dist, idx)
        return idx[0], lam[0], float(mu[0])

    def _solve(self, targets: np.ndarray, dist: np.ndarray, idx: np.ndarray):
        """Weights (n, k), Lagrange multipliers (n,) and neighbour-to-target
        semivariances (n, k) for (n, 2) targets whose nearest samples are
        idx (n, k) at distances dist (n, k)."""
        n, k = idx.shape
        pts = self.samples.xy[idx]
        # neighbour-to-neighbour distances sqrt(dx dx + dy dy), built in place
        h = pts[:, :, 0][:, :, None] - pts[:, :, 0][:, None, :]
        dy = pts[:, :, 1][:, :, None] - pts[:, :, 1][:, None, :]
        h *= h
        dy *= dy
        h += dy
        del dy
        np.sqrt(h, out=h)
        a = np.ones((n, k + 1, k + 1))
        a[:, :k, :k] = self.model.gamma(h, out=h)
        a[:, k, k] = 0.0
        b = np.ones((n, k + 1))
        self.model.gamma(dist, out=b[:, :k])
        try:
            sol = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as e:
            x, y = targets[0]
            raise SingularSystem(
                f"kriging system singular in the chunk from ({x}, {y}): {e}") from None
        bad = np.flatnonzero(~np.isfinite(sol).all(axis=1))
        if bad.size:
            x, y = targets[bad[0]]
            raise SingularSystem(f"kriging system singular at ({x}, {y})")
        return sol[:, :k], sol[:, k], b[:, :k]

    def predict(self, x, y):
        """(estimate, kriging variance) at each target; x and y are scalars
        or arrays of one shape, and the results take that shape."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        targets = np.column_stack([x.ravel(), y.ravel()])
        est = np.empty(targets.shape[0])
        var = np.empty(targets.shape[0])
        dist, idx = nearest(self.samples.xy, targets, self.k)

        def krige_run(starts):
            for start in starts:
                part = slice(start, start + _CHUNK)
                lam, mu, gamma0 = self._solve(targets[part], dist[part], idx[part])
                # row dot products as stacked (1, k) @ (k, 1) products, which sum
                # in the same order as the one-target `lam @ values`
                lam_rows = lam[:, None, :]
                est[part] = (lam_rows @ self.samples.values[idx[part]][:, :, None])[:, 0, 0]
                var[part] = (lam_rows @ gamma0[:, :, None])[:, 0, 0] + mu

        # a run stops at its first SingularSystem; reading the runs in order
        # raises the lowest failing chunk's, as one serial run would
        runs = np.array_split(np.arange(0, targets.shape[0], _CHUNK), kriging_workers(len(est)))
        if len(runs) == 1:
            krige_run(runs[0])
        else:
            # imported here: concurrent.futures brings in logging, 0.9 MB and
            # 3 ms that a process kriging only small grids need not pay
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(len(runs)) as pool:
                for future in [pool.submit(krige_run, run) for run in runs]:
                    future.result()
        var = np.maximum(var, 0.0)
        return est.reshape(x.shape)[()], var.reshape(x.shape)[()]


def regression_krige(trend: Grid, residual_samples: SampleSet, m: VariogramModel,
                     neighborhood: int = 32):
    """Add kriged residuals to a trend surface.

    Returns (final Grid, kriging-variance Grid); nodata cells of the trend
    propagate to both outputs.
    """
    kriger = OrdinaryKriger(residual_samples, m, neighborhood)
    mask = trend.valid_mask()
    x, y = trend.cell_centers()
    est, var = kriger.predict(x[mask], y[mask])
    final = np.full_like(trend.values, trend.nodata)
    variance = np.full_like(trend.values, trend.nodata)
    final[mask] = trend.values[mask] + est
    variance[mask] = var
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
