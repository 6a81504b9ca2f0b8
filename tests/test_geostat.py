import io
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from agbmap import geostat
from agbmap.errors import EmptyNeighborhood, FitFailure, SingularSystem, TooFewSamples
from agbmap.geostat import (RANGE_BOUND, EmpiricalVariogram, OrdinaryKriger, SampleSet,
                            VariogramModel, at_range_bound, empirical_variogram,
                            fit_exponential, regression_krige, write_variogram_report)
from agbmap.raster import Grid


def brute_force_variogram(xy, values, bin_width, max_lag):
    """All-pairs oracle with the same centred binning rule."""
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
    lags, gammas, cts = [], [], []
    for b in range(1, nbins + 1):
        if counts[b]:
            lags.append(b * bin_width)
            gammas.append(sums[b] / (2 * counts[b]))
            cts.append(counts[b])
    return lags, gammas, cts


def simulate_field_points(n, extent, nugget, psill, range_m, seed):
    """Cholesky-factor field oracle, independent of the package simulator."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, extent, (n, 2))
    d = np.hypot(xy[:, 0][:, None] - xy[:, 0][None, :],
                 xy[:, 1][:, None] - xy[:, 1][None, :])
    cov = psill * np.exp(-3 * d / range_m)
    L = np.linalg.cholesky(cov + 1e-10 * max(psill, 1.0) * np.eye(n))
    z = L @ rng.standard_normal(n)
    if nugget > 0:
        z = z + rng.normal(0, math.sqrt(nugget), n)
    return xy, z


# ------------------------------------------------------------- variogram

def test_collinear_three_point_example():
    s = SampleSet([[0, 0], [1, 0], [2, 0]], [1.0, 3.0, 5.0])
    ev = empirical_variogram(s, bin_width=1.0, max_lag=2.0)
    assert ev.lags.tolist() == [1.0, 2.0]
    assert ev.gamma.tolist() == [2.0, 8.0]
    assert ev.counts.tolist() == [2, 1]


def test_constant_field_zero_everywhere():
    rng = np.random.default_rng(0)
    s = SampleSet(rng.uniform(0, 100, (40, 2)), np.full(40, 3.3))
    ev = empirical_variogram(s, bin_width=10.0, max_lag=80.0)
    assert np.all(ev.gamma == 0.0)


def test_matches_brute_force_oracle_200_points():
    rng = np.random.default_rng(1)
    xy = rng.uniform(0, 1000, (200, 2))
    v = rng.normal(50, 12, 200)
    ev = empirical_variogram(SampleSet(xy, v), bin_width=50.0, max_lag=600.0)
    lags, gammas, counts = brute_force_variogram(xy.tolist(), v.tolist(), 50.0, 600.0)
    assert ev.lags.tolist() == lags
    assert ev.counts.tolist() == counts
    assert np.max(np.abs(ev.gamma - np.array(gammas))) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 60))
def test_matches_brute_force_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 500, (n, 2))
    v = rng.normal(0, 5, n)
    ev = empirical_variogram(SampleSet(xy, v), bin_width=40.0, max_lag=400.0)
    lags, gammas, counts = brute_force_variogram(xy.tolist(), v.tolist(), 40.0, 400.0)
    assert ev.lags.tolist() == lags
    assert np.max(np.abs(ev.gamma - np.array(gammas))) <= 1e-10


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        empirical_variogram(SampleSet([[0, 0]], [1.0]), bin_width=1.0, max_lag=5.0)


def test_duplicate_locations_averaged():
    s = SampleSet([[0, 0], [0, 0], [10, 0]], [2.0, 4.0, 5.0])
    assert s.n == 2
    assert s.values.tolist() == [3.0, 5.0]


# ------------------------------------------------------------- model fit

def test_fit_recovers_published_parameters_exactly():
    true = VariogramModel(9700.0, 5500.0, 3123.0)
    lags = np.linspace(250, 9000, 24)
    ev = EmpiricalVariogram(lags, true.gamma(lags), np.full(24, 40), 250.0, 9000.0)
    fit = fit_exponential(ev)
    assert fit.nugget == pytest.approx(9700.0, rel=0.01)
    assert fit.psill == pytest.approx(5500.0, rel=0.01)
    assert fit.range_m == pytest.approx(3123.0, rel=0.01)


def test_flat_variogram_pure_nugget():
    lags = np.linspace(10, 100, 10)
    ev = EmpiricalVariogram(lags, np.full(10, 4.0), np.full(10, 25), 10.0, 100.0)
    fit = fit_exponential(ev)
    assert fit.psill <= 0.05 * fit.nugget + 1e-9
    assert fit.nugget == pytest.approx(4.0, rel=0.05)


def test_fit_recovery_on_simulated_fields():
    # smoke-scale version; the acceptance suite runs the full 2000-point,
    # 20-seed variant at the 15% tolerance
    true = (3.5, 6.5, 1500.0)
    errs = []
    for seed in range(8):
        xy, z = simulate_field_points(900, 10000.0, *true, seed=seed)
        ev = empirical_variogram(SampleSet(xy, z), bin_width=120.0, max_lag=4000.0)
        fit = fit_exponential(ev)
        errs.append([abs(fit.nugget - true[0]) / true[0],
                     abs(fit.psill - true[1]) / true[1],
                     abs(fit.range_m - true[2]) / true[2]])
    med = np.median(np.array(errs), axis=0)
    assert np.all(med < 0.40)


def test_fit_needs_four_bins():
    ev = EmpiricalVariogram(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.5]),
                            np.array([5, 5, 5]), 1.0, 3.0)
    with pytest.raises(FitFailure):
        fit_exponential(ev)


def test_range_bound_flag():
    lags = np.linspace(250, 9000, 24)
    planted = VariogramModel(9700.0, 5500.0, 3123.0)
    ev = EmpiricalVariogram(lags, planted.gamma(lags), np.full(24, 40), 250.0, 9000.0)
    assert not at_range_bound(fit_exponential(ev), ev)
    # a variogram still rising linearly at max_lag has no range to find
    rising = EmpiricalVariogram(lags, 2.0 * lags, np.full(24, 40), 250.0, 9000.0)
    fit = fit_exponential(rising)
    assert fit.range_m == pytest.approx(RANGE_BOUND * 9000.0)
    assert at_range_bound(fit, rising)


def weighted_cost(ev, nugget, psill, range_m):
    """fit_exponential's objective: half the squared count-weighted residuals
    in units of the largest semivariance."""
    scale = ev.gamma.max() if ev.gamma.max() > 0 else 1.0
    model = nugget + psill * (1 - np.exp(-3 * ev.lags / range_m))
    r = np.sqrt(ev.counts) * (model - ev.gamma) / scale
    return 0.5 * float(r @ r)


def scipy_fit_cost(ev):
    """Lowest cost over fit_exponential's eight starts, one scipy
    least_squares call each with the same bounds and tolerances."""
    scale = ev.gamma.max() if ev.gamma.max() > 0 else 1.0
    hi_range = RANGE_BOUND * ev.max_lag
    tail = ev.gamma[-max(len(ev) // 4, 1):].mean()
    costs = []
    for r0 in (ev.max_lag / 6, ev.max_lag / 3, ev.max_lag, hi_range / 2):
        for n0 in (ev.gamma[0], 0.0):
            res = least_squares(lambda p: np.sqrt(ev.counts) * (
                                    p[0] + p[1] * (1 - np.exp(-3 * ev.lags / p[2])) - ev.gamma)
                                / scale,
                                x0=[n0, max(tail - n0, 0.05 * scale), r0],
                                bounds=([0.0, 0.0, 1e-9], [np.inf, np.inf, hi_range]),
                                xtol=1e-12, ftol=1e-12, gtol=1e-12)
            if res.success:
                costs.append(res.cost)
    return min(costs)


def oracle_variograms():
    lags = np.linspace(250, 9000, 24)
    counts = np.linspace(400, 40, 24).round()
    planted = VariogramModel(9700.0, 5500.0, 3123.0)
    noisy = planted.gamma(lags) * (1 + 0.05 * np.random.default_rng(3).standard_normal(24))
    # only some starts reach the lower of this one's two local minima
    bimodal = (VariogramModel(2.0, 6.0, 2000.0).gamma(lags)
               * (1 + 0.2 * np.random.default_rng(105).standard_normal(24)))
    xy, z = simulate_field_points(600, 10000.0, 3.5, 6.5, 1500.0, seed=2)
    xy0, z0 = simulate_field_points(600, 10000.0, 0.0, 5.0, 800.0, seed=4)
    yield "published", EmpiricalVariogram(lags, planted.gamma(lags), counts, 250.0, 9000.0)
    yield "noisy", EmpiricalVariogram(lags, noisy, counts, 250.0, 9000.0)
    yield "two local minima", EmpiricalVariogram(lags, bimodal, np.full(24, 50), 250.0, 9000.0)
    yield "pure nugget", EmpiricalVariogram(lags, np.full(24, 4.0), counts, 250.0, 9000.0)
    yield "rising at max_lag", EmpiricalVariogram(lags, 2.0 * lags, counts, 250.0, 9000.0)
    yield "short range", EmpiricalVariogram(lags, VariogramModel(1.0, 9.0, 300.0).gamma(lags),
                                            counts, 250.0, 9000.0)
    yield "simulated field", empirical_variogram(SampleSet(xy, z), bin_width=120.0,
                                                 max_lag=4000.0)
    yield "simulated, no nugget", empirical_variogram(SampleSet(xy0, z0), bin_width=150.0,
                                                      max_lag=4000.0)


@pytest.mark.parametrize("name, ev", list(oracle_variograms()))
def test_fit_reaches_scipy_cost(name, ev):
    fit = fit_exponential(ev)
    assert 0.0 <= fit.nugget and 0.0 <= fit.psill
    assert 0.0 < fit.range_m <= RANGE_BOUND * ev.max_lag
    got = weighted_cost(ev, fit.nugget, fit.psill, fit.range_m)
    assert got <= scipy_fit_cost(ev) * (1 + 1e-9) + 1e-24


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_fails_when_every_start_fails(bad):
    lags = np.linspace(10, 100, 10)
    gamma = np.linspace(1.0, 5.0, 10)
    gamma[4] = bad
    with pytest.raises(FitFailure):
        fit_exponential(EmpiricalVariogram(lags, gamma, np.full(10, 25), 10.0, 100.0))


def test_model_gamma_monotone_and_nonnegative():
    m = VariogramModel(2.0, 8.0, 1000.0)
    h = np.linspace(0, 5000, 200)
    g = m.gamma(h)
    assert g[0] == 0.0
    assert np.all(np.diff(g) >= -1e-12)
    assert m.gamma(1e-9) == pytest.approx(m.nugget, rel=1e-6)
    # practical-range convention: 1 - exp(-3) of the partial sill at h = range
    assert m.gamma(m.range_m) == pytest.approx(
        m.nugget + (1 - math.exp(-3)) * m.psill, rel=1e-12)


# ------------------------------------------------------------- kriging

def dense_ok_oracle(xy, values, model, target):
    """Independent assembly and solve of the full augmented system."""
    n = len(values)
    a = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            h = math.hypot(xy[i][0] - xy[j][0], xy[i][1] - xy[j][1])
            a[i, j] = model.gamma(h) if h > 0 else 0.0
        a[i, n] = 1.0
        a[n, i] = 1.0
    b = np.zeros(n + 1)
    for i in range(n):
        h = math.hypot(xy[i][0] - target[0], xy[i][1] - target[1])
        b[i] = model.gamma(h) if h > 0 else 0.0
    b[n] = 1.0
    import scipy.linalg
    sol = scipy.linalg.solve(a, b)
    est = float(sol[:n] @ np.asarray(values))
    var = float(sol[:n] @ b[:n] + sol[n])
    return est, var, sol[:n]


def test_single_sample_unbiasedness():
    m = VariogramModel(1.0, 5.0, 100.0)
    est, var = OrdinaryKriger(SampleSet([[0, 0]], [42.0]), m, neighborhood=1).predict(30, 40)
    assert est == 42.0
    assert var >= 0


def test_zero_nugget_exact_interpolation():
    rng = np.random.default_rng(2)
    xy = rng.uniform(0, 500, (30, 2))
    v = rng.normal(100, 20, 30)
    m = VariogramModel(0.0, 50.0, 200.0)
    kriger = OrdinaryKriger(SampleSet(xy, v), m, neighborhood=30)
    for i in (0, 7, 29):
        est, var = kriger.predict(*xy[i])
        assert est == pytest.approx(v[i], abs=1e-8)
        assert var == pytest.approx(0.0, abs=1e-8)


def test_zero_nugget_local_neighbourhood_interpolates_every_sample():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 1000, (200, 2))
    v = rng.normal(100, 20, 200)
    kriger = OrdinaryKriger(SampleSet(xy, v), VariogramModel(0.0, 50.0, 300.0), neighborhood=8)
    est, var = kriger.predict(xy[:, 0], xy[:, 1])
    np.testing.assert_allclose(est, v, rtol=0, atol=1e-9)
    np.testing.assert_allclose(var, 0.0, rtol=0, atol=1e-9)


def test_matches_dense_oracle_and_weights_sum():
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 1000, (5, 2))
    v = rng.normal(0, 10, 5)
    m = VariogramModel(2.0, 10.0, 400.0)
    kriger = OrdinaryKriger(SampleSet(xy, v), m, neighborhood=5)
    target = (430.0, 520.0)
    est, var = kriger.predict(*target)
    idx, lam, mu = kriger.weights_at(*target)
    oest, ovar, olam = dense_ok_oracle(xy.tolist(), v.tolist(), m, target)
    assert est == pytest.approx(oest, abs=1e-8)
    assert var == pytest.approx(ovar, abs=1e-8)
    assert abs(lam.sum() - 1.0) < 1e-9


def test_local_converges_to_global():
    rng = np.random.default_rng(4)
    xy = rng.uniform(0, 2000, (150, 2))
    v = rng.normal(0, 5, 150)
    m = VariogramModel(1.0, 9.0, 600.0)
    s = SampleSet(xy, v)
    full = OrdinaryKriger(s, m, neighborhood=150)
    targets = rng.uniform(0, 2000, (25, 2))
    growing = [OrdinaryKriger(s, m, neighborhood=k) for k in (8, 32, 150)]
    prev_err = None
    ref = np.array([full.predict(*t)[0] for t in targets])
    for kriger in growing:
        est = np.array([kriger.predict(*t)[0] for t in targets])
        err = np.max(np.abs(est - ref))
        if prev_err is not None:
            assert err <= prev_err + 1e-9
        prev_err = err
    assert prev_err < 1e-6  # neighborhood = n reproduces the global solve


def test_empty_neighborhood():
    m = VariogramModel(1.0, 1.0, 10.0)
    with pytest.raises(EmptyNeighborhood):
        OrdinaryKriger(SampleSet(np.empty((0, 2)), np.empty(0)), m)
    with pytest.raises(EmptyNeighborhood):
        OrdinaryKriger(SampleSet([[0, 0]], [1.0]), m, neighborhood=0)


# ------------------------------------------------------------- regression kriging

def trend_grid():
    vals = np.tile(np.linspace(100, 200, 10), (10, 1))
    return Grid(vals, 0.0, 0.0, 100.0)


def test_zero_residuals_returns_trend():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 1000, (40, 2))
    m = VariogramModel(0.5, 2.0, 300.0)
    final, var = regression_krige(trend_grid(), SampleSet(xy, np.zeros(40)), m)
    assert np.allclose(final.values, trend_grid().values)
    assert np.all(var.values >= 0)


def test_cell_center_sample_exactness_with_zero_nugget():
    g = trend_grid()
    x, y = g.cell_center(4, 4)
    xy = np.array([[x, y], [x + 310.0, y - 260.0]])
    resid = np.array([25.0, -10.0])
    m = VariogramModel(0.0, 30.0, 400.0)
    final, _ = regression_krige(g, SampleSet(xy, resid), m)
    assert final.values[4, 4] == pytest.approx(g.values[4, 4] + 25.0, abs=1e-8)


def test_nodata_propagates():
    g = trend_grid()
    g.values[0, 0] = g.nodata
    rng = np.random.default_rng(6)
    xy = rng.uniform(0, 1000, (50, 2))
    resid = rng.normal(0, 4, 50)
    m = VariogramModel(1.0, 5.0, 300.0)
    f1, v1 = regression_krige(g, SampleSet(xy, resid), m)
    assert f1.values[0, 0] == g.nodata and v1.values[0, 0] == g.nodata


CHUNKED_NODATA = [(0, 0), (5, 7), (11, 14), (6, 0)]


def chunked_scene():
    """A 12 x 15 trend grid with 4 nodata cells, so 176 targets: five full
    chunks of 32 and a ragged tail of 16; 40 residual samples."""
    g = Grid(np.random.default_rng(8).uniform(50, 150, (12, 15)), 0.0, 0.0, 100.0)
    for rc in CHUNKED_NODATA:
        g.values[rc] = g.nodata
    rng = np.random.default_rng(9)
    xy = rng.uniform(0, 1500, (40, 2))
    resid = rng.normal(0, 6, 40)
    return g, xy, resid, VariogramModel(1.5, 8.0, 500.0)


def test_chunked_grid_matches_dense_oracle_per_cell():
    g, xy, resid, m = chunked_scene()
    nodata = CHUNKED_NODATA
    final, var = regression_krige(g, SampleSet(xy, resid), m, neighborhood=40)
    for r in range(g.nrows):
        for c in range(g.ncols):
            if (r, c) in nodata:
                assert final.values[r, c] == g.nodata and var.values[r, c] == g.nodata
                continue
            oest, ovar, _ = dense_ok_oracle(xy.tolist(), resid.tolist(), m,
                                            g.cell_center(r, c))
            assert final.values[r, c] == pytest.approx(g.values[r, c] + oest, abs=1e-8)
            assert var.values[r, c] == pytest.approx(max(ovar, 0.0), abs=1e-8)


def test_flat_variogram_raises_singular_system():
    xy = np.array([[100.0, 100.0], [400.0, 300.0], [700.0, 800.0]])
    with pytest.raises(SingularSystem):
        regression_krige(trend_grid(), SampleSet(xy, [1.0, 2.0, 3.0]),
                         VariogramModel(0.0, 0.0, 100.0))


# ------------------------------------------------------------- kriging threads

def two_workers(monkeypatch):
    """Krige on two threads from 80 targets up, whatever the host's core count."""
    monkeypatch.setattr(geostat.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(geostat.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(geostat, "_WORKER_TARGETS", 40)


def test_worker_count_from_cores_and_targets(monkeypatch):
    monkeypatch.setattr(geostat.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(geostat.os, "cpu_count", lambda: 8)
    assert [geostat.kriging_workers(n) for n in (0, 625, 900, 1999, 2000, 2500, 10_000)] \
        == [1, 1, 1, 1, 2, 2, 8]
    monkeypatch.setattr(geostat.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(geostat.os, "cpu_count", lambda: 1)
    assert geostat.kriging_workers(10_000) == 1


def test_two_workers_krige_exactly_what_one_does(monkeypatch):
    g, xy, resid, m = chunked_scene()
    serial = regression_krige(g, SampleSet(xy, resid), m, neighborhood=40)
    two_workers(monkeypatch)
    solved_on = set()
    solve = OrdinaryKriger._solve

    def spy(self, *args):
        solved_on.add(threading.get_ident())
        return solve(self, *args)

    monkeypatch.setattr(OrdinaryKriger, "_solve", spy)
    threads = threading.active_count()
    threaded = regression_krige(g, SampleSet(xy, resid), m, neighborhood=40)
    assert solved_on and threading.get_ident() not in solved_on  # the pool solved every chunk
    assert threading.active_count() == threads
    for one, two in zip(serial, threaded):
        assert np.array_equal(one.values, two.values)


def test_two_workers_raise_the_first_singular_chunk_as_one_does(monkeypatch):
    g, xy, resid, _ = chunked_scene()
    flat = VariogramModel(0.0, 0.0, 100.0)
    with pytest.raises(SingularSystem) as serial:
        regression_krige(g, SampleSet(xy, resid), flat, neighborhood=40)
    two_workers(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(SingularSystem) as threaded:
        regression_krige(g, SampleSet(xy, resid), flat, neighborhood=40)
    assert threading.active_count() == threads
    assert str(threaded.value) == str(serial.value)


def test_variogram_report_format():
    ev = EmpiricalVariogram(np.array([10.0, 20.0]), np.array([1.5, 2.5]),
                            np.array([4, 6]), 10.0, 20.0)
    buf = io.StringIO()
    write_variogram_report(ev, VariogramModel(1.0, 2.0, 15.0), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "kind,lag,gamma,pairs,nugget,psill,range"
    assert lines[1].startswith("bin,10,1.5,4")
    assert lines[-1].startswith("model,,,,1,2,15")
