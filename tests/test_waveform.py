import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from agbmap import waveform
from agbmap.errors import DegenerateNoise, NoSignal
from agbmap.lsq import plm
from agbmap.synth import generate_scene, small_config
from agbmap.waveform import (FilterResult, GaussianComponent, WaveformRecord,
                             decompose_gaussians, detect_signal_bounds, extract_metrics,
                             identify_ground_peak, process_waveforms, quality_filter,
                             read_waveforms, write_waveforms)


def make_wave(intensities, bin_size=0.3, top=200.0, **kw):
    return WaveformRecord("w", 0.0, 0.0, top, bin_size, np.asarray(intensities, float), **kw)


def gaussians_on(elev, *comps):
    out = np.zeros_like(elev)
    for a, c, s in comps:
        out = out + a * np.exp(-0.5 * ((elev - c) / s) ** 2)
    return out


def build_wave(noise_mean, noise_sd, comps, top=160.0, bottom=80.0, bin_size=0.3,
               seed=0, **kw):
    n = int((top - bottom) / bin_size) + 1
    elev = top - np.arange(n) * bin_size
    rng = np.random.default_rng(seed)
    noise = rng.normal(noise_mean, noise_sd, n) if noise_sd > 0 else np.full(n, noise_mean)
    vals = np.maximum(gaussians_on(elev, *comps) + noise, 0.0)
    return WaveformRecord("w", 0.0, 0.0, top, bin_size, vals, **kw), elev


# --------------------------------------------------------------- detection

def test_flat_waveform_no_signal():
    with pytest.raises(NoSignal):
        detect_signal_bounds(make_wave(np.full(100, 5.0)))


def test_zero_noise_spike_is_degenerate():
    vals = np.zeros(100)
    vals[50] = 40.0
    with pytest.raises(DegenerateNoise):
        detect_signal_bounds(make_wave(vals))


def test_bounds_match_analytic_crossing():
    # noise(10, 2) + ground at 100 m + canopy at 130 m; threshold = 10 + 4.5*2 = 19
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, elev = build_wave(10.0, 2.0, comps, seed=5)
    noise, begin, end = detect_signal_bounds(w, k=4.5)
    # oracle: where the generating mixture first exceeds 9 above the mean
    signal = gaussians_on(elev, *comps)
    above = np.flatnonzero(signal > 9.0)
    want_begin = elev[above[0]]
    want_end = elev[above[-1]]
    assert abs(begin - want_begin) <= w.bin_size
    assert abs(end - want_end) <= w.bin_size
    assert begin >= end


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 50.0))
def test_bounds_invariant_under_joint_scaling(scale):
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(10.0, 2.0, comps, seed=9)
    scaled = make_wave(w.intensities * scale, top=w.bin_top_elev)
    n1, b1, e1 = detect_signal_bounds(w)
    n2, b2, e2 = detect_signal_bounds(scaled)
    assert (b1, e1) == (b2, e2)
    assert n2.snr == pytest.approx(n1.snr, rel=1e-9)


# --------------------------------------------------------------- decomposition

def test_two_gaussian_recovery_nearly_noiseless():
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(5.0, 0.4, comps, seed=1)
    noise, b, e = detect_signal_bounds(w)
    fitted, rms = decompose_gaussians(w, noise, max_components=4, bounds=(b, e))
    assert len(fitted) == 2
    assert fitted[0].center_elev == pytest.approx(130.0, abs=0.5 * w.bin_size)
    assert fitted[1].center_elev == pytest.approx(100.0, abs=0.5 * w.bin_size)
    assert fitted[0].amplitude == pytest.approx(60.0, rel=0.02)
    assert fitted[1].amplitude == pytest.approx(80.0, rel=0.02)


def test_single_gaussian_bic_prefers_one_component():
    w, _ = build_wave(5.0, 0.4, [(70.0, 115.0, 4.0)], seed=2)
    noise, b, e = detect_signal_bounds(w)
    fitted, _ = decompose_gaussians(w, noise, max_components=3, bounds=(b, e))
    assert len(fitted) == 1
    assert fitted[0].center_elev == pytest.approx(115.0, abs=0.5 * w.bin_size)


def test_three_gaussian_monte_carlo_recovery():
    comps = [(55.0, 140.0, 2.5), (45.0, 120.0, 3.0), (85.0, 100.0, 1.5)]
    hits = 0
    seeds = 60
    for seed in range(seeds):
        w, _ = build_wave(10.0, 2.0, comps, seed=seed)
        noise, b, e = detect_signal_bounds(w)
        fitted, _ = decompose_gaussians(w, noise, max_components=4, bounds=(b, e))
        if len(fitted) != 3:
            continue
        errs = [abs(f.center_elev - c[1]) for f, c in zip(fitted, comps)]
        if max(errs) <= w.bin_size:
            hits += 1
    assert hits / seeds >= 0.95


# --------------------------------------------------------------- solver

def solver_windows(comps, seeds, noise_sd=2.0):
    out = []
    for seed in seeds:
        w, _ = build_wave(10.0, noise_sd, comps, seed=seed)
        noise, b, e = detect_signal_bounds(w)
        out.append(waveform._fit_window(w, noise, b, e))
    return out


def solve_block(windows, ncomp):
    """plm over the windows as one block: (params, rss, ok, lo, hi)."""
    p0, lo, hi = map(np.array, zip(*(waveform._start(*w, ncomp) for w in windows)))
    fit = plm(waveform._residuals, p0, lo, hi, waveform._pad(windows), xtol=waveform._XTOL,
              ftol=waveform._FTOL, gtol=waveform._GTOL, max_nfev=waveform._MAX_NFEV)
    return (*fit, lo, hi)


def scipy_rss(window, ncomp):
    x, y, bin_size = window
    p0, lo, hi = waveform._start(x, y, bin_size, ncomp)
    res = least_squares(lambda p: gaussians_on(x, *p.reshape(-1, 3)) - y, x0=p0,
                        bounds=(lo, hi), xtol=1e-10, ftol=1e-10, max_nfev=400)
    assert res.success
    return float(res.fun @ res.fun)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_one_and_two_component_fits_match_scipy(ncomp):
    # two scenes of unequal window length exercise the padding mask
    windows = (solver_windows([(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)], range(4))
               + solver_windows([(50.0, 140.0, 2.5), (90.0, 95.0, 2.0)], range(4, 8)))
    assert len({x.size for x, _, _ in windows}) > 1
    _, rss, ok, _, _ = solve_block(windows, ncomp)
    assert ok.all()
    for window, got in zip(windows, rss):
        want = scipy_rss(window, ncomp)
        assert abs(got - want) <= 1e-9 * want


def test_three_components_on_one_gaussian_converge_inside_bounds():
    windows = solver_windows([(70.0, 115.0, 4.0)], range(20))
    params, rss, ok, lo, hi = solve_block(windows, 3)
    assert ok.all()
    assert np.all((lo <= params) & (params <= hi))
    assert np.any((params == lo) | (params == hi))  # the spare components end at bounds
    _, rss1, _, _, _ = solve_block(windows, 1)
    assert np.all(rss <= rss1)


def test_batched_footprints_match_one_record_calls():
    scene = generate_scene(small_config(seed=7))
    kw = dict(k=4.5, max_components=3, snr_min=15.0, max_elev_gap=100.0)
    records = list(scene.footprints)
    # a copy of a kept footprint moved west of the DEM, placed mid-batch
    outside = dataclasses.replace(records[0], id="outside",
                                  lon=scene.dem.origin_x - scene.dem.cellsize)
    records.insert(len(records) // 2, outside)
    batched = process_waveforms(records, scene.dem, **kw)
    assert batched[0].result.kept
    assert sum(fr.result.kept for fr in batched) > 300
    for fr in batched:
        one = process_waveforms([fr.record], scene.dem, **kw)[0]
        assert one.result == fr.result
        if fr.record is outside:
            assert fr.result == FilterResult(False, "OutsideDem") and fr.metrics is None
        if fr.metrics is None:
            assert one.metrics is None
            continue
        for col in waveform.METRIC_COLUMNS:
            got, want = getattr(fr.metrics, col), getattr(one.metrics, col)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), col


# --------------------------------------------------------------- ground peak

def test_ground_peak_stronger_of_last_two():
    comps = [GaussianComponent(20.0, 130.0, 3.0),
             GaussianComponent(9.0, 110.0, 2.0),
             GaussianComponent(5.0, 100.0, 2.0)]
    assert identify_ground_peak(comps).amplitude == 9.0


def test_ground_peak_single_and_tie():
    only = [GaussianComponent(7.0, 100.0, 1.0)]
    assert identify_ground_peak(only) is only[0]
    tie = [GaussianComponent(5.0, 120.0, 1.0), GaussianComponent(5.0, 100.0, 1.0)]
    assert identify_ground_peak(tie).center_elev == 100.0  # lower wins ties
    with pytest.raises(ValueError):
        identify_ground_peak([])


# --------------------------------------------------------------- metrics

def test_metrics_from_planted_generator():
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(5.0, 0.4, comps, seed=3)
    noise, b, e = detect_signal_bounds(w)
    fitted, _ = decompose_gaussians(w, noise, max_components=3, bounds=(b, e))
    m = extract_metrics(w, fitted, np.zeros((3, 3)), noise=noise, bounds=(b, e))
    assert m.tch == pytest.approx(30.0, abs=0.2)
    assert m.wext == b - e
    assert m.lead == pytest.approx(b - 130.0, abs=0.2)
    assert m.trail == pytest.approx(100.0 - e, abs=0.2)
    q = m.quantile_depths()
    assert np.all(np.diff(q) >= 0)
    assert q[-1] <= m.wext
    assert e <= m.ground_elev <= b


def test_symmetric_gaussian_h50_at_center():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    noise, b, e = detect_signal_bounds(w)
    fitted, _ = decompose_gaussians(w, noise, max_components=2, bounds=(b, e))
    m = extract_metrics(w, fitted, np.zeros((3, 3)), noise=noise, bounds=(b, e))
    assert m.h50 == pytest.approx(b - 115.0, abs=w.bin_size)
    assert m.lead == pytest.approx(m.trail, abs=w.bin_size)


def test_flat_dem_patch_zero_terrain():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    noise, b, e = detect_signal_bounds(w)
    fitted, _ = decompose_gaussians(w, noise, max_components=2, bounds=(b, e))
    m = extract_metrics(w, fitted, np.full((3, 3), 250.0), noise=noise, bounds=(b, e))
    assert m.ti == 0.0
    assert m.slope == pytest.approx(0.0, abs=1e-12)


def test_dem_patch_slope_and_ti():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    noise, b, e = detect_signal_bounds(w)
    fitted, _ = decompose_gaussians(w, noise, max_components=2, bounds=(b, e))
    patch = np.tile(np.array([0.0, 1.0, 2.0]), (3, 1))  # 1 m per 90 m cell, eastward
    m = extract_metrics(w, fitted, patch, noise=noise, bounds=(b, e), dem_cellsize=90.0)
    assert m.ti == 2.0
    assert m.slope == pytest.approx(math.degrees(math.atan(1 / 90.0)), rel=1e-9)


# --------------------------------------------------------------- filter

def filter_with(snr=20.0, **kw):
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(10.0, 2.0, comps, seed=6, **kw)
    noise, b, e = detect_signal_bounds(w)
    fake_noise = type(noise)(noise.mean, noise.sd, snr)
    return quality_filter(w, (fake_noise, b, e))


def test_filter_rules_in_order():
    assert filter_with(snr=10.0).reason == "SNR"
    assert filter_with(cloud_flag=0).reason == "Cloud"
    assert filter_with(sat_ndx=1).reason == "Saturated"
    assert filter_with(srtm_elev=400.0).reason == "ElevationMismatch"
    ok = filter_with(srtm_elev=112.0)
    assert ok.kept and ok.reason == ""


def test_filter_first_failure_wins():
    r = filter_with(snr=10.0, cloud_flag=0, sat_ndx=2)
    assert r.reason == "SNR"


def test_filter_elevation_uses_centroid():
    # centroid sits between ground (100) and canopy (130); 250 m reference fails
    assert filter_with(srtm_elev=250.0).reason == "ElevationMismatch"
    assert filter_with(srtm_elev=113.0).kept


def test_synthetic_batch_pass_rate_matches_injection():
    from agbmap.synth import generate_scene, small_config
    cfg = small_config(seed=21, n_footprints=1000, n_plots=0,
                       cloud_violation_rate=0.06, sat_violation_rate=0.05,
                       low_snr_rate=0.04, elev_mismatch_rate=0.05)
    scene = generate_scene(cfg)
    kept = sum(r.result.kept for r in process_waveforms(scene.footprints, None,
                                                        max_components=1))
    expected = 1.0 - 0.06 - 0.05 - 0.04 - 0.05
    assert kept / 1000 == pytest.approx(expected, abs=0.02)


# --------------------------------------------------------------- io

def test_ndjson_round_trip(tmp_path):
    w, _ = build_wave(10.0, 2.0, [(60.0, 130.0, 3.0)], seed=7,
                      sat_ndx=1, cloud_flag=0, srtm_elev=99.5)
    path = tmp_path / "waves.ndjson"
    write_waveforms([w], path)
    back = read_waveforms(path)
    assert len(back) == 1
    assert back[0].id == w.id
    assert back[0].sat_ndx == 1
    assert back[0].cloud_flag == 0
    assert back[0].bin_size == w.bin_size
    assert np.allclose(back[0].intensities, w.intensities, atol=1e-5)


def test_record_validation():
    with pytest.raises(ValueError):
        make_wave(np.ones(5))  # too short
    with pytest.raises(ValueError):
        WaveformRecord("x", 0, 0, 100.0, 0.0, np.ones(20))
    with pytest.raises(ValueError):
        make_wave(-np.ones(20))
