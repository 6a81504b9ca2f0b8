import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from agbmap import waveform
from agbmap.lsq import plm
from agbmap.raster import Grid
from agbmap.synth import generate_scene, small_config
from agbmap.waveform import (METRIC_COLUMNS, QUANTILES, WaveformRecord, Waveforms,
                             decompose_gaussians, filter_waveforms, ground_peak,
                             process_waveforms, read_waveforms, write_waveforms)


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


def screen(w, **kw):
    """The filter stage's verdict on the one record w."""
    return filter_waveforms(Waveforms.pack([w]), **kw)


def decompose(w, max_components):
    """(amplitudes, centers) of w's significant components by descending center."""
    wf = Waveforms.pack([w])
    amp, center = decompose_gaussians(wf, filter_waveforms(wf), np.arange(1), max_components)
    keep = ~np.isnan(center[0])
    return amp[0, keep], center[0, keep]


def metrics_of(w, max_components, patch=np.zeros((3, 3))):
    """w's metrics by name, through the driver with a 90 m DEM of one 3x3
    patch whose center cell holds w."""
    dem = Grid(patch, w.lon - 135.0, w.lat - 135.0, 90.0)
    reasons, table = process_waveforms([w], dem, max_components=max_components,
                                       max_elev_gap=np.inf)
    assert reasons == [""]
    return dict(zip(METRIC_COLUMNS, table.metrics[0]))


# --------------------------------------------------------------- detection

def test_flat_waveform_no_signal():
    assert screen(make_wave(np.full(100, 5.0))).reason[0] == "NoSignal"


def test_zero_noise_spike_is_degenerate():
    vals = np.zeros(100)
    vals[50] = 40.0
    assert screen(make_wave(vals)).reason[0] == "DegenerateNoise"


def test_bounds_match_analytic_crossing():
    # noise(10, 2) + ground at 100 m + canopy at 130 m; threshold = 10 + 4.5*2 = 19
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, elev = build_wave(10.0, 2.0, comps, seed=5)
    s = screen(w, k=4.5)
    begin, end = s.begin[0], s.end[0]
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
    s1, s2 = screen(w), screen(scaled)
    assert (s1.begin[0], s1.end[0]) == (s2.begin[0], s2.end[0])
    assert s2.snr[0] == pytest.approx(s1.snr[0], rel=1e-9)


# --------------------------------------------------------------- decomposition

def test_two_gaussian_recovery_nearly_noiseless():
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(5.0, 0.4, comps, seed=1)
    amp, center = decompose(w, max_components=4)
    assert len(center) == 2
    assert center[0] == pytest.approx(130.0, abs=0.5 * w.bin_size)
    assert center[1] == pytest.approx(100.0, abs=0.5 * w.bin_size)
    assert amp[0] == pytest.approx(60.0, rel=0.02)
    assert amp[1] == pytest.approx(80.0, rel=0.02)


def test_single_gaussian_bic_prefers_one_component():
    w, _ = build_wave(5.0, 0.4, [(70.0, 115.0, 4.0)], seed=2)
    _, center = decompose(w, max_components=3)
    assert len(center) == 1
    assert center[0] == pytest.approx(115.0, abs=0.5 * w.bin_size)


def test_three_gaussian_monte_carlo_recovery():
    comps = [(55.0, 140.0, 2.5), (45.0, 120.0, 3.0), (85.0, 100.0, 1.5)]
    hits = 0
    seeds = 60
    for seed in range(seeds):
        w, _ = build_wave(10.0, 2.0, comps, seed=seed)
        _, center = decompose(w, max_components=4)
        if len(center) != 3:
            continue
        errs = [abs(f - c[1]) for f, c in zip(center, comps)]
        if max(errs) <= w.bin_size:
            hits += 1
    assert hits / seeds >= 0.95


# --------------------------------------------------------------- solver

def planted_records(comps, seeds, noise_sd=2.0):
    """Records of the planted components, one per seed."""
    return [build_wave(10.0, noise_sd, comps, seed=seed)[0] for seed in seeds]


def solve_block(records, ncomp):
    """plm over the records' fit windows as one block: (params, rss, ok, lo,
    hi) and the windows (x, y, width, p0)."""
    wf = Waveforms.pack(records)
    rows = np.arange(len(records))
    s = filter_waveforms(wf)
    first, width = waveform._window_bins(wf, s, rows)
    x, y = waveform._windows(wf, s, rows, first, width)
    p0, lo, hi = waveform._start(x, y, width, wf.bin_size, ncomp, waveform._peaks(y, width))
    mask = (np.arange(x.shape[1]) < width[:, None]).astype(float)
    fit = plm(waveform._residuals, p0, lo, hi, (x, y, mask), xtol=waveform._XTOL,
              ftol=waveform._FTOL, gtol=waveform._GTOL, max_nfev=waveform._MAX_NFEV)
    return (*fit, lo, hi), (x, y, width, p0)


def scipy_rss(x, y, p0, lo, hi):
    res = least_squares(lambda p: gaussians_on(x, *p.reshape(-1, 3)) - y, x0=p0,
                        bounds=(lo, hi), xtol=1e-10, ftol=1e-10, max_nfev=400)
    assert res.success
    return float(res.fun @ res.fun)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_one_and_two_component_fits_match_scipy(ncomp):
    # two scenes of unequal window length exercise the padding mask
    records = (planted_records([(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)], range(4))
               + planted_records([(50.0, 140.0, 2.5), (90.0, 95.0, 2.0)], range(4, 8)))
    (_, rss, ok, lo, hi), (x, y, width, p0) = solve_block(records, ncomp)
    assert len(set(width)) > 1
    assert ok.all()
    for i, got in enumerate(rss):
        want = scipy_rss(x[i, :width[i]], y[i, :width[i]], p0[i], lo[i], hi[i])
        assert abs(got - want) <= 1e-9 * want


def test_three_components_on_one_gaussian_converge_inside_bounds():
    records = planted_records([(70.0, 115.0, 4.0)], range(20))
    (params, rss, ok, lo, hi), _ = solve_block(records, 3)
    assert ok.all()
    assert np.all((lo <= params) & (params <= hi))
    assert np.any((params == lo) | (params == hi))  # the spare components end at bounds
    (_, rss1, _, _, _), _ = solve_block(records, 1)
    assert np.all(rss <= rss1)


def test_batched_footprints_match_one_record_calls():
    # every filter rule fires, plus one record of each driver reject; the
    # records fill two packs and vary in nbins, so the width sort reorders
    # the fit blocks
    scene = generate_scene(small_config(seed=4003, n_footprints=450, n_plots=0,
                                        cloud_violation_rate=0.03, sat_violation_rate=0.03,
                                        low_snr_rate=0.03, elev_mismatch_rate=0.03))
    kw = dict(k=4.5, max_components=3, snr_min=15.0, max_elev_gap=100.0)
    records = list(scene.footprints)
    assert len({w.nbins for w in records}) > 100 and len(records) > waveform._CHUNK
    kept = next(w for w in records if w.id not in scene.expected_rejects)
    spike = np.r_[np.full(119, 8.0), 60.0]  # signal in the last bin only
    special = {
        "outside": dataclasses.replace(kept, id="outside",
                                       lon=scene.dem.origin_x - scene.dem.cellsize),
        "flat": dataclasses.replace(kept, id="flat", intensities=np.full(kept.nbins, 8.0)),
        # 0.7 m bins from 50 m: the upper margin rounds below the fourth bin
        "narrow": dataclasses.replace(kept, id="narrow", bin_top_elev=50.0, bin_size=0.7,
                                      intensities=spike, srtm_elev=-30.0),
        # a four-bin window, narrower than the smoothing kernel, still fits
        "short": dataclasses.replace(kept, id="short", bin_top_elev=100.0, bin_size=0.3,
                                     intensities=spike, srtm_elev=70.0),
    }
    for i, w in enumerate(special.values()):
        records.insert(37 + 101 * i, w)
    reasons, table = process_waveforms(records, scene.dem, **kw)
    want = {**scene.expected_rejects, "outside": "OutsideDem", "flat": "NoSignal",
            "narrow": "FitFailure"}
    assert {w.id: r for w, r in zip(records, reasons) if r} == want
    assert set(scene.expected_rejects.values()) == {"Cloud", "Saturated", "SNR",
                                                    "ElevationMismatch"}
    assert table.ids == tuple(w.id for w, r in zip(records, reasons) if not r)
    assert len(table.ids) > 300
    for w, reason in zip(records, reasons):
        one_reasons, one = process_waveforms([w], scene.dem, **kw)
        assert one_reasons == [reason]
        if reason:
            assert len(one.ids) == 0
            continue
        row = table.ids.index(w.id)
        assert one.ids == (w.id,) and np.array_equal(one.xy[0], table.xy[row])
        for col, got, want in zip(METRIC_COLUMNS, table.metrics[row], one.metrics[0]):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), col


def oracle_bounds(w, k=4.5):
    """(mean, sd, begin, end) of one record, computed on its own bins."""
    v = w.intensities
    elev = w.bin_top_elev - np.arange(v.size) * w.bin_size
    m = max(1, int(round(0.1 * v.size)))
    window = np.zeros(v.size, dtype=bool)
    window[:m] = window[v.size - m:] = True
    mean, sd = v[window].mean(), v[window].std()

    def bounds(mean, sd):
        above = np.flatnonzero(v > mean + k * sd)
        return (above[0], above[-1]) if above.size else None
    b = bounds(mean, sd)
    refined = window.copy()
    if b is not None:
        refined[b[0]:b[1] + 1] = False
    if b is not None and 2 <= refined.sum() < window.sum():
        mean, sd = v[refined].mean(), v[refined].std()
        if sd > 0:
            b = bounds(mean, sd)
    return mean, sd, elev[b[0]], elev[b[1]]


def oracle_depths(w, mean, begin, end):
    """Quantile depths of one record by a search in its cumulative energy."""
    elev = w.bin_top_elev - np.arange(w.nbins) * w.bin_size
    sel = (elev <= begin) & (elev >= end)
    energy = np.maximum(w.intensities[sel] - mean, 0.0)
    depths = begin - elev[sel]
    cum = np.cumsum(energy) / energy.sum()
    out = []
    for q in QUANTILES:
        t = q / 100.0
        j = int(np.searchsorted(cum, t))
        prev_c, prev_d = (0.0, 0.0) if j == 0 else (cum[j - 1], depths[j - 1])
        j = min(j, cum.size - 1)
        dc = cum[j] - prev_c
        frac = (t - prev_c) / dc if dc > 0 else 1.0
        out.append(prev_d + frac * (depths[j] - prev_d))
    return out


def test_batched_noise_bounds_and_depths_equal_per_record_arithmetic():
    scene = generate_scene(small_config(seed=3, n_plots=0, low_snr_rate=0.1))
    records = scene.footprints
    screen_ = filter_waveforms(Waveforms.pack(records))
    reasons, table = process_waveforms(records, scene.dem, max_components=2)
    rows = {fid: i for i, fid in enumerate(table.ids)}
    h = [METRIC_COLUMNS.index(f"h{q}") for q in QUANTILES]
    for i, w in enumerate(records):
        mean, sd, begin, end = oracle_bounds(w)
        assert (screen_.mean[i], screen_.sd[i], screen_.begin[i], screen_.end[i]) == \
            (mean, sd, begin, end)
        if not reasons[i]:
            assert table.metrics[rows[w.id], h].tolist() == oracle_depths(w, mean, begin, end)


# --------------------------------------------------------------- ground peak

def components(*pairs, width=3):
    """(amplitude, center) rows of one record's (amplitude, center) pairs, NaN-padded."""
    out = np.full((2, 1, width), np.nan)
    out[:, 0, :len(pairs)] = np.array(pairs).reshape(-1, 2).T
    return out


def test_ground_peak_stronger_of_last_two():
    amp, center = components((20.0, 130.0), (9.0, 110.0), (5.0, 100.0))
    assert amp[0, ground_peak(amp, center)[0]] == 9.0


def test_ground_peak_single_and_tie():
    amp, center = components((7.0, 100.0))
    assert ground_peak(amp, center)[0] == 0
    amp, center = components((5.0, 120.0), (5.0, 100.0))
    assert center[0, ground_peak(amp, center)[0]] == 100.0  # lower wins ties
    with pytest.raises(ValueError):
        ground_peak(*components())


# --------------------------------------------------------------- metrics

def test_metrics_from_planted_generator():
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(5.0, 0.4, comps, seed=3)
    m = metrics_of(w, max_components=3)
    b, e = m["begin_elev"], m["end_elev"]
    assert (b, e) == (screen(w).begin[0], screen(w).end[0])
    assert m["tch"] == pytest.approx(30.0, abs=0.2)
    assert m["wext"] == b - e
    assert m["lead"] == pytest.approx(b - 130.0, abs=0.2)
    assert m["trail"] == pytest.approx(100.0 - e, abs=0.2)
    q = np.array([m[f"h{q}"] for q in QUANTILES])
    assert np.all(np.diff(q) >= 0)
    assert q[-1] <= m["wext"]
    assert e <= m["ground_elev"] <= b


def test_symmetric_gaussian_h50_at_center():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    m = metrics_of(w, max_components=2)
    assert m["h50"] == pytest.approx(m["begin_elev"] - 115.0, abs=w.bin_size)
    assert m["lead"] == pytest.approx(m["trail"], abs=w.bin_size)


def test_flat_dem_patch_zero_terrain():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    m = metrics_of(w, max_components=2, patch=np.full((3, 3), 250.0))
    assert m["ti"] == 0.0
    assert m["slope"] == pytest.approx(0.0, abs=1e-12)


def test_dem_patch_slope_and_ti():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    patch = np.tile(np.array([0.0, 1.0, 2.0]), (3, 1))  # 1 m per 90 m cell, eastward
    m = metrics_of(w, max_components=2, patch=patch)
    assert m["ti"] == 2.0
    assert m["slope"] == pytest.approx(math.degrees(math.atan(1 / 90.0)), rel=1e-9)


def test_dem_patch_with_a_nodata_corner_is_outside_dem():
    w, _ = build_wave(5.0, 0.3, [(70.0, 115.0, 4.0)], seed=4)
    patch = np.zeros((3, 3))
    patch[0, 2] = -9999.0
    dem = Grid(patch, w.lon - 135.0, w.lat - 135.0, 90.0)
    reasons, table = process_waveforms([w], dem, max_components=2, max_elev_gap=np.inf)
    assert reasons == ["OutsideDem"] and len(table.metrics) == 0


def test_a_filter_reject_outside_the_dem_keeps_its_first_reason():
    scene = generate_scene(small_config(seed=5, n_footprints=40, sat_violation_rate=0.1))
    saturated = next(w for w in scene.footprints
                     if scene.expected_rejects.get(w.id) == "Saturated")
    kept = next(w for w in scene.footprints if w.id not in scene.expected_rejects)
    west = scene.dem.origin_x - scene.dem.cellsize
    records = [dataclasses.replace(w, lon=west) for w in (saturated, kept)]
    reasons, table = process_waveforms(records, scene.dem, k=4.5, max_components=3,
                                       snr_min=15.0, max_elev_gap=100.0)
    assert reasons == ["Saturated", "OutsideDem"] and len(table.metrics) == 0


# --------------------------------------------------------------- filter

def filter_with(snr_min=15.0, **kw):
    """The reject reason of a two-return record; its SNR is about 40, so
    snr_min 1e9 stands for a weak shot."""
    comps = [(60.0, 130.0, 3.0), (80.0, 100.0, 1.5)]
    w, _ = build_wave(10.0, 2.0, comps, seed=6, **kw)
    return screen(w, snr_min=snr_min).reason[0]


def test_filter_rules_in_order():
    assert filter_with(snr_min=1e9) == "SNR"
    assert filter_with(cloud_flag=0) == "Cloud"
    assert filter_with(sat_ndx=1) == "Saturated"
    assert filter_with(srtm_elev=400.0) == "ElevationMismatch"
    assert filter_with(srtm_elev=112.0) == ""


def test_filter_first_failure_wins():
    assert filter_with(snr_min=1e9, cloud_flag=0, sat_ndx=2) == "SNR"


def test_filter_elevation_uses_centroid():
    # centroid sits between ground (100) and canopy (130); 250 m reference fails
    assert filter_with(srtm_elev=250.0) == "ElevationMismatch"
    assert filter_with(srtm_elev=113.0) == ""


def test_synthetic_batch_pass_rate_matches_injection():
    from agbmap.synth import generate_scene, small_config
    cfg = small_config(seed=21, n_footprints=1000, n_plots=0,
                       cloud_violation_rate=0.06, sat_violation_rate=0.05,
                       low_snr_rate=0.04, elev_mismatch_rate=0.05)
    scene = generate_scene(cfg)
    kept = (filter_waveforms(Waveforms.pack(scene.footprints)).reason == "").sum()
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
