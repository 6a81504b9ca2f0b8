import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.errors import BadFactor, TooFewBands
from agbmap.raster import (Grid, GridStack, band_pca, match_points, nearest, pca_stack,
                           read_ascii_grid, resample, write_ascii_grid)
from agbmap.synth import generate_scene, scene_config


def make_grid(values, cellsize=100.0, nodata=-9999.0):
    return Grid(np.asarray(values, dtype=float), 0.0, 0.0, cellsize, nodata)


# ---------------------------------------------------------------- geometry

def test_locate_and_cell_center_roundtrip():
    g = make_grid(np.arange(12).reshape(3, 4))
    rows, cols = np.divmod(np.arange(12), 4)
    centers = [g.cell_center(r, c) for r, c in zip(rows, cols)]
    row, col, inside = g.locate(centers)
    assert inside.all() and np.array_equal(row, rows) and np.array_equal(col, cols)
    # a cell holds its western and southern edges; outside points get cell (0, 0)
    row, col, inside = g.locate([(-1, 50), (50, 3 * g.cellsize), (0, 0), (np.nan, 50),
                                 (399.99, 299.99), (4e300, 50)])
    assert inside.tolist() == [False, False, True, False, True, False]
    assert row.tolist() == [0, 0, 2, 0, 0, 0] and col.tolist() == [0, 0, 0, 0, 3, 0]
    assert g.locate(np.empty((0, 2)))[0].shape == (0,)


def test_sample_is_nan_outside_and_on_nodata():
    g = make_grid([[1.0, -9999.0], [np.nan, 4.0]])
    got = g.sample([g.cell_center(0, 0), g.cell_center(0, 1), g.cell_center(1, 0),
                    g.cell_center(1, 1), (-5.0, 5.0)])
    assert np.array_equal(got, [1.0, np.nan, np.nan, 4.0, np.nan], equal_nan=True)


def test_patch3x3_replicates_edges():
    g = make_grid(np.arange(9).reshape(3, 3))
    x, y = g.cell_center(0, 0)  # top-left corner cell
    patches, inside = g.patch3x3([(x, y), g.cell_center(1, 1), (-5.0, 5.0)])
    assert patches.shape == (3, 3, 3) and inside.tolist() == [True, True, False]
    assert patches[0, 0, 0] == g.values[0, 0]
    assert np.array_equal(patches[1], g.values)


def test_patch3x3_reads_nodata_as_nan():
    g = make_grid([[1.0, 2.0, -9999.0], [4.0, np.nan, 6.0], [7.0, 8.0, 9.0]])
    patches, _ = g.patch3x3([g.cell_center(1, 1)])
    assert np.array_equal(patches[0], g.masked(), equal_nan=True)
    assert np.isnan(patches[0, 0, 2]) and np.isnan(patches[0, 1, 1])


# ---------------------------------------------------------------- ascii io

def test_ascii_round_trip_is_stable(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(137.2, 55.0, (7, 5))
    vals[2, 3] = -9999.0
    g = make_grid(vals, cellsize=90.0)
    p1 = tmp_path / "a.asc"
    p2 = tmp_path / "b.asc"
    write_ascii_grid(g, p1)
    g2 = read_ascii_grid(p1)
    write_ascii_grid(g2, p2)
    g3 = read_ascii_grid(p2)
    # after one 9-significant-digit quantization the cycle is bit-exact
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(g2.values, g3.values)
    assert (g2.nrows, g2.ncols, g2.cellsize) == (7, 5, 90.0)
    assert not g2.valid_mask()[2, 3]


def test_ascii_values_match_9_significant_digits(tmp_path):
    path = tmp_path / "g.asc"
    for values, body in [
            ([[123.456789123, 0.000012345678]], "123.456789 1.2345678e-05\n"),
            # NaN and the sentinel go out as the sentinel; -0.0 keeps its sign
            ([[np.nan, -9999.0, 1e10], [-0.0, 2.5e-300, -7.0]],
             "-9999 -9999 1e+10\n-0 2.5e-300 -7\n")]:
        g = make_grid(values, cellsize=1.0)
        write_ascii_grid(g, path)
        nrows, ncols = g.values.shape
        assert path.read_text() == (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
                                    f"cellsize 1\nNODATA_value -9999\n{body}")
        np.testing.assert_allclose(read_ascii_grid(path).masked(), g.masked(), rtol=1e-9)


# ---------------------------------------------------------------- resample

def test_resample_block_examples():
    g = make_grid([[1.0, 2.0], [3.0, 4.0]])
    assert resample(g, 2).values[0, 0] == 2.5
    g2 = make_grid([[1.0, 2.0], [3.0, 100.0]])
    assert resample(g2, 2).values[0, 0] == 26.5


def test_resample_constant_and_nodata():
    g = make_grid(np.full((4, 4), 7.0))
    assert np.all(resample(g, 2).values == 7.0)
    vals = np.full((2, 2), -9999.0)
    g2 = make_grid(vals)
    assert resample(g2, 2).values[0, 0] == -9999.0
    part = make_grid([[5.0, -9999.0], [-9999.0, -9999.0]])
    assert resample(part, 2).values[0, 0] == 5.0


def test_resample_rejects_bad_factor():
    g = make_grid(np.zeros((2, 2)))
    with pytest.raises(BadFactor):
        resample(g, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 10_000))
def test_resample_mean_conserves_global_mean(bh, bw, factor, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-50, 400, (bh * factor, bw * factor))
    g = make_grid(vals)
    out = resample(g, factor)
    assert out.values.mean() == pytest.approx(vals.mean(), abs=1e-9)


# ---------------------------------------------------------------- pca

def _random_stack(seed, k=4, shape=(12, 10)):
    rng = np.random.default_rng(seed)
    return GridStack([(f"b{i}", make_grid(rng.normal(i, 1 + i, shape)))
                      for i in range(k)])


def test_pca_perfectly_correlated_bands():
    base = np.random.default_rng(3).normal(0, 2, (9, 9))
    stack = GridStack([("a", make_grid(base)), ("b", make_grid(3 * base))])
    pca = band_pca(stack)
    assert pca.eigenvalues[0] > 0
    assert pca.eigenvalues[1] == pytest.approx(0, abs=1e-9 * pca.eigenvalues[0])


def test_pca_eigenvalues_match_band_variances_for_orthogonal_bands():
    # bands built from orthogonal patterns: covariance is diagonal
    n = 64
    t = np.arange(n)
    b1 = np.sqrt(2) * np.cos(2 * np.pi * t / n)
    b2 = 3 * np.sqrt(2) * np.sin(2 * np.pi * t / n)
    stack = GridStack([("a", make_grid(b1.reshape(8, 8))),
                       ("b", make_grid(b2.reshape(8, 8)))])
    pca = band_pca(stack)
    v1 = b1.var(ddof=1)
    v2 = b2.var(ddof=1)
    assert pca.eigenvalues[0] == pytest.approx(max(v1, v2), rel=1e-9)
    assert pca.eigenvalues[1] == pytest.approx(min(v1, v2), rel=1e-9)


def test_pca_orthonormal_and_reconstruction():
    stack = _random_stack(11)
    pca = band_pca(stack)
    gram = pca.loadings @ pca.loadings.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8
    cube = stack.array()
    data = cube.reshape(4, -1)
    centered = data - pca.band_means[:, None]
    scores = pca.loadings @ centered
    recon = pca.loadings.T @ scores
    assert np.max(np.abs(recon - centered)) < 1e-8


def test_pca_stack_nodata_and_band_count():
    stack = _random_stack(12, k=3)
    stack.band("b1").values[4, 4] = -9999.0
    out = pca_stack(stack, 2)
    assert out.names == ["pc1", "pc2"]
    assert out.band("pc1").values[4, 4] == -9999.0
    with pytest.raises(TooFewBands):
        pca_stack(stack, 5)


# ---------------------------------------------------------------- nearest

def full_sort(points, targets, k):
    """Oracle: every squared distance, sorted stably, so that ties go to the
    lower point index."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    dx = targets[:, 0, None] - points[:, 0]
    dy = targets[:, 1, None] - points[:, 1]
    d2 = dx * dx + dy * dy
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.sqrt(np.take_along_axis(d2, idx, axis=1)), idx


def nearest_cases():
    rng = np.random.default_rng(31)
    scatter = rng.uniform(0, 1000, (60, 2))
    targets = rng.uniform(-200, 1200, (40, 2))
    lattice = np.array([(x, y) for x in range(6) for y in range(6)], dtype=float)
    line = np.linspace(0.0, 900.0, 50)
    return {
        "duplicated points": (np.repeat(scatter[:20], 3, axis=0), targets, 5),
        "lattice, four-way ties": (lattice, lattice[:25] + 0.5, 3),
        "lattice, two-way ties": (lattice, lattice + [0.5, 0.0], 3),
        "targets on points": (lattice, lattice[::-1], 6),
        "one point": (np.array([[5.0, -3.0]]), targets, 1),
        "one point, k above n": (np.array([[5.0, -3.0]]), targets, 4),
        "collinear points": (np.column_stack([line, np.full(50, 7.0)]), targets, 6),
        "collinear diagonal": (np.column_stack([line, 2.0 * line + 1.0]), targets, 6),
        "k equal to n": (scatter, targets, 60),
        "k above n": (scatter[:10], targets, 25),
        "all at one location": (np.full((5, 2), 3.0), np.full((4, 2), 3.0), 2),
        "tiny cluster, far targets": (1e-200 * rng.uniform(size=(10, 2)),
                                      [[1e9, -1e9], [0.0, 0.0], [1e-200, 0.0]], 3),
        "one tile": (scatter, targets[:1], 8),
    }


@pytest.mark.parametrize("name", sorted(nearest_cases()))
def test_nearest_matches_full_sort(name):
    points, targets, k = nearest_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, idx = nearest(points, targets, k)
    want_dist, want_idx = full_sort(points, targets, k)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(dist, want_dist)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=20),
       st.integers(1, 12))
def test_nearest_matches_full_sort_on_lattices(points, targets, k):
    # small integer coordinates: duplicates, collinear sets and ties at the
    # k-th distance are common
    dist, idx = nearest(np.array(points, dtype=float), np.array(targets, dtype=float), k)
    want_dist, want_idx = full_sort(points, targets, k)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(dist, want_dist)


def test_nearest_equals_kdtree_on_the_seed_7_scene():
    from scipy.spatial import cKDTree  # oracle only: the package does not use scipy

    scene = generate_scene(scene_config(7, True))
    xy = np.array([[w.lon, w.lat] for w in scene.footprints])
    x, y = resample(scene.covariates.geometry(), 2).cell_centers()
    cells = np.column_stack([x.ravel(), y.ravel()])
    for k in (1, 32):
        dist, idx = nearest(xy, cells, k)
        want_dist, want_idx = cKDTree(xy).query(cells, k=k)
        np.testing.assert_array_equal(idx, want_idx.reshape(-1, k))
        np.testing.assert_array_equal(dist, want_dist.reshape(-1, k))


def test_nearest_rejects_what_it_cannot_search():
    with pytest.raises(ValueError):
        nearest(np.empty((0, 2)), [[0.0, 0.0]], 1)
    with pytest.raises(ValueError):
        nearest([[0.0, 0.0]], [[0.0, 0.0]], 0)
    with pytest.raises(ValueError):
        nearest([[0.0, 0.0], [np.nan, 1.0]], [[0.0, 0.0]], 1)
    with pytest.raises(ValueError):
        nearest([[0.0, 0.0]], [[np.inf, 0.0]], 1)
    dist, idx = nearest([[0.0, 0.0]], np.empty((0, 2)), 3)
    assert dist.shape == idx.shape == (0, 1)


# ---------------------------------------------------------------- matching

def test_match_points_examples():
    a = [(0.0, 0.0)]
    b = [(240.0, 0.0), (400.0, 0.0)]
    i, j, d = match_points(a, b, 250.0)
    assert (i.tolist(), j.tolist(), d.tolist()) == ([0], [0], [240.0])
    for got in (match_points(a, [], 250.0), match_points(a, b, 100.0),
                match_points(np.empty((0, 2)), b, 250.0)):
        assert [v.size for v in got] == [0, 0, 0]


def test_match_points_against_brute_force():
    rng = np.random.default_rng(17)
    a = rng.uniform(0, 5000, (400, 2))
    b = rng.uniform(0, 5000, (300, 2))
    got = list(zip(*match_points(a, b, 300.0)))
    want = []
    for i in range(a.shape[0]):
        d = np.hypot(b[:, 0] - a[i, 0], b[:, 1] - a[i, 1])
        j = int(np.argmin(d))
        if d[j] <= 300.0:
            want.append((i, j, float(d[j])))
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
    assert np.allclose([d for _, _, d in got], [d for _, _, d in want])


def test_match_points_translation_invariant():
    rng = np.random.default_rng(23)
    a = rng.uniform(0, 1000, (50, 2))
    b = rng.uniform(0, 1000, (60, 2))
    i1, j1, _ = match_points(a, b, 150.0)
    i2, j2, _ = match_points(a + 5000.0, b + 5000.0, 150.0)
    assert np.array_equal(i1, i2) and np.array_equal(j1, j2)
