import math

import numpy as np
import pytest

from agbmap import textures
from agbmap.errors import DegenerateRange
from agbmap.raster import Grid
from agbmap.textures import BAND_NAMES, DEFAULT_OFFSETS, MAX_LEVELS, glcm_textures, quantize


def make_grid(values):
    return Grid(np.asarray(values, dtype=float), 0.0, 0.0, 100.0)


def oracle_stats(window, levels, offsets, vrange=None):
    """Hand-built co-occurrence oracle: dict counting, plain formulas.

    Levels quantize over vrange, (min, max) of the window by default; a
    None cell is nodata. None where the window holds no pair."""
    valid = [v for row in window for v in row if v is not None]
    vmin, vmax = vrange or (min(valid), max(valid))
    nr, nc = len(window), len(window[0])
    q = [[None if window[r][c] is None else 0 if vmax <= vmin else
          min(int((window[r][c] - vmin) / (vmax - vmin) * levels), levels - 1)
          for c in range(nc)] for r in range(nr)]
    counts: dict = {}
    for dr, dc in offsets:
        for r in range(nr):
            for c in range(nc):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < nr and 0 <= c2 < nc and None not in (q[r][c], q[r2][c2]):
                    a, b = q[r][c], q[r2][c2]
                    counts[(a, b)] = counts.get((a, b), 0) + 1
                    counts[(b, a)] = counts.get((b, a), 0) + 1
    if not counts:
        return None
    total = sum(counts.values())
    p = {k: v / total for k, v in counts.items()}
    mu = sum(i * pv for (i, _), pv in p.items())
    var = sum((i - mu) ** 2 * pv for (i, _), pv in p.items())
    out = {
        "mean": mu,
        "variance": var,
        "homogeneity": sum(pv / (1 + (i - j) ** 2) for (i, j), pv in p.items()),
        "contrast": sum((i - j) ** 2 * pv for (i, j), pv in p.items()),
        "dissimilarity": sum(abs(i - j) * pv for (i, j), pv in p.items()),
        "entropy": -sum(pv * math.log(pv) for pv in p.values()),
        "second_moment": sum(pv ** 2 for pv in p.values()),
        "correlation": (sum((i - mu) * (j - mu) * pv for (i, j), pv in p.items()) / var
                        if var > 1e-300 else 1.0),
    }
    return out


def center_values(stack):
    return {name: stack.band(name).values[1, 1] for name in BAND_NAMES}


def test_constant_window_degenerate_statistics():
    out = center_values(glcm_textures(make_grid(np.full((3, 3), 5.0)), levels=8))
    assert out["contrast"] == 0
    assert out["dissimilarity"] == 0
    assert out["homogeneity"] == 1
    assert out["entropy"] == 0
    assert out["second_moment"] == 1
    assert out["correlation"] == 1
    assert out["variance"] == 0


def test_checkerboard_contrast_is_one_for_unit_offsets():
    board = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    # horizontal and vertical neighbours always differ by exactly one level
    out = glcm_textures(make_grid(board), levels=2, offsets=((0, 1), (1, 0)))
    assert out.band("contrast").values[1, 1] == pytest.approx(1.0)
    assert out.band("dissimilarity").values[1, 1] == pytest.approx(1.0)


def test_eight_stats_match_hand_oracle_on_fixed_windows():
    rng = np.random.default_rng(99)
    windows = [rng.integers(0, 50, (3, 3)).astype(float) * rng.uniform(0.5, 3)
               for _ in range(8)]
    windows.append(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    windows.append(np.arange(9, dtype=float).reshape(3, 3))
    for win in windows:
        got = center_values(glcm_textures(make_grid(win), levels=4))
        want = oracle_stats(win.tolist(), 4, DEFAULT_OFFSETS)
        for name in BAND_NAMES:
            assert got[name] == pytest.approx(want[name], abs=1e-12), name


@pytest.mark.parametrize("window, levels, offsets", [
    (3, 2, DEFAULT_OFFSETS), (3, 8, DEFAULT_OFFSETS), (5, 2, DEFAULT_OFFSETS),
    (5, 8, DEFAULT_OFFSETS), (3, 8, ((0, 2), (2, -1), (0, 0))), (5, 2, ((0, 2), (2, -1))),
    (3, MAX_LEVELS, DEFAULT_OFFSETS),
])
def test_every_cell_matches_oracle_of_its_clipped_window(monkeypatch, window, levels, offsets):
    monkeypatch.setattr(textures, "_PASS_PAIRS", 97)  # a few windows per pass
    rng = np.random.default_rng(window * 100 + levels)
    vals = rng.uniform(0, 50, (7, 9))
    vals[rng.uniform(size=vals.shape) < 0.15] = -9999.0
    vals[0, 1] = vals[1, 0] = vals[1, 1] = -9999.0  # corner (0, 0) pairs with nothing at 3
    vals[3, 4] = np.nan
    cells = [[None if not np.isfinite(v) or v == -9999.0 else v for v in row]
             for row in vals.tolist()]
    valid = [v for row in cells for v in row if v is not None]
    out = glcm_textures(Grid(vals, 0, 0, 100.0), window=window, levels=levels, offsets=offsets)
    half = window // 2
    for r in range(7):
        for c in range(9):
            sub = [row[max(0, c - half):c + half + 1] for row in cells[max(0, r - half):r + half + 1]]
            want = None if cells[r][c] is None else oracle_stats(
                sub, levels, offsets, (min(valid), max(valid)))
            for name in BAND_NAMES:
                got = out.band(name).values[r, c]
                if want is None:
                    assert got == -9999.0, (r, c, name)
                else:
                    assert got == pytest.approx(want[name], rel=1e-12, abs=1e-12), (r, c, name)


def test_probability_mass_properties():
    rng = np.random.default_rng(7)
    g = make_grid(rng.uniform(0, 100, (9, 9)))
    out = glcm_textures(g, levels=8)
    hom = out.band("homogeneity").values
    asm = out.band("second_moment").values
    ent = out.band("entropy").values
    assert np.all((asm > 0) & (asm <= 1))
    assert np.all((hom > 0) & (hom <= 1))
    assert np.all(ent >= 0)


def test_constant_grid_yields_defined_bands():
    out = glcm_textures(make_grid(np.full((5, 5), 42.0)))
    assert np.all(out.band("contrast").values == 0)
    assert np.all(out.band("homogeneity").values == 1)
    assert np.all(out.band("entropy").values == 0)


def test_no_valid_cells_raises_degenerate_range():
    g = Grid(np.full((4, 4), -9999.0), 0, 0, 100.0)
    with pytest.raises(DegenerateRange):
        glcm_textures(g)


def test_nodata_cells_stay_nodata():
    vals = np.arange(25, dtype=float).reshape(5, 5)
    vals[2, 2] = -9999.0
    out = glcm_textures(Grid(vals, 0, 0, 100.0), levels=4)
    assert out.band("mean").values[2, 2] == -9999.0
    assert out.band("mean").values[0, 0] != -9999.0


def test_quantize_clips_to_level_range():
    v = np.array([0.0, 5.0, 10.0])
    q = quantize(v, 4, 0.0, 10.0)
    assert q.tolist() == [0, 2, 3]
    assert quantize(v, 4, 5.0, 5.0).tolist() == [0, 0, 0]


def test_window_must_be_odd():
    with pytest.raises(ValueError):
        glcm_textures(make_grid(np.zeros((4, 4))), window=4)


def test_levels_beyond_bound_raise():
    with pytest.raises(ValueError, match="levels must be in 2..65536, got 65537"):
        glcm_textures(make_grid(np.zeros((4, 4))), levels=MAX_LEVELS + 1)
