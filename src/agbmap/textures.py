"""Gray-level co-occurrence textures over a sliding window.

Cell values are quantized to a fixed number of gray levels over the global
valid min-max. A window's pairs are the cells its offsets (E, S, SE, NE at
unit distance by default) link inside it, each taken both ways round; a
pair with a nodata cell or one past the grid edge drops out. Each of the
eight statistics is a mean over the window's pairs (i, j): mean (of i),
variance, homogeneity, contrast, dissimilarity, entropy (of -log p, with p
the share of the pairs that hold (i, j): -sum p log p over distinct pairs,
natural log), second_moment (of p: sum p^2) and correlation.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRange
from .raster import Grid, GridStack

BAND_NAMES = ("mean", "variance", "homogeneity", "contrast",
              "dissimilarity", "entropy", "second_moment", "correlation")

DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (-1, 1))

# the most gray levels: pair codes level * levels + level stay below 2**32
MAX_LEVELS = 1 << 16
# (centre, pair) entries of one pass. On a 200 x 200 grid at window 3 (2-core
# Xeon), 2**12 and 2**14 took 0.13 s and 2**16 0.23 s, and peak RSS rose by
# 1 MB at 2**14 against 4 MB at 2**16
_PASS_PAIRS = 1 << 14


def quantize(values: np.ndarray, levels: int, vmin: float, vmax: float) -> np.ndarray:
    """Integer gray levels in [0, levels). A degenerate range maps to level 0."""
    if vmax <= vmin:
        return np.zeros(values.shape, dtype=np.int64)
    q = np.floor((values - vmin) / (vmax - vmin) * levels).astype(np.int64)
    return np.clip(q, 0, levels - 1)


def _pass_stats(i: np.ndarray, j: np.ndarray, levels: int) -> np.ndarray:
    """(8, centres) statistics of windows whose ordered pairs hold levels
    i and j, (centres, pairs) arrays that hold -1 where a pair drops out.
    Every window holds at least one pair."""
    ok = (i >= 0) & (j >= 0)
    n = ok.sum(axis=1)

    def total(x):
        return np.where(ok, x, 0.0).sum(axis=1)

    s = total(i)
    diff = np.abs(i - j)
    # one code per (window, level pair); pairs that drop out share one more
    codes = np.where(ok, i * levels + j, levels * levels)
    codes += np.arange(len(codes))[:, None] * (levels * levels + 1)
    _, inverse, count = np.unique(codes.ravel(), return_inverse=True, return_counts=True)
    p = count[inverse].reshape(codes.shape) / n[:, None]
    # n^2 times the covariance and the variance: exact while below 2**53,
    # so a correlation that is 0 comes out 0
    cov = n * total(i * j) - s * s
    spread = n * total(i * i) - s * s
    corr = np.divide(cov, spread, out=np.ones(len(n)), where=spread > 0)
    sums = [s, total((i - (s / n)[:, None]) ** 2), total(1.0 / (1.0 + diff * diff)),
            total(diff * diff), total(diff), -total(np.log(p)), total(p)]
    return np.vstack([np.array(sums) / n, corr])


def glcm_textures(grid: Grid, window: int = 3, levels: int = 32,
                  offsets=DEFAULT_OFFSETS) -> GridStack:
    """Per-cell texture bands from the pairs of each cell's window.

    `window` must be odd. Windows are clipped at grid edges; a cell whose
    window holds no valid co-occurring pair comes out nodata. A constant
    grid quantizes to a single level and yields the degenerate textures
    (contrast 0, homogeneity 1, entropy 0, second_moment 1).
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if not 2 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in 2..{MAX_LEVELS}, got {levels}")
    mask = grid.valid_mask()
    if not mask.any():
        raise DegenerateRange("no valid cells to quantize")
    vmin, vmax = float(grid.values[mask].min()), float(grid.values[mask].max())
    q = np.where(mask, quantize(np.where(mask, grid.values, vmin), levels, vmin, vmax), -1)

    nr, nc = q.shape
    half = min(window // 2, max(nr, nc) - 1)  # farther cells lie past every edge
    width = nc + 2 * half
    # flat offsets from a window's centre of the first and second cell of each pair
    rows, cols = np.mgrid[-half:half + 1, -half:half + 1].reshape(2, -1)
    first, second = [], []
    for dr, dc in offsets:
        inside = (np.abs(rows + dr) <= half) & (np.abs(cols + dc) <= half)
        a = rows[inside] * width + cols[inside]
        b = a + dr * width + dc
        first += [a, b]
        second += [b, a]
    first, second = np.concatenate(first), np.concatenate(second)
    # the windows pass _PASS_PAIRS (centre, pair) entries at a time
    padded = np.pad(q, half, constant_values=-1).ravel()
    centres = np.flatnonzero(np.pad(mask, half))
    out = np.full((8, padded.size), grid.nodata)
    step = max(1, _PASS_PAIRS // max(1, len(first)))
    for start in range(0, len(centres), step):
        at = centres[start:start + step, None]
        i, j = padded[at + first], padded[at + second]
        has = ((i >= 0) & (j >= 0)).any(axis=1)
        out[:, at[has, 0]] = _pass_stats(i[has], j[has], levels)
    out = out.reshape(8, -1, width)[:, half:half + nr, half:half + nc]
    return GridStack([(name, grid.copy_with(out[k])) for k, name in enumerate(BAND_NAMES)])
