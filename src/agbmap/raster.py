"""Georeferenced single-band grids and the covariate-engineering kernels.

Conventions follow the ESRI ASCII grid layout: row 0 is the northern edge,
(origin_x, origin_y) is the lower-left corner in a projected metre CRS, and
a sentinel value marks missing cells. Reprojection is out of scope; every
grid entering a computation is assumed co-registered.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadFactor, BadRecord, TooFewBands
from .readers import POSITIVE, finite, read_text

DEFAULT_NODATA = -9999.0
_TILE_TARGETS = 32  # targets per tile of `nearest`, on average, at the least


@dataclass
class Grid:
    values: np.ndarray  # shape (nrows, ncols), row 0 = north
    origin_x: float
    origin_y: float
    cellsize: float
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("grid values must be 2-D")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be > 0")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> float:
        return self.ncols * self.cellsize

    @property
    def height(self) -> float:
        return self.nrows * self.cellsize

    def same_geometry(self, other: "Grid") -> bool:
        """Whether other has this grid's shape, cell size and origin."""
        return (self.values.shape == other.values.shape and self.cellsize == other.cellsize
                and self.origin_x == other.origin_x and self.origin_y == other.origin_y)

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values) & (self.values != self.nodata)

    def masked(self) -> np.ndarray:
        """Values with nodata cells replaced by NaN."""
        return np.where(self.valid_mask(), self.values, np.nan)

    def copy_with(self, values: np.ndarray) -> "Grid":
        return Grid(np.array(values, dtype=float), self.origin_x, self.origin_y,
                    self.cellsize, self.nodata)

    def like(self, fill: float) -> "Grid":
        return self.copy_with(np.full((self.nrows, self.ncols), fill))

    def locate(self, xy):
        """(row, col, inside) of the (n, 2) points: the index arrays of the
        cells that hold them and the mask of the points inside the grid.
        A cell holds its western and southern edges; an outside point gets
        row and col 0."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        col = np.floor((xy[:, 0] - self.origin_x) / self.cellsize)
        row = self.nrows - 1 - np.floor((xy[:, 1] - self.origin_y) / self.cellsize)
        inside = (0 <= row) & (row < self.nrows) & (0 <= col) & (col < self.ncols)
        return (np.where(inside, row, 0).astype(np.intp),
                np.where(inside, col, 0).astype(np.intp), inside)

    def cell_center(self, row: int, col: int):
        x = self.origin_x + (col + 0.5) * self.cellsize
        y = self.origin_y + (self.nrows - row - 0.5) * self.cellsize
        return x, y

    def cell_centers(self):
        """Arrays (X, Y) of all cell-center coordinates, shape (nrows, ncols)."""
        cols = np.arange(self.ncols)
        rows = np.arange(self.nrows)
        x = self.origin_x + (cols + 0.5) * self.cellsize
        y = self.origin_y + (self.nrows - rows - 0.5) * self.cellsize
        return np.meshgrid(x, y)

    def sample(self, xy) -> np.ndarray:
        """Values of the cells holding the (n, 2) points; NaN outside the
        grid or on nodata."""
        row, col, inside = self.locate(xy)
        return np.where(inside, self.masked()[row, col], np.nan)

    def patch3x3(self, xy):
        """(patches, inside): the (n, 3, 3) neighbourhoods of the cells that
        hold the (n, 2) points, edges replicated and nodata as NaN, and the
        mask of the points inside the grid (an outside point gets the patch
        of cell (0, 0))."""
        row, col, inside = self.locate(xy)
        step = np.arange(-1, 2)
        rows = np.clip(row[:, None] + step, 0, self.nrows - 1)
        cols = np.clip(col[:, None] + step, 0, self.ncols - 1)
        return self.masked()[rows[:, :, None], cols[:, None, :]], inside


@dataclass(frozen=True)
class GridStack:
    """Named co-registered bands held as one cube.

    cube is (len(names), nrows, ncols) with nodata as NaN; geometry is a
    Grid on a view of the cube's first band, whose shape, origin, cell size
    and nodata value the bands share. The producer gives the bands
    distinct names and that one geometry.
    """
    names: tuple
    cube: np.ndarray
    geometry: Grid

    @classmethod
    def on(cls, names, cube: np.ndarray, like: Grid, cellsize: float = None) -> "GridStack":
        """The stack of cube's bands on like's geometry, at cellsize if given."""
        return cls(tuple(names), cube, Grid(cube[0], like.origin_x, like.origin_y,
                                            cellsize or like.cellsize, like.nodata))

    def band(self, name: str) -> Grid:
        """The named band as a Grid, nodata back to the sentinel for writing."""
        values = self.cube[self.names.index(name)]
        return self.geometry.copy_with(np.where(np.isfinite(values), values,
                                                self.geometry.nodata))

    def complete_mask(self) -> np.ndarray:
        """Cells valid in every band."""
        return np.isfinite(self.cube).all(axis=0)


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O

def write_ascii_grid(grid: Grid, path) -> None:
    header = (f"ncols {grid.ncols}\nnrows {grid.nrows}\nxllcorner {grid.origin_x:.9g}\n"
              f"yllcorner {grid.origin_y:.9g}\ncellsize {grid.cellsize:.9g}\n"
              f"NODATA_value {grid.nodata:.9g}")
    with open(path, "w") as f:
        np.savetxt(f, np.where(grid.valid_mask(), grid.values, grid.nodata), fmt="%.9g",
                   header=header, comments="")


def read_ascii_grid(path) -> Grid:
    """Read an ESRI ASCII grid.

    Raises BadRecord naming path:line for a byte that is not UTF-8, a
    header value that is not a number, a missing header key, a corner or
    cell size that is not finite, a non-positive size, a body value that is
    not a number or a wrong number of values.
    """
    lines = read_text(path, BadRecord).split("\n")
    header = {}  # key -> (value text, line number)
    body_line = 1
    for line in lines[:6]:
        parts = line.split()
        if len(parts) != 2 or not parts[0][0].isalpha():
            break
        header[parts[0].lower()] = (parts[1], body_line)
        body_line += 1
    text = "\n".join(lines[body_line - 1:])

    def number(key, kind=float):
        if key not in header:
            raise BadRecord(f"{path}:{body_line}: missing ASCII grid header key {key!r}")
        value, line_no = header[key]
        try:
            return kind(value)
        except ValueError:
            raise BadRecord(f"{path}:{line_no}: header {key} is not "
                            f"{'an integer' if kind is int else 'a number'}: "
                            f"{value!r}") from None

    def finite_number(key, rule=None):
        """number(key), which must be finite and pass the (test, wording) rule."""
        try:
            return finite(number(key), key, rule)
        except ValueError as e:
            raise BadRecord(f"{path}:{header[key][1]}: {e}") from None

    ncols, nrows = number("ncols", int), number("nrows", int)
    x0, y0 = finite_number("xllcorner"), finite_number("yllcorner")
    cs = finite_number("cellsize", POSITIVE)
    nodata = number("nodata_value") if "nodata_value" in header else DEFAULT_NODATA
    for key, value in (("ncols", ncols), ("nrows", nrows)):
        if not value > 0:
            raise BadRecord(f"{path}:{header[key][1]}: {key} must be > 0, got {value!r}")
    body = text.split()
    if len(body) != ncols * nrows:
        raise _body_error(path, text, body_line, ncols * nrows, len(body))
    try:
        values = np.array(body, dtype=float)
    except ValueError:
        raise _body_error(path, text, body_line, ncols * nrows, len(body)) from None
    return Grid(values.reshape(nrows, ncols), x0, y0, cs, nodata)


def _body_error(path, text: str, first_line: int, expected: int, found: int) -> BadRecord:
    """BadRecord at the first body value that is not a number or that
    exceeds the expected count, else at the last line holding a value."""
    tokens = ((line_no, token)
              for line_no, line in enumerate(text.split("\n"), first_line)
              for token in line.split())
    last = first_line
    for i, (line_no, token) in enumerate(tokens):
        try:
            float(token)
        except ValueError:
            return BadRecord(f"{path}:{line_no}: grid value is not a number: {token!r}")
        last = line_no
        if i == expected:  # the first surplus value
            break
    return BadRecord(f"{path}:{last}: expected {expected} values, found {found}")


# ---------------------------------------------------------------------------
# kernels

def resample(grid, factor: int):
    """Mean of each factor x factor block, ignoring nodata, of a Grid or of
    every band of a GridStack in one pass; the result has the input's type.

    Blocks are anchored at the lower-left corner; a ragged northern or
    eastern edge aggregates whatever cells exist. All-nodata blocks come
    out nodata: the sentinel in a Grid, NaN in a stack. The global mean is
    conserved exactly only when both dimensions divide by `factor`.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise BadFactor(f"factor must be a positive integer, got {factor!r}")
    stack = grid if isinstance(grid, GridStack) else GridStack.on(("",), grid.masked()[None], grid)
    nbands, nrows, ncols = stack.cube.shape
    # partial blocks sit at the north/east edge, so pad the top and right
    vals = np.pad(stack.cube, ((0, 0), ((-nrows) % factor, 0), (0, (-ncols) % factor)),
                  constant_values=np.nan)
    blocks = vals.reshape(nbands, vals.shape[1] // factor, factor, vals.shape[2] // factor,
                          factor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cube = np.nanmean(blocks, axis=(2, 4))
    out = GridStack.on(stack.names, cube, stack.geometry, stack.geometry.cellsize * factor)
    return out if isinstance(grid, GridStack) else out.band("")


@dataclass
class PcaResult:
    loadings: np.ndarray     # (nbands, nbands), rows = components
    eigenvalues: np.ndarray  # descending
    band_means: np.ndarray


def band_pca(stack: GridStack) -> PcaResult:
    """Eigendecomposition of the band covariance over complete cells.

    Component signs are fixed so the largest-magnitude loading is positive.
    """
    k = len(stack.names)
    complete = stack.complete_mask()
    if complete.sum() < 2:
        raise TooFewBands("fewer than 2 complete cells for PCA")
    data = stack.cube[:, complete]  # (k, m)
    means = data.mean(axis=1)
    centered = data - means[:, None]
    cov = centered @ centered.T / (centered.shape[1] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    loadings = eigvecs[:, order].T  # rows are components
    largest = loadings[np.arange(k), np.argmax(np.abs(loadings), axis=1)]
    loadings[largest < 0] *= -1.0
    return PcaResult(loadings, eigvals, means)


def pca_stack(stack: GridStack, n_components: int) -> GridStack:
    """The stack of principal-component scores pc1, pc2, ..., ordered by
    descending eigenvalue, on the input's geometry.

    Cells missing in any band are NaN in every component.
    """
    if n_components < 1 or n_components > len(stack.names):
        raise TooFewBands(f"requested {n_components} components from {len(stack.names)} bands")
    pca = band_pca(stack)
    complete = stack.complete_mask()
    data = stack.cube[:, complete] - pca.band_means[:, None]
    cube = np.full((n_components, *complete.shape), np.nan)
    cube[:, complete] = pca.loadings[:n_components] @ data
    return GridStack.on((f"pc{i + 1}" for i in range(n_components)), cube, stack.geometry)


def nearest(points, targets, k: int):
    """The k points nearest each target: (dist (m, k), idx (m, k)).

    points: (n, 2), targets: (m, 2), finite. Neighbours come in ascending
    distance, ties going to the lower point index; k above n gives all n.
    A cell method (Bentley, Weide & Yao 1980): r0 is about 1.5 times the
    radius that holds k points at the points' mean density, and targets are
    grouped into square tiles of side r0, or larger where that would leave
    fewer than _TILE_TARGETS targets per tile on average. A tile's candidates
    are the points within Chebyshev distance r of its targets' bounding box;
    r starts at r0 and doubles until every target's k-th squared distance is
    below r * r or every point is a candidate. Distances are
    sqrt(dx*dx + dy*dy).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    n, m = points.shape[0], targets.shape[0]
    if n == 0 or k < 1:
        raise ValueError(f"need at least one point and k >= 1, got {n} points and k = {k}")
    if not (np.isfinite(points).all() and np.isfinite(targets).all()):
        raise ValueError("points and targets must be finite")
    k = min(k, n)
    if m == 0:
        return np.empty((0, k)), np.empty((0, k), dtype=np.intp)
    lo = np.minimum(points.min(axis=0), targets.min(axis=0))
    span = float((np.maximum(points.max(axis=0), targets.max(axis=0)) - lo).max())
    extent = points.max(axis=0) - points.min(axis=0)
    # the floor spreads the points along the span of points and targets,
    # which bounds the tile index by 2n/k and the doublings by log2(2n/k):
    # every point is a candidate once r >= span. It is 0 only when every
    # point and target coincide, where any r > 0 takes them all at once.
    r0 = max(1.5 * math.sqrt(extent[0] * extent[1] * k / (math.pi * n)),
             0.5 * span * k / n) or 1.0
    # each tile costs a few dozen numpy calls, which outweigh its arithmetic
    # when it holds only a few targets (k = 1, or coarse grids)
    target_extent = targets.max(axis=0) - targets.min(axis=0)
    side = max(r0, math.sqrt(target_extent[0] * target_extent[1] * _TILE_TARGETS / m))
    cell = np.floor((targets - lo) / side).astype(np.int64)
    key = cell[:, 0] * (int(cell[:, 1].max()) + 1) + cell[:, 1]
    order = np.argsort(key, kind="stable")
    px, py = points[:, 0].copy(), points[:, 1].copy()
    d2_out = np.empty((m, k))
    idx_out = np.empty((m, k), dtype=np.intp)
    for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        tx, ty = targets[rows, 0], targets[rows, 1]
        gap = np.maximum(np.maximum(tx.min() - px, px - tx.max()),
                         np.maximum(ty.min() - py, py - ty.max()))
        r = r0
        while True:
            cand = np.flatnonzero(gap <= r)
            if cand.size >= k:
                dx = tx[:, None] - px[cand]
                dy = ty[:, None] - py[cand]
                d2 = dx * dx + dy * dy
                kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
                # strict: a point outside the grown box has d2 >= r * r
                if cand.size == n or (kth < r * r).all():
                    break
            r *= 2.0
        # a row holding exactly k columns within its k-th distance takes them
        # in index order, a row with a tie there its whole row stably sorted;
        # a stable sort by distance then leaves ties to the lower index
        within = d2 <= kth
        tie = within.sum(axis=1) > k
        sel = np.empty((rows.size, k), dtype=np.intp)
        sel[~tie] = np.nonzero(within[~tie])[1].reshape(-1, k)
        sel[tie] = np.argsort(d2[tie], axis=1, kind="stable")[:, :k]
        line = np.arange(rows.size)[:, None]
        sel = sel[line, np.argsort(d2[line, sel], axis=1, kind="stable")]
        d2_out[rows] = d2[line, sel]
        idx_out[rows] = cand[sel]
    return np.sqrt(d2_out), idx_out


def match_points(a: np.ndarray, b: np.ndarray, max_dist: float):
    """Nearest b-point for every a-point, kept when within max_dist.

    a, b: (n, 2) projected coordinates. Returns the arrays (i_a, i_b, dist)
    of the kept pairs, in a-point order.
    """
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if b.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    dist, idx = nearest(b, a, 1)
    keep = np.flatnonzero(dist[:, 0] <= max_dist)
    return keep, idx[keep, 0], dist[keep, 0]
