"""Tree and plot biomass, and carbon accounting over AGB maps.

Tree mass uses the pan-tropical power-law form with wood density in g/cm3,
diameter in cm and height in m, returning kilograms. Carbon stocks convert
per-hectare AGB densities through the cell area and a 0.5 biomass-to-carbon
ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnitError
from .raster import Grid
from .readers import POSITIVE, csv_rows, finite

AGB_COEF = 0.0673
AGB_EXP = 0.973
CARBON_RATIO = 0.5
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")


@dataclass(frozen=True)
class PlotTable:
    """Plots as arrays: xy (n, 2) lon/lat and agb (n,) AGB densities in
    Mg/ha, with the plot ids."""
    ids: tuple
    xy: np.ndarray
    agb: np.ndarray

    def take(self, rows) -> "PlotTable":
        """The table of the plots at rows, in that order."""
        return PlotTable(tuple(self.ids[i] for i in rows), self.xy[rows], self.agb[rows])


def tree_agb(wsg, dbh, height):
    """Aboveground biomass in kilograms of trees of wood specific gravity
    wsg (g/cm3), diameter dbh (cm) and height (m): numbers or arrays."""
    return AGB_COEF * (wsg * dbh ** 2 * height) ** AGB_EXP


@dataclass(frozen=True)
class CarbonStock:
    total_tc: float
    total_ktc: float
    n_cells: int
    cell_size_m: float


def carbon_stock(agb_map: Grid) -> CarbonStock:
    """Total carbon over the valid cells of an AGB map (Mg/ha): AGB density
    times the cell area in hectares times the 0.5 carbon ratio."""
    cs = agb_map.cellsize
    if not (math.isfinite(cs) and cs > 0):
        raise UnitError(f"grid cell size must be positive, got {cs!r}")
    mask = agb_map.valid_mask()
    cell_area_ha = cs * cs / 1e4
    total = float(np.sum(agb_map.values[mask] * cell_area_ha * CARBON_RATIO))
    return CarbonStock(total_tc=total, total_ktc=total / 1000.0,
                       n_cells=int(mask.sum()), cell_size_m=cs)


# ---------------------------------------------------------------------------
# CSV interfaces

def load_plots(plot_csv, tree_csv=None) -> PlotTable:
    """The plot table of plot_csv (plot_id, lon, lat, area_ha [, agb_mg_ha]:
    unique ids, area_ha > 0, agb_mg_ha >= 0 and required without tree_csv).

    tree_csv rows (plot_id, wsg, dbh_cm, height_m, each > 0) name a plot of
    plot_csv; a plot with trees takes their mass per hectare, one with
    neither trees nor agb_mg_ha 0 Mg/ha. A row that breaks a rule raises
    BadRecord naming path:line.
    """
    index = {}  # plot id -> row

    def plot_row(row):
        pid, agb = row["plot_id"], row.get("agb_mg_ha")
        if pid in index:
            raise ValueError(f"duplicate plot_id {pid!r}")
        values = (finite(row["lon"], "lon"), finite(row["lat"], "lat"),
                  finite(row["area_ha"], "area_ha", POSITIVE))
        if agb in (None, "") and tree_csv is None:
            raise ValueError("agb_mg_ha is required without a tree CSV")
        index[pid] = len(index)
        return (*values, finite(agb or 0.0, "agb_mg_ha", _NONNEGATIVE))

    def tree_row(row):
        pid = row["plot_id"]
        if pid not in index:
            raise ValueError(f"unknown plot_id {pid!r}")
        return (index[pid],
                *(finite(row[c], c, POSITIVE) for c in ("wsg", "dbh_cm", "height_m")))

    plots = np.array(csv_rows(plot_csv, plot_row)).reshape(-1, 4)
    area, agb = plots[:, 2], plots[:, 3]
    if tree_csv is not None:
        trees = np.array(csv_rows(tree_csv, tree_row)).reshape(-1, 4)
        plot = trees[:, 0].astype(np.intp)
        # bincount adds each plot's tree masses in file order
        kg = np.bincount(plot, tree_agb(*trees[:, 1:].T), minlength=len(agb))
        agb = np.where(np.bincount(plot, minlength=len(agb)) > 0, kg / 1000.0 / area, agb)
    return PlotTable(tuple(index), plots[:, :2], agb)


def write_plots(plots: PlotTable, path) -> None:
    """A plots CSV of the table, each plot as 1 ha of its AGB density."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["plot_id", "lon", "lat", "area_ha", "agb_mg_ha"])
        for pid, (x, y), agb in zip(plots.ids, plots.xy, plots.agb):
            w.writerow([pid, "%.10g" % x, "%.10g" % y, "1", "%.10g" % agb])


def write_carbon_report(stock: CarbonStock, f) -> None:
    w = csv.writer(f)
    w.writerow(["total_tC", "total_ktC", "n_cells", "cell_size_m"])
    w.writerow(["%.10g" % stock.total_tc, "%.10g" % stock.total_ktc,
                stock.n_cells, "%.10g" % stock.cell_size_m])
