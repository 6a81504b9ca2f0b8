"""Tree and plot biomass, and carbon accounting over AGB maps.

Tree mass uses the pan-tropical power-law form with wood density in g/cm3,
diameter in cm and height in m, returning kilograms. Carbon stocks convert
per-hectare AGB densities through the cell area and a 0.5 biomass-to-carbon
ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPlot, InvalidTree, UnitError
from .raster import Grid
from .readers import csv_rows, finite

AGB_COEF = 0.0673
AGB_EXP = 0.973
CARBON_RATIO = 0.5


@dataclass(frozen=True)
class TreeRecord:
    wsg: float     # wood specific gravity, g/cm3
    dbh: float     # diameter at breast height, cm
    height: float  # m


@dataclass
class PlotRecord:
    id: str
    lon: float
    lat: float
    area_ha: float
    trees: list = field(default_factory=list)
    agb_mg_ha: float | None = None


def tree_agb(t: TreeRecord) -> float:
    """Aboveground biomass of one tree in kilograms."""
    for name in ("wsg", "dbh", "height"):
        v = getattr(t, name)
        if not (math.isfinite(v) and v > 0):
            raise InvalidTree(f"{name} must be positive and finite, got {v!r}")
    return AGB_COEF * (t.wsg * t.dbh ** 2 * t.height) ** AGB_EXP


def plot_agb_density(p: PlotRecord) -> float:
    """Plot AGB density in Mg/ha; a direct agb_mg_ha value passes through."""
    if not (math.isfinite(p.area_ha) and p.area_ha > 0):
        raise InvalidPlot(f"plot {p.id}: area_ha must be positive, got {p.area_ha!r}")
    if p.agb_mg_ha is not None:
        if not (math.isfinite(p.agb_mg_ha) and p.agb_mg_ha >= 0):
            raise InvalidPlot(f"plot {p.id}: agb_mg_ha must be >= 0")
        return float(p.agb_mg_ha)
    total_kg = sum(tree_agb(t) for t in p.trees)
    return total_kg / 1000.0 / p.area_ha


@dataclass(frozen=True)
class CarbonStock:
    total_tc: float
    total_ktc: float
    n_cells: int
    cell_size_m: float


def carbon_stock(agb_map: Grid, literal_per_km2: bool = False) -> CarbonStock:
    """Total carbon over the valid cells of an AGB map (Mg/ha).

    The default accounting is dimensional: AGB density times the cell area
    in hectares times the 0.5 carbon ratio. `literal_per_km2` instead
    applies a fixed 0.01 ha-to-km2 factor per cell regardless of cell size;
    it is retained only for auditing against published per-km2 tallies.
    """
    cs = agb_map.cellsize
    if not (math.isfinite(cs) and cs > 0):
        raise UnitError(f"grid cell size must be positive, got {cs!r}")
    mask = agb_map.valid_mask()
    vals = agb_map.values[mask]
    if literal_per_km2:
        total = float(np.sum(vals * 0.01 * CARBON_RATIO))
    else:
        cell_area_ha = cs * cs / 1e4
        total = float(np.sum(vals * cell_area_ha * CARBON_RATIO))
    return CarbonStock(total_tc=total, total_ktc=total / 1000.0,
                       n_cells=int(mask.sum()), cell_size_m=cs)


# ---------------------------------------------------------------------------
# CSV interfaces

def _plot_row(row) -> PlotRecord:
    agb = row.get("agb_mg_ha")
    return PlotRecord(row["plot_id"], finite(row["lon"], "lon"), finite(row["lat"], "lat"),
                      finite(row["area_ha"], "area_ha"),
                      agb_mg_ha=finite(agb, "agb_mg_ha") if agb not in (None, "") else None)


def _tree_row(row):
    return row["plot_id"], TreeRecord(*(finite(row[c], c) for c in ("wsg", "dbh_cm", "height_m")))


def load_plots(plot_csv, tree_csv=None) -> list[PlotRecord]:
    """Read plots from CSV.

    plot_csv columns: plot_id, lon, lat, area_ha [, agb_mg_ha].
    tree_csv (optional) columns: plot_id, wsg, dbh_cm, height_m; when given,
    densities come from the trees of each plot instead of agb_mg_ha.
    """
    plots: dict[str, PlotRecord] = {}
    order = []
    for plot in csv_rows(plot_csv, _plot_row):
        plots[plot.id] = plot
        order.append(plot.id)
    if tree_csv is not None:
        for pid, tree in csv_rows(tree_csv, _tree_row):
            if pid not in plots:
                raise InvalidPlot(f"tree references unknown plot {pid!r}")
            plots[pid].trees.append(tree)
            plots[pid].agb_mg_ha = None  # densities now come from the trees
    return [plots[pid] for pid in order]


def write_plots(plots, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["plot_id", "lon", "lat", "area_ha", "agb_mg_ha"])
        for p in plots:
            w.writerow([p.id, "%.10g" % p.lon, "%.10g" % p.lat,
                        "%.10g" % p.area_ha, "%.10g" % plot_agb_density(p)])


def write_carbon_report(stock: CarbonStock, f) -> None:
    w = csv.writer(f)
    w.writerow(["total_tC", "total_ktC", "n_cells", "cell_size_m"])
    w.writerow(["%.10g" % stock.total_tc, "%.10g" % stock.total_ktc,
                stock.n_cells, "%.10g" % stock.cell_size_m])
