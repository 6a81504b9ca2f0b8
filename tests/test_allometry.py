import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.allometry import (CarbonStock, PlotRecord, TreeRecord, carbon_stock,
                              load_plots, plot_agb_density, tree_agb,
                              write_carbon_report, write_plots)
from agbmap.errors import BadRecord, InvalidPlot, InvalidTree, UnitError
from agbmap.raster import Grid

# oracle: direct evaluation of the allometric power law
EXPECTED_TREE_KG = 0.0673 * (0.6 * 30.0 ** 2 * 30.0) ** 0.973


def test_tree_agb_matches_direct_evaluation():
    assert tree_agb(TreeRecord(0.6, 30.0, 30.0)) == pytest.approx(EXPECTED_TREE_KG, rel=1e-12)
    # the power term alone is the often-quoted 12470 figure
    assert (0.6 * 30.0 ** 2 * 30.0) ** 0.973 == pytest.approx(12470.0, rel=1e-3)


def test_tree_agb_limit_and_scaling():
    tiny = tree_agb(TreeRecord(0.6, 1e-6, 30.0))
    assert 0 < tiny < 1e-9
    base = tree_agb(TreeRecord(0.5, 25.0, 20.0))
    doubled = tree_agb(TreeRecord(1.0, 25.0, 20.0))
    assert doubled / base == pytest.approx(2 ** 0.973, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 1.2), st.floats(5.0, 180.0), st.floats(2.0, 60.0),
       st.floats(1.01, 2.0))
def test_tree_agb_strictly_monotone(wsg, dbh, h, bump):
    base = tree_agb(TreeRecord(wsg, dbh, h))
    assert tree_agb(TreeRecord(wsg * bump, dbh, h)) > base
    assert tree_agb(TreeRecord(wsg, dbh * bump, h)) > base
    assert tree_agb(TreeRecord(wsg, dbh, h * bump)) > base


def test_tree_agb_rejects_nonpositive():
    with pytest.raises(InvalidTree):
        tree_agb(TreeRecord(0.0, 30, 30))
    with pytest.raises(InvalidTree):
        tree_agb(TreeRecord(0.6, -1, 30))
    with pytest.raises(InvalidTree):
        tree_agb(TreeRecord(0.6, 30, float("nan")))


def test_plot_density_from_trees():
    p = PlotRecord("p1", 0, 0, 1.0, trees=[TreeRecord(0.6, 30, 30)])
    assert plot_agb_density(p) == pytest.approx(EXPECTED_TREE_KG / 1000.0, rel=1e-12)
    empty = PlotRecord("p2", 0, 0, 2.5)
    assert plot_agb_density(empty) == 0.0
    double_area = PlotRecord("p3", 0, 0, 2.0, trees=[TreeRecord(0.6, 30, 30)])
    assert plot_agb_density(double_area) == pytest.approx(plot_agb_density(p) / 2)


def test_plot_density_passthrough_and_validation():
    assert plot_agb_density(PlotRecord("p", 0, 0, 1.0, agb_mg_ha=123.4)) == 123.4
    with pytest.raises(InvalidPlot):
        plot_agb_density(PlotRecord("p", 0, 0, 0.0, agb_mg_ha=1.0))
    with pytest.raises(InvalidPlot):
        plot_agb_density(PlotRecord("p", 0, 0, 1.0, agb_mg_ha=-2.0))


# ---------------------------------------------------------------- carbon

def one_km_cell(agb):
    return Grid(np.array([[agb]]), 0.0, 0.0, 1000.0)


def test_carbon_stock_dimensional_oracle():
    # 1 km^2 = 100 ha; 400 Mg/ha * 100 ha * 0.5 = 20000 t C
    stock = carbon_stock(one_km_cell(400.0))
    assert stock.total_tc == pytest.approx(20_000.0, rel=1e-12)
    assert stock.total_ktc == pytest.approx(20.0, rel=1e-12)
    assert stock.n_cells == 1
    # the literal per-km2 audit form keeps the published 0.01 factor
    assert carbon_stock(one_km_cell(400.0), literal_per_km2=True).total_tc \
        == pytest.approx(400.0 * 0.01 * 0.5)


def test_carbon_stock_nodata_and_linearity():
    g = Grid(np.full((3, 3), -9999.0), 0, 0, 500.0)
    assert carbon_stock(g).total_tc == 0.0
    rng = np.random.default_rng(2)
    vals = rng.uniform(0, 400, (5, 5))
    g1 = Grid(vals, 0, 0, 500.0)
    g2 = Grid(2 * vals, 0, 0, 500.0)
    assert carbon_stock(g2).total_tc == pytest.approx(2 * carbon_stock(g1).total_tc)


def test_carbon_stock_partition_additive():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 400, (8, 8))
    whole = carbon_stock(Grid(vals, 0, 0, 500.0)).total_tc
    mask = (np.add.outer(np.arange(8), np.arange(8)) % 2).astype(bool)
    a = np.where(mask, vals, -9999.0)
    b = np.where(~mask, vals, -9999.0)
    parts = carbon_stock(Grid(a, 0, 0, 500.0)).total_tc \
        + carbon_stock(Grid(b, 0, 0, 500.0)).total_tc
    assert parts == pytest.approx(whole, rel=1e-9)


def test_carbon_stock_refinement_invariant():
    rng = np.random.default_rng(6)
    vals = rng.uniform(0, 400, (6, 6))
    coarse = carbon_stock(Grid(vals, 0, 0, 1000.0)).total_tc
    fine_vals = np.kron(vals, np.ones((2, 2)))
    fine = carbon_stock(Grid(fine_vals, 0, 0, 500.0)).total_tc
    assert fine == pytest.approx(coarse, rel=1e-9)


def test_carbon_stock_requires_cell_size():
    g = one_km_cell(100.0)
    g.cellsize = float("nan")
    with pytest.raises(UnitError):
        carbon_stock(g)


# ---------------------------------------------------------------- csv

def test_plot_csv_round_trip(tmp_path):
    plots = [PlotRecord("a", 1.0, 2.0, 1.0, agb_mg_ha=150.0),
             PlotRecord("b", 3.0, 4.0, 0.5, agb_mg_ha=380.25)]
    path = tmp_path / "plots.csv"
    write_plots(plots, path)
    back = load_plots(path)
    assert [p.id for p in back] == ["a", "b"]
    assert plot_agb_density(back[1]) == pytest.approx(380.25)


def test_tree_level_csv(tmp_path):
    plot_path = tmp_path / "plots.csv"
    tree_path = tmp_path / "trees.csv"
    plot_path.write_text("plot_id,lon,lat,area_ha\np1,0,0,1.0\n")
    tree_path.write_text("plot_id,wsg,dbh_cm,height_m\np1,0.6,30,30\np1,0.6,30,30\n")
    plots = load_plots(plot_path, tree_path)
    assert plot_agb_density(plots[0]) == pytest.approx(2 * EXPECTED_TREE_KG / 1000.0)
    tree_path.write_text("plot_id,wsg,dbh_cm,height_m\nmissing,0.6,30,30\n")
    with pytest.raises(InvalidPlot):
        load_plots(plot_path, tree_path)


_PLOTS = "plot_id,lon,lat,area_ha\np1,0,0,1.0\n"


@pytest.mark.parametrize("plot_text, tree_text, message", [
    ("plot_id,lon,lat,area_ha\np1,x,0,1.0\n", None,
     "could not convert string to float: 'x'"),
    ("plot_id,lon,area_ha\np1,0,1.0\n", None, "missing column 'lat'"),
    (_PLOTS, "plot_id,wsg,dbh_cm,height_m\np1,0.6,thirty,30\n",
     "could not convert string to float: 'thirty'"),
    (_PLOTS, "plot_id,wsg,height_m\np1,0.6,30\n", "missing column 'dbh_cm'"),
    ("plot_id,lon,lat,area_ha\np1,\udcff,0,1.0\n", None,  # written as the raw byte 0xff
     "'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
])
def test_bad_csv_row_names_path_and_line(tmp_path, plot_text, tree_text, message):
    plot_path = tmp_path / "plots.csv"
    plot_path.write_bytes(plot_text.encode(errors="surrogateescape"))
    tree_path = None
    if tree_text is not None:
        tree_path = tmp_path / "trees.csv"
        tree_path.write_text(tree_text)
    with pytest.raises(BadRecord) as e:
        load_plots(plot_path, tree_path)
    assert str(e.value) == f"{tree_path or plot_path}:2: {message}"


def test_carbon_report_format():
    buf = io.StringIO()
    write_carbon_report(CarbonStock(20000.0, 20.0, 1, 1000.0), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "total_tC,total_ktC,n_cells,cell_size_m"
    assert lines[1].split(",") == ["20000", "20", "1", "1000"]
