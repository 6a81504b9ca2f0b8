import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.allometry import (CarbonStock, PlotTable, carbon_stock, load_plots, tree_agb,
                              write_carbon_report, write_plots)
from agbmap.errors import BadRecord, UnitError
from agbmap.raster import Grid

# oracle: direct evaluation of the allometric power law
EXPECTED_TREE_KG = 0.0673 * (0.6 * 30.0 ** 2 * 30.0) ** 0.973


def test_tree_agb_matches_direct_evaluation():
    assert tree_agb(0.6, 30.0, 30.0) == pytest.approx(EXPECTED_TREE_KG, rel=1e-12)
    # the power term alone is the often-quoted 12470 figure
    assert (0.6 * 30.0 ** 2 * 30.0) ** 0.973 == pytest.approx(12470.0, rel=1e-3)


def test_tree_agb_limit_and_scaling():
    tiny = tree_agb(0.6, 1e-6, 30.0)
    assert 0 < tiny < 1e-9
    base = tree_agb(0.5, 25.0, 20.0)
    doubled = tree_agb(1.0, 25.0, 20.0)
    assert doubled / base == pytest.approx(2 ** 0.973, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 1.2), st.floats(5.0, 180.0), st.floats(2.0, 60.0),
       st.floats(1.01, 2.0))
def test_tree_agb_strictly_monotone(wsg, dbh, h, bump):
    base = tree_agb(wsg, dbh, h)
    assert tree_agb(wsg * bump, dbh, h) > base
    assert tree_agb(wsg, dbh * bump, h) > base
    assert tree_agb(wsg, dbh, h * bump) > base


def test_tree_agb_of_arrays_matches_one_tree_calls():
    rng = np.random.default_rng(3)
    wsg, dbh, h = rng.uniform(0.2, 1.2, 500), rng.uniform(5, 180, 500), rng.uniform(2, 60, 500)
    one_by_one = np.array([tree_agb(*t) for t in zip(wsg.tolist(), dbh.tolist(), h.tolist())])
    # numpy's vector pow and libm's differ in the last bits on a few inputs
    assert tree_agb(wsg, dbh, h) == pytest.approx(one_by_one, rel=4 * np.finfo(float).eps, abs=0)


def write_csvs(tmp_path, plot_text, tree_text=None):
    """(plot path, tree path or None) of the texts, written under tmp_path."""
    plot_path = tmp_path / "plots.csv"
    plot_path.write_text(plot_text)
    if tree_text is None:
        return plot_path, None
    tree_path = tmp_path / "trees.csv"
    tree_path.write_text(tree_text)
    return plot_path, tree_path


def test_plot_density_from_trees(tmp_path):
    plots = load_plots(*write_csvs(
        tmp_path, "plot_id,lon,lat,area_ha\np1,0,0,1.0\np2,0,0,2.5\np3,0,0,2.0\n",
        "plot_id,wsg,dbh_cm,height_m\np3,0.6,30,30\np1,0.6,30,30\n"))
    assert plots.agb[0] == pytest.approx(EXPECTED_TREE_KG / 1000.0, rel=1e-12)
    assert plots.agb[1] == 0.0  # a plot without trees or agb_mg_ha
    assert plots.agb[2] == pytest.approx(plots.agb[0] / 2)


def test_plot_density_passthrough_and_validation(tmp_path):
    text = "plot_id,lon,lat,area_ha,agb_mg_ha\np,0,0,{},{}\nq,0,0,1.0,5\n"
    plots = load_plots(*write_csvs(tmp_path, text.format(1.0, 123.4)))
    assert plots.agb.tolist() == [123.4, 5.0]
    # trees replace agb_mg_ha on the plots they stand on, and only there
    plots = load_plots(*write_csvs(tmp_path, text.format(1.0, 123.4),
                                   "plot_id,wsg,dbh_cm,height_m\nq,0.6,30,30\n"))
    assert plots.agb.tolist() == [123.4, pytest.approx(EXPECTED_TREE_KG / 1000.0)]
    for area, agb in [(0.0, 1.0), (-1.0, 1.0), (1.0, -2.0)]:
        with pytest.raises(BadRecord):
            load_plots(*write_csvs(tmp_path, text.format(area, agb)))


# ---------------------------------------------------------------- carbon

def one_km_cell(agb):
    return Grid(np.array([[agb]]), 0.0, 0.0, 1000.0)


def test_carbon_stock_dimensional_oracle():
    # 1 km^2 = 100 ha; 400 Mg/ha * 100 ha * 0.5 = 20000 t C
    stock = carbon_stock(one_km_cell(400.0))
    assert stock.total_tc == pytest.approx(20_000.0, rel=1e-12)
    assert stock.total_ktc == pytest.approx(20.0, rel=1e-12)
    assert stock.n_cells == 1


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
    plots = PlotTable(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([150.0, 380.25]))
    path = tmp_path / "plots.csv"
    write_plots(plots, path)
    back = load_plots(path)
    assert back.ids == ("a", "b")
    assert np.array_equal(back.xy, plots.xy) and np.array_equal(back.agb, plots.agb)
    assert load_plots(*write_csvs(tmp_path, "plot_id,lon,lat,area_ha,agb_mg_ha\n")).xy.shape \
        == (0, 2)


def test_tree_level_csv(tmp_path):
    plot_path = tmp_path / "plots.csv"
    tree_path = tmp_path / "trees.csv"
    plot_path.write_text("plot_id,lon,lat,area_ha\np1,0,0,1.0\n")
    tree_path.write_text("plot_id,wsg,dbh_cm,height_m\np1,0.6,30,30\np1,0.6,30,30\n")
    plots = load_plots(plot_path, tree_path)
    assert plots.agb[0] == pytest.approx(2 * EXPECTED_TREE_KG / 1000.0)
    tree_path.write_text("plot_id,wsg,dbh_cm,height_m\nmissing,0.6,30,30\n")
    with pytest.raises(BadRecord):
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
    ("plot_id,lon,lat,area_ha\np1,0,0,0\n", None, "area_ha must be > 0, got '0'"),
    ("plot_id,lon,lat,area_ha,agb_mg_ha\np1,0,0,1,-5\n", None,
     "agb_mg_ha must be >= 0, got '-5'"),
    ("plot_id,lon,lat,area_ha,agb_mg_ha\np1,0,0,1,\n", None,
     "agb_mg_ha is required without a tree CSV"),
    ("plot_id,lon,lat,area_ha,agb_mg_ha\np1,100,100,1,5\np1,5000,5000,1,9\n", None,
     "duplicate plot_id 'p1'"),
    (_PLOTS, "plot_id,wsg,dbh_cm,height_m\np1,0,30,30\n", "wsg must be > 0, got '0'"),
    (_PLOTS, "plot_id,wsg,dbh_cm,height_m\np1,0.6,-30,30\n", "dbh_cm must be > 0, got '-30'"),
    (_PLOTS, "plot_id,wsg,dbh_cm,height_m\np1,0.6,30,nan\n", "height_m must be finite, got 'nan'"),
    (_PLOTS, "plot_id,wsg,dbh_cm,height_m\nPX,0.6,30,30\n", "unknown plot_id 'PX'"),
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
    line = plot_text.count("\n") if tree_path is None else 2
    assert str(e.value) == f"{tree_path or plot_path}:{line}: {message}"


def test_carbon_report_format():
    buf = io.StringIO()
    write_carbon_report(CarbonStock(20000.0, 20.0, 1, 1000.0), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "total_tC,total_ktC,n_cells,cell_size_m"
    assert lines[1].split(",") == ["20000", "20", "1", "1000"]
