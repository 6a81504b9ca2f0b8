"""One-byte corruptions of the three JSON documents: the run config, the scene
overrides of `agbmap simulate --config` and a saved forest. Each reader
either returns or raises ConfigError, and a forest it returns predicts.
The same corruptions of a metrics CSV, a plots CSV and a trees CSV either
read as a footprint or plot table or raise BadRecord."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.allometry import load_plots
from agbmap.errors import BadRecord, ConfigError
from agbmap.forest import Forest, ForestParams, NodeTable
from agbmap.model_io import load_model, save_model
from agbmap.pipeline import RunConfig
from agbmap.synth import scene_config
from agbmap.waveform import METRIC_COLUMNS, FootprintTable, read_metrics_csv, write_metrics_csv

RUN_CONFIG = {"waveforms": "s/waveforms.ndjson", "dem": "s/dem.asc",
              "covariates": {"cov1": "s/cov1.asc", "cov2": "s/cov2.asc"},
              "plots": "s/plots.csv", "out_dir": "s/run", "grid_sizes": [500, 1000, 2000],
              "trend": "rf", "seed": 7, "calib_max_dist": 600.0, "n_trees": 150,
              "max_components": 3, "min_plots_per_cell": 2, "variogram_max_lag": None}
SCENE = {"n_footprints": 150, "n_plots": 260, "extent": 10_000.0,
         "sat_violation_rate": 0.04, "trend_coefficients": [60.0, -40.0, 25.0]}


def _read_forest(path):
    model = load_model(path)
    model.predict(np.zeros((1, len(model.feature_names))))


READERS = {"run config": RunConfig.from_json,
           "scene overrides": lambda path: scene_config(7, False, path),
           "forest": _read_forest}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Name -> (bytes of the valid document, a directory for corrupt copies)."""
    out = tmp_path_factory.mktemp("readers")
    # small hand-made trees, so that most bytes are node indices and features
    tree = {"feature": [0, 1, -1, -1, -1], "threshold": [0.5, -0.5, 0, 0, 0],
            "left_cats": [None] * 5, "left": [1, 3, -1, -1, -1], "right": [2, 4, -1, -1, -1],
            "value": [2, 1, 3, 0, 2]}
    save_model(Forest(NodeTable.from_trees([tree] * 3), ["x0", "x1"], frozenset(),
                      ForestParams(n_trees=3), 4, 1.0, 0, 3), out / "forest.json")
    (out / "run config.json").write_text(json.dumps(RUN_CONFIG, indent=1))
    (out / "scene overrides.json").write_text(json.dumps(SCENE))
    docs = {}
    for name, read in READERS.items():
        read(out / f"{name}.json")  # the intact document reads
        docs[name] = ((out / f"{name}.json").read_bytes(), out)
    return docs


def _write_corrupt(path, data: bytes, op: str, at: int, byte: int) -> None:
    """Write data to path with one byte replaced, inserted or deleted near
    position at."""
    at %= len(data) + (op == "insert")
    new = b"" if op == "delete" else bytes([byte])
    # a new file each time: truncating one in place can take tens of ms
    path.unlink(missing_ok=True)
    path.write_bytes(data[:at] + new + data[at + (op != "insert"):])


ONE_BYTE = dict(op=st.sampled_from(["replace", "insert", "delete"]), at=st.integers(0, 2 ** 16),
                byte=st.one_of(st.sampled_from(b'0123456789-,"\n'), st.integers(0, 255)))


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**ONE_BYTE)
def test_one_byte_corruption_reads_or_raises_config_error(intact, name, op, at, byte):
    data, out = intact[name]
    path = out / "corrupt.json"
    _write_corrupt(path, data, op, at, byte)
    try:
        READERS[name](path)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def metrics_csv(tmp_path_factory):
    """Bytes of a three-footprint metrics CSV and a path for corrupt copies."""
    rng = np.random.default_rng(0)
    table = FootprintTable(rng.uniform(0, 1e4, (3, 2)),
                           rng.uniform(-5, 40, (3, len(METRIC_COLUMNS))), ("f0", "f1", "f2"))
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    with path.open("w", newline="") as f:
        write_metrics_csv(table, f)
    assert read_metrics_csv(path).ids == table.ids
    return path.read_bytes(), path.with_name("corrupt.csv")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**ONE_BYTE)
def test_one_byte_corruption_of_metrics_csv_reads_or_raises_bad_record(metrics_csv, op, at,
                                                                      byte):
    data, path = metrics_csv
    _write_corrupt(path, data, op, at, byte)
    try:
        table = read_metrics_csv(path)
    except BadRecord:
        return
    n = len(table.ids)
    assert table.xy.shape == (n, 2) and table.metrics.shape == (n, len(METRIC_COLUMNS))
    assert np.isfinite(table.xy).all() and np.isfinite(table.metrics).all()


@pytest.fixture(scope="module")
def plot_csvs(tmp_path_factory):
    """Name -> (bytes of a valid CSV, a path for corrupt copies, the reader
    of a copy): a plots CSV with AGB, and a trees CSV read with a plots CSV
    that has none."""
    out = tmp_path_factory.mktemp("plots")
    (out / "plots.csv").write_text("plot_id,lon,lat,area_ha,agb_mg_ha\n"
                                   "p0,100,2500,1,150.5\np1,4000,20,0.25,0\np2,7.5,9000,2,310\n")
    (out / "stands.csv").write_text("plot_id,lon,lat,area_ha\n"
                                    "p0,100,2500,1\np1,4000,20,0.25\np2,7.5,9000,2\n")
    (out / "trees.csv").write_text("plot_id,wsg,dbh_cm,height_m\n"
                                   "p0,0.6,30,25\np2,0.45,12.5,9\np0,0.8,60,31\n")
    readers = {"plots": load_plots, "trees": lambda path: load_plots(out / "stands.csv", path)}
    docs = {}
    for name, read in readers.items():
        assert read(out / f"{name}.csv").ids == ("p0", "p1", "p2")
        docs[name] = ((out / f"{name}.csv").read_bytes(), out / f"corrupt {name}.csv", read)
    return docs


@pytest.mark.parametrize("name", ["plots", "trees"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**ONE_BYTE)
def test_one_byte_corruption_of_plot_csvs_reads_or_raises_bad_record(plot_csvs, name, op, at,
                                                                     byte):
    data, path, read = plot_csvs[name]
    _write_corrupt(path, data, op, at, byte)
    try:
        table = read(path)
    except BadRecord:
        return
    n = len(table.ids)
    assert table.xy.shape == (n, 2) and table.agb.shape == (n,)
    assert np.isfinite(table.xy).all() and np.isfinite(table.agb).all()
    assert (table.agb >= 0).all()
