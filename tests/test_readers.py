"""One-byte corruptions of the two JSON documents: the run config and the
scene overrides of `agbmap simulate --config`. Each reader either returns or
raises ConfigError. The same corruptions of a metrics CSV, a plots CSV and a trees CSV either
read as a footprint or plot table or raise BadRecord, and those of a
waveforms NDJSON file either read or raise BadRecord, with `agbmap filter`
and `agbmap metrics` exiting 0 or 1 on it. Corrupt copies of an ASCII grid
map, a variogram-samples CSV and a metrics CSV make the subcommands that
read them (`carbon`, `validate`, `textures`, `variogram`, `sweep` and
`calibrate`) exit 0 or 1, and 1 whenever the reader raises BadRecord.
`check_fields`, which checks both JSON documents, names the key it rejects."""

from __future__ import annotations  # check_fields reads annotations as text

import json
import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.allometry import load_plots
from agbmap.cli import main
from agbmap.errors import BadRecord, ConfigError
from agbmap.readers import POSITIVE, check_fields
from agbmap.pipeline import RunConfig
from agbmap.raster import Grid, read_ascii_grid, write_ascii_grid
from agbmap.synth import scene_config
from agbmap.waveform import (METRIC_COLUMNS, FootprintTable, WaveformRecord, read_metrics_csv,
                             read_waveforms, write_metrics_csv, write_waveforms)

RUN_CONFIG = {"waveforms": "s/waveforms.ndjson", "dem": "s/dem.asc",
              "covariates": {"cov1": "s/cov1.asc", "cov2": "s/cov2.asc"},
              "plots": "s/plots.csv", "out_dir": "s/run", "grid_sizes": [500, 1000, 2000],
              "trend": "rf", "seed": 7, "calib_max_dist": 600.0, "n_trees": 150,
              "max_components": 3, "min_plots_per_cell": 2, "variogram_max_lag": None}
SCENE = {"n_footprints": 150, "n_plots": 260, "extent": 10_000.0,
         "sat_violation_rate": 0.04, "trend_coefficients": [60.0, -40.0, 25.0]}


READERS = {"run config": RunConfig.from_json,
           "scene overrides": lambda path: scene_config(7, False, path)}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Name -> (bytes of the valid document, a directory for corrupt copies)."""
    out = tmp_path_factory.mktemp("readers")
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


@pytest.fixture(scope="module")
def waveform_files(tmp_path_factory):
    """Bytes of a three-record waveforms file, a DEM that holds the records
    and a path for corrupt copies. The records are short, so that a corrupt
    byte often lands in a key, a scalar or the JSON structure."""
    out = tmp_path_factory.mktemp("waveforms")
    elev = 130.0 - np.arange(40)
    records = []
    for i, (canopy, ground) in enumerate([(60.0, 70.0), (45.0, 30.0), (80.0, 50.0)]):
        shape = (canopy * np.exp(-0.5 * ((elev - 122.0 + 3 * i) / 2.0) ** 2)
                 + ground * np.exp(-0.5 * ((elev - 103.0 - i) / 1.5) ** 2))
        noise = np.random.default_rng(i).normal(8.0, 1.0, elev.size)
        records.append(WaveformRecord(f"w{i}", 100.0 + 250 * i, 600.0, 130.0, 1.0,
                                      np.round(shape + noise, 1), srtm_elev=103.0))
    path = out / "waveforms.ndjson"
    write_waveforms(records, path)
    dem = out / "dem.asc"
    write_ascii_grid(Grid(np.full((4, 4), 100.0), 0.0, 0.0, 250.0), dem)
    met = out / "metrics.csv"
    assert main(["metrics", "--in", str(path), "--dem", str(dem), "--out", str(met)]) == 0
    assert len(read_metrics_csv(met).ids) == 3
    return path.read_bytes(), dem, out / "corrupt.ndjson"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**ONE_BYTE)
def test_one_byte_corruption_of_waveforms_reads_or_raises_bad_record(waveform_files, op, at,
                                                                    byte):
    data, dem, path = waveform_files
    _write_corrupt(path, data, op, at, byte)
    try:
        read_waveforms(path)
        rc = 0
    except BadRecord:
        rc = 1
    out = path.with_name("out.csv")
    for argv in (["filter"], ["metrics", "--dem", str(dem), "--max-components", "2"]):
        out.unlink(missing_ok=True)  # as in _write_corrupt, a new file is faster
        assert main([*argv, "--in", str(path), "--out", str(out)]) == rc


CLI_INPUTS = ("map.asc", "samples.csv", "metrics.csv")


def _cli_runs(src, out):
    """Corrupted input -> (its reader or None, the argv lists that read it)."""
    plots = out / "plots.csv"
    runs = {
        "map.asc": (read_ascii_grid, [
            ["carbon", "--map", src, "--out", out / "o" / "carbon.csv"],
            ["validate", "--map", src, "--plots", plots, "--min-count", "1",
             "--out", out / "o" / "validation.csv"],
            ["textures", "--in", src, "--window", "3", "--levels", "4",
             "--out-prefix", out / "o" / "tex_"]]),
        "samples.csv": (None, [["variogram", "--samples", src,
                                "--out", out / "o" / "variogram.csv"]]),
        "metrics.csv": (read_metrics_csv, [
            ["sweep", "--metrics", src, "--plots", plots, "--distances", "50",
             "--kfold", "3", "--out", out / "o" / "sweep.csv"],
            ["calibrate", "--metrics", src, "--plots", plots, "--max-dist", "50",
             "--out-model", out / "o" / "model.json"]]),
    }
    return {name: (read, [[str(a) for a in argv] for argv in argvs])
            for name, (read, argvs) in runs.items()}


def _run_cli(argv, out) -> int:
    for p in (out / "o").iterdir():  # as in _write_corrupt, new files are faster
        p.unlink()
    return main(argv)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Name -> bytes of a valid input and the directory that holds it: a 4x4
    AGB map with one nodata cell, 10 variogram samples, and 32 footprints
    5 m from 32 plots, enough pairs for `calibrate`'s stepwise fit."""
    out = tmp_path_factory.mktemp("cli")
    (out / "o").mkdir()
    rng = np.random.default_rng(0)
    agb = rng.uniform(50, 300, (4, 4)).round(1)
    agb[0, 3] = -9999.0
    write_ascii_grid(Grid(agb, 0.0, 0.0, 250.0), out / "map.asc")
    xy = rng.uniform(0, 1000, (32, 2)).round(1)
    (out / "plots.csv").write_text("plot_id,lon,lat,area_ha,agb_mg_ha\n" + "".join(
        f"p{i},{x},{y},1,{a:.1f}\n"
        for i, ((x, y), a) in enumerate(zip(xy, rng.uniform(20, 300, 32)))))
    with (out / "metrics.csv").open("w", newline="") as f:
        write_metrics_csv(FootprintTable(xy + 5.0,
                                         rng.uniform(0, 40, (32, len(METRIC_COLUMNS))).round(2),
                                         tuple(f"f{i}" for i in range(32))), f)
    (out / "samples.csv").write_text("x,y,value\n" + "".join(
        f"{x:g},{y:g},{v:.1f}\n"
        for (x, y), v in zip(rng.uniform(0, 1000, (10, 2)).round(), rng.normal(0, 10, 10))))
    docs = {}
    for name in CLI_INPUTS:
        _, argvs = _cli_runs(str(out / name), out)[name]
        assert [_run_cli(argv, out) for argv in argvs] == [0] * len(argvs)  # intact inputs run
        docs[name] = ((out / name).read_bytes(), out)
    return docs


@pytest.mark.parametrize("name", CLI_INPUTS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**ONE_BYTE)
def test_one_byte_corruption_of_cli_inputs_exits_0_or_1(cli_files, name, op, at, byte):
    data, out = cli_files[name]
    path = out / f"corrupt {name}"
    _write_corrupt(path, data, op, at, byte)
    read, argvs = _cli_runs(str(path), out)[name]
    try:
        if read is not None:
            read(path)
        readable = True
    except BadRecord:
        readable = False
    for argv in argvs:
        rc = _run_cli(argv, out)
        assert rc in (0, 1) and (readable or rc == 1)


@dataclass
class _Fields:
    name: str
    n: int = 1
    scale: float = 1.0
    limit: float | None = None
    values: tuple = ()
    labels: dict = field(default_factory=dict)


_ITEMS = {"values": (int, float), "labels": (str,)}
_DOC = {"name": "a", "n": 2, "scale": 0.5, "limit": 3, "values": [1, 2.5], "labels": {"x": "y"}}


@pytest.mark.parametrize("edit, message", [
    ({"name": None}, "missing key 'name'"),
    ({"bogus": 1}, "unknown key 'bogus'"),
    ({"scale": "1.5"}, "key 'scale' must be int or float, got '1.5'"),
    ({"n": 8.0}, "key 'n' must be int, got 8.0"),
    ({"n": True}, "key 'n' must be int, got True"),
    ({"limit": [1]}, "key 'limit' must be int or float or null, got [1]"),
    ({"values": "x0"}, "key 'values' must be list, got 'x0'"),
    ({"values": [1, True]}, "key 'values[1]' must be int or float, got True"),
    ({"labels": {"x": 2}}, "key 'labels[x]' must be str, got 2"),
    ({"limit": -1}, "key 'limit' must be > 0, got -1"),
])
def test_check_fields_names_the_key(edit, message):
    doc = {k: v for k, v in {**_DOC, **edit}.items() if v is not None}
    with pytest.raises(ConfigError, match=f"^{re.escape(f'cfg.json: {message}')}$"):
        check_fields(_Fields, doc, "cfg.json", required=("name",), items=_ITEMS,
                     ranges={"limit": POSITIVE})


def test_check_fields_returns_a_valid_document():
    kwargs = dict(required=("name",), items=_ITEMS, ranges={"limit": POSITIVE})
    assert check_fields(_Fields, dict(_DOC), "cfg.json", **kwargs) == _DOC
    # a null value has no range, and an absent optional key is no error
    assert check_fields(_Fields, {"name": "a", "limit": None}, "cfg.json", **kwargs) == \
        {"name": "a", "limit": None}
    with pytest.raises(ConfigError, match=r"^cfg\.json: expected a JSON object, got \[\]$"):
        check_fields(_Fields, [], "cfg.json", **kwargs)
