import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agbmap
from agbmap import pipeline, waveform
from agbmap.cli import main
from agbmap.errors import FitFailure
from agbmap.raster import Grid, read_ascii_grid, write_ascii_grid


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_scene")
    overrides = out / "scene_overrides.json"
    overrides.write_text(json.dumps({
        "n_footprints": 150, "n_plots": 260, "extent": 10_000.0,
        "sat_violation_rate": 0.04}))
    rc = main(["simulate", "--seed", "5", "--out", str(out / "scene"),
               "--config", str(overrides)])
    assert rc == 0
    return out / "scene"


@pytest.fixture(scope="module")
def cli_metrics(scene_dir, tmp_path_factory):
    """metrics.csv from `agbmap metrics` with the scene run config's settings."""
    met = tmp_path_factory.mktemp("cli_metrics") / "metrics.csv"
    assert main(["metrics", "--in", str(scene_dir / "waveforms.ndjson"),
                 "--dem", str(scene_dir / "dem.asc"), "--out", str(met),
                 "--max-components", "3"]) == 0
    return met


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["metrics", "--nope"]) == 2
    assert main(["map", "--config", "c.json", "--threads", "2"]) == 2
    capsys.readouterr()
    assert main(["metrics", "--in", "w.ndjson", "--dem", "d.asc", "--out", "m.csv",
                 "--max-components", "9"]) == 2
    assert "invalid choice: 9" in capsys.readouterr().err
    assert main(["map", "--config", "c.json", "--seed", "-1"]) == 2
    assert main(["simulate", "--seed", "-1", "--out", "d"]) == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err
    assert main(["filter", "--in", "w.ndjson", "--out", "f.csv", "--detect-k", "0"]) == 2
    assert "--detect-k: must be > 0, got 0" in capsys.readouterr().err
    assert main(["metrics", "--in", "w.ndjson", "--dem", "d.asc", "--out", "m.csv",
                 "--detect-k", "-1.5"]) == 2
    assert "--detect-k: must be > 0, got -1.5" in capsys.readouterr().err
    grid = ["--in", "g.asc", "--out-prefix", "t_"]
    calib = ["--metrics", "m.csv", "--plots", "p.csv"]
    for argv, message in [
            (["validate", "--map", "m.asc", "--plots", "p.csv", "--min-count", "0"],
             "--min-count: must be >= 1, got 0"),
            (["variogram", "--samples", "s.csv", "--bin-width", "0"],
             "--bin-width: must be finite and > 0, got 0"),
            (["variogram", "--samples", "s.csv", "--max-lag", "-5"],
             "--max-lag: must be finite and > 0, got -5"),
            (["variogram", "--samples", "s.csv", "--bin-width", "1000", "--max-lag", "50"],
             "--max-lag: must be at least half of --bin-width, got 50 with --bin-width 1000"),
            (["textures", *grid, "--window", "2"], "--window: must be odd and >= 3, got 2"),
            (["textures", *grid, "--levels", "1"], "--levels: must be in 2..65536, got 1"),
            # 100000 levels asked numpy for one 74.5 GiB matrix per window
            (["textures", *grid, "--levels", "100000"],
             "--levels: must be in 2..65536, got 100000"),
            (["filter", "--in", "w.ndjson", "--out", "f.csv", "--snr-min", "nan"],
             "--snr-min: must be finite, got nan"),
            (["metrics", "--in", "w.ndjson", "--dem", "d.asc", "--out", "m.csv",
              "--max-elev-gap", "inf"], "--max-elev-gap: must be finite, got inf"),
            (["map", "--config", "c.json", "--grid-size", "nan"],
             "--grid-size: must be finite and > 0, got nan"),
            (["sweep", *calib, "--kfold", "0"], "--kfold: must be >= 2, got 0"),
            (["sweep", *calib, "--kfold", "1"], "--kfold: must be >= 2, got 1"),
            (["sweep", *calib, "--distances", "100", "nan"], "--distances: must be > 0, got nan"),
            (["sweep", *calib, "--distances", "-5"], "--distances: must be > 0, got -5"),
            (["calibrate", *calib, "--out-model", "m.json", "--max-dist", "nan"],
             "--max-dist: must be > 0, got nan")]:
        assert main(argv) == 2
        assert f"argument {message}\n" in capsys.readouterr().err
    assert main(["textures", *grid, "--window", "x"]) == 2
    assert "argument --window: invalid int value: 'x'" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy():
    # a fresh interpreter, since this one has imported scipy for the oracles
    src = str(Path(agbmap.__file__).resolve().parents[1])
    code = ("import sys, agbmap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("key, value, message", [
    ("max_components", 9, "'max_components' must be in 1..6, got 9"),
    ("grid_sizes", 5, "'grid_sizes' must be list, got 5"),
    ("n_trees", "x", "'n_trees' must be int, got 'x'"),
    ("grid_sizes", [500, "x"], "'grid_sizes[1]' must be int or float, got 'x'"),
    ("n_trees", 0, "'n_trees' must be >= 1, got 0"),
    ("seed", -1, "'seed' must be >= 0, got -1"),
    ("variogram_nbins", 0, "'variogram_nbins' must be >= 1, got 0"),
    ("detect_k", 0, "'detect_k' must be > 0, got 0"),
    ("detect_k", -2.5, "'detect_k' must be > 0, got -2.5"),
    ("variogram_max_lag", 0, "'variogram_max_lag' must be finite and > 0, got 0"),
    ("variogram_max_lag", float("inf"), "'variogram_max_lag' must be finite and > 0, got inf"),
    ("trend", "xx", "'trend' must be 'lm' or 'rf', got 'xx'"),
    ("snr_min", float("nan"), "'snr_min' must be finite, got nan"),
    ("max_elev_gap", float("-inf"), "'max_elev_gap' must be finite, got -inf"),
    ("grid_sizes", [500, float("inf")], "'grid_sizes' must be a non-empty list of finite "
     "sizes > 0, got [500, inf]"),
    # map used to exit 0 having written no map
    ("grid_sizes", [], "'grid_sizes' must be a non-empty list of finite sizes > 0, got []"),
    # map used to write metrics.csv and filter.csv before the sweep failed
    ("sweep_distances", [-5], "'sweep_distances' must be a list of finite distances > 0, "
     "got [-5]"),
    ("sweep_distances", [100, 0], "'sweep_distances' must be a list of finite distances > 0, "
     "got [100, 0]"),
    ("sweep_distances", [float("nan")], "'sweep_distances' must be a list of finite "
     "distances > 0, got [nan]"),
    # an empty stack ended in a traceback
    ("covariates", {}, "'covariates' must be a non-empty map of band names to files, got {}"),
])
def test_bad_run_config_value_exits_1_naming_key(tmp_path, capsys, key, value, message):
    doc = {"waveforms": "w.ndjson", "dem": "d.asc", "covariates": {"c": "c.asc"},
           "plots": "p.csv", "out_dir": str(tmp_path / "run"), key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["map", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: key {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, text, message", [
    ("map", b'{"waveforms": "w\xff.ndjson"}', ":1: 'utf-8' codec can't decode byte 0xff"),
    ("map", b'{"waveforms": "w",\n "dem": "d",\n "plots": ]\n', ":3: Expecting value"),
    ("map", b'{"waveforms":\n"\xff"}\n', ":2: 'utf-8' codec can't decode byte 0xff"),
    ("simulate", b'{"bogus": 1}', ": unknown key 'bogus'"),
    ("simulate", b'{"extent": "15000"}', ": key 'extent' must be int or float, got '15000'"),
    ("simulate", b'{"extent": 15000', ":1: Expecting ',' delimiter"),
    ("simulate", b'{"trend_coefficients": [1, null, 2]}',
     ": key 'trend_coefficients[1]' must be int or float, got None"),
    ("simulate", b'{"seed": 3}', ": key 'seed' is not allowed; --seed sets it"),
    ("simulate", b'{"bin_size": 0}', ": bin_size, agb_per_meter and covariate_range must"),
    ("simulate", b'{"cellsize": 6000}', ": extent must be a whole number of cells, got 2.5"),
    ("simulate", b'{"n_covariates": 0, "trend_coefficients": []}',
     ": n_covariates must be >= 1"),
    ("simulate", b'{"residual_range": NaN}', ": residual_range must be finite, got nan"),
])
def test_bad_json_config_exits_1_naming_path(tmp_path, capsys, command, text, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    out = ["--out", str(tmp_path / "scene")] if command == "simulate" else []
    assert main([command, "--config", str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{message}") and "Traceback" not in err
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("args", [
    ["map", "--config", "{tmp}/nope.json"],
    ["carbon", "--map", "{tmp}"],  # a directory where a file is read
    ["filter", "--in", "{tmp}", "--out", "{tmp}/f.csv"],
    ["filter", "--in", "{good}", "--out", "{tmp}"],  # a directory where a file is written
], ids=["missing-config", "dir-map", "dir-in", "dir-out"])
def test_domain_errors_exit_1(tmp_path, capsys, args):
    good = tmp_path / "good.ndjson"
    good.write_text(json.dumps({"id": "a", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0,
                                "bin_size": 0.15, "intensities": [1.0] * 20}) + "\n")
    assert main([a.format(tmp=tmp_path, good=good) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("bad_line, message", [
    ("{not json", "Expecting property name"),
    ('{"id": "b", "lon": 1.0}', "missing key 'lat'"),
    ('{"id": "b", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 0.15, '
     '"intensities": [1.0, 2.0]}', "need >= 10 intensity bins"),
    ('{"id": "b", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 0.15, '
     '"intensities": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], "sat_ndx": "a"}',
     "could not convert string to float: 'a'"),
    ("[1, 2]", "list indices"),
    ('{"id": "b", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 1e999, '
     '"intensities": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]}',
     "bin_size must be finite, got inf"),
    ("\udcff", "can't decode byte 0xff"),  # written as the raw byte 0xff
])
def test_bad_waveform_record_names_path_and_line(tmp_path, capsys, bad_line, message):
    good = {"id": "a", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 0.15,
            "intensities": [1.0] * 20}
    src = tmp_path / "bad.ndjson"
    src.write_bytes((json.dumps(good) + "\n\n" + bad_line + "\n").encode(
        errors="surrogateescape"))
    assert main(["filter", "--in", str(src), "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:3: ")
    assert message in err
    assert "Traceback" not in err


def test_simulate_emits_scene_files(scene_dir):
    for name in ("waveforms.ndjson", "plots.csv", "dem.asc", "cov1.asc",
                 "truth_agb.asc", "run_config.json"):
        assert (scene_dir / name).exists(), name
    # absolute paths, so that a copy of the config elsewhere names the same files
    cfg = json.load((scene_dir / "run_config.json").open())
    paths = [cfg[k] for k in ("waveforms", "dem", "plots", "out_dir")]
    assert all(os.path.isabs(p) for p in paths + list(cfg["covariates"].values()))


def test_filter_and_metrics_commands(scene_dir, tmp_path, capsys):
    filt = tmp_path / "filter.csv"
    rc = main(["filter", "--in", str(scene_dir / "waveforms.ndjson"),
               "--out", str(filt)])
    assert rc == 0
    rows = list(csv.DictReader(filt.open()))
    assert len(rows) == 150
    n_kept = sum(int(r["kept"]) for r in rows)
    assert sum(1 for r in rows if r["reason"] == "Saturated") == 6  # 0.04 * 150

    met = tmp_path / "metrics.csv"
    rc = main(["metrics", "--in", str(scene_dir / "waveforms.ndjson"),
               "--dem", str(scene_dir / "dem.asc"), "--out", str(met),
               "--max-components", "3"])
    assert rc == 0
    mrows = list(csv.DictReader(met.open()))
    assert len(mrows) == n_kept  # one row per kept waveform
    assert all(r["reject_reason"] == "" for r in mrows)
    capsys.readouterr()


def test_filter_screens_records_in_driver_packs(scene_dir, tmp_path, monkeypatch, capsys):
    argv = ["filter", "--in", str(scene_dir / "waveforms.ndjson"), "--out"]
    assert main([*argv, str(tmp_path / "whole.csv")]) == 0
    rows = []
    screen = waveform.filter_waveforms

    def spy(wf, **kw):
        rows.append(len(wf.ids))
        return screen(wf, **kw)

    monkeypatch.setattr(waveform, "_CHUNK", 40)
    monkeypatch.setattr(waveform, "filter_waveforms", spy)
    assert main([*argv, str(tmp_path / "packed.csv")]) == 0
    assert rows == [40, 40, 40, 30]  # the scene's 150 records
    assert (tmp_path / "packed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    capsys.readouterr()


def test_map_validate_carbon_chain(scene_dir, cli_metrics, tmp_path, capsys):
    cfg = json.load((scene_dir / "run_config.json").open())
    cfg["grid_sizes"] = [500, 1000]
    cfg["trend"] = "lm"
    cfg["out_dir"] = str(tmp_path / "run")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["map", "--config", str(cfg_path)]) == 0
    agb = tmp_path / "run" / "agb_1000.asc"
    assert agb.exists()
    # `metrics` and `map` process footprints through the same function
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == cli_metrics.read_bytes()

    assert main(["validate", "--map", str(agb), "--plots",
                 str(scene_dir / "plots.csv"), "--min-count", "2"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if "," in ln]
    assert lines[0] == "rmsep,r2,n_cells"

    assert main(["carbon", "--map", str(agb)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "total_tC,total_ktC,n_cells,cell_size_m"
    total_tc = float(out[1].split(",")[0])
    grid = read_ascii_grid(agb)
    mask = grid.valid_mask()
    want = grid.values[mask].sum() * (1000.0 ** 2 / 1e4) * 0.5
    assert total_tc == pytest.approx(want, rel=1e-9)


def test_sweep_and_calibrate_commands(scene_dir, cli_metrics, tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    rc = main(["sweep", "--metrics", str(cli_metrics), "--plots",
               str(scene_dir / "plots.csv"), "--distances", "400", "800",
               "--kfold", "5", "--out", str(sweep)])
    assert rc == 0
    rows = list(csv.DictReader(sweep.open()))
    assert [r["max_dist"] for r in rows] == ["400", "800"]
    assert int(rows[0]["n_pairs"]) <= int(rows[1]["n_pairs"])

    model = tmp_path / "model.json"
    rc = main(["calibrate", "--metrics", str(cli_metrics), "--plots",
               str(scene_dir / "plots.csv"), "--max-dist", "800",
               "--out-model", str(model)])
    assert rc == 0
    doc = json.load(model.open())
    assert doc["format"] == "agbmap-model"
    capsys.readouterr()


def test_metrics_rejects_footprint_outside_dem(scene_dir, cli_metrics, tmp_path, capsys):
    kept_id = next(csv.DictReader(cli_metrics.open()))["id"]
    records = [json.loads(ln) for ln in (scene_dir / "waveforms.ndjson").open()]
    rec = next(r for r in records if r["id"] == kept_id)
    dem = read_ascii_grid(scene_dir / "dem.asc")
    moved = dict(rec, id="east", lon=dem.origin_x + dem.width + 500.0)
    src = tmp_path / "w.ndjson"
    src.write_text(json.dumps(rec) + "\n" + json.dumps(moved) + "\n")
    met = tmp_path / "m.csv"
    assert main(["metrics", "--in", str(src), "--dem", str(scene_dir / "dem.asc"),
                 "--out", str(met), "--max-components", "3"]) == 0
    assert [r["id"] for r in csv.DictReader(met.open())] == [kept_id]
    capsys.readouterr()


def test_calibrate_without_pairs_exits_1(scene_dir, cli_metrics, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["calibrate", "--metrics", str(cli_metrics), "--plots",
                 str(scene_dir / "plots.csv"), "--max-dist", "1",
                 "--out-model", str(model)]) == 1
    assert "no plot-footprint pairs within 1.0 m" in capsys.readouterr().err
    assert not model.exists()


def test_sweep_bad_metrics_row_exits_1_naming_path_and_line(scene_dir, cli_metrics,
                                                           tmp_path, capsys):
    lines = cli_metrics.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    first = lines[1].rstrip("\r\n").split(",")
    first[header.index("h50")] = "x"
    bad = tmp_path / "m.csv"
    bad.write_text(lines[0] + ",".join(first) + "\n" + "".join(lines[2:]))
    assert main(["sweep", "--metrics", str(bad), "--plots",
                 str(scene_dir / "plots.csv"), "--distances", "400"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: could not convert string to float: 'x'")
    assert "Traceback" not in err


def test_map_grid_size_off_the_covariate_cells_exits_1_before_out_dir(scene_dir, tmp_path,
                                                                     capsys):
    out = tmp_path / "gs"
    assert main(["map", "--config", str(scene_dir / "run_config.json"), "--grid-size", "500",
                 "--grid-size", "600", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: key 'grid_sizes': grid size 600.0 is not an integer multiple of "
                   f"native 250.0 ({scene_dir / 'cov1.asc'})\n")
    assert not out.exists()


def _shifted(src, dst, dx):
    """dst: the ASCII grid at src with its origin moved dx metres east."""
    grid = read_ascii_grid(src)
    grid.origin_x += dx
    write_ascii_grid(grid, dst)
    return str(dst)


@pytest.mark.parametrize("case, message", [
    # every footprint was OutsideDem, and map failed on the plot match
    # after writing metrics.csv and filter.csv; the scene's 6 saturated
    # shots keep the filter's reason
    ("dem", "{waveforms}: no footprint was kept; rejects: OutsideDem 144, Saturated 6"),
    # GridStack's ValueError ended in a traceback
    ("cov2", "{cov2}: grid geometry differs from that of {cov1}"),
    # one 30 km cell was mapped over the 10 km scene
    ("grid_sizes", "key 'grid_sizes': grid size 30000 is larger than the 10000 x 10000 m "
     "covariate grid ({cov1})"),
])
def test_inputs_that_disagree_exit_1_naming_a_file(scene_dir, tmp_path, capsys, case, message):
    doc = json.loads((scene_dir / "run_config.json").read_text())
    doc["out_dir"] = str(tmp_path / "run")
    if case == "dem":
        doc["dem"] = _shifted(doc["dem"], tmp_path / "dem.asc", 1e6)
    elif case == "cov2":
        doc["covariates"]["cov2"] = _shifted(doc["covariates"]["cov2"], tmp_path / "cov2.asc",
                                             1000.0)
    else:
        doc["grid_sizes"] = [30000]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["map", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message.format(waveforms=doc['waveforms'], **doc['covariates'])}\n"
    assert not (tmp_path / "run").exists()


def test_a_failing_map_job_exits_1_before_any_map_is_written(scene_dir, tmp_path, capsys,
                                                             monkeypatch, forks):
    # the jobs are the CV and the 500, 1000 and 2000 m maps; on two workers
    # the last two run in a child; the 500 and 1000 m files used to be
    # written before the 2000 m map failed
    parent, build_map = os.getpid(), pipeline.build_map

    def build_or_fail(samples, covariates, grid_size, *args, **kwargs):
        if grid_size == 2000:
            where = "here" if os.getpid() == parent else "in a child"
            raise FitFailure(f"planted at {grid_size:g} m {where}")
        return build_map(samples, covariates, grid_size, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_map", build_or_fail)
    out = tmp_path / "run"
    assert main(["map", "--config", str(scene_dir / "run_config.json"),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: planted at 2000 m in a child\n"
    assert forks == [1]  # the job pool's; the scene's 150 records stay in the caller
    assert sorted(p.name for p in out.iterdir()) == ["filter.csv", "metrics.csv"]


def test_failed_validate_writes_no_file(scene_dir, tmp_path, capsys):
    grid = tmp_path / "one_cell.asc"
    write_ascii_grid(Grid([[100.0]], 0.0, 0.0, 20_000.0), grid)
    out = tmp_path / "v.csv"
    assert main(["validate", "--map", str(grid), "--plots", str(scene_dir / "plots.csv"),
                 "--min-count", "100000", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


_GRID_HEADER = ("ncols 2\n", "nrows 2\n", "xllcorner 0\n", "yllcorner 0\n",
                "cellsize 10\n")


@pytest.mark.parametrize("lines, line_no, message", [
    (("ncols 2\n", "nrows x\n") + _GRID_HEADER[2:] + ("1 2\n3 4\n",), 2,
     "header nrows is not an integer: 'x'"),
    (_GRID_HEADER[:4] + ("cellsize ten\n", "1 2\n3 4\n"), 5, "header cellsize is not a number"),
    (_GRID_HEADER[:3] + _GRID_HEADER[4:] + ("1 2\n3 4\n",), 5,
     "missing ASCII grid header key 'yllcorner'"),
    (("ncols 0\n",) + _GRID_HEADER[1:] + ("\n",), 1, "ncols must be > 0"),
    (_GRID_HEADER[:4] + ("cellsize -10\n", "1 2\n3 4\n"), 5, "cellsize must be > 0"),
    (_GRID_HEADER[:2] + ("xllcorner nan\n",) + _GRID_HEADER[3:] + ("1 2\n3 4\n",), 3,
     "xllcorner must be finite, got nan"),
    (_GRID_HEADER[:4] + ("cellsize inf\n", "1 2\n3 4\n"), 5, "cellsize must be finite, got inf"),
    (_GRID_HEADER[:3] + ("yllcorner inf\n",) + _GRID_HEADER[4:] + ("1 2\n3 4\n",), 4,
     "yllcorner must be finite, got inf"),
    (_GRID_HEADER[:4] + ("cellsize nan\n", "1 2\n3 4\n"), 5, "cellsize must be finite, got nan"),
    (_GRID_HEADER + ("1 2\n", "3 x4\n"), 7, "grid value is not a number: 'x4'"),
    (_GRID_HEADER + ("1 2\n", "3\n", "\n"), 7, "expected 4 values, found 3"),
    (_GRID_HEADER + ("1 2\n", "3 4\n", "5 6\n"), 8, "expected 4 values, found 6"),
    (_GRID_HEADER + ("1 2\n", "3 \udcff\n"), 7, "can't decode byte 0xff"),  # raw 0xff
])
def test_bad_ascii_grid_names_path_and_line(tmp_path, capsys, lines, line_no, message):
    path = tmp_path / "g.asc"
    path.write_bytes("".join(lines).encode(errors="surrogateescape"))
    assert main(["carbon", "--map", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line_no}: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, header_line", [
    # a NaN origin made the texture bands' geometries differ (NaN != NaN)
    ("textures", "xllcorner nan\n"),
    # an infinite origin left no cell to hold a plot
    ("validate", "yllcorner inf\n"),
])
def test_non_finite_grid_origin_names_path_and_line(scene_dir, tmp_path, capsys, command,
                                                    header_line):
    key = header_line.split()[0]
    lines = [header_line if line.startswith(key) else line for line in _GRID_HEADER]
    path = tmp_path / "g.asc"
    path.write_text("".join(lines) + "1 2\n3 4\n")
    argv = {"textures": ["textures", "--in", str(path), "--out-prefix", str(tmp_path / "t_")],
            "validate": ["validate", "--map", str(path), "--plots",
                         str(scene_dir / "plots.csv"), "--out", str(tmp_path / "v.csv")]}
    assert main(argv[command]) == 1
    line_no = 1 + [line.split()[0] for line in _GRID_HEADER].index(key)
    assert capsys.readouterr().err == \
        f"error: {path}:{line_no}: {key} must be finite, got {header_line.split()[1]}\n"
    assert not list(tmp_path.glob("t_*")) and not (tmp_path / "v.csv").exists()


_GRID_TOKEN = st.text("0123456789.-+eEnaifx", min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(ncols=st.integers(1, 3), nrows=st.integers(1, 3),
       edits=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2),
                                st.one_of(st.none(), _GRID_TOKEN)), max_size=3))
def test_carbon_on_corrupted_grid_files_exits_0_or_1(ncols, nrows, edits):
    lines = [["ncols", str(ncols)], ["nrows", str(nrows)], ["xllcorner", "0"],
             ["yllcorner", "0"], ["cellsize", "10"], ["NODATA_value", "-9999"],
             *[["2.5"] * ncols for _ in range(nrows)]]
    for row, col, token in edits:  # replace a token, or delete it for None
        line = lines[row % len(lines)]
        if not line:
            continue
        if token is None:
            del line[col % len(line)]
        else:
            line[col % len(line)] = token
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.asc")
        with open(path, "w") as f:
            f.write("".join(" ".join(line) + "\n" for line in lines))
        assert main(["carbon", "--map", path]) in (0, 1)


def test_variogram_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "samples.csv"
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "value"])
        for x, y, v in zip(rng.uniform(0, 2000, 300), rng.uniform(0, 2000, 300),
                           rng.normal(0, 5, 300)):
            w.writerow([x, y, v])
    out = tmp_path / "vg.csv"
    assert main(["variogram", "--samples", str(path), "--bin-width", "100",
                 "--max-lag", "1000", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["kind", "lag", "gamma", "pairs", "nugget", "psill", "range"]
    assert rows[-1][0] == "model"
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("x,y,value\n0,0,1\n2,2,5\n1,0,3\n",
     "max_lag 1.41421 is shorter than half a bin of 1000"),
    ("x,y,value\n5,5,1\n", "need at least 2 samples, got 1"),
])
def test_variogram_samples_too_close_for_the_bin_exit_1_naming_the_file(tmp_path, capsys,
                                                                        text, message):
    # the default max_lag comes from the samples, so no flag check sees it
    path = tmp_path / "s.csv"
    path.write_text(text)
    assert main(["variogram", "--samples", str(path), "--bin-width", "1000"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}" + (
        "; by default it is half the samples' bounding-box diagonal\n"
        if "max_lag" in message else "\n")


@pytest.mark.parametrize("command, text, message", [
    ("validate", "plot_id,lon,lat,area_ha,agb_mg_ha\np1,x,5,1.0,100\n",
     "could not convert string to float: 'x'"),
    ("validate", "plot_id,lon,lat,area_ha,agb_mg_ha\np1,0,5,0,100\n",
     "area_ha must be > 0, got '0'"),
    ("variogram", "x,y,value\n1,2,q\n", "could not convert string to float: 'q'"),
    ("variogram", "x,value\n1,3\n", "missing column 'y'"),
])
def test_bad_csv_row_exits_1_naming_path_and_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    if command == "validate":
        grid = tmp_path / "g.asc"
        write_ascii_grid(Grid([[100.0]], 0.0, 0.0, 20.0), grid)
        argv = ["validate", "--map", str(grid), "--plots", str(path)]
    else:
        argv = ["variogram", "--samples", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, bad_file, column, value, line", [
    ("calibrate", "plots.csv", "lon", "nan", 3),
    ("calibrate", "metrics.csv", "lon", "inf", 3),
    ("calibrate", "metrics.csv", "h50", "inf", 3),
    ("validate", "plots.csv", "lat", "nan", 3),
    ("validate", "trees.csv", "dbh_cm", "nan", 3),
    ("variogram", "samples.csv", "x", "nan", 3),
    ("variogram", "samples.csv", "value", "nan", 3),
    ("metrics", "waveforms.ndjson", "lon", float("nan"), 2),
])
def test_non_finite_number_exits_1_naming_path_and_line(tmp_path, capsys, command,
                                                        bad_file, column, value, line):
    from agbmap.waveform import METRIC_COLUMNS
    tables = {
        "plots.csv": [{"plot_id": f"p{i}", "lon": 100.0 + 200 * i, "lat": 100.0,
                       "area_ha": 1.0, "agb_mg_ha": 90.0} for i in range(2)],
        "metrics.csv": [{"id": f"f{i}", "lon": 100.0 + 200 * i, "lat": 100.0,
                         **{c: 1.0 for c in METRIC_COLUMNS}} for i in range(2)],
        "samples.csv": [{"x": 10.0 * i, "y": 0.0, "value": 1.0} for i in range(2)],
        "trees.csv": [{"plot_id": f"p{i}", "wsg": 0.6, "dbh_cm": 30.0, "height_m": 20.0}
                      for i in range(2)],
        "waveforms.ndjson": [{"id": f"w{i}", "lon": 10.0, "lat": 10.0, "bin_top_elev": 9.0,
                              "bin_size": 0.15, "intensities": [1.0] * 20} for i in range(2)],
    }
    tables[bad_file][1][column] = value
    for name, rows in tables.items():
        with (tmp_path / name).open("w", newline="") as f:
            if name.endswith(".ndjson"):
                f.writelines(json.dumps(r) + "\n" for r in rows)
            else:
                w = csv.DictWriter(f, fieldnames=list(rows[0]))
                w.writeheader()
                w.writerows(rows)
    write_ascii_grid(Grid([[100.0]], 0.0, 0.0, 20.0), tmp_path / "g.asc")
    path = {name: str(tmp_path / name) for name in tables}
    argv = {"calibrate": ["--metrics", path["metrics.csv"], "--plots", path["plots.csv"],
                          "--out-model", str(tmp_path / "m.json")],
            "validate": ["--map", str(tmp_path / "g.asc"), "--plots", path["plots.csv"],
                         "--trees", path["trees.csv"]],
            "variogram": ["--samples", path["samples.csv"]],
            "metrics": ["--in", path["waveforms.ndjson"], "--dem", str(tmp_path / "g.asc"),
                        "--out", str(tmp_path / "o.csv")]}[command]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    name = "waveform w1: lon" if bad_file.endswith(".ndjson") else column
    assert err.startswith(f"error: {path[bad_file]}:{line}: {name} must be finite, got {value!r}")
    assert "Traceback" not in err


def test_textures_command(tmp_path, capsys):
    grid = Grid(np.random.default_rng(1).uniform(0, 10, (8, 8)), 0, 0, 100.0)
    src = tmp_path / "g.asc"
    write_ascii_grid(grid, src)
    assert main(["textures", "--in", str(src), "--levels", "8",
                 "--out-prefix", str(tmp_path / "tex_")]) == 0
    for band in ("mean", "variance", "entropy", "correlation"):
        assert (tmp_path / f"tex_{band}.asc").exists()
    capsys.readouterr()
