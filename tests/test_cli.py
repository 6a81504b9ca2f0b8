import csv
import json

import numpy as np
import pytest

from agbmap.cli import main
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


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["metrics", "--nope"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["map", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("bad_line, message", [
    ("{not json", "Expecting property name"),
    ('{"id": "b", "lon": 1.0}', "missing key 'lat'"),
    ('{"id": "b", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 0.15, '
     '"intensities": [1.0, 2.0]}', "need >= 10 intensity bins"),
    ("[1, 2]", "list indices"),
])
def test_bad_waveform_record_names_path_and_line(tmp_path, capsys, bad_line, message):
    good = {"id": "a", "lon": 1.0, "lat": 2.0, "bin_top_elev": 9.0, "bin_size": 0.15,
            "intensities": [1.0] * 20}
    src = tmp_path / "bad.ndjson"
    src.write_text(json.dumps(good) + "\n\n" + bad_line + "\n")
    assert main(["filter", "--in", str(src), "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:3: ")
    assert message in err
    assert "Traceback" not in err


def test_simulate_emits_scene_files(scene_dir):
    for name in ("waveforms.ndjson", "plots.csv", "dem.asc", "cov1.asc",
                 "truth_agb.asc", "run_config.json"):
        assert (scene_dir / name).exists(), name


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


def test_map_validate_carbon_chain(scene_dir, tmp_path, capsys):
    cfg = json.load((scene_dir / "run_config.json").open())
    cfg["grid_sizes"] = [500, 1000]
    cfg["trend"] = "lm"
    cfg["out_dir"] = str(tmp_path / "run")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["map", "--config", str(cfg_path)]) == 0
    agb = tmp_path / "run" / "agb_1000.asc"
    assert agb.exists()

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


def test_sweep_and_calibrate_commands(scene_dir, tmp_path, capsys):
    met = tmp_path / "m.csv"
    main(["metrics", "--in", str(scene_dir / "waveforms.ndjson"),
          "--dem", str(scene_dir / "dem.asc"), "--out", str(met),
          "--max-components", "3"])
    sweep = tmp_path / "sweep.csv"
    rc = main(["sweep", "--metrics", str(met), "--plots",
               str(scene_dir / "plots.csv"), "--distances", "400", "800",
               "--kfold", "5", "--out", str(sweep)])
    assert rc == 0
    rows = list(csv.DictReader(sweep.open()))
    assert [r["max_dist"] for r in rows] == ["400", "800"]
    assert int(rows[0]["n_pairs"]) <= int(rows[1]["n_pairs"])

    model = tmp_path / "model.json"
    rc = main(["calibrate", "--metrics", str(met), "--plots",
               str(scene_dir / "plots.csv"), "--max-dist", "800",
               "--out-model", str(model)])
    assert rc == 0
    doc = json.load(model.open())
    assert doc["format"] == "agbmap-model"
    capsys.readouterr()


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


def test_textures_command(tmp_path, capsys):
    grid = Grid(np.random.default_rng(1).uniform(0, 10, (8, 8)), 0, 0, 100.0)
    src = tmp_path / "g.asc"
    write_ascii_grid(grid, src)
    assert main(["textures", "--in", str(src), "--levels", "8",
                 "--out-prefix", str(tmp_path / "tex_")]) == 0
    for band in ("mean", "variance", "entropy", "correlation"):
        assert (tmp_path / f"tex_{band}.asc").exists()
    capsys.readouterr()
