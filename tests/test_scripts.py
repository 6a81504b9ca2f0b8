import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script, monkeypatch, capsys):
    # importing the script catches a name it uses that the package lost
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(script), run_name="__main__")
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_distance_sweep_prints_one_row_per_distance(monkeypatch, capsys):
    script = SCRIPTS_DIR / "distance_sweep_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--distances", "300", "1000"])
    assert runpy.run_path(str(script), run_name="not_main")["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("footprints with metrics (west half only)")
    assert lines[1].split() == ["max_dist", "n_pairs", "r2", "rmse"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == ["300", "1000"]
    assert 0 < int(rows[0][1]) <= int(rows[1][1])


def test_rk_improvement_runs_a_scene_without_plots(monkeypatch, capsys):
    script = SCRIPTS_DIR / "rk_improvement_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--scenes", "1"])
    assert runpy.run_path(str(script), run_name="not_main")["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "trend", "rmse", "rk", "rmse", "gain"]
    assert lines[1].split()[0] == "0"
    assert lines[-1].startswith("mean gain ")
