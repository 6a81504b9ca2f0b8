import argparse
import os
import runpy
import shutil
import subprocess
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


@pytest.mark.parametrize("inside_a_checkout", [False, True])
def test_bench_record_refuses_a_parent_that_is_not_a_git_checkout(tmp_path, monkeypatch,
                                                                   capsys, inside_a_checkout):
    # the record stored commits.parent as null, or as the HEAD of the
    # checkout around the copy, and ran every pair
    script = SCRIPTS_DIR / "bench_record.py"
    parent = tmp_path / "parent"
    if inside_a_checkout:
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "t"], check=True)
    shutil.copytree(SCRIPTS_DIR.parent / "bench", parent / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = tmp_path / "records"
    out.mkdir()
    monkeypatch.setattr(sys, "argv", [str(script), "--parent", str(parent), "--change",
                                      str(SCRIPTS_DIR.parent), "--slug", "t", "--pairs", "1",
                                      "--out-dir", str(out)])
    main = runpy.run_path(str(script), run_name="not_main")["main"]
    runs = []
    main.__globals__["run_once"] = lambda *args: runs.append(args) or {"exit": 0, "result": None}
    assert main() == 1
    assert capsys.readouterr().err == (f"error: {parent} is not the top of a git checkout, "
                                       "so its commit cannot be recorded\n")
    assert runs == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("exit_code, result", [(1, ""), (0, ""), (0, '{"metrics": {}}')])
def test_bench_record_keeps_the_stderr_of_a_run_without_a_result(tmp_path, exit_code, result):
    # a fullscale-krige run that exited 1 left nothing but its exit code
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        f"print({result!r})\n"
        f"sys.exit({exit_code})\n")
    run_once = runpy.run_path(str(SCRIPTS_DIR / "bench_record.py"), run_name="not_main")["run_once"]
    run = run_once(tmp_path, "fullscale-krige", 0, argparse.Namespace(seed=7, seconds=1.0))
    if result:
        assert run == {"exit": 0, "result": {"metrics": {}}}
    else:
        assert run == {"exit": exit_code, "result": None,
                       "stderr": [f"line {i}" for i in range(10, 30)]}


def test_same_outputs_finds_a_checkout_equal_to_itself(monkeypatch, capsys):
    script = SCRIPTS_DIR / "same_outputs.py"
    root = str(SCRIPTS_DIR.parent)
    monkeypatch.setattr(sys, "argv", [str(script), "--parent", root, "--change", root,
                                      "--seed", "5"])
    assert runpy.run_path(str(script), run_name="not_main")["main"]() == 0
    # the scene's 8 files and the run's 19: 4, and 5 for each of 3 grid sizes
    assert capsys.readouterr().out == "27 files compared, 0 differ\n"


def test_same_outputs_names_each_file_that_differs(tmp_path, monkeypatch, capsys):
    script = SCRIPTS_DIR / "same_outputs.py"
    main = runpy.run_path(str(script), run_name="not_main")["main"]

    def run_side(src, work, args):
        # same size and time on both sides, so only a byte comparison tells
        (work / "run").mkdir(parents=True)
        for name, text in [("same.txt", "x"), ("run/agb.asc", src.name)] + \
                [("extra.txt", "x")] * (src.name == "c"):
            (work / name).write_text(text)
            os.utime(work / name, (0, 0))

    monkeypatch.setitem(main.__globals__, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", [str(script), "--parent", str(tmp_path / "p"),
                                      "--change", str(tmp_path / "c")])
    assert main() == 1
    assert capsys.readouterr().out == ("differs: extra.txt\ndiffers: run/agb.asc\n"
                                       "3 files compared, 2 differ\n")
