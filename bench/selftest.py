"""Fast self-test of the benchmark harness on tiny scenes.

    PYTHONPATH=src python3 bench/selftest.py

Checks that a run prints every metric of BENCHMARK.json by name with its
unit, that a corrupted output trips the correctness check (nonzero exit,
every operation failed), and that the entry point exits nonzero without a
result when the program's sources are absent. It lives outside `tests/`, so
the project's test suite does not collect it.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import worker

TINY_DESK = {"extent": 6000.0, "n_footprints": 120, "n_plots": 300,
             "residual_range": 1500.0, "covariate_range": 4000.0}
TINY_FULL = {"extent": 6000.0, "n_footprints": 300, "n_plots": 0,
             "residual_range": 1500.0, "covariate_range": 4000.0}


class CorruptDesk(worker.DeskMap):
    def op(self, label):
        result = super().op(label)
        path = os.path.join(result["out"], "agb_1000.asc")
        with open(path) as f:
            lines = f.readlines()
        lines[6] = "nan " + lines[6].split(" ", 1)[1]
        with open(path, "w") as f:
            f.writelines(lines)
        return result


class CorruptFull(worker.FullScale):
    def op(self, label):
        products = super().op(label)
        products[self.grid_sizes[-1]].agb.values[0, 0] = float("nan")
        return products


def run_case(name, wl, trace):
    out = io.StringIO()
    code = worker.run(name, wl, seed=3, seconds=0.0, trace=trace,
                      import_s=[0.0] * worker.SETUP_REPS, out=out, reference=False)
    return code, json.loads(out.getvalue().splitlines()[-1]), out.getvalue()


def check_metrics(result, wanted, report):
    lines = report.splitlines()
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}"
        assert any(ln.startswith(f"  {m['name']} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), f"{m['name']} not printed with its unit"
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def main() -> int:
    bench = worker.load_benchmark()
    os.makedirs(worker.WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=worker.WORK)
    try:
        cases = [
            ("desk", lambda d: worker.DeskMap(3, d, TINY_DESK),
             lambda d: CorruptDesk(3, d, TINY_DESK)),
            ("full", lambda d: worker.FullScale(3, d, "rf", (500, 1000), TINY_FULL),
             lambda d: CorruptFull(3, d, "rf", (500, 1000), TINY_FULL)),
        ]
        for label, good, bad in cases:
            for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                code, result, report = run_case(
                    label, good(os.path.join(scratch, f"{label}{trace}")), trace)
                assert code == 0 and result["correct"], report
                assert result["failed"] == 0 and result["attempted"] >= 1
                check_metrics(result, wanted, report)
                print(f"ok: {label} trace={trace} prints all {len(wanted)} metrics")
            code, result, report = run_case(
                label, bad(os.path.join(scratch, f"{label}-bad")), 0)
            assert code == 1 and not result["correct"], report
            assert result["failed"] == result["attempted"]
            assert "CHECK FAILED: map has non-finite values" in report, report
            print(f"ok: {label} corrupted output fails the check")

        # a directory holding only BENCHMARK.json and the benchmark
        bare = os.path.join(scratch, "bare")
        shutil.copytree(worker.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(bench["command"] + ["--workload", "desk-map", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and "{" not in proc.stdout, proc
        print("ok: without the program the benchmark exits "
              f"{proc.returncode} and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
