"""agbmap benchmark entry point.

    python3 bench/run.py --workload desk-map|fullscale-rf|fullscale-krige|all \\
        [--seed 7] [--seconds 35] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. Each workload runs in a fresh Python process (`worker.py`) with the
BLAS/OpenMP thread variables pinned to 1, one after another. The child's
report is relayed; its last line is the JSON result. `--workload all` runs
every workload and ends with one combined verdict line. The exit code is
nonzero when a correctness check fails, a child times out, or the program
is not found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-map", "fullscale-rf", "fullscale-krige")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def run_workload(name: str, args) -> tuple[int, dict | None]:
    """(exit code, parsed result line) of one workload in a fresh process."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.record_reference:
        cmd.append("--record-reference")
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1, None
    lines = stdout.rstrip("\n").splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is None:
        # no result to relay: keep the report off stdout
        sys.stderr.write(stdout)
        return child.returncode or 1, None
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return child.returncode, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="agbmap benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7,
                   help="scene seed; 7 is the pinned seed")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="time budget of the timed operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run one traced operation, report per-layer metrics")
    p.add_argument("--record-reference", action="store_true",
                   help="store the accuracy of this seed in reference.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "agbmap", "pipeline.py")):
        print(f"error: no agbmap sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes, results = [], []
    for name in names:
        code, result = run_workload(name, args)
        codes.append(code)
        results.append(result)
    if args.workload != "all":
        return codes[0]
    ok = all(c == 0 for c in codes) and all(r is not None for r in results)
    done = [r for r in results if r is not None]
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{n}/{k}": v for n, r in zip(names, results) if r
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
