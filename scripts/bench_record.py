#!/usr/bin/env python3
"""Record a before/after benchmark comparison as BENCH_<slug>.json.

Runs `python3 <root>/bench/run.py --workload W --seed S` alternately in two
source checkouts, the parent and the change, for N pairs, switching which
side runs first from one pair to the next. The first K pairs also run
`--trace 1` on each side, which reports the per-layer metrics in place of
the end-to-end ones. It refuses to run when the two
`bench/` directories differ, since the comparison then measures different
harnesses. The record holds every result line, each side's median and
quartiles per metric, the number of pairs the change won per metric, the
seed, and the machine (nproc and the Python, numpy and scipy versions).

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --slug batched_decomposition --workload desk-map --pairs 10 --traced-pairs 3
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SKIP_DIRS = {"out", "__pycache__"}  # run outputs and bytecode, not the harness


def bench_digest(root: Path) -> dict:
    """sha256 of every harness file under root/bench, by relative path."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root / "bench"):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in filenames:
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def commit_of(root: Path) -> str | None:
    """HEAD of a git checkout, with "+dirty" when the work tree differs."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_once(root: Path, workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit": proc.returncode, "result": result}


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs, workload: str, better: dict) -> dict:
    side_runs = {side: [r for r in runs if r["workload"] == workload and r["side"] == side
                        and r["result"] is not None] for side in ("parent", "change")}
    if not all(side_runs.values()):
        return {}
    names = sorted(set.intersection(*(set().union(*(r["result"]["metrics"] for r in rs))
                                      for rs in side_runs.values())))
    out = {}
    for name in names:
        # in pair order; a metric comes from either the plain or the traced runs
        vals = {side: [r["result"]["metrics"][name]["value"] for r in rs
                       if name in r["result"]["metrics"]]
                for side, rs in side_runs.items()}
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        pairs = list(zip(vals["parent"], vals["change"]))
        unit = next(r["result"]["metrics"][name]["unit"] for r in side_runs["change"]
                    if name in r["result"]["metrics"])
        out[name] = {
            "unit": unit,
            "better": better.get(name, "lower"),
            "parent": quartiles(vals["parent"]),
            "change": quartiles(vals["change"]),
            "pairs": len(pairs),
            "change_won": sum(sign * (c - p) < 0 for p, c in pairs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed source checkout")
    ap.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    ap.add_argument("--workload", nargs="+", default=["desk-map"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--traced-pairs", type=int, default=0,
                    help="pairs that also run one traced run per side")
    ap.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="where BENCH_<slug>.json goes (default: this repo's root)")
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if bench_digest(roots["parent"]) != bench_digest(roots["change"]):
        print("error: the bench/ directories of the two checkouts differ", file=sys.stderr)
        return 1
    with open(roots["change"] / "BENCHMARK.json") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    path = args.out_dir / f"BENCH_{args.slug}.json"
    record = {
        "slug": args.slug, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "traced_pairs": args.traced_pairs,
        "workloads": args.workload,
        "commits": {side: commit_of(root) for side, root in roots.items()},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform()},
        "runs": [],
    }
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for trace in (0, 1) if pair < args.traced_pairs else (0,):
                for position, side in enumerate(order):
                    run = run_once(roots[side], workload, trace, args)
                    record["runs"].append({"pair": pair, "workload": workload, "side": side,
                                           "position": position, "trace": trace, **run})
                    wall = (run["result"] or {}).get("metrics", {}).get("wall_s", {})
                    print(f"pair {pair} {workload} trace {trace} {side}: exit {run['exit']}"
                          f" wall_s {wall.get('value')}", flush=True)
                    # rewritten after every run, so an interrupted record keeps its runs
                    record["summary"] = {w: summarize(record["runs"], w, better)
                                         for w in args.workload}
                    with open(path, "w") as f:
                        json.dump(record, f, indent=1, sort_keys=True)
                        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
