#!/usr/bin/env python3
"""Check that two source checkouts write the same scene and run files.

In each checkout in turn, runs `agbmap simulate` and then `agbmap map` on
the run config it writes, both in one scratch directory, so that the
absolute paths in run_config.json and the manifest's out_dir and
config_hash come out the same on both sides. Then compares every file of
the two output trees byte for byte, prints each one that differs or
exists on one side only, and exits 1 if there is any.

    python3 scripts/same_outputs.py --parent ../parent --change . --seed 3 --full-scale
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_side(src: Path, work: Path, args) -> None:
    """simulate + map with the package under src/src, writing into work."""
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    simulate = ["simulate", "--seed", str(args.seed), "--out", str(work)]
    simulate += ["--full-scale"] * args.full_scale
    for argv in (simulate, ["map", "--config", str(work / "run_config.json")]):
        subprocess.run([sys.executable, "-m", "agbmap.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="the changed checkout")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--full-scale", action="store_true")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp, work = Path(tmp), Path(tmp) / "work"
        for side in ("parent", "change"):
            run_side(getattr(args, side).resolve(), work, args)
            work.rename(tmp / side)
        names = {p.relative_to(tmp / side) for side in ("parent", "change")
                 for p in (tmp / side).rglob("*") if p.is_file()}
        differ = [str(n) for n in sorted(names)
                  if not (tmp / "parent" / n).is_file() or not (tmp / "change" / n).is_file()
                  or not filecmp.cmp(tmp / "parent" / n, tmp / "change" / n, shallow=False)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names)} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
