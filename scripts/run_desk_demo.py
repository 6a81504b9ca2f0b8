#!/usr/bin/env python3
"""Simulate a desk-scale scene and run the full mapping chain on it.

Produces a scene with known truth, maps it at 500/1000/2000 m with the
random-forest trend plus residual kriging, and scores every map against
the withheld truth surface.

    python scripts/run_desk_demo.py --seed 7 --out /tmp/demo
"""

import argparse
import os
import sys

import numpy as np

from agbmap.cli import main as agbmap
from agbmap.pipeline import RunConfig, run_mapping
from agbmap.raster import read_ascii_grid, resample


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="/tmp/agbmap_demo")
    ap.add_argument("--trend", choices=["lm", "rf"], default="rf")
    args = ap.parse_args()

    # `agbmap simulate` writes the scene and the desk run config it maps with
    if agbmap(["simulate", "--seed", str(args.seed), "--out", args.out]) != 0:
        return 1
    cfg = RunConfig.from_json(os.path.join(args.out, "run_config.json"))
    cfg.trend = args.trend
    manifest = run_mapping(cfg)

    cal = manifest["telemetry"]["calibration"]
    print(f"\nfootprint model: {cal['n_pairs']} pairs, "
          f"CV r2={cal['cv_r2']:.3f}, rmse={cal['cv_rmse']:.1f} Mg/ha, "
          f"selected {cal['selected']}")
    print(f"{'grid':>6} {'vs plots rmsep':>15} {'r2':>6} {'vs truth rmse':>14}")
    truth = read_ascii_grid(os.path.join(args.out, "truth_agb.asc"))
    for tag, info in sorted(manifest["telemetry"]["maps"].items(), key=lambda kv: float(kv[0])):
        agb = read_ascii_grid(os.path.join(cfg.out_dir, f"agb_{tag}.asc"))
        factor = int(round(agb.cellsize / truth.cellsize))
        coarse = resample(truth, factor) if factor > 1 else truth
        mask = agb.valid_mask() & coarse.valid_mask()
        rmse = float(np.sqrt(np.mean((agb.values[mask] - coarse.values[mask]) ** 2)))
        v = info["validation"] or {"rmsep": float("nan"), "r2": float("nan")}
        print(f"{tag:>6} {v['rmsep']:>15.1f} {v['r2']:>6.2f} {rmse:>14.1f}")
    print(f"\nartifacts under {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
