#!/usr/bin/env python3
"""Simulate a desk-scale scene and run the full mapping chain on it.

Produces a scene with known truth, maps it at 500/1000/2000 m with the
random-forest trend plus residual kriging, and scores every map against
the withheld truth surface.

    python scripts/run_desk_demo.py --seed 7 --out /tmp/demo
"""

import argparse
import json
import sys

import numpy as np

from agbmap.pipeline import RunConfig, run_mapping
from agbmap.raster import read_ascii_grid, resample
from agbmap.synth import generate_scene, small_config, write_scene


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="/tmp/agbmap_demo")
    ap.add_argument("--trend", choices=["lm", "rf"], default="rf")
    args = ap.parse_args()

    scene = generate_scene(small_config(seed=args.seed))
    paths = write_scene(scene, args.out)
    cfg = RunConfig(
        waveforms=paths["waveforms"], dem=paths["dem"],
        covariates=paths["covariates"], plots=paths["plots"],
        out_dir=f"{args.out}/run", grid_sizes=(500.0, 1000.0, 2000.0),
        trend=args.trend, seed=args.seed, calib_max_dist=600.0,
        max_components=3, n_trees=150, min_plots_per_cell=2)
    manifest = run_mapping(cfg)

    cal = manifest["telemetry"]["calibration"]
    print(f"\nfootprint model: {cal['n_pairs']} pairs, "
          f"CV r2={cal['cv_r2']:.3f}, rmse={cal['cv_rmse']:.1f} Mg/ha, "
          f"selected {cal['selected']}")
    print(f"{'grid':>6} {'vs plots rmsep':>15} {'r2':>6} {'vs truth rmse':>14}")
    truth = read_ascii_grid(paths["truth"])
    for tag, info in sorted(manifest["telemetry"]["maps"].items(), key=lambda kv: float(kv[0])):
        agb = read_ascii_grid(f"{args.out}/run/agb_{tag}.asc")
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
