#!/usr/bin/env python3
"""Distance-vs-quality trade-off for plot/footprint calibration.

Footprints cover only the west half of the scene, so widening the match
radius first adds nearby pairs and then increasingly decorrelated ones;
the table shows the pair count rising while the CV r2 falls off.

    python scripts/distance_sweep_experiment.py --seed 5
"""

import argparse
import sys

from agbmap.pipeline import calibration_sweep
from agbmap.synth import generate_scene, small_config
from agbmap.waveform import process_waveforms


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--distances", type=float, nargs="+",
                    default=[300, 600, 1000, 2000, 4000, 9000])
    args = ap.parse_args()

    cfg = small_config(seed=args.seed, n_footprints=600, n_plots=500,
                       canopy_noise_sd=0.4, plot_noise_sd=6.0,
                       residual_psill=4000.0, residual_range=2000.0,
                       trend_coefficients=(15.0, -10.0, 8.0))
    scene = generate_scene(cfg)
    west = [w for w in scene.footprints if w.lon < cfg.extent / 2]
    _, footprints = process_waveforms(west, scene.dem, max_components=3)
    print(f"{len(footprints.xy)} footprints with metrics (west half only)")
    rows = calibration_sweep(scene.plots, footprints, args.distances, kfold=5,
                             seed=args.seed)
    print(f"{'max_dist':>9} {'n_pairs':>8} {'r2':>7} {'rmse':>7}")
    for r in rows:
        print(f"{r.max_dist:>9.0f} {r.n_pairs:>8d} {r.r2:>7.3f} {r.rmse:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
