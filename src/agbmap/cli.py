"""Command-line surface. One subcommand per pipeline stage; `map` runs the
full chain from a JSON config. Exit codes: 0 success, 1 domain error,
2 usage error."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import pipeline, synth
from .allometry import carbon_stock, load_plots, write_carbon_report
from .errors import AgbmapError, TooFewSamples
from .geostat import (SampleSet, empirical_variogram, fit_exponential, lag_bins,
                      write_variogram_report)
from .linear import save_model
from .pipeline import (_RANGES, RunConfig, calibration_pairs, calibration_sweep,
                       fit_footprint_agb_model, validate_map, write_sweep_csv,
                       write_validation_csv)
from .raster import read_ascii_grid, write_ascii_grid
from .readers import csv_rows, finite
from .textures import MAX_LEVELS, glcm_textures
from .waveform import (DETECT_K, MAX_COMPONENTS, MAX_ELEV_GAP, SNR_MIN, filter_records,
                       process_waveforms, read_metrics_csv, read_waveforms, write_filter_csv,
                       write_metrics_csv)


def _ranged(convert, rule):
    """argparse type: convert(text), which must pass the (test, wording) rule."""
    test, wording = rule

    def parse(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value" names it
    return parse


_SEED = _ranged(int, _RANGES["seed"])
_LENGTH = _ranged(float, _RANGES["variogram_max_lag"])  # finite and > 0
_DISTANCE = _ranged(float, _RANGES["calib_max_dist"])  # a match distance > 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="agbmap",
                                description="Biomass mapping toolchain")
    sub = p.add_subparsers(dest="command", required=True)
    driver = argparse.ArgumentParser(add_help=False)  # filter's and metrics' driver settings
    driver.add_argument("--snr-min", type=_ranged(float, _RANGES["snr_min"]), default=SNR_MIN)
    driver.add_argument("--max-elev-gap", type=_ranged(float, _RANGES["max_elev_gap"]),
                        default=MAX_ELEV_GAP)
    driver.add_argument("--detect-k", type=_ranged(float, _RANGES["detect_k"]), default=DETECT_K)

    s = sub.add_parser("simulate", help="generate a synthetic scene with known truth")
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--config", help="JSON overriding scene-config fields")
    s.add_argument("--full-scale", action="store_true",
                   help="default 50 km scene instead of the fast desk profile")

    s = sub.add_parser("filter", parents=[driver],
                       help="quality-filter waveforms, report keep/reject")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)

    s = sub.add_parser("metrics", parents=[driver],
                       help="extract canopy metrics for kept waveforms")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--dem", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--max-components", type=int, default=MAX_COMPONENTS,
                   choices=range(1, MAX_COMPONENTS + 1))

    s = sub.add_parser("sweep", help="calibration quality vs match distance")
    s.add_argument("--metrics", required=True)
    s.add_argument("--plots", required=True)
    s.add_argument("--trees")
    s.add_argument("--distances", type=_DISTANCE, nargs="+",
                   default=[100, 200, 250, 300, 350, 400])
    s.add_argument("--kfold", type=_ranged(int, _RANGES["kfold"]), default=10)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--out")

    s = sub.add_parser("calibrate", help="fit the footprint AGB model")
    s.add_argument("--metrics", required=True)
    s.add_argument("--plots", required=True)
    s.add_argument("--trees")
    s.add_argument("--max-dist", type=_DISTANCE, default=250.0)
    s.add_argument("--out-model", required=True)

    s = sub.add_parser("map", help="full mapping chain from a run config")
    s.add_argument("--config", required=True)
    s.add_argument("--grid-size", type=_LENGTH, action="append",
                   help="repeatable; overrides the config grid sizes")
    s.add_argument("--trend", choices=["lm", "rf"])
    s.add_argument("--seed", type=_SEED)
    s.add_argument("--out-dir")

    s = sub.add_parser("validate", help="score a map against plots")
    s.add_argument("--map", dest="map_path", required=True)
    s.add_argument("--plots", required=True)
    s.add_argument("--trees")
    s.add_argument("--min-count", type=_ranged(int, _RANGES["min_plots_per_cell"]),
                   default=4)
    s.add_argument("--out")

    s = sub.add_parser("carbon", help="carbon stock of an AGB map")
    s.add_argument("--map", dest="map_path", required=True)
    s.add_argument("--out")

    s = sub.add_parser("variogram", help="empirical variogram plus exponential fit")
    s.add_argument("--samples", required=True, help="CSV with x,y,value columns")
    s.add_argument("--bin-width", type=_LENGTH)
    s.add_argument("--max-lag", type=_LENGTH)
    s.add_argument("--out")

    s = sub.add_parser("textures", help="GLCM texture bands of a grid")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--window", type=_ranged(int, (lambda v: v >= 3 and v % 2, "odd and >= 3")),
                   default=3)
    s.add_argument("--levels", type=_ranged(int, (lambda v: 2 <= v <= MAX_LEVELS,
                                                  f"in 2..{MAX_LEVELS}")), default=32)
    s.add_argument("--out-prefix", required=True)
    return p


@contextlib.contextmanager
def _output(path):
    """The file at path, opened for writing, or stdout when path is None."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as f:
        yield f


def _cmd_simulate(args) -> int:
    scene = synth.generate_scene(synth.scene_config(args.seed, args.full_scale, args.config))
    # absolute paths, so that a copy of the run config elsewhere names the same files
    out = os.path.abspath(args.out)
    paths = synth.write_scene(scene, out)
    run_cfg = {
        "waveforms": paths["waveforms"], "dem": paths["dem"],
        "covariates": paths["covariates"], "plots": paths["plots"],
        "out_dir": f"{out}/run",
        "grid_sizes": [500, 1000, 2000], "trend": "rf", "seed": args.seed,
        # desk scenes plant two Gaussians and need the wider match radius
        "calib_max_dist": 600.0, "n_trees": 150, "max_components": 3,
        "min_plots_per_cell": 2,
    }
    cfg_path = f"{args.out}/run_config.json"
    with open(cfg_path, "w") as f:
        json.dump(run_cfg, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"scene written to {args.out}; run config at {cfg_path}")
    return 0


def _cmd_filter(args) -> int:
    # the filter stage alone: no DEM and no decomposition
    records = read_waveforms(args.infile)
    reasons = filter_records(records, k=args.detect_k, snr_min=args.snr_min,
                             max_elev_gap=args.max_elev_gap)
    with _output(args.out) as f:
        write_filter_csv([w.id for w in records], reasons, f)
    print(f"{reasons.count('')} of {len(reasons)} waveforms kept")
    return 0


def _cmd_metrics(args) -> int:
    reasons, footprints = process_waveforms(
        read_waveforms(args.infile), read_ascii_grid(args.dem), k=args.detect_k,
        max_components=args.max_components, snr_min=args.snr_min, max_elev_gap=args.max_elev_gap)
    with _output(args.out) as f:
        write_metrics_csv(footprints, f)
    print(f"{len(footprints.xy)} of {len(reasons)} waveforms kept; metrics at {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    footprints = read_metrics_csv(args.metrics)
    rows = calibration_sweep(load_plots(args.plots, args.trees), footprints, args.distances,
                             kfold=args.kfold, seed=args.seed)
    with _output(args.out) as f:
        write_sweep_csv(rows, f)
    return 0


def _cmd_calibrate(args) -> int:
    footprints = read_metrics_csv(args.metrics)
    foot_rows, agb = calibration_pairs(load_plots(args.plots, args.trees), footprints,
                                       args.max_dist)
    model = fit_footprint_agb_model(footprints.metrics[foot_rows], agb)
    save_model(model, args.out_model)
    print(f"{len(agb)} pairs; selected {model.selected_features}; "
          f"r2={model.r2:.3f}; model at {args.out_model}")
    return 0


def _cmd_map(args) -> int:
    cfg = RunConfig.from_json(args.config)
    if args.grid_size:
        cfg.grid_sizes = tuple(args.grid_size)
    if args.trend:
        cfg.trend = args.trend
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir:
        cfg.out_dir = args.out_dir
    manifest = pipeline.run_mapping(cfg)
    print(f"run complete; manifest at {cfg.out_dir}/run_manifest.json "
          f"(config hash {manifest['config_hash'][:12]})")
    return 0


def _cmd_validate(args) -> int:
    agb_map = read_ascii_grid(args.map_path)
    plots = load_plots(args.plots, args.trees)
    validation = validate_map(agb_map, plots, args.min_count)
    with _output(args.out) as f:
        write_validation_csv(validation, f)
    return 0


def _cmd_carbon(args) -> int:
    stock = carbon_stock(read_ascii_grid(args.map_path))
    with _output(args.out) as f:
        write_carbon_report(stock, f)
    return 0


def _cmd_variogram(args) -> int:
    rows = csv_rows(args.samples,
                    lambda row: [finite(row[c], c) for c in ("x", "y", "value")])
    table = np.array(rows, dtype=float).reshape(-1, 3)
    samples = SampleSet(table[:, :2], table[:, 2])
    try:
        ev = empirical_variogram(samples, bin_width=args.bin_width, max_lag=args.max_lag)
    except TooFewSamples as e:
        raise TooFewSamples(f"{args.samples}: {e}") from None
    model = fit_exponential(ev)
    with _output(args.out) as f:
        write_variogram_report(ev, model, f)
    return 0


def _cmd_textures(args) -> int:
    grid = read_ascii_grid(args.infile)
    stack = glcm_textures(grid, window=args.window, levels=args.levels)
    for name, band in stack.items():
        write_ascii_grid(band, f"{args.out_prefix}{name}.asc")
    print(f"8 texture bands written with prefix {args.out_prefix}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate, "filter": _cmd_filter, "metrics": _cmd_metrics,
    "sweep": _cmd_sweep, "calibrate": _cmd_calibrate, "map": _cmd_map,
    "validate": _cmd_validate, "carbon": _cmd_carbon,
    "variogram": _cmd_variogram, "textures": _cmd_textures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "variogram" and None not in (args.bin_width, args.max_lag) \
                and lag_bins(args.max_lag, args.bin_width) < 1:
            parser.error(f"argument --max-lag: must be at least half of --bin-width, "
                         f"got {args.max_lag:g} with --bin-width {args.bin_width:g}")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except AgbmapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
