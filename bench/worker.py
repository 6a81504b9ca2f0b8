"""One benchmark run of one workload, in the process `run.py` starts.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed apart from the measured operations. Each operation runs
between two passes of the reference loop, which probes the host's speed;
operations repeat while one more, at the median durations so far, still
fits in --seconds (there is always at least one), each followed by an
untimed correctness check. `wall_s` is the median over operations of each
one's time, scaled to the nominal host speed by the loops around it. With
--trace 1 the same untraced measurement runs first, then one traced set-up
and the same loop again with every operation under its own layer trace
(`tracing.py`). The last stdout line is the JSON result; the exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy
from agbmap import cli, pipeline, synth
from agbmap.errors import AgbmapError
from agbmap.forest import ForestParams
from agbmap.geostat import SampleSet

from run import THREAD_VARS
from tracing import LAYERS, Tracer, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "out")
SETUP_REPS = 3
# fullscale-rf: 50 trees at 2000 m keep the forest above 80% of an operation
# of about 3 s, so a 35 s run makes about ten operations to take the median of
N_TREES = 50
IMPORT = ("import time; t = time.perf_counter(); import agbmap.cli; "
          "print(time.perf_counter() - t)")
# nominal host speed: about what reference_loop() takes on the baseline host
# of DESIGN.md; wall_s is operation time at that speed
REF_LOOP_S = 0.2
REF_PASSES = 7
REF_ITERS = 800
_REF = np.random.default_rng(2016)
_REF_A = _REF.standard_normal((33, 33))
_REF_SPD = _REF_A @ _REF_A.T + 33 * np.eye(33)
_REF_V = _REF.random(300)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# independent readers and scoring (no agbmap code on the checking side)

def read_grid(path) -> dict:
    """ESRI ASCII grid as {values, x0, y0, cellsize, nodata}."""
    header = {}
    with open(path) as f:
        for _ in range(6):
            key, value = f.readline().split()
            header[key.lower()] = float(value)
        values = np.loadtxt(f, ndmin=2)
    return {"values": values, "x0": header["xllcorner"], "y0": header["yllcorner"],
            "cellsize": header["cellsize"], "nodata": header["nodata_value"]}


def grid_of(g) -> dict:
    return {"values": g.values, "x0": g.origin_x, "y0": g.origin_y,
            "cellsize": g.cellsize, "nodata": g.nodata}


def errors_vs_truth(agb: dict, truth: dict) -> np.ndarray:
    """Error of each scored map cell against the planted truth averaged over
    that cell. Raises CheckFailed when a valid map cell is not finite."""
    vals = agb["values"]
    valid = vals != agb["nodata"]
    if not np.all(np.isfinite(vals[valid])):
        raise CheckFailed("map has non-finite values on valid cells")
    if not valid.any():
        raise CheckFailed("map has no valid cell")
    nr, nc = vals.shape
    t = truth["values"]
    tr, tc = np.indices(t.shape)
    x = truth["x0"] + (tc + 0.5) * truth["cellsize"]
    y = truth["y0"] + (t.shape[0] - tr - 0.5) * truth["cellsize"]
    col = np.floor((x - agb["x0"]) / agb["cellsize"]).astype(int)
    row = nr - 1 - np.floor((y - agb["y0"]) / agb["cellsize"]).astype(int)
    inside = (row >= 0) & (row < nr) & (col >= 0) & (col < nc)
    idx = (row * nc + col)[inside]
    sums = np.bincount(idx, t[inside], nr * nc)
    cnt = np.bincount(idx, minlength=nr * nc)
    with np.errstate(invalid="ignore", divide="ignore"):
        block = (sums / cnt).reshape(nr, nc)
    score = valid & (cnt.reshape(nr, nc) > 0)
    return vals[score] - block[score]


def rmse(errors) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def add_rmse(values: dict, errors_by_grid: dict) -> None:
    """rmse_truth_<grid> for each grid, and rmse_truth over the cells of
    every grid together."""
    for t, errors in errors_by_grid.items():
        values[f"rmse_truth_{t}"] = rmse(errors)
    values["rmse_truth"] = rmse(np.concatenate(list(errors_by_grid.values())))


def tag(size: float) -> str:
    return "%g" % size


# ---------------------------------------------------------------------------
# workloads

class DeskMap:
    """`agbmap map` in process on the scene of `agbmap simulate --seed N`."""

    def __init__(self, seed, workdir, scene_overrides=None):
        self.seed = seed
        self.workdir = workdir
        self.scene_overrides = scene_overrides or {}
        self.config = None

    def setup(self, rep: int) -> None:
        out = os.path.join(self.workdir, f"scene{rep}")
        argv = ["simulate", "--seed", str(self.seed), "--out", out]
        if self.scene_overrides:
            path = os.path.join(self.workdir, "scene_overrides.json")
            with open(path, "w") as f:
                json.dump(self.scene_overrides, f)
            argv += ["--config", path]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise CheckFailed(f"agbmap simulate exited {rc}")
        self.config = os.path.join(out, "run_config.json")

    def prepare(self) -> None:
        """Untimed: the scene object the checks score against."""
        self.scene = synth.generate_scene(
            synth.small_config(seed=self.seed, **self.scene_overrides))
        with open(self.config) as f:
            self.grid_sizes = [float(g) for g in json.load(f)["grid_sizes"]]

    def op(self, label):
        out = os.path.join(self.workdir, f"run{label}")
        argv = ["map", "--config", self.config, "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return {"rc": rc, "out": out}

    def attempted(self) -> int:
        return self.scene.config.n_footprints + len(self.grid_sizes)

    def check(self, result) -> dict:
        """Accuracy values of one operation; CheckFailed on a wrong output."""
        if result["rc"] != 0:
            raise CheckFailed(f"agbmap map exited {result['rc']}")
        out = result["out"]
        with open(os.path.join(out, "run_manifest.json")) as f:
            manifest = json.load(f)
        missing = [p for p in manifest["outputs"]
                   if not os.path.isfile(os.path.join(out, p))]
        if missing:
            raise CheckFailed(f"manifest lists missing artifacts {missing}")
        tel = manifest["telemetry"]
        n = self.scene.config.n_footprints
        if tel["n_waveforms"] != n:
            raise CheckFailed(f"n_waveforms {tel['n_waveforms']} != {n}")
        planted = dict(Counter(self.scene.expected_rejects.values()))
        if tel["rejects"] != planted:
            raise CheckFailed(f"rejects {tel['rejects']} != planted {planted}")
        with open(os.path.join(out, "filter.csv"), newline="") as f:
            for row in csv.DictReader(f):
                wrong = (row["kept"] == "0") != (row["id"] in self.scene.expected_rejects)
                if wrong:
                    raise CheckFailed(f"footprint {row['id']} filtered wrongly")
        err = []
        with open(os.path.join(out, "metrics.csv"), newline="") as f:
            for row in csv.DictReader(f):
                err.append(abs(float(row["tch"]) - self.scene.footprint_truth[row["id"]][1]))
        values = {"tch_mae_m": float(np.mean(err)),
                  "calib_cv_rmse": float(tel["calibration"]["cv_rmse"])}
        truth = grid_of(self.scene.truth_agb)
        errors = {}
        for size in self.grid_sizes:
            t = tag(size)
            if tel["maps"][t]["warning"]:
                raise CheckFailed(f"{t} m map fell back: {tel['maps'][t]['warning']}")
            errors[t] = errors_vs_truth(read_grid(os.path.join(out, f"agb_{t}.asc")), truth)
        add_rmse(values, errors)
        shutil.rmtree(out)
        return values


class FullScale:
    """`pipeline.build_map` on the full-scale scene, with the scene's planted
    footprint AGB as the samples and N_TREES trees."""

    def __init__(self, seed, workdir, trend, grid_sizes, scene_overrides=None):
        self.seed = seed
        self.workdir = workdir
        self.trend = trend
        self.grid_sizes = [float(g) for g in grid_sizes]
        self.scene_overrides = scene_overrides or {}

    def setup(self, rep: int) -> None:
        self.scene = synth.generate_scene(
            synth.SceneConfig(seed=self.seed, **self.scene_overrides))

    def prepare(self) -> None:
        """Untimed: the planted footprint AGB as the samples to map."""
        fps = self.scene.footprints
        xy = np.array([[w.lon, w.lat] for w in fps])
        agb = np.array([self.scene.footprint_truth[w.id][0] for w in fps])
        self.samples = SampleSet(xy, agb)

    def op(self, label):
        products = {}
        for size in self.grid_sizes:
            try:
                products[size] = pipeline.build_map(
                    self.samples, self.scene.covariates, size, self.trend,
                    seed=self.seed, forest_params=ForestParams(n_trees=N_TREES))
            except AgbmapError as e:
                products[size] = e
        return products

    def attempted(self) -> int:
        return len(self.grid_sizes)

    def check(self, products) -> dict:
        truth = grid_of(self.scene.truth_agb)
        errors = {}
        for size, product in products.items():
            t = tag(size)
            if isinstance(product, Exception):
                raise CheckFailed(f"{t} m build_map raised {product!r}")
            if product.warning:
                raise CheckFailed(f"{t} m map fell back: {product.warning}")
            errors[t] = errors_vs_truth(grid_of(product.agb), truth)
        values = {}
        add_rmse(values, errors)
        return values


WORKLOADS = {
    "desk-map": lambda seed, wd: DeskMap(seed, wd),
    "fullscale-rf": lambda seed, wd: FullScale(seed, wd, "rf", (2000,)),
    "fullscale-krige": lambda seed, wd: FullScale(seed, wd, "lm", (500,)),
}


# ---------------------------------------------------------------------------
# references, machine record, per-layer metrics

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_reference(workload: str, seed: int, accuracy: dict, bound: float) -> None:
    """Accuracy within `bound` of the value recorded for this seed; for a
    seed with no record, within `bound` of the range recorded over all."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload, {})
    for name, value in accuracy.items():
        by_seed = ref.get(name)
        if not by_seed:
            raise CheckFailed(f"no recorded reference for {workload} {name}")
        if str(seed) in by_seed:
            lo = hi = by_seed[str(seed)]
        else:
            lo, hi = min(by_seed.values()), max(by_seed.values())
        if not (lo * (1 - bound) <= value <= hi * (1 + bound)):
            raise CheckFailed(f"{name} = {value:.4g} outside {bound:.0%} of "
                              f"reference [{lo:.4g}, {hi:.4g}]")


def record_reference(workload: str, seed: int, accuracy: dict) -> None:
    path = os.path.join(HERE, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    for name, value in accuracy.items():
        ref.setdefault(workload, {}).setdefault(name, {})[str(seed)] = round(value, 6)
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def machine_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def ratio(a: float, b: float) -> float:
    """a / b, or 0 where the layer did no work."""
    return a / b if b else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    tot = tracer.totals()
    own = tracer.self_times()
    c = tracer.counts
    wf_ms = [1e3 * s for s in tracer.durations["waveform.process_waveform"]]
    wf_calls = c["waveform.process_waveform.calls"]
    fit_s, fit_calls = tot["forest.fit_random_forest"], c["forest.fit_random_forest.calls"]
    krige_s = tot["geostat.regression_krige"]
    m = {
        "waveform.busy_s": tot["waveform.process_waveform"],
        "waveform.calls": wf_calls,
        "waveform.ms_p50": float(np.percentile(wf_ms, 50)) if wf_ms else 0.0,
        "waveform.ms_p975": float(np.percentile(wf_ms, 97.5)) if wf_ms else 0.0,
        "waveform.kept_ratio": ratio(c["waveform.kept"], wf_calls),
        "forest.fit_s": fit_s,
        "forest.fit_calls": fit_calls,
        "forest.s_per_100_trees": ratio(100 * fit_s, c["forest.trees"]),
        "forest.nodes": c["forest.nodes"],
        "forest.predict_s": tot["forest.predict"],
        "forest.predict_rows": c["forest.predict_rows"],
        "forest.oob_mse": ratio(c["forest.oob_mse_sum"], fit_calls),
        "geostat.krige_s": krige_s,
        "geostat.krige_cells": c["geostat.krige_cells"],
        "geostat.krige_us_per_cell": ratio(1e6 * krige_s, c["geostat.krige_cells"]),
        "geostat.variogram_s": tot["geostat.empirical_variogram"],
        "geostat.variogram_pairs": c["geostat.variogram_pairs"],
        "geostat.vfit_s": tot["geostat.fit_exponential"],
        "geostat.vfit_at_bound": c["geostat.vfit_at_bound"],
        "linear.stepwise_s": tot["linear.stepwise_bic"],
        "linear.stepwise_calls": c["linear.stepwise_bic.calls"],
        "linear.cv_s": tot["linear.kfold_cv"],
        "raster.resample_s": tot["raster.resample"],
        "raster.match_s": tot["raster.match_points"],
        "io.read_s": sum((s for n, s in tot.items()
                          if n.startswith(("io.read_", "io.load_"))), 0.0),
        "io.write_s": sum((s for n, s in tot.items()
                           if n.startswith(("io.write_", "io.save_"))), 0.0),
        "io.bytes_written": c["io.bytes_written"],
        "pipeline.build_map_self_s": own["pipeline.build_map"],
        "pipeline.run_self_s": own["pipeline.run"],
        "pipeline.validate_s": tot["pipeline.validate"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for layer, seconds in tracer.layer_self().items():
        m[f"{layer}.self_s"] = seconds
    return m


# ---------------------------------------------------------------------------
# the run

def reference_loop() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter work
    that runs no agbmap code: a probe of how fast the host runs right now.
    The median of REF_PASSES short passes, times REF_PASSES, so that a
    stall shorter than one pass does not count as a slow host."""
    passes = []
    for _ in range(REF_PASSES):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(REF_ITERS):
            acc += float(np.cumsum(_REF_V[np.argsort(_REF_V)])[-1])
            acc += float(np.linalg.solve(_REF_SPD, _REF_V[:33]).sum())
            counts = {}
            for j in range(100):
                counts[j % 7] = counts.get(j % 7, 0.0) + j
            acc += counts[0]
        passes.append(time.perf_counter() - t0)
    return REF_PASSES * float(np.median(passes))


def import_times() -> list:
    """agbmap import time (numpy and scipy included), once per set-up
    repetition, each inside a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return times


def measure(wl, seconds: float, run_id: str | None = None):
    """Operations, each between two passes of the reference loop, while one
    more at the median durations so far fits in `seconds` (at least one),
    each checked untimed, until a check fails. With a run_id every
    operation runs under its own layer trace. Returns (walls, reference
    loop times (one more than walls), accuracy medians, problems,
    attempted, tracers)."""
    walls, probes, accuracy, problems, tracers = [], [], {}, [], []
    attempted = 0
    while not walls or (sum(walls) + sum(probes) + float(np.median(walls))
                        + 2 * float(np.median(probes)) <= seconds):
        label = len(walls)
        probes.append(reference_loop())
        if run_id is None:
            t0 = time.perf_counter()
            result = wl.op(label)
        else:
            tracer = Tracer(f"{run_id}-op{label}")
            tracers.append(tracer)
            instrument(tracer)
            try:
                t0 = time.perf_counter()
                result = tracer.call("bench.op", wl.op, f"traced{label}")
            finally:
                tracer.restore()
        walls.append(time.perf_counter() - t0)
        attempted += wl.attempted()
        try:
            for k, v in wl.check(result).items():
                accuracy.setdefault(k, []).append(v)
        except CheckFailed as e:
            problems.append(str(e))
            break  # the run has failed; a fast failing operation must not spin
        del result
    probes.append(reference_loop())
    accuracy = {k: float(np.median(v)) for k, v in accuracy.items()}
    return walls, probes, accuracy, problems, attempted, tracers


def traced_setup(wl, run_id: str):
    """One more set-up under the layer trace; returns its tracer."""
    tracer = Tracer(f"{run_id}-setup")
    instrument(tracer)
    try:
        wl.setup(SETUP_REPS)
    finally:
        tracer.restore()
    return tracer


def run(workload_name, wl, seed, seconds, trace, import_s, out=sys.stdout,
        reference=True, record=False) -> int:
    """Measure one workload and print the report; returns the exit code.
    import_s: agbmap import times, one per set-up repetition."""
    bench = load_benchmark()
    bound = max(m["bound"] for m in bench["end_to_end"] if m["name"].startswith("rmse_truth"))
    os.makedirs(wl.workdir, exist_ok=True)

    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(rep)
        setup_times.append(time.perf_counter() - t0)
    wl.prepare()

    walls, probes, accuracy, problems, attempted, _ = measure(wl, seconds)
    if record:
        record_reference(workload_name, seed, accuracy)
    if reference and not problems:
        try:
            check_reference(workload_name, seed, accuracy, bound)
        except CheckFailed as e:
            problems.append(str(e))
    wall = float(np.median(walls))
    probe = float(np.median(probes))
    # each operation at the host speed of the loops on either side of it
    scaled = [REF_LOOP_S * w / ((before + after) / 2)
              for w, before, after in zip(walls, probes, probes[1:])]

    values, split = {}, ""
    if trace:
        run_id = f"{workload_name}-seed{seed}"
        setup_tracer = traced_setup(wl, run_id)
        twalls, _, _, tproblems, tattempted, tracers = measure(wl, seconds, run_id)
        attempted += tattempted
        problems += [f"traced run: {p}" for p in tproblems]
        with open(os.path.join(wl.workdir, "spans.jsonl"), "w") as f:
            for tracer in [setup_tracer] + tracers:
                tracer.write(f)
        # per-layer times are medians over the traced operations; counts
        # repeat exactly from one operation to the next
        per_op = [layer_metrics(t, w, wall) for t, w in zip(tracers, twalls)]
        values = {k: float(np.median([m[k] for m in per_op])) for k in per_op[0]}
        values["synth.generate_s"] = setup_tracer.totals()["synth.generate_scene"]
        values["bench.raw_wall_s"] = wall
        values["bench.ref_loop_s"] = probe
        values["waveform.tch_mae_m"] = accuracy.get("tch_mae_m", 0.0)
        values["linear.calib_cv_rmse"] = accuracy.get("calib_cv_rmse", 0.0)
        traced_wall = values["trace.wall_s"]
        shares = sorted(((layer, values[f"{layer}.self_s"]) for layer in LAYERS),
                        key=lambda kv: -kv[1])
        split = (f"layer split of {len(twalls)} traced op(s), median {traced_wall:.3f} s: "
                 + " ".join(f"{k} {100 * v / traced_wall:.1f}%" for k, v in shares))

    failed = attempted if problems else 0
    values.update({
        "wall_s": float(np.median(scaled)),
        "setup_s": float(np.median(np.add(import_s, setup_times))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        # a run whose checks failed may have no map to score
        "rmse_truth": accuracy.get("rmse_truth", 0.0),
    })
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    machine = machine_record()

    print(f"workload {workload_name} seed {seed}: {len(walls)} timed op(s), "
          f"correct={not problems}", file=out)
    print(f"host speed: median op {wall:.4g} s, reference loop {probe:.4g} s "
          f"(nominal {REF_LOOP_S} s)", file=out)
    print("machine " + json.dumps(machine, sort_keys=True), file=out)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=out)
    for name, value in sorted(accuracy.items()):
        if name in metrics:
            continue
        unit = "m" if name == "tch_mae_m" else "Mg/ha"
        print(f"  {name} {value:.6g} {unit}", file=out)
    print(f"  fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})", file=out)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}", file=out)
    if split:
        print(split, file=out)
    with open(os.path.join(wl.workdir, "result.json"), "w") as f:
        json.dump({"workload": workload_name, "seed": seed, "op_walls_s": walls,
                   "ref_loop_s": probes,
                   "setup_reps_s": setup_times, "import_s": import_s,
                   "accuracy": accuracy, "problems": problems, "machine": machine,
                   "metrics": metrics}, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's accuracy as the reference for its seed")
    args = p.parse_args(argv)
    import_s = import_times()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    return run(args.workload, wl, args.seed, args.seconds, args.trace, import_s,
               record=args.record_reference)


if __name__ == "__main__":
    sys.exit(main())
