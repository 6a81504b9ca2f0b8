"""Outside-in layer trace for one benchmark run.

The program has no tracer of its own, so the benchmark wraps the public
functions at the points where `agbmap.pipeline` and `agbmap.cli` call them:
every agbmap function imported into `agbmap.pipeline`, the pipeline's own
`run_mapping`, `build_map` and `validate_map`, plus `Forest.predict` and
`LinearModel.predict`. Each wrapped call records a span (name, start, end,
parent, run id) in memory and updates counters at the same boundary; the
spans are written out when the run ends and every wrapper is restored.

Layers are the package modules. Readers and writers (`read_*`, `load_*`,
`write_*`, `save_*`) form the `io` layer whatever module holds them.
Allometry helpers (`carbon_stock`, `plot_agb_density`) take well under a
millisecond per map, stay unwrapped and fold into `pipeline`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import types
from collections import defaultdict

LAYERS = ("waveform", "linear", "forest", "geostat", "raster", "pipeline", "io")
IO_PREFIXES = ("read_", "load_", "write_", "save_")
PIPELINE_SPANS = {"run_mapping": "pipeline.run", "build_map": "pipeline.build_map",
                  "validate_map": "pipeline.validate"}
UNWRAPPED_MODULES = ("agbmap.allometry",)


def span_name(func) -> str | None:
    """Span name of an agbmap function imported into the pipeline, or None
    when the function stays unwrapped (folded into its caller's layer)."""
    name, module = func.__name__, func.__module__
    if not module.startswith("agbmap."):
        return None
    if name.startswith(IO_PREFIXES):
        return f"io.{name}"
    if module in UNWRAPPED_MODULES:
        return None
    return f"{module.split('.', 1)[1]}.{name}"


def _bytes_at(target) -> int:
    """Size of what a writer just produced at `target`: a path or an open
    file (the position after writing)."""
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return int(target.tell())


class Tracer:
    """Spans and counters of one traced run. Single-threaded: the run keeps
    the program's default threads=1, so one stack tracks nesting."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent, run id]; perf_counter s
        self.counts: dict = defaultdict(float)
        self.durations: dict = defaultdict(list)
        self._stack: list = []
        self._restore: list = []

    # ----- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> float:
        self._stack.pop()
        span = self.spans[sid]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def call(self, name: str, func, *args, **kwargs):
        """Run func inside a span called `name`."""
        sid = self._enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._exit(sid)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a spanning wrapper until restore().
        on_return(counts, args, result) updates counters at the boundary;
        args are the call's arguments in parameter order, however passed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer._exit(sid)
            tracer.durations[name].append(seconds)
            tracer.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(tracer.counts, signature.bind(*args, **kwargs).args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ----- analysis --------------------------------------------------------
    def totals(self) -> dict:
        """Inclusive seconds per span name."""
        out: dict = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict:
        """Seconds per span name not covered by its child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return out

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def write(self, f) -> None:
        """Append the spans to an open text file, one JSON object a line."""
        for name, start, end, parent, run in self.spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# counters taken where the work happens

def _count_waveform(counts, args, result):
    counts["waveform.kept"] += bool(result.result.kept)


def _count_forest_fit(counts, args, result):
    counts["forest.trees"] += len(result.trees)
    counts["forest.nodes"] += sum(len(t.feature) for t in result.trees)
    counts["forest.oob_mse_sum"] += result.oob_error


def _count_forest_predict(counts, args, result):
    counts["forest.predict_rows"] += len(result)


def _count_variogram(counts, args, result):
    n = args[0].n
    counts["geostat.variogram_pairs"] += n * (n - 1) // 2


def _count_vfit(counts, args, result):
    # fit_exponential bounds the range at 3 * max_lag
    counts["geostat.vfit_at_bound"] += result.range_m >= 3.0 * args[0].max_lag * (1 - 1e-9)


def _count_krige(counts, args, result):
    counts["geostat.krige_cells"] += int(args[0].valid_mask().sum())


def _count_write(counts, args, result):
    counts["io.bytes_written"] += _bytes_at(args[-1])


# hooks by span name; every writer also counts the bytes it produced
COUNTERS = {
    "waveform.process_waveform": _count_waveform,
    "forest.fit_random_forest": _count_forest_fit,
    "forest.predict": _count_forest_predict,
    "geostat.empirical_variogram": _count_variogram,
    "geostat.fit_exponential": _count_vfit,
    "geostat.regression_krige": _count_krige,
}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the mapping paths cross."""
    from agbmap import pipeline, synth
    from agbmap.forest import Forest
    from agbmap.linear import LinearModel

    for attr, obj in list(vars(pipeline).items()):
        if not isinstance(obj, types.FunctionType):
            continue
        if obj.__module__ == pipeline.__name__:
            name = PIPELINE_SPANS.get(attr)
        else:
            name = span_name(obj)
        if name is None:
            continue
        writer = name.startswith(("io.write_", "io.save_"))
        tracer.wrap(pipeline, attr, name, _count_write if writer else COUNTERS.get(name))
    tracer.wrap(Forest, "predict", "forest.predict", COUNTERS["forest.predict"])
    tracer.wrap(LinearModel, "predict", "linear.predict")
    tracer.wrap(synth, "generate_scene", "synth.generate_scene")
