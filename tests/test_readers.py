"""One-byte corruptions of the three JSON documents: the run config, the scene
overrides of `agbmap simulate --config` and a saved forest. Each reader
either returns or raises ConfigError, and a forest it returns predicts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agbmap.errors import ConfigError
from agbmap.forest import Forest, ForestParams, NodeTable
from agbmap.model_io import load_model, save_model
from agbmap.pipeline import RunConfig
from agbmap.synth import scene_config

RUN_CONFIG = {"waveforms": "s/waveforms.ndjson", "dem": "s/dem.asc",
              "covariates": {"cov1": "s/cov1.asc", "cov2": "s/cov2.asc"},
              "plots": "s/plots.csv", "out_dir": "s/run", "grid_sizes": [500, 1000, 2000],
              "trend": "rf", "seed": 7, "calib_max_dist": 600.0, "n_trees": 150,
              "max_components": 3, "min_plots_per_cell": 2, "variogram_max_lag": None}
SCENE = {"n_footprints": 150, "n_plots": 260, "extent": 10_000.0,
         "sat_violation_rate": 0.04, "trend_coefficients": [60.0, -40.0, 25.0]}


def _read_forest(path):
    model = load_model(path)
    model.predict(np.zeros((1, len(model.feature_names))))


READERS = {"run config": RunConfig.from_json,
           "scene overrides": lambda path: scene_config(7, False, path),
           "forest": _read_forest}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Name -> (bytes of the valid document, a directory for corrupt copies)."""
    out = tmp_path_factory.mktemp("readers")
    # small hand-made trees, so that most bytes are node indices and features
    tree = {"feature": [0, 1, -1, -1, -1], "threshold": [0.5, -0.5, 0, 0, 0],
            "left_cats": [None] * 5, "left": [1, 3, -1, -1, -1], "right": [2, 4, -1, -1, -1],
            "value": [2, 1, 3, 0, 2]}
    save_model(Forest(NodeTable.from_trees([tree] * 3), ["x0", "x1"], frozenset(),
                      ForestParams(n_trees=3), 4, 1.0, 0, 3), out / "forest.json")
    (out / "run config.json").write_text(json.dumps(RUN_CONFIG, indent=1))
    (out / "scene overrides.json").write_text(json.dumps(SCENE))
    docs = {}
    for name, read in READERS.items():
        read(out / f"{name}.json")  # the intact document reads
        docs[name] = ((out / f"{name}.json").read_bytes(), out)
    return docs


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(op=st.sampled_from(["replace", "insert", "delete"]), at=st.integers(0, 2 ** 16),
       byte=st.one_of(st.sampled_from(b'0123456789-'), st.integers(0, 255)))
def test_one_byte_corruption_reads_or_raises_config_error(intact, name, op, at, byte):
    data, out = intact[name]
    at %= len(data) + (op == "insert")
    new = b"" if op == "delete" else bytes([byte])
    path = out / "corrupt.json"
    path.write_bytes(data[:at] + new + data[at + (op != "insert"):])
    try:
        READERS[name](path)
    except ConfigError:
        pass
