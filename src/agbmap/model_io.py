"""Versioned, self-describing text persistence for fitted models.

Files are canonical JSON (sorted keys, no whitespace variance) so a
save/load/save cycle is byte-identical; floats round-trip exactly through
repr.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .forest import Forest, ForestParams, NodeTable
from .linear import LinearModel, OneHotEncoder
from .readers import check_fields, check_keys, read_json

FORMAT_TAG = "agbmap-model"
VERSION = 1


def _dump(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def save_model(model, path) -> None:
    if isinstance(model, LinearModel):
        doc = {
            "format": FORMAT_TAG, "version": VERSION, "kind": "linear",
            "intercept": model.intercept,
            "coefficients": model.coefficients,
            "selected_features": model.selected_features,
            "rss": model.rss, "bic": model.bic, "r2": model.r2, "n": model.n,
            "raw_features": model.raw_features,
            "encoder": model.encoder.levels if model.encoder else None,
        }
    elif isinstance(model, Forest):
        doc = {
            "format": FORMAT_TAG, "version": VERSION, "kind": "forest",
            "params": {"n_trees": model.params.n_trees, "mtry": model.params.mtry,
                       "min_leaf": model.params.min_leaf,
                       "max_depth": model.params.max_depth},
            "seed": model.seed, "oob_error": model.oob_error,
            "feature_names": model.feature_names,
            "categorical": sorted(model.categorical),
            "y_min": model.y_min, "y_max": model.y_max,
            "trees": [t.to_dict() for t in model.trees],
        }
    else:
        raise ConfigError(f"cannot persist model of type {type(model).__name__}")
    _dump(doc, path)


# For each key of a model document and of each tree: the JSON types its
# value may have, then those of the value's items, then those of their items
# (a null value has no items)
_NUM = (int, float)
_NULL = type(None)
_LINEAR_KEYS = {"intercept": (_NUM,), "coefficients": ((dict,), _NUM),
                "selected_features": ((list,), (str,)), "rss": (_NUM,), "bic": (_NUM,),
                "r2": (_NUM,), "n": ((int,),), "raw_features": ((list,), (str,)),
                "encoder": ((dict, _NULL), (list,), _NUM)}
_FOREST_KEYS = {"params": ((dict,),), "seed": ((int, _NULL),), "oob_error": (_NUM,),
                "feature_names": ((list,), (str,)), "categorical": ((list,), (str,)),
                "y_min": (_NUM,), "y_max": (_NUM,), "trees": ((list,), (dict,))}
_TREE_KEYS = {"feature": ((list,), (int,)), "threshold": ((list,), _NUM),
              "left_cats": ((list,), (list, _NULL), _NUM), "left": ((list,), (int,)),
              "right": ((list,), (int,)), "value": ((list,), _NUM)}


def _tree(doc: dict, n_features: int, path, key: str) -> dict:
    """The tree doc, once it holds every tree key, its node lists have one
    length >= 1, and each inner node splits on one of n_features features
    and has both children after it and inside the tree; a ConfigError names
    the key otherwise."""
    check_keys(doc, _TREE_KEYS, path, key + ".")
    n = len(doc["feature"])
    if n == 0:
        raise ConfigError(f"{path}: key '{key}.feature' must be a non-empty list, got []")
    for name in _TREE_KEYS:
        if len(doc[name]) != n:
            raise ConfigError(f"{path}: key '{key}.{name}' must be a list of {n} nodes, "
                              f"got {len(doc[name])}")
    # children after their parent rule out cycles, so predict ends at a leaf
    for k, feature in enumerate(doc["feature"]):
        if feature >= n_features:
            raise ConfigError(f"{path}: key '{key}.feature[{k}]' must be "
                              f"< {n_features}, got {feature}")
        for name in ("left", "right"):
            child = doc[name][k]
            if feature >= 0 and not k < child < n:
                raise ConfigError(f"{path}: key '{key}.{name}[{k}]' must be "
                                  f"in {k + 1}..{n - 1}, got {child}")
    return doc


def load_model(path):
    """The model saved at path. A file that is not UTF-8 JSON names path:line,
    and a missing key, a value of the wrong JSON type or a tree that is not
    a breadth-first node table names the key; all raise ConfigError."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ConfigError(f"{path}: not an {FORMAT_TAG} file")
    if doc.get("version") != VERSION:
        raise ConfigError(f"{path}: key 'version' must be {VERSION}, got {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind == "linear":
        check_keys(doc, _LINEAR_KEYS, path)
        enc = OneHotEncoder({k: list(v) for k, v in doc["encoder"].items()}) \
            if doc["encoder"] else None
        return LinearModel(doc["intercept"], dict(doc["coefficients"]),
                           list(doc["selected_features"]), doc["rss"], doc["bic"],
                           doc["r2"], doc["n"], encoder=enc,
                           raw_features=list(doc["raw_features"]))
    if kind == "forest":
        check_keys(doc, _FOREST_KEYS, path)
        params = check_fields(ForestParams, doc["params"], path, prefix="params.",
                              required=tuple(ForestParams.__dataclass_fields__))
        if not doc["trees"]:
            raise ConfigError(f"{path}: key 'trees' must be a non-empty list, got []")
        n_features = len(doc["feature_names"])
        trees = [_tree(t, n_features, path, f"trees[{i}]") for i, t in enumerate(doc["trees"])]
        return Forest(NodeTable.from_trees(trees), list(doc["feature_names"]),
                      frozenset(doc["categorical"]), ForestParams(**params), doc["seed"],
                      doc["oob_error"], doc["y_min"], doc["y_max"], inbag=None)
    raise ConfigError(f"{path}: key 'kind' must be 'linear' or 'forest', got {kind!r}")
