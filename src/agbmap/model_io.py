"""Versioned, self-describing text persistence for fitted models.

Files are canonical JSON (sorted keys, no whitespace variance) so a
save/load/save cycle is byte-identical; floats round-trip exactly through
repr.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .forest import Forest, ForestParams, Tree
from .linear import LinearModel, OneHotEncoder

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


# For each key of a model document, of its forest params and of each tree:
# the JSON types its value may have, then those of the value's items, then
# those of their items (a null value has no items)
_NUM = (int, float)
_NULL = type(None)
_LINEAR_KEYS = {"intercept": (_NUM,), "coefficients": ((dict,), _NUM),
                "selected_features": ((list,), (str,)), "rss": (_NUM,), "bic": (_NUM,),
                "r2": (_NUM,), "n": ((int,),), "raw_features": ((list,), (str,)),
                "encoder": ((dict, _NULL), (list,), _NUM)}
_FOREST_KEYS = {"params": ((dict,),), "seed": ((int, _NULL),), "oob_error": (_NUM,),
                "feature_names": ((list,), (str,)), "categorical": ((list,), (str,)),
                "y_min": (_NUM,), "y_max": (_NUM,), "trees": ((list,), (dict,))}
_PARAMS_KEYS = {"n_trees": ((int,),), "mtry": ((int, _NULL),), "min_leaf": ((int,),),
                "max_depth": ((int, _NULL),)}
_TREE_KEYS = {"feature": ((list,), (int,)), "threshold": ((list,), _NUM),
              "left_cats": ((list,), (list, _NULL), _NUM), "left": ((list,), (int,)),
              "right": ((list,), (int,)), "value": ((list,), _NUM)}


def _check_types(value, types, path, key) -> None:
    """Raise ConfigError naming key unless value is of types[0], each of its
    items of types[1], and so on down."""
    if isinstance(value, bool) or not isinstance(value, types[0]):
        names = " or ".join("null" if t is _NULL else t.__name__ for t in types[0])
        raise ConfigError(f"{path}: model key {key!r} must hold {names}, "
                          f"got {type(value).__name__}")
    if len(types) > 1 and value is not None:
        for item in value.values() if isinstance(value, dict) else value:
            _check_types(item, types[1:], path, key)


def _checked(doc: dict, spec: dict, path, prefix: str = "") -> dict:
    """doc, once every key of spec is present in it with the JSON types spec gives."""
    for key, types in spec.items():
        if key not in doc:
            raise ConfigError(f"{path}: missing model key {prefix + key!r}")
        _check_types(doc[key], types, path, prefix + key)
    return doc


def load_model(path):
    """The model saved at path. A file that is not UTF-8 JSON names path:line,
    and a missing key or a value of the wrong JSON type names the key; both
    raise ConfigError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        line = raw[:e.start].count(b"\n") + 1
        raise ConfigError(f"{path}:{line}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ConfigError(f"not an {FORMAT_TAG} file: {path}")
    if doc.get("version") != VERSION:
        raise ConfigError(f"unsupported model version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind == "linear":
        _checked(doc, _LINEAR_KEYS, path)
        enc = OneHotEncoder({k: list(v) for k, v in doc["encoder"].items()}) \
            if doc["encoder"] else None
        return LinearModel(doc["intercept"], dict(doc["coefficients"]),
                           list(doc["selected_features"]), doc["rss"], doc["bic"],
                           doc["r2"], doc["n"], encoder=enc,
                           raw_features=list(doc["raw_features"]))
    if kind == "forest":
        _checked(doc, _FOREST_KEYS, path)
        params = _checked(doc["params"], _PARAMS_KEYS, path, "params.")
        params = ForestParams(**{k: params[k] for k in _PARAMS_KEYS})
        trees = [Tree.from_dict(_checked(t, _TREE_KEYS, path, f"trees[{i}]."))
                 for i, t in enumerate(doc["trees"])]
        return Forest(trees, list(doc["feature_names"]),
                      frozenset(doc["categorical"]), params, doc["seed"],
                      doc["oob_error"], doc["y_min"], doc["y_max"], inbag=None)
    raise ConfigError(f"unknown model kind {kind!r}")
