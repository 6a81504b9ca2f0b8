"""The one place input files are decoded and JSON documents checked.

Every input but the line-streamed waveform NDJSON is read here as UTF-8,
and a byte that is not UTF-8 names path:line. A JSON value of the wrong
type or out of range fails as `<path>: key '<name>' must be <types>, got
<value repr>`; an item of a list or dict value is named `key[i]`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import reprlib

from .errors import BadRecord, ConfigError

_NULL = type(None)
# JSON types accepted for each dataclass annotation
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "dict": (dict,),
               "tuple": (list,), "None": (_NULL,)}
POSITIVE = (lambda v: v > 0, "> 0")  # a (test, wording) rule of finite and check_fields


def read_text(path, error) -> str:
    """The UTF-8 text of the file at path; a byte that is not UTF-8 raises
    error (an exception class) naming path:line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = raw.count(b"\n", 0, e.start) + 1
        raise error(f"{path}:{line_no}: {e}") from None


def csv_rows(path, parse) -> list:
    """parse(row) for each data row of a CSV file, rows as header-keyed dicts.

    A byte that is not UTF-8, a row that lacks a column or a value parse
    cannot convert raises BadRecord naming path:line.
    """
    out = []
    reader = csv.DictReader(io.StringIO(read_text(path, BadRecord), newline=""))
    for row in reader:
        try:
            out.append(parse(row))
        except KeyError as e:
            raise BadRecord(f"{path}:{reader.line_num}: missing column {e}") from None
        except (ValueError, TypeError) as e:
            raise BadRecord(f"{path}:{reader.line_num}: {e}") from None
    return out


def finite(value, name, rule=None) -> float:
    """float(value); a NaN, an infinity or a value outside the (test,
    wording) rule raises ValueError naming name."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if rule is not None and not rule[0](out):
        raise ValueError(f"{name} must be {rule[1]}, got {value!r}")
    return out


def read_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 JSON
    raises ConfigError naming path:line."""
    try:
        return json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None


def _must_be(where, key, wording, value) -> ConfigError:
    return ConfigError(f"{where}: key {key!r} must be {wording}, got {reprlib.repr(value)}")


def check_types(value, types, where, key) -> None:
    """Raise ConfigError naming key unless value is of types[0], each of its
    items of types[1], and so on down (a null value has no items)."""
    if isinstance(value, bool) or not isinstance(value, types[0]):
        names = " or ".join("null" if t is _NULL else t.__name__ for t in types[0])
        raise _must_be(where, key, names, value)
    if len(types) > 1 and value is not None:
        for i, item in value.items() if isinstance(value, dict) else enumerate(value):
            check_types(item, types[1:], where, f"{key}[{i}]")


def check_fields(cls, doc, where, *, required=(), items=None, ranges=None) -> dict:
    """doc, once it is a JSON object of fields of the dataclass cls holding
    every required key, each value of the JSON type its annotation names
    (the items of a list or dict value of the types items[key] gives), and
    each non-null value in the (test, wording) range ranges[key]."""
    items, ranges = items or {}, ranges or {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {reprlib.repr(doc)}")
    fields = cls.__dataclass_fields__
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in (*required, *doc):
        if key not in doc:
            raise ConfigError(f"{where}: missing key {key!r}")
        types = sum((_JSON_TYPES[t] for t in fields[key].type.split(" | ")), ())
        check_types(doc[key], (types, items[key]) if key in items else (types,), where, key)
    for key, (in_range, wording) in ranges.items():
        if doc.get(key) is not None and not in_range(doc[key]):
            raise _must_be(where, key, wording, doc[key])
    return doc
