"""The one reader of the scenario-file format, and the one writer of
indented JSON.

Each level of a scenario file is a table of Fields kept beside the type it
builds (scenarios, maps, geometry).  `read` walks a table and alone decides
the required and unknown keys, each value's JSON type, the defaults and the
error messages; each message names the value's path, e.g. `p:
maps[0].params: unknown field 'facter'`.

`json_text` writes every indented JSON file the program writes: scenario
files and the CLI's artifacts (the rendezvous event log is JSON lines).
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from reprlib import repr as show
from typing import Callable

import numpy as np

REQUIRED = object()  # the default of a key that must be given
_TYPES = {  # JSON type: the Python types it reads, its name in messages
    "integer": ((int, float), "an integer"), "number": ((int, float), "a number"),
    "string": (str, "a string"), "array": ((list, tuple), "an array"),
    "object": (Mapping, "an object"),
}


class ScenarioError(ValueError):
    """A scenario, or a scenario file, that does not follow the format."""


def _same(value, *_):
    return value


@dataclass(frozen=True)
class Field:
    """One key of a level: its JSON type (integers may be written 2.0,
    numbers become floats); its default, REQUIRED or a value (None admits
    null); `read(value, path)`, which checks a value of that type and
    returns what the program keeps; `write`, its inverse; and the `built`
    type a scenario built in Python may hold as it is."""

    json: str
    default: object = REQUIRED
    read: Callable = _same
    write: Callable = _same
    built: type | tuple = ()


def entry(json: str, default=REQUIRED, read=_same, write=_same, built=()):
    """A dataclass field that is also the row of its class's table."""
    row = Field(json, default, read, write, built)
    return field(default=MISSING if default is REQUIRED else default, metadata={"row": row})


def table_of(cls) -> dict[str, Field]:
    return {f.name: f.metadata["row"] for f in fields(cls)}


def _holds_bool(values, ndim: int) -> bool:
    """Whether nested lists of numbers hold a bool, which np.asarray reads
    as 0 or 1: one set of element types per innermost list."""
    if isinstance(values, np.ndarray) or ndim == 0:
        return False
    rows = [values]
    for _ in range(ndim - 1):
        rows = [row for block in rows for row in block]
    kinds = (set(map(type, row)) for row in rows)
    return any(bool in k or np.bool_ in k for k in kinds)


def number_array(values, what: str, error: type[Exception] = ScenarioError) -> np.ndarray:
    """`values` as a float array in one conversion; bools, strings, nulls and
    ragged nesting are rejected, not coerced."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or _holds_bool(values, arr.ndim):
        raise error(f"{what} must be a rectangular array of numbers, got {show(values)}")
    return arr.astype(float, copy=False)


def guarded(where: str, make: Callable, *args, **kwargs):
    """make(...), with a constructor's ValueError reported at `where`."""
    try:
        return make(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def read_value(row: Field, value, where: str):
    if (value is None and row.default is None) or isinstance(value, row.built):
        return value
    types, noun = _TYPES[row.json]
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and row.json == "integer":
        ok = isinstance(value, int) or value.is_integer()
        value = int(value) if ok else value
    elif ok and row.json == "number":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the floats
            ok = False
    if not ok:
        raise ScenarioError(f"{where} must be {noun}, got {show(value)}")
    return guarded(where, row.read, value, where)


def check_keys(table: dict[str, Field], data, where: str) -> None:
    required = [key for key, row in table.items() if row.default is REQUIRED]
    if not isinstance(data, Mapping):
        keys = f" with {', '.join(map(repr, required))}" if required else ""
        raise ScenarioError(f"{where} must be an object{keys}, got {show(data)}")
    unknown = sorted(set(data) - set(table))
    if unknown:
        raise ScenarioError(f"{where}: unknown field {', '.join(map(repr, unknown))}")
    for key in required:
        if key not in data:
            raise ScenarioError(f"{where}: missing field {key!r}")


def read(table: dict[str, Field], data, where: str, make: Callable = dict):
    """One level: `make` gets every key of the table, read or defaulted."""
    check_keys(table, data, where)
    values = {
        key: read_value(row, data[key], f"{where}.{key}") if key in data else row.default
        for key, row in table.items()
    }
    return guarded(where, make, **values)


def level(table: dict[str, Field], make: Callable = dict) -> Callable:
    """The reader of an object value that is a level of its own."""
    return lambda value, where: read(table, value, where, make)


def choice(options) -> Callable:
    def pick(value, where):
        if value not in options:
            raise ScenarioError(f"{where} must be one of {tuple(options)}, got {value!r}")
        return value

    return pick


_CONTAINERS = (dict, list, tuple)


@cache
def _encoder(pad: str) -> json.JSONEncoder:
    """The C encoder whose item separator starts a line at `pad`."""
    return json.JSONEncoder(separators=(",\n" + pad, ": "), sort_keys=True, allow_nan=False)


def _flat(items) -> bool:
    return not any(isinstance(v, _CONTAINERS) for v in items)


def json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), byte for
    byte, with the work done by the C encoder, which json.dumps uses only
    without indent: one call for a list of scalars, one for the scalar
    values of a dict, and one for a table of records (a list of non-empty
    dicts of scalars), whose record boundaries are then re-indented.
    Splitting and re-indenting the encoder's text is exact because JSON
    holds no raw newline inside a string. A NaN or an infinity raises
    ValueError, as json.dumps does."""
    inner = pad + "  "
    enc = _encoder(inner)
    if isinstance(value, dict):
        if not value:
            return "{}"
        scalars = {k: v for k, v in value.items() if not isinstance(v, _CONTAINERS)}
        lines = dict(zip(sorted(scalars), enc.encode(scalars)[1:-1].split(enc.item_separator)))
        for k, v in value.items():
            if k not in scalars:
                key = k if isinstance(k, str) else enc.encode(k)  # as json.dumps converts keys
                lines[k] = f"{enc.encode(key)}: {json_text(v, inner)}"
        return f"{{\n{inner}{enc.item_separator.join(lines[k] for k in sorted(value))}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _flat(value):
            return f"[\n{inner}{enc.encode(value)[1:-1]}\n{pad}]"
        if all(isinstance(v, dict) and v and _flat(v.values()) for v in value):
            field = inner + "  "
            text = _encoder(field).encode(value)[2:-2]
            text = text.replace(f"}},\n{field}{{", f"\n{inner}}},\n{inner}{{\n{field}")
            return f"[\n{inner}{{\n{field}{text}\n{inner}}}\n{pad}]"
        return f"[\n{inner}{enc.item_separator.join(json_text(v, inner) for v in value)}\n{pad}]"
    return enc.encode(value)
