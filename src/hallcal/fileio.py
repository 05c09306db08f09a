"""File formats: layout, scenario, state and run settings as JSON;
measurements, flow-rate vectors, traces, and study tables as headered CSV.

Writers emit deterministic bytes (sorted keys, repr-exact floats) so a
rerun with identical inputs reproduces every file byte for byte; loaders
raise ParseError naming the offending file and its line or field.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParseError
from .hall import HallLayout, validate_layout
from .optim import Bounds
from .solver import OperatingState, Scenario


def _dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


# -- dataclasses as JSON --------------------------------------------------------
#
# Every JSON input is a dataclass as an object keyed by its field names; a
# nested dataclass is a nested object (merged into the enclosing one when its
# field has metadata {"inline": True}), tuples and arrays are lists, an
# Optional field takes null, and Bounds is [lower, upper].

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@functools.cache
def _schema(cls) -> tuple:
    """(field, type) pairs of a dataclass, its type hints resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def from_json(cls, doc, path, name: str = "", **given):
    """`cls` from its JSON form `doc`, read from the file `path`; `name` is
    the dotted field `doc` sits at. Fields in `given` are taken as they
    are and must not appear in `doc`.

    A bool takes only true/false, an int only a JSON integer, a float any
    finite number (an integer is widened), a str only a string; a tuple or
    an array is a list of such values. A missing required field, an
    unknown key, a value of the wrong type and a value the dataclass
    rejects each raise ParseError naming the file and the dotted field.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {name or 'document'} must be a JSON object")
    rest = dict(doc)
    obj = _parse_fields(cls, rest, name, path, given)
    if rest:
        raise ParseError(f"{path}: {f'{name}.{min(rest)}'.lstrip('.')}: unknown field")
    return obj


def _parse_fields(cls, doc: dict, name: str, path, given: dict):
    """Build `cls` from the keys of `doc` it owns, popping each one; fields
    missing from `doc` keep their defaults."""
    kwargs = dict(given)
    for f, tp in _schema(cls):
        key = f"{name}.{f.name}".lstrip(".")
        if f.name in given:
            continue
        elif f.metadata.get("inline"):
            kwargs[f.name] = _parse_fields(tp, doc, name, path, {})
        elif f.name in doc:
            kwargs[f.name] = _parse_value(tp, doc.pop(f.name), key, path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ParseError(f"{path}: {key}: missing field")
    try:
        return cls(**kwargs)
    except (ValueError, InvalidInputError) as exc:
        raise ParseError(f"{path}: {name}: {exc}" if name else f"{path}: {exc}") from exc


def _parse_value(tp, value, name: str, path):
    """Check one JSON value against its field's type."""
    if tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif tp in _KINDS:
        if type(value) is tp:
            return value
    elif tp is np.ndarray:
        return np.array(_parse_value(tuple[float, ...], value, name, path), dtype=float)
    elif type(None) in typing.get_args(tp):  # Optional[X]: null or an X
        (inner,) = [t for t in typing.get_args(tp) if t is not type(None)]
        return None if value is None else _parse_value(inner, value, name, path)
    elif typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, list):
            raise ParseError(f"{path}: {name} must be a list, got {json.dumps(value)}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ParseError(f"{path}: {name} must be a list of {len(args)} values, "
                             f"got {json.dumps(value)}")
        return tuple(_parse_value(t, v, f"{name}.{i}", path)
                     for i, (t, v) in enumerate(zip(args, value)))
    else:
        if tp is Bounds:
            if not (isinstance(value, list) and len(value) == 2):
                raise ParseError(f"{path}: {name} must be [lower, upper]")
            value = dict(zip(("lower", "upper"), value))
        return from_json(tp, value, path, name)
    raise ParseError(f"{path}: {name} must be {_KINDS[tp]}, got {json.dumps(value)}")


def to_json(obj, omit: Sequence[str] = ()) -> dict:
    """The JSON form of the dataclass `obj`, leaving out the fields in
    `omit`; from_json reads it back."""
    doc = {}
    for f in fields(obj):
        if f.name not in omit:
            value = _echo_value(getattr(obj, f.name))
            doc.update(value if f.metadata.get("inline") else {f.name: value})
    return doc


def _echo_value(value):
    if isinstance(value, Bounds):
        return [value.lower, value.upper]
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# -- layout / scenario / state ------------------------------------------------
#
# scenario.json is a Scenario without its layout, which comes from layout.json.


def save_layout(layout: HallLayout, path: Path) -> None:
    _dump_json(to_json(layout), Path(path))


def load_layout(path: Path) -> HallLayout:
    return validate_layout(from_json(HallLayout, _load_json(path), path))


def save_scenario(scenario: Scenario, path: Path) -> None:
    _dump_json(to_json(scenario, omit=("layout",)), Path(path))


def load_scenario(path: Path, layout: HallLayout) -> Scenario:
    return from_json(Scenario, _load_json(path), path, layout=layout)


def save_state(state: OperatingState, path: Path) -> None:
    _dump_json(to_json(state), Path(path))


def load_state(path: Path, layout: HallLayout) -> OperatingState:
    """The state in `path`, checked against `layout` by OperatingState.check."""
    state = from_json(OperatingState, _load_json(path), path)
    try:
        state.check(layout)
    except InvalidInputError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return state


# -- csv tables ---------------------------------------------------------------


def save_measurements(sensor_ids: Sequence[str], values: np.ndarray, path: Path) -> None:
    lines = ["sensor_id,temperature_c"]
    lines += [f"{sid},{float(v)!r}" for sid, v in zip(sensor_ids, values)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keyed_records(path: Path, ids: Optional[Sequence[str]] = None,
                       header: Optional[str] = None) -> np.ndarray:
    """Values of "id,value" records, one per line, ordered like `ids` (in
    file order when `ids` is None).

    A given header must be the first line; blank lines are skipped. A line
    without exactly two fields, a value that is not a finite number, and a
    repeated id each raise ParseError naming the file and the line, as does
    an id of `ids` with no record.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    first = 1
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise ParseError(f"{path} line 1: expected header {header!r}")
        first = 2
    values: dict[str, float] = {}
    for lineno, line in enumerate(lines[first - 1:], start=first):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path} line {lineno}: expected 'id,value'")
        key, text = parts[0].strip(), parts[1].strip()
        try:
            value = float(text)
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: bad number {text!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path} line {lineno}: non-finite value {text!r}")
        if key in values:
            raise ParseError(f"{path} line {lineno}: duplicate id {key!r}")
        values[key] = value
    if ids is None:
        return np.array(list(values.values()))
    missing = [i for i in ids if i not in values]
    if missing:
        raise ParseError(f"{path}: missing ids {missing}")
    return np.array([values[i] for i in ids])


def load_measurements(path: Path, sensor_ids: Sequence[str]) -> np.ndarray:
    """Measurement vector ordered like `sensor_ids`."""
    return read_keyed_records(path, sensor_ids, header="sensor_id,temperature_c")


def save_alpha(server_ids: Sequence[str], alpha: np.ndarray, path: Path) -> None:
    lines = ["server_id,alpha_cfm_per_w"]
    lines += [f"{sid},{float(a)!r}" for sid, a in zip(server_ids, alpha)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_alpha(path: Path, server_ids: Sequence[str]) -> np.ndarray:
    """Flow-rate vector ordered like `server_ids`."""
    return read_keyed_records(path, server_ids, header="server_id,alpha_cfm_per_w")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, float):
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
