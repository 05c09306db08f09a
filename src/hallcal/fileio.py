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

from .errors import DimensionMismatchError, InvalidInputError, OutputDirectoryError, ParseError
from .hall import HallLayout, OperatingState, validate_layout
from .optim import Bounds
from .solver import Scenario


def _write_text(path: Path, text: str) -> None:
    """Write an output file in UTF-8; one that cannot be written raises
    OutputDirectoryError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputDirectoryError(f"cannot write {path}: {exc.strerror}") from exc


def _dump_json(payload, path: Path) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_text(path: Path) -> str:
    """The text of an input file; one that cannot be read or is not UTF-8
    raises ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc


def _load_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


# -- dataclasses as JSON --------------------------------------------------------
#
# Every JSON input is a dataclass as an object keyed by its field names; a
# nested dataclass is a nested object, tuples and arrays are lists, an
# Optional field takes null, and Bounds is [lower, upper].

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@functools.cache
def _schema(cls) -> tuple:
    """(field, type) pairs of a dataclass, its type hints resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


class _Invalid(Exception):
    """A JSON value that does not fit its field. The readers it passes up
    through add the field's keys, innermost first; from_json then forms the
    dotted name and the message text(name). No name is formed for a value
    that fits."""

    def __init__(self, text, *keys):
        super().__init__()
        self.text = text
        self.keys = list(keys)


def from_json(cls, doc, path, **given):
    """`cls` from its JSON form `doc`, read from the file `path`. Fields in
    `given` are taken as they are and must not appear in `doc`.

    A bool takes only true/false, an int only a JSON integer, a float any
    finite number (an integer is widened), a str only a string; a tuple or
    an array is a list of such values. A missing required field, an
    unknown key, a value of the wrong type and a value the dataclass
    rejects each raise ParseError naming the file and the dotted field.
    """
    try:
        return _reader(cls)(doc, **given)
    except _Invalid as exc:
        name = ".".join(map(str, reversed(exc.keys))).lstrip(".")
        raise ParseError(f"{path}: {exc.text(name)}") from exc.__cause__


def _wrong_kind(kind: str, value) -> _Invalid:
    return _Invalid(lambda name: f"{name} must be {kind}, got {json.dumps(value)}")


def _read_float(value) -> float:
    """A finite JSON number, an integer widened."""
    if (type(value) is float or type(value) is int) and abs(value) <= sys.float_info.max:
        return float(value)
    raise _wrong_kind(_KINDS[float], value)


def _exact_reader(tp):
    """The reader of a bool, an int or a str: a JSON value of exactly that type."""
    def read(value):
        if type(value) is tp:
            return value
        raise _wrong_kind(_KINDS[tp], value)
    return read


@functools.cache
def _reader(tp):
    """The function that checks one JSON value against the type `tp` and
    returns it as a `tp`, raising _Invalid if it does not fit; built once
    per type."""
    if tp is float:
        return _read_float
    if tp in _KINDS:
        return _exact_reader(tp)
    if tp is np.ndarray:
        items = _reader(tuple[float, ...])
        return lambda value: np.array(items(value), dtype=float)
    if type(None) in typing.get_args(tp):  # Optional[X]: null or an X
        (inner,) = [_reader(t) for t in typing.get_args(tp) if t is not type(None)]
        return lambda value: None if value is None else inner(value)
    if typing.get_origin(tp) is tuple:
        return _tuple_reader(typing.get_args(tp))
    if tp is Bounds:
        pair = _object_reader(Bounds)

        def read(value):
            if not (isinstance(value, list) and len(value) == 2):
                raise _Invalid(lambda name: f"{name} must be [lower, upper]")
            return pair({"lower": value[0], "upper": value[1]})
        return read
    return _object_reader(tp)


def _tuple_reader(args: tuple):
    """A tuple's reader: a list of len(args) values, or of any length for
    tuple[X, ...], all of one type; an item that does not fit is named by
    its index."""
    kinds = set(args) - {Ellipsis}
    if len(kinds) != 1:
        raise TypeError(f"no reader for tuple{list(args)}: its items differ in type")
    item = _reader(kinds.pop())
    length = None if args[-1] is Ellipsis else len(args)

    def read(value):
        if not isinstance(value, list):
            raise _Invalid(lambda name: f"{name} must be a list, got {json.dumps(value)}")
        if length is not None and len(value) != length:
            raise _Invalid(lambda name: f"{name} must be a list of {length} values, "
                                        f"got {json.dumps(value)}")
        try:
            return tuple(map(item, value))
        except _Invalid as exc:  # named by the first item that does not fit
            exc.keys.append(next(i for i, v in enumerate(value) if not _fits(item, v)))
            raise

    return read


def _fits(read, value) -> bool:
    try:
        read(value)
    except _Invalid:
        return False
    return True


def _object_reader(cls):
    """A dataclass's reader: an object keyed by its field names, checked in
    one pass over the fields."""
    schema = [(f.name, _reader(tp), f.default is MISSING and f.default_factory is MISSING)
              for f, tp in _schema(cls)]

    def read(doc, **given):
        if not isinstance(doc, dict):
            raise _Invalid(lambda name: f"{name or 'document'} must be a JSON object")
        kwargs = {}
        for key, read_field, required in schema:
            if key in doc and key not in given:
                try:
                    kwargs[key] = read_field(doc[key])
                except _Invalid as exc:
                    exc.keys.append(key)
                    raise
            elif required and key not in given:
                raise _Invalid(lambda name: f"{name}: missing field", key)
        try:
            obj = cls(**kwargs, **given)
        except (ValueError, InvalidInputError) as exc:
            reason = str(exc)
            raise _Invalid(lambda name: f"{name}: {reason}" if name else reason) from exc
        if len(kwargs) != len(doc):  # a key that names no field, or a given one
            raise _Invalid(lambda name: f"{name}: unknown field",
                           min(key for key in doc if key not in kwargs))
        return obj

    return read


def to_json(obj, omit: Sequence[str] = ()) -> dict:
    """The JSON form of the dataclass `obj`, leaving out the fields in
    `omit`; from_json reads it back."""
    doc = {}
    for f in fields(obj):
        if f.name not in omit:
            doc[f.name] = _echo_value(getattr(obj, f.name))
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
    _dump_json(to_json(layout), path)


def load_layout(path: Path) -> HallLayout:
    return validate_layout(from_json(HallLayout, _load_json(path), path))


def save_scenario(scenario: Scenario, path: Path) -> None:
    _dump_json(to_json(scenario, omit=("layout",)), path)


def load_scenario(path: Path, layout: HallLayout) -> Scenario:
    return from_json(Scenario, _load_json(path), path, layout=layout)


def save_state(state: OperatingState, path: Path) -> None:
    """The state's fields as JSON; a SystemInput's flow rates are left out."""
    _dump_json({f.name: _echo_value(getattr(state, f.name)) for f in fields(OperatingState)}, path)


def load_state(path: Path, layout: HallLayout) -> OperatingState:
    """The state in `path`, checked against `layout` by OperatingState.check."""
    state = from_json(OperatingState, _load_json(path), path)
    try:
        state.check(layout)
    except (DimensionMismatchError, InvalidInputError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return state


# -- csv tables ---------------------------------------------------------------


def save_measurements(sensor_ids: Sequence[str], values: np.ndarray, path: Path) -> None:
    lines = ["sensor_id,temperature_c"]
    lines += [f"{sid},{float(v)!r}" for sid, v in zip(sensor_ids, values)]
    _write_text(path, "\n".join(lines) + "\n")


def read_keyed_records(path: Path, ids: Optional[Sequence[str]] = None,
                       header: Optional[str] = None, positive: bool = False) -> np.ndarray:
    """Values of "id,value" records, one per line, ordered like `ids` (in
    file order when `ids` is None).

    A given header must be the first line; blank lines are skipped. A line
    without exactly two fields, a value that is not a finite number (or,
    with `positive`, not above 0), a repeated id and an id not in a given
    `ids` each raise ParseError naming the file and the line; an id of
    `ids` with no record raises ParseError naming the file.
    """
    lines = _read_text(path).splitlines()
    first = 1
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise ParseError(f"{path} line 1: expected header {header!r}")
        first = 2
    known = None if ids is None else set(ids)
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
        if positive and not value > 0.0:
            raise ParseError(f"{path} line {lineno}: non-positive value {text!r}")
        if key in values:
            raise ParseError(f"{path} line {lineno}: duplicate id {key!r}")
        if known is not None and key not in known:
            raise ParseError(f"{path} line {lineno}: unknown id {key!r}")
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
    _write_text(path, "\n".join(lines) + "\n")


def load_alpha(path: Path, server_ids: Sequence[str]) -> np.ndarray:
    """Flow-rate vector ordered like `server_ids`; every rate must be > 0."""
    return read_keyed_records(path, server_ids, header="server_id,alpha_cfm_per_w",
                              positive=True)


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
    _write_text(path, "\n".join(lines) + "\n")
