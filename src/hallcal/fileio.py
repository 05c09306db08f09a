"""File formats: layout, scenario, and state as JSON; measurements,
flow-rate vectors, traces, and study tables as headered CSV.

Writers emit deterministic bytes (sorted keys, repr-exact floats) so a
rerun with identical inputs reproduces every file byte for byte; loaders
raise ParseError naming the offending file and line.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError
from .hall import COLD, HOT, Crac, HallLayout, Sensor, Server, validate_layout
from .solver import OperatingState, Scenario

SCENARIO_FIELDS = (
    "recirculation_fraction", "fan_law_exponent", "ambient_c", "sensor_noise_sd",
    "seed", "crac_nominal_cfm", "server_nominal_cfm_per_w", "ambient_leakage",
    "sensor_mixing", "tolerance_c", "max_sweeps", "damping",
)


def _dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def _require(mapping: dict, key: str, path) -> object:
    if key not in mapping:
        raise ParseError(f"{path}: missing field {key!r}")
    return mapping[key]


# -- layout -------------------------------------------------------------------


def save_layout(layout: HallLayout, path: Path) -> None:
    _dump_json({
        "containment": layout.containment,
        "cracs": [{"id": c.id, "position": list(c.position)} for c in layout.cracs],
        "servers": [{"id": s.id, "position": list(s.position), "type_tag": s.type_tag,
                     "rated_power": s.rated_power} for s in layout.servers],
        "sensors": [{"id": s.id, "position": list(s.position), "aisle": s.aisle}
                    for s in layout.sensors],
    }, Path(path))


def load_layout(path: Path) -> HallLayout:
    doc = _load_json(path)
    try:
        cracs = tuple(Crac(id=c["id"], position=tuple(c["position"]))
                      for c in _require(doc, "cracs", path))
        servers = tuple(Server(id=s["id"], position=tuple(s["position"]),
                               type_tag=s["type_tag"], rated_power=float(s["rated_power"]))
                        for s in _require(doc, "servers", path))
        sensors = tuple(Sensor(id=s["id"], position=tuple(s["position"]), aisle=s["aisle"])
                        for s in _require(doc, "sensors", path))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed facility record ({exc})") from exc
    for s in sensors:
        if s.aisle not in (COLD, HOT):
            raise ParseError(f"{path}: sensor {s.id} has unknown aisle {s.aisle!r}")
    return validate_layout(HallLayout(cracs=cracs, servers=servers, sensors=sensors,
                                      containment=bool(doc.get("containment", True))))


# -- scenario / state ---------------------------------------------------------


def save_scenario(scenario: Scenario, path: Path) -> None:
    payload = {name: getattr(scenario, name) for name in SCENARIO_FIELDS}
    payload["alpha_true"] = list(scenario.alpha_true)
    _dump_json(payload, Path(path))


def load_scenario(path: Path, layout: HallLayout) -> Scenario:
    doc = _load_json(path)
    alpha = np.array(_require(doc, "alpha_true", path), dtype=float)
    kwargs = {name: doc[name] for name in SCENARIO_FIELDS if name in doc}
    return Scenario(layout=layout, alpha_true=alpha, **kwargs)


def save_state(state: OperatingState, path: Path) -> None:
    _dump_json({
        "crac_setpoints": list(state.crac_setpoints),
        "crac_fan_speeds": list(state.crac_fan_speeds),
        "server_powers": list(state.server_powers),
    }, Path(path))


def load_state(path: Path) -> OperatingState:
    doc = _load_json(path)
    return OperatingState(
        crac_setpoints=np.array(_require(doc, "crac_setpoints", path), dtype=float),
        crac_fan_speeds=np.array(_require(doc, "crac_fan_speeds", path), dtype=float),
        server_powers=np.array(_require(doc, "server_powers", path), dtype=float),
    )


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


def save_weights(weights, path: Path) -> None:
    """Flat numeric snapshot of a trainable weight set, one value per line."""
    lines = [repr(float(v)) for v in weights.pack()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_weight_vector(path: Path) -> np.ndarray:
    """The flat vector back; reshape via the owning weight class's unpack."""
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: bad number {line.strip()!r}") from exc
    return np.array(values)


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
