"""Data-hall domain types and distance-based knowledge priors.

A hall is described by its facility inventory (CRACs, servers, sensors
with 3-D positions). From the geometry we derive the adjacency priors
used by the knowledge surrogate: facility-to-sensor weights set to the
normalized reciprocal of spatial distance, thresholded so that far-field
influence is exactly zero, plus the one-hot hot-aisle sensor mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import (
    AllWeightsCutError,
    DimensionMismatchError,
    DuplicateIdError,
    DuplicatePositionError,
    EmptyFacilityClassError,
    InvalidInputError,
    MissingAisleCoverageError,
    MixedStateError,
    NonFinitePositionError,
    ZeroDistanceError,
)

COLD = "cold"
HOT = "hot"

DEFAULT_CUT_THRESHOLD = 0.01


@dataclass(frozen=True)
class Facility:
    """A CRAC, server or sensor. Its id is one field of a CSV line as the
    readers split and strip it: non-empty, with no ',' or line break, and
    no leading or trailing whitespace."""

    id: str
    position: tuple[float, float, float]

    def __post_init__(self):
        if self.id != self.id.strip() or "," in self.id or len(self.id.splitlines()) != 1:
            raise InvalidInputError(f"id {self.id!r} must be non-empty, with no ',', line "
                                    "break, or leading or trailing whitespace")


@dataclass(frozen=True)
class Crac(Facility):
    pass


@dataclass(frozen=True)
class Server(Facility):
    type_tag: str
    rated_power: float  # W

    def __post_init__(self):
        super().__post_init__()
        if self.rated_power < 0:
            raise InvalidInputError("rated_power must be >= 0")


@dataclass(frozen=True)
class Sensor(Facility):
    aisle: str  # COLD or HOT


@dataclass(frozen=True)
class HallLayout:
    """Facility inventory of one data hall. It is immutable, so its position
    arrays and its validity are derived once and kept."""

    cracs: tuple[Crac, ...]
    servers: tuple[Server, ...]
    sensors: tuple[Sensor, ...]
    containment: bool = True

    @property
    def n_cracs(self) -> int:
        return len(self.cracs)

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    def _positions(self, facilities: str) -> np.ndarray:  # read-only: every caller shares it
        name = f"_{facilities}_positions"
        if name not in self.__dict__:
            positions = np.array([f.position for f in getattr(self, facilities)], dtype=float)
            positions.flags.writeable = False
            object.__setattr__(self, name, positions)
        return self.__dict__[name]

    def crac_positions(self) -> np.ndarray:
        return self._positions("cracs")

    def server_positions(self) -> np.ndarray:
        return self._positions("servers")

    def sensor_positions(self) -> np.ndarray:
        return self._positions("sensors")

    def rated_powers(self) -> np.ndarray:
        return np.array([s.rated_power for s in self.servers], dtype=float)


@dataclass(frozen=True)
class OperatingState:
    """Measured hall state at one instant, all but the flow rates. A field's metadata
    names the layout count it spans and, if bounded, its rule and bad-entry test."""

    crac_setpoints: np.ndarray = field(metadata={"count": "n_cracs"})  # degC
    crac_fan_speeds: np.ndarray = field(metadata={  # ratio
        "count": "n_cracs", "rule": ("in [0, 1]", lambda a: (a < 0) | (a > 1))})
    server_powers: np.ndarray = field(metadata={  # W
        "count": "n_servers", "rule": (">= 0", lambda a: a < 0)})

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # fields(self), without its filtering
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def to_input(self, alpha: np.ndarray) -> "SystemInput":
        """This state with the flow rates alpha, as one solver input."""
        return SystemInput(*[getattr(self, name) for name in OperatingState.__dataclass_fields__],
                           alpha)

    def copy(self) -> "OperatingState":
        """This state, flow rates aside, in arrays of its own."""
        return OperatingState(*[getattr(self, name).copy()
                                for name in OperatingState.__dataclass_fields__])

    def check(self, layout: HallLayout) -> None:
        """Raise DimensionMismatchError, naming the field, unless every field
        has one entry per CRAC or server of `layout`; then InvalidInputError
        unless every fan speed is in [0, 1] with at least one above 0 and
        every power is >= 0."""
        for f in fields(self):
            values, count = getattr(self, f.name), getattr(layout, f.metadata["count"])
            if values.shape != (count,):
                raise DimensionMismatchError(f"{f.name}: expected {count} entries, got {values.size}")
        for f in fields(self):
            if "rule" in f.metadata:
                rule, bad = f.metadata["rule"]
                values = getattr(self, f.name)
                if bad(values).any():
                    i = int(np.argmax(bad(values)))
                    raise InvalidInputError(f"{f.name}.{i}: {float(values[i])!r} is not {rule}")
        if not (self.crac_fan_speeds > 0).any():
            raise InvalidInputError("crac_fan_speeds: at least one CRAC fan must be running")

    def require(self, inputs: Sequence["OperatingState"], whose: str, first: int = 0) -> None:
        """Raise MixedStateError naming the first input off this state, as sample
        `first` + its index, and its first field that differs, unless each field
        has this state's bytes or else its values (NaN matching NaN)."""
        for i, x in enumerate(inputs, first):
            for name in OperatingState.__dataclass_fields__:
                rows, values = getattr(x, name), getattr(self, name)
                same = rows.tobytes() == values.tobytes()
                if not (same or np.array_equal(rows, values, equal_nan=True)):
                    raise MixedStateError(f"sample {i} is not at {whose} operating state: "
                                          f"its {name} differ")


@dataclass(frozen=True)
class SystemInput(OperatingState):
    """One solver/surrogate input: the operating state plus the per-server
    air flow rates being calibrated."""

    flow_rates: np.ndarray = field(metadata={"count": "n_servers"})  # cfm/W, > 0

    def __post_init__(self):
        super().__post_init__()
        if self.crac_setpoints.shape != self.crac_fan_speeds.shape:
            raise DimensionMismatchError("setpoints and fan speeds differ in length")
        if self.server_powers.shape != self.flow_rates.shape:
            raise DimensionMismatchError("powers and flow rates differ in length")

    with_flow_rates = OperatingState.to_input  # the same input with other flow rates


@dataclass(frozen=True)
class AdjacencyPriors:
    """Fixed knowledge priors: facility-to-sensor weights and hot-aisle mask.

    w_cs has shape (l, n) and w_ss shape (m, n); column k carries the
    weights of all facilities onto sensor k and sums to 1 over its nonzero
    entries. hot_mask[k] is 1.0 for hot-aisle sensors, else 0.0.
    """

    w_cs: np.ndarray
    w_ss: np.ndarray
    hot_mask: np.ndarray

    @property
    def n_sensors(self) -> int:
        return self.hot_mask.size


def _check_unique(ids: Sequence[str], cls: str) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise DuplicateIdError(f"duplicate {cls} id {i!r}")
        seen.add(i)


def _check_positions(positions: np.ndarray, cls: str) -> None:
    if not np.isfinite(positions).all():
        raise NonFinitePositionError(f"non-finite {cls} position")
    # same-class facilities may not coincide. A stable sort puts equal rows
    # next to each other in index order, so the smallest index with a later
    # twin and that twin are the pair a scan over (i, j > i) meets first.
    order = np.lexsort(positions.T[::-1])
    ranked = positions[order]
    same = np.all(ranked[1:] == ranked[:-1], axis=1)
    if same.any():
        pairs = np.stack([order[:-1], order[1:]], axis=1)[same]
        i, j = pairs[np.argmin(pairs[:, 0])]
        raise DuplicatePositionError(f"{cls} entries {i} and {j} share a position")


def validate_layout(layout: HallLayout) -> HallLayout:
    """Check all layout invariants (not again once they passed); return the
    layout unchanged if valid."""
    if "_valid" in layout.__dict__:
        return layout
    if layout.n_cracs < 1:
        raise EmptyFacilityClassError("layout has no CRACs")
    if layout.n_servers < 1:
        raise EmptyFacilityClassError("layout has no servers")
    if layout.n_sensors < 2:
        raise EmptyFacilityClassError("layout needs at least two sensors")

    _check_unique([c.id for c in layout.cracs], "CRAC")
    _check_unique([s.id for s in layout.servers], "server")
    _check_unique([s.id for s in layout.sensors], "sensor")

    _check_positions(layout.crac_positions(), "CRAC")
    _check_positions(layout.server_positions(), "server")
    _check_positions(layout.sensor_positions(), "sensor")

    aisles = {s.aisle for s in layout.sensors}
    bad = aisles - {COLD, HOT}
    if bad:
        raise MissingAisleCoverageError(f"unknown aisle tags {sorted(bad)}")
    if COLD not in aisles or HOT not in aisles:
        raise MissingAisleCoverageError("need at least one cold and one hot sensor")
    object.__setattr__(layout, "_valid", True)
    return layout


def hot_aisle_mask(layout: HallLayout) -> np.ndarray:
    """One-hot vector over sensors: 1.0 where the sensor sits in a hot aisle."""
    return np.array([1.0 if s.aisle == HOT else 0.0 for s in layout.sensors])


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between two 3-D position sets,
    (len a, len b): the squared differences summed over x, y, z in that
    order, as np.sum over the coordinate axis adds them, to the bit."""
    dx, dy, dz = (a[:, k, None] - b[:, k] for k in range(3))
    return dx * dx + dy * dy + dz * dz


def _reciprocal_distance_columns(
    facility_pos: np.ndarray, sensor_pos: np.ndarray, cut_threshold: float, cls: str,
) -> np.ndarray:
    """Per-sensor-column normalized 1/distance weights with thresholding.

    Normalized weights below cut_threshold are zeroed, survivors are
    renormalized so every column sums to 1 again.
    """
    dist = np.sqrt(squared_distances(facility_pos, sensor_pos))
    if (dist == 0.0).any():
        f, s = np.argwhere(dist == 0.0)[0]
        raise ZeroDistanceError(f"{cls} {f} coincides with sensor {s}")
    raw = 1.0 / dist
    w = raw / raw.sum(axis=0, keepdims=True)
    w[w < cut_threshold] = 0.0
    col_sums = w.sum(axis=0)
    if (col_sums == 0.0).any():
        k = int(np.argmax(col_sums == 0.0))
        raise AllWeightsCutError(f"threshold {cut_threshold} removed all {cls} weights of sensor {k}")
    return w / col_sums


def build_adjacency(layout: HallLayout,
                    cut_threshold: float = DEFAULT_CUT_THRESHOLD) -> AdjacencyPriors:
    """Derive the adjacency priors from the hall geometry.

    Raw facility-to-sensor weight is the reciprocal Euclidean distance;
    weights are normalized per sensor column, cut below `cut_threshold`,
    and renormalized over the surviving entries.
    """
    validate_layout(layout)
    if cut_threshold < 0:
        raise ValueError("cut_threshold must be >= 0")
    sensor_pos = layout.sensor_positions()
    w_cs = _reciprocal_distance_columns(layout.crac_positions(), sensor_pos,
                                        cut_threshold, "CRAC")
    w_ss = _reciprocal_distance_columns(layout.server_positions(), sensor_pos,
                                        cut_threshold, "server")
    return AdjacencyPriors(w_cs=w_cs, w_ss=w_ss, hot_mask=hot_aisle_mask(layout))
