"""The expensive-model stand-in and the bridge to real external solvers.

The zonal simulator resolves a damped fixed point over per-aisle air
zones: CRAC supply is split across cold zones by fan-law flow and inverse
square distance, servers heat their draw by the first-principle per-watt
rise, hot zones mix server exhaust with bypass air scaled by CRAC flow,
and sensors read their own zone blended with nearby same-aisle zones.
Its functional form is deliberately richer than the surrogate's (fan-law
flows, inverse-square mixing, bypass dilution, envelope leakage) so the
surrogate can approximate but never equal it.

Flow-rate effects enter through the per-server rise
kappa * (P_j / P_rated_j) / alpha_j while zone mixing weights ride on
rated flows; this keeps hot-zone temperatures monotone increasing in any
server power and monotone decreasing in any flow rate, which the
temperature-weighted alternative (flows proportional to instantaneous
power) would violate.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CommandFailedError,
    InvalidInputError,
    NoConvergenceError,
    ParseError,
    SolverTimeoutError,
    ZeroDistanceError,
)
from .hall import COLD, HOT, HallLayout, SystemInput, validate_layout
from .surrogate import KAPPA_CFM_PER_W


@dataclass(frozen=True)
class OperatingState:
    """Measured hall state at one time instant (everything but flow rates)."""

    crac_setpoints: np.ndarray
    crac_fan_speeds: np.ndarray
    server_powers: np.ndarray

    def __post_init__(self):
        for name in ("crac_setpoints", "crac_fan_speeds", "server_powers"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def to_input(self, alpha: np.ndarray) -> SystemInput:
        return SystemInput(self.crac_setpoints, self.crac_fan_speeds,
                           self.server_powers, np.asarray(alpha, dtype=float))

    def check(self, layout: HallLayout) -> None:
        """Raise InvalidInputError, naming the field, unless the CRAC and
        server counts match `layout`, every fan speed is in [0, 1] with at
        least one above 0, and every power is >= 0."""
        fans, powers = self.crac_fan_speeds, self.server_powers
        for name, count in (("crac_setpoints", layout.n_cracs),
                            ("crac_fan_speeds", layout.n_cracs),
                            ("server_powers", layout.n_servers)):
            if getattr(self, name).shape != (count,):
                raise InvalidInputError(f"{name}: expected {count} entries, "
                                        f"got {getattr(self, name).size}")
        for name, bad, rule in (("crac_fan_speeds", (fans < 0) | (fans > 1), "in [0, 1]"),
                                ("server_powers", powers < 0, ">= 0")):
            if np.any(bad):
                i = int(np.argmax(bad))
                raise InvalidInputError(f"{name}.{i}: {float(getattr(self, name)[i])!r} "
                                        f"is not {rule}")
        if not np.any(fans > 0):
            raise InvalidInputError("crac_fan_speeds: at least one CRAC fan must be running")


@dataclass(frozen=True)
class Scenario:
    """One synthetic hall: layout, hidden ground-truth flow rates, and the
    zonal model's physics knobs."""

    layout: HallLayout
    alpha_true: np.ndarray
    recirculation_fraction: float = 0.05
    fan_law_exponent: float = 1.0
    ambient_c: float = 22.0
    sensor_noise_sd: float = 0.1
    seed: int = 0
    crac_nominal_cfm: float = 1200.0
    server_nominal_cfm_per_w: float = 0.3
    ambient_leakage: float = 0.02
    sensor_mixing: float = 0.2
    tolerance_c: float = 1e-6
    max_sweeps: int = 500
    damping: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "alpha_true", np.asarray(self.alpha_true, dtype=float))
        if self.alpha_true.size != self.layout.n_servers:
            raise InvalidInputError("alpha_true length does not match the layout")
        if np.any(self.alpha_true <= 0):
            raise InvalidInputError("alpha_true must be positive")
        if not 0.0 <= self.recirculation_fraction < 1.0:
            raise InvalidInputError("recirculation_fraction must be in [0, 1)")
        if self.fan_law_exponent <= 0:
            raise InvalidInputError("fan_law_exponent must be > 0")
        if self.sensor_noise_sd < 0:
            raise InvalidInputError("sensor_noise_sd must be >= 0")


class ThermalSolver:
    """Opaque expensive-solver interface: solve one input, count the calls."""

    def __init__(self):
        self.n_calls = 0

    def solve(self, x: SystemInput) -> np.ndarray:
        self.n_calls += 1
        return self._solve(x)

    def _solve(self, x: SystemInput) -> np.ndarray:
        raise NotImplementedError


def _inverse_square_weights(src: np.ndarray, dst: np.ndarray, normalize_axis: int,
                            what: str) -> np.ndarray:
    """1/d^2 weights between position sets, normalized along the given axis."""
    diff = src[:, None, :] - dst[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    if np.any(d2 == 0.0):
        raise ZeroDistanceError(f"coincident positions in {what}")
    w = 1.0 / d2
    return w / w.sum(axis=normalize_axis, keepdims=True)


def _aisle_mixing(positions: np.ndarray, mixing: float) -> np.ndarray:
    """Sensor reading matrix for one aisle group: own zone blended with the
    inverse-square mix of the other zones in the same aisle class."""
    g = len(positions)
    if g == 1 or mixing == 0.0:
        return np.eye(g)
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    off = np.zeros((g, g))
    idx = ~np.eye(g, dtype=bool)
    off[idx] = 1.0 / d2[idx]
    off = off / off.sum(axis=1, keepdims=True)
    return (1.0 - mixing) * np.eye(g) + mixing * off


class ZonalSolver(ThermalSolver):
    """Mass-and-energy-balance zonal model of one scenario's hall."""

    def __init__(self, scenario: Scenario):
        super().__init__()
        self.scenario = scenario
        layout = validate_layout(scenario.layout)
        self.layout = layout

        sensors = layout.sensors
        self.cold_idx = np.array([k for k, s in enumerate(sensors) if s.aisle == COLD])
        self.hot_idx = np.array([k for k, s in enumerate(sensors) if s.aisle == HOT])
        cold_pos = layout.sensor_positions()[self.cold_idx]
        hot_pos = layout.sensor_positions()[self.hot_idx]
        crac_pos = layout.crac_positions()
        server_pos = layout.server_positions()

        # flow-split and mixing geometry, all inverse-square
        self.crac_to_cold = _inverse_square_weights(crac_pos, cold_pos, 1, "CRACs vs cold sensors")
        self.crac_to_hot = _inverse_square_weights(crac_pos, hot_pos, 1, "CRACs vs hot sensors")
        self.server_inlet = _inverse_square_weights(server_pos, cold_pos, 1, "servers vs cold sensors")
        self.server_exhaust = _inverse_square_weights(server_pos, hot_pos, 1, "servers vs hot sensors")
        self.hot_to_cold = _inverse_square_weights(hot_pos, cold_pos, 1, "hot vs cold sensors")
        self.mix_cold = _aisle_mixing(cold_pos, scenario.sensor_mixing)
        self.mix_hot = _aisle_mixing(hot_pos, scenario.sensor_mixing)

        self.rated = layout.rated_powers()
        self.server_flow = scenario.server_nominal_cfm_per_w * self.rated  # cfm

    def _validate(self, x: SystemInput) -> None:
        x.check_layout(self.layout)
        arrays = (x.crac_setpoints, x.crac_fan_speeds, x.server_powers, x.flow_rates)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise InvalidInputError("non-finite entries in solver input")
        if np.any(x.flow_rates <= 0):
            raise InvalidInputError("flow rates must be positive")
        OperatingState(x.crac_setpoints, x.crac_fan_speeds, x.server_powers).check(self.layout)

    def _solve(self, x: SystemInput) -> np.ndarray:
        self._validate(x)
        sc = self.scenario
        r = sc.recirculation_fraction

        phi = sc.crac_nominal_cfm * x.crac_fan_speeds ** sc.fan_law_exponent  # (l,)
        cold_supply = (phi * x.crac_setpoints) @ self.crac_to_cold  # heat flux term
        cold_flow = phi @ self.crac_to_cold  # (n_cold,)
        bypass_flow = r * (phi @ self.crac_to_hot)  # (n_hot,)

        utilization = np.where(self.rated > 0, x.server_powers / self.rated, 0.0)
        rise = KAPPA_CFM_PER_W * utilization / x.flow_rates  # (m,)
        exhaust = self.server_flow[:, None] * self.server_exhaust  # (m, n_hot)
        exhaust_flow = exhaust.sum(axis=0)  # (n_hot,)

        backflow = 0.0 if sc.layout.containment else r * exhaust_flow  # (n_hot,)

        n_cold, n_hot = self.cold_idx.size, self.hot_idx.size
        t_cold = np.full(n_cold, sc.ambient_c)
        t_hot = np.full(n_hot, sc.ambient_c)

        converged = False
        for _ in range(sc.max_sweeps):
            inlet = self.server_inlet @ t_cold  # (m,)
            outlet = inlet + rise
            cold_near = self.hot_to_cold @ t_cold  # (n_hot,)
            hot_in = exhaust.T @ outlet + bypass_flow * cold_near
            hot_total = exhaust_flow + bypass_flow
            t_hot_new = np.where(hot_total > 1e-12, hot_in / np.maximum(hot_total, 1e-12), cold_near)

            cold_in = cold_supply.copy()
            cold_total = cold_flow.copy()
            if not sc.layout.containment:
                cold_in = cold_in + (backflow * t_hot) @ self.hot_to_cold
                cold_total = cold_total + backflow @ self.hot_to_cold
            t_cold_mixed = cold_in / cold_total
            t_cold_new = (1.0 - sc.ambient_leakage) * t_cold_mixed + sc.ambient_leakage * sc.ambient_c

            residual = max(np.max(np.abs(t_cold_new - t_cold)), np.max(np.abs(t_hot_new - t_hot)))
            if residual < sc.tolerance_c:
                t_cold, t_hot = t_cold_new, t_hot_new
                converged = True
                break
            t_cold = t_cold + sc.damping * (t_cold_new - t_cold)
            t_hot = t_hot + sc.damping * (t_hot_new - t_hot)

        if not converged:
            raise NoConvergenceError(
                f"zonal solve residual above {sc.tolerance_c} after {sc.max_sweeps} sweeps"
            )

        readings = np.empty(self.layout.n_sensors)
        readings[self.cold_idx] = self.mix_cold @ t_cold
        readings[self.hot_idx] = self.mix_hot @ t_hot
        return readings


def zonal_solve(scenario: Scenario, x: SystemInput) -> np.ndarray:
    """One-shot zonal solve without touching any call counter."""
    return ZonalSolver(scenario)._solve(x)


def synthesize_measurements(scenario: Scenario, state: OperatingState,
                            seed: Optional[int] = None) -> np.ndarray:
    """Sensor measurement vector: the zonal solve at the hidden ground-truth
    flow rates plus seeded zero-mean Gaussian sensor noise."""
    clean = zonal_solve(scenario, state.to_input(scenario.alpha_true))
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    return clean + rng.normal(0.0, scenario.sensor_noise_sd, size=clean.size)


# -- external-solver bridge ---------------------------------------------------

CONFIG_FILENAME = "flow_config.txt"
OUTPUT_FILENAME = "sensor_output.txt"


@dataclass(frozen=True)
class ExternalSolverSpec:
    """Contract with an external solver process.

    The bridge writes one "server_id, alpha" record per line into
    CONFIG_FILENAME under `workdir` (plus a state.json sidecar), invokes
    `command` with the workdir as its argument, and parses one
    "sensor_id, temperature_c" record per line from OUTPUT_FILENAME.
    """

    command: tuple[str, ...]
    workdir: Path
    timeout_s: float = 60.0


def external_solve(spec: ExternalSolverSpec, x: SystemInput, server_ids: Sequence[str],
                   sensor_ids: Optional[Sequence[str]] = None) -> np.ndarray:
    """Round-trip one solve through the external command."""
    workdir = Path(spec.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / CONFIG_FILENAME
    output_path = workdir / OUTPUT_FILENAME
    if output_path.exists():
        output_path.unlink()

    lines = [f"{sid}, {float(alpha)!r}" for sid, alpha in zip(server_ids, x.flow_rates)]
    config_path.write_text("\n".join(lines) + "\n")
    from . import fileio  # fileio imports this module
    fileio.save_state(OperatingState(x.crac_setpoints, x.crac_fan_speeds, x.server_powers),
                      workdir / "state.json")

    try:
        proc = subprocess.run([*spec.command, str(workdir)], capture_output=True,
                              text=True, timeout=spec.timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise SolverTimeoutError(f"external solver exceeded {spec.timeout_s} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
        raise CommandFailedError(f"external solver exited {proc.returncode}: {tail}")

    if not output_path.exists():
        raise ParseError(f"external solver produced no {OUTPUT_FILENAME}")
    return fileio.read_keyed_records(output_path, sensor_ids)


class ExternalSolver(ThermalSolver):
    """Counted solver backed by an external command."""

    def __init__(self, spec: ExternalSolverSpec, layout: HallLayout):
        super().__init__()
        self.spec = spec
        self.server_ids = [s.id for s in layout.servers]
        self.sensor_ids = [s.id for s in layout.sensors]

    def _solve(self, x: SystemInput) -> np.ndarray:
        return external_solve(self.spec, x, self.server_ids, self.sensor_ids)
