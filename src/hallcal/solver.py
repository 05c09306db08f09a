"""The expensive-model stand-in and the bridge to real external solvers.

The zonal simulator balances air flow and energy over per-aisle air
zones: CRAC supply is split across cold zones by fan-law flow and inverse
square distance, servers heat their draw by the first-principle per-watt
rise, hot zones mix server exhaust with bypass air scaled by CRAC flow,
and sensors read their own zone blended with nearby same-aisle zones.
The balance is affine in the zone temperatures, so each solve is exact:
hot zones are an affine map of the cold ones, and cold zones are explicit
under containment and one small linear system without it. All of it but
the servers' rise depends on the operating state alone, so a solver bound
to one state (`ZonalSolver.at`) derives it once and each of its solves
pays only for the flow rates.
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

import os
import shlex
import signal
import subprocess
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CommandFailedError,
    DimensionMismatchError,
    HallcalError,
    InvalidInputError,
    OutputDirectoryError,
    ParseError,
    SolverTimeoutError,
    ZeroDistanceError,
)
from .hall import (COLD, HOT, HallLayout, OperatingState, SystemInput, squared_distances,
                   validate_layout)
from .optim import rate_range
from .surrogate import KAPPA_CFM_PER_W


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

    def __post_init__(self):
        object.__setattr__(self, "alpha_true", np.asarray(self.alpha_true, dtype=float))
        if self.alpha_true.size != self.layout.n_servers:
            raise InvalidInputError("alpha_true length does not match the layout")
        if (self.alpha_true <= 0).any():
            raise InvalidInputError("alpha_true must be positive")
        if not 0.0 <= self.recirculation_fraction < 1.0:
            raise InvalidInputError("recirculation_fraction must be in [0, 1)")
        if self.sensor_noise_sd < 0:
            raise InvalidInputError("sensor_noise_sd must be >= 0")
        # ZonalSolver's exact solve needs positive air flows and convex blends
        for name in ("fan_law_exponent", "crac_nominal_cfm", "server_nominal_cfm_per_w"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be > 0")
        for name in ("ambient_leakage", "sensor_mixing"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1]")


class ThermalSolver:
    """Opaque expensive-solver interface: solve one input, count the calls.
    A subclass implements `_bind(state)` alone, its one extension point: the
    solve at a state as a function of the flow rates. A one-input solve binds
    the input's state and solves at its flow rates, and `at` binds once."""

    def __init__(self):
        self.n_calls = 0

    def solve(self, x: SystemInput) -> np.ndarray:
        self.n_calls += 1
        return self._solve(x)

    def _solve(self, x: SystemInput) -> np.ndarray:
        return self._bind(x)(x.flow_rates)

    def at(self, state: OperatingState) -> "BoundSolver":
        """This solver bound to a copy of `state`: its solves take flow rates alone."""
        state = state.copy()
        return BoundSolver(self, state, self._bind(state))

    def _bind(self, state: OperatingState) -> Callable[[np.ndarray], np.ndarray]:
        """The solve at `state`, as a function of the flow rates."""
        raise NotImplementedError


class BoundSolver(ThermalSolver):
    """A solver bound to one operating state by `at`. Its solve takes the
    flow rates alone, and counts in the n_calls of the solver it came from."""

    n_calls = property(lambda self: self.parent.n_calls,
                       lambda self, n: setattr(self.parent, "n_calls", n))

    def __init__(self, parent: ThermalSolver, state: OperatingState,
                 solve: Callable[[np.ndarray], np.ndarray]):
        self.parent, self.state, self._solve = parent, state, solve


def _inverse_square_weights(src: np.ndarray, dst: np.ndarray, normalize_axis: int,
                            what: str) -> np.ndarray:
    """1/d^2 weights between position sets, normalized along the given axis."""
    d2 = squared_distances(src, dst)
    if (d2 == 0.0).any():
        raise ZeroDistanceError(f"coincident positions in {what}")
    w = 1.0 / d2
    return w / w.sum(axis=normalize_axis, keepdims=True)


def _aisle_mixing(positions: np.ndarray, mixing: float) -> np.ndarray:
    """Sensor reading matrix for one aisle group: own zone blended with the
    inverse-square mix of the other zones in the same aisle class."""
    g = len(positions)
    if g == 1 or mixing == 0.0:
        return np.eye(g)
    off = np.divide(1.0, squared_distances(positions, positions), out=np.zeros((g, g)),
                    where=~np.eye(g, dtype=bool))
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
        # server exhaust air into each hot zone, and the cold air it drew
        server_flow = scenario.server_nominal_cfm_per_w * self.rated  # cfm
        self.exhaust = server_flow[:, None] * self.server_exhaust  # (m, n_hot)
        self.exhaust_flow = self.exhaust.sum(axis=0)  # (n_hot,)
        self.exhaust_inlet = self.exhaust.T @ self.server_inlet  # (n_hot, n_cold)

    def _bind(self, x: OperatingState) -> Callable[[np.ndarray], np.ndarray]:
        """The solve at x's state, once x passes the state's checks: all of the
        balance but the servers' rise is derived here, so the solve checks its
        flow rates (count, finiteness, then sign) and computes only the rest."""
        x.check(self.layout)
        if not all(np.isfinite(getattr(x, f.name)).all() for f in fields(x)):
            raise InvalidInputError("non-finite entries in solver input")
        sc = self.scenario
        r, leak = sc.recirculation_fraction, sc.ambient_leakage

        phi = sc.crac_nominal_cfm * x.crac_fan_speeds ** sc.fan_law_exponent  # (l,)
        cold_supply = (phi * x.crac_setpoints) @ self.crac_to_cold  # heat flux term
        cold_flow = phi @ self.crac_to_cold  # (n_cold,)
        bypass_flow = r * (phi @ self.crac_to_hot)  # (n_hot,)

        utilization = np.divide(x.server_powers, self.rated, out=np.zeros_like(x.server_powers),
                                where=self.rated > 0)  # a zero-rated server is idle

        # t_hot = H t_cold + h0: each hot zone mixes server exhaust (inlet air
        # plus rise) with bypass air of its nearby cold zones, by flow; a hot
        # zone with no inflow reads those cold zones.
        hot_total = self.exhaust_flow + bypass_flow
        mixed = hot_total > 1e-12
        hot_total = np.maximum(hot_total, 1e-12)
        H = np.where(mixed[:, None],
                     (self.exhaust_inlet + bypass_flow[:, None] * self.hot_to_cold)
                     / hot_total[:, None],
                     self.hot_to_cold)  # (n_hot, n_cold)

        # t_cold = c0 + B t_hot: CRAC supply, plus the hot air that flows back
        # over uncontained aisles, blended with ambient by envelope leakage.
        backflow = (0.0 if sc.layout.containment else r) * self.exhaust_flow  # (n_hot,)
        cold_total = cold_flow + backflow @ self.hot_to_cold
        c0 = (1.0 - leak) * (cold_supply / cold_total) + leak * sc.ambient_c
        B = lhs = None  # under containment the cold zones need no solve
        if not sc.layout.containment:
            # H and B are non-negative (flows and weights are, by the Scenario
            # and OperatingState checks), each row of H sums to 1, and each row
            # of B sums to (1 - leak) * (backflow share of cold_total) < 1, as
            # cold_flow > 0. So |B H|_inf < 1 and I - B H is nonsingular.
            B = ((1.0 - leak) / cold_total)[:, None] * (self.hot_to_cold.T * backflow)
            lhs = np.eye(c0.size) - B @ H
        load = KAPPA_CFM_PER_W * utilization  # (m,) a server's rise times its flow rate

        def solve(alpha: np.ndarray) -> np.ndarray:
            alpha = np.asarray(alpha, dtype=float)
            if alpha.shape != load.shape:
                raise DimensionMismatchError("powers and flow rates differ in length")
            if not np.isfinite(alpha).all():
                raise InvalidInputError("non-finite entries in solver input")
            if (alpha <= 0).any():
                raise InvalidInputError("flow rates must be positive")
            # a rate small enough to overflow a rise gives non-finite readings: they
            # raise below, with no warning on the way
            with np.errstate(over="ignore", invalid="ignore"):
                h0 = np.where(mixed, (self.exhaust.T @ (load / alpha)) / hot_total, 0.0)
                t_cold = c0 if lhs is None else np.linalg.solve(lhs, c0 + B @ h0)
                readings = np.empty(self.layout.n_sensors)
                readings[self.cold_idx] = self.mix_cold @ t_cold
                readings[self.hot_idx] = self.mix_hot @ (H @ t_cold + h0)
            if not np.isfinite(readings).all():
                raise InvalidInputError(f"non-finite readings at {rate_range(alpha)}")
            return readings

        return solve


def zonal_solve(scenario: Scenario, x: SystemInput) -> np.ndarray:
    """One-shot zonal solve without touching any call counter."""
    return ZonalSolver(scenario)._solve(x)


def synthesize_measurements(scenario: Scenario, state: OperatingState,
                            seed: Optional[int] = None) -> np.ndarray:
    """Sensor measurement vector: the zonal solve at the hidden ground-truth
    flow rates plus seeded zero-mean Gaussian sensor noise. A noise level
    whose draws overflow raises HallcalError."""
    clean = zonal_solve(scenario, state.to_input(scenario.alpha_true))
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    measured = clean + rng.normal(0.0, scenario.sensor_noise_sd, size=clean.size)
    if not np.isfinite(measured).all():
        raise HallcalError(f"sensor noise sd {scenario.sensor_noise_sd!r} draws a "
                           "non-finite measurement")
    return measured


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


def _write_sidecar(spec: ExternalSolverSpec, state: OperatingState) -> None:
    """Make the workdir and write the state.json sidecar into it; a path that
    cannot hold either raises OutputDirectoryError naming it."""
    from . import fileio  # fileio imports this module
    workdir = Path(spec.workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirectoryError(f"cannot create solver workdir {workdir}: {exc.strerror}") from exc
    fileio.save_state(state, workdir / "state.json")


def external_solve(spec: ExternalSolverSpec, x, server_ids: Sequence[str],
                   sensor_ids: Optional[Sequence[str]] = None) -> np.ndarray:
    """Round-trip one solve through the external command: x is a SystemInput, whose
    state goes to the sidecar first, or the flow rates of a solver `at` a state.
    A workdir file that cannot be removed or written raises OutputDirectoryError,
    and a command that cannot be started CommandFailedError, each naming it."""
    from . import fileio  # fileio imports this module
    if isinstance(x, SystemInput):
        _write_sidecar(spec, x)
        x = x.flow_rates
    workdir = Path(spec.workdir)
    output_path = workdir / OUTPUT_FILENAME
    if output_path.exists():
        try:
            output_path.unlink()
        except OSError as exc:
            raise OutputDirectoryError(f"cannot remove {output_path}: {exc.strerror}") from exc

    lines = [f"{sid}, {float(alpha)!r}" for sid, alpha in zip(server_ids, x)]
    fileio._write_text(workdir / CONFIG_FILENAME, "\n".join(lines) + "\n")

    # The child leads its own process group, so a timeout or an interrupt
    # also kills what it started (an mpirun or a shell wrapper's solver).
    try:
        proc = subprocess.Popen([*spec.command, str(workdir)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
    except OSError as exc:
        raise CommandFailedError(f"cannot start external solver "
                                 f"{shlex.join(spec.command)}: {exc.strerror}") from exc
    with proc:
        try:
            _, stderr = proc.communicate(timeout=spec.timeout_s)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SolverTimeoutError(f"external solver exceeded {spec.timeout_s} s") from exc
            raise
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:]
        raise CommandFailedError(": ".join([f"external solver exited {proc.returncode}", *tail]))

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

    def _bind(self, state: OperatingState) -> Callable[[np.ndarray], np.ndarray]:
        """The solve at `state`, whose sidecar is written here, once."""
        _write_sidecar(self.spec, state)
        return lambda alpha: external_solve(self.spec, state.to_input(alpha).flow_rates,
                                            self.server_ids, self.sensor_ids)
