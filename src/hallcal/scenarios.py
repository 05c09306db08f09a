"""Shipped synthetic halls: a parametric grid layout generator plus the
reference and identifiable calibration scenarios used by the experiments.

The grid hall places server rows two meters apart with alternating cold
and hot aisles between them, CRACs along the front wall, and sensors
spread along the aisles. Servers in the same row share a type, and all
servers of a type share the hidden ground-truth flow rate.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyFacilityClassError, MissingAisleCoverageError
from .hall import COLD, HOT, Crac, HallLayout, OperatingState, Sensor, Server, validate_layout
from .solver import Scenario

SERVERS_PER_ROW = 16
RATED_POWER_W = 400.0
N_SERVER_TYPES = 4


def make_grid_layout(n_cracs: int = 4, n_servers: int = 64, n_cold: int = 16,
                     n_hot: int = 8, containment: bool = True) -> HallLayout:
    """Regular hall: rows of servers, alternating aisles, front-wall CRACs."""
    if n_cracs < 1:
        raise EmptyFacilityClassError("need at least one CRAC")
    if n_servers < 1:
        raise EmptyFacilityClassError("need at least one server")
    if n_cold < 1 or n_hot < 1:
        raise MissingAisleCoverageError("need at least one cold and one hot sensor")

    width = 20.0
    n_rows = -(-n_servers // SERVERS_PER_ROW)

    cracs = tuple(
        Crac(id=f"crac-{i + 1}", position=(x, 0.5, 1.0))
        for i, x in enumerate(np.linspace(2.5, width - 2.5, n_cracs))
    )

    servers = []
    for j in range(n_servers):
        row, col = divmod(j, SERVERS_PER_ROW)
        per_row = min(SERVERS_PER_ROW, n_servers - row * SERVERS_PER_ROW)
        xs = np.linspace(2.0, width - 2.0, max(per_row, 1))
        servers.append(Server(
            id=f"srv-{j + 1:03d}",
            position=(float(xs[col]), 3.0 + 2.0 * row, 1.2),
            type_tag=f"type-{row % N_SERVER_TYPES + 1}",
            rated_power=RATED_POWER_W,
        ))

    # aisles sit at y = 2, 4, 6, ... around the rows, alternating cold/hot
    cold_ys = [2.0 + 2.0 * a for a in range(0, n_rows + 1, 2)]
    hot_ys = [2.0 + 2.0 * a for a in range(1, n_rows + 1, 2)]

    def spread(n: int, ys: list[float], aisle: str, prefix: str) -> list[Sensor]:
        per_aisle = [n // len(ys) + (1 if i < n % len(ys) else 0) for i in range(len(ys))]
        out = []
        k = 0
        for y, count in zip(ys, per_aisle):
            for x in np.linspace(2.5, width - 2.5, max(count, 1))[:count]:
                k += 1
                out.append(Sensor(id=f"{prefix}-{k:02d}", position=(float(x), y, 1.5), aisle=aisle))
        return out

    sensors = tuple(spread(n_cold, cold_ys, COLD, "sen-c") + spread(n_hot, hot_ys, HOT, "sen-h"))
    return validate_layout(HallLayout(cracs=cracs, servers=tuple(servers),
                                      sensors=sensors, containment=containment))


def make_reference_scenario(seed: int = 0, n_cracs: int = 4, n_servers: int = 64,
                            n_cold: int = 16, n_hot: int = 8, noise_sd: float = 0.1,
                            recirculation: float = 0.05,
                            containment: bool = True) -> tuple[Scenario, OperatingState]:
    """A grid hall with per-type hidden flow rates and a random operating
    state. The defaults are the desk-scale benchmark hall: 4 CRACs, 64
    servers, 24 sensors (16 cold, 8 hot), sensor noise 0.1 degC, 5% bypass
    recirculation, contained aisles."""
    rng = np.random.default_rng(seed)
    layout = make_grid_layout(n_cracs=n_cracs, n_servers=n_servers, n_cold=n_cold,
                              n_hot=n_hot, containment=containment)
    # drawn inside the operational rise band so the hidden truth is
    # penalty-feasible: kappa/alpha in (5, 15) degC for this range
    alpha = {t: rng.uniform(0.13, 0.33) for t in sorted({s.type_tag for s in layout.servers})}
    scenario = Scenario(
        layout=layout,
        alpha_true=np.array([alpha[s.type_tag] for s in layout.servers]),
        recirculation_fraction=recirculation,
        sensor_noise_sd=noise_sd,
        seed=seed,
    )
    state = OperatingState(
        crac_setpoints=rng.uniform(19.0, 21.0, n_cracs),
        crac_fan_speeds=rng.uniform(0.65, 0.9, n_cracs),
        server_powers=rng.uniform(0.5, 0.75, n_servers) * layout.rated_powers(),
    )
    return scenario, state


def make_identifiable_scenario(seed: int = 0) -> tuple[Scenario, OperatingState]:
    """Noise-free hall where every server dominates its own hot sensor, so
    the hidden flow rates are recoverable element-wise.

    Servers sit four meters apart with their sensors 0.4 m away, and the
    cross-zone sensor mixing is switched off; dominance then survives both
    the solver's inverse-square mixing and the surrogate's reciprocal-
    distance prior.
    """
    rng = np.random.default_rng(seed)
    n = 6
    spacing = 4.0
    cracs = tuple(Crac(id=f"crac-{i + 1}", position=(5.0 + 12.0 * i, 0.5, 1.0)) for i in range(2))
    servers = tuple(
        Server(id=f"srv-{j + 1:03d}", position=(2.0 + spacing * j, 4.0, 1.2),
               type_tag=f"type-{j + 1}", rated_power=RATED_POWER_W)
        for j in range(n)
    )
    sensors = tuple(
        [Sensor(id=f"sen-c-{j + 1:02d}", position=(2.0 + spacing * j, 2.0, 1.5), aisle=COLD)
         for j in range(n)]
        + [Sensor(id=f"sen-h-{j + 1:02d}", position=(2.0 + spacing * j, 4.4, 1.5), aisle=HOT)
           for j in range(n)]
    )
    layout = validate_layout(HallLayout(cracs=cracs, servers=servers, sensors=sensors))
    scenario = Scenario(
        layout=layout,
        alpha_true=rng.uniform(0.13, 0.33, n),
        recirculation_fraction=0.02,
        sensor_noise_sd=0.0,
        sensor_mixing=0.0,
        seed=seed,
    )
    state = OperatingState(
        crac_setpoints=np.array([19.5, 20.5]),
        crac_fan_speeds=np.array([0.8, 0.8]),
        server_powers=np.full(n, 0.625 * RATED_POWER_W),
    )
    return scenario, state
