import numpy as np
import pytest

from hallcal.hall import COLD, HOT, Crac, HallLayout, Sensor, Server, build_adjacency
from hallcal.scenarios import make_reference_scenario


@pytest.fixture
def tiny_layout():
    """Minimal valid hall: 2 CRACs, 4 servers, 1 cold + 1 hot sensor."""
    return HallLayout(
        cracs=(
            Crac(id="crac-1", position=(0.0, 0.0, 1.0)),
            Crac(id="crac-2", position=(8.0, 0.0, 1.0)),
        ),
        servers=tuple(
            Server(id=f"srv-{j}", position=(1.0 + 2.0 * j, 3.0, 1.2),
                   type_tag="type-1", rated_power=400.0)
            for j in range(4)
        ),
        sensors=(
            Sensor(id="sen-c", position=(3.0, 2.0, 1.5), aisle=COLD),
            Sensor(id="sen-h", position=(5.0, 4.0, 1.5), aisle=HOT),
        ),
    )


@pytest.fixture(scope="session")
def reference():
    scenario, state = make_reference_scenario(seed=0)
    return scenario, state


@pytest.fixture(scope="session")
def reference_priors(reference):
    scenario, _ = reference
    return build_adjacency(scenario.layout)


def random_layout(seed: int, n_cracs: int, n_servers: int, n_cold: int, n_hot: int) -> HallLayout:
    """Random geometry; continuous draws make coincident positions impossible."""
    rng = np.random.default_rng(seed)

    def pos():
        return tuple(rng.uniform(0.0, 10.0, 3))

    return HallLayout(
        cracs=tuple(Crac(id=f"c{i}", position=pos()) for i in range(n_cracs)),
        servers=tuple(Server(id=f"s{i}", position=pos(), type_tag="t",
                             rated_power=float(rng.uniform(200, 500)))
                      for i in range(n_servers)),
        sensors=tuple(
            [Sensor(id=f"nc{i}", position=pos(), aisle=COLD) for i in range(n_cold)]
            + [Sensor(id=f"nh{i}", position=pos(), aisle=HOT) for i in range(n_hot)]
        ),
    )


def reference_adam_trajectory(params, grad, lrs, project=lambda p: p):
    """Parameters after each update of the out-of-place Adam expression, with
    grad(p) the gradient at the current parameters p and each update passed
    through `project`; written out here so the in-place kernel is pinned to
    it bit for bit."""
    m, v = np.zeros_like(params), np.zeros_like(params)
    out = []
    for t, lr in enumerate(lrs, start=1):
        g = grad(params)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        params = project(params - lr * m_hat / (np.sqrt(v_hat) + 1e-8))
        out.append(params)
    return out


def replay(grads):
    """A gradient function that returns the rows of `grads` in turn, whatever
    point it is asked about."""
    rows = iter(grads)
    return lambda _params: next(rows)
