"""Training-data-volume study: how much solver-generated data each
surrogate needs.

A pool of solver samples at uniform-random flow rates is split 8:2 into
train and test sets; the knowledge surrogate (adjacency fixed, fitted in
closed form), the knowledge surrogate with trainable adjacency, and the
vanilla MLP (both trained by Adam) are each fitted on growing fractions of
the train set and scored by test MAE against the solver outputs. Each fit
starts cold. The MLP trains in float32 and the trainable-adjacency model
in float64; all three are scored in float64.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .engine import SEARCH_BOUNDS, KnowledgeSurrogateModel, VanillaSurrogateModel, mae
from .errors import PoolTooSmallError
from .hall import HallLayout, OperatingState, build_adjacency
from .mlp import MLP_TRAIN
from .optim import TrainConfig
from .solver import Scenario, ZonalSolver
from .surrogate import (
    PenaltyParams,
    TrainableAdjacencyWeights,
    TrainingSample,
    forward_trainable,
    init_weights,
    train_trainable,
)

KNOWLEDGE_FIXED = "knowledge-fixed"
KNOWLEDGE_TRAINABLE = "knowledge-trainable"
VANILLA = "vanilla"

MIN_POOL_SIZE = 10  # the smallest pool the study splits
TRAIN_SHARE = 0.8  # of the pool; the rest is the test set
FRACTIONS = (0.05, 0.15, 0.30, 0.50)  # the default study's shares of the train set
POOL_SIZE = 200  # the default study's pool


@dataclass(frozen=True)
class StudyCell:
    fraction: float
    surrogate: str
    n_train: int
    test_mae: float


def check_shape(fractions: list[float], pool_size: int) -> None:
    """Reject, before any solve, a pool too small to split or a fraction outside (0, 1] or empty."""
    if pool_size < MIN_POOL_SIZE:
        raise PoolTooSmallError(f"pool of {pool_size} is too small to split")
    bad = [f for f in fractions if not 0.0 < f <= 1.0]
    if bad:
        raise PoolTooSmallError(f"fractions {bad} are not in (0, 1]")
    n_train = round(TRAIN_SHARE * pool_size)
    for fraction in fractions:
        if round(fraction * n_train) < 1:
            raise PoolTooSmallError(f"fraction {fraction} of {n_train} training samples is empty")


def build_pool(scenario: Scenario, state: OperatingState, pool_size: int,
               seed: int) -> list[TrainingSample]:
    """Solver samples at flow rates drawn uniformly over the search box."""
    rng = np.random.default_rng(seed)
    solver = ZonalSolver(scenario)
    pool = []
    for _ in range(pool_size):
        alpha = rng.uniform(SEARCH_BOUNDS.lower, SEARCH_BOUNDS.upper, scenario.layout.n_servers)
        x = state.to_input(alpha)
        pool.append(TrainingSample(input=x, target=solver.solve(x)))
    return pool


def run_datavolume_study(scenario: Scenario, state: OperatingState,
                         fractions: Sequence[float] = FRACTIONS, pool_size: int = POOL_SIZE,
                         seed: int = 0) -> list[StudyCell]:
    """Train all three surrogates at every fraction of the train set, each
    in (0, 1]; returns one cell per (fraction, surrogate) pair."""
    check_shape(fractions, pool_size)
    layout: HallLayout = scenario.layout
    pool = build_pool(scenario, state, pool_size, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pool))
    n_train = round(TRAIN_SHARE * pool_size)
    train_pool = [pool[i] for i in perm[:n_train]]
    test_pool = [pool[i] for i in perm[n_train:]]

    priors = build_adjacency(layout)
    n = layout.n_sensors

    def test_mae(predict) -> float:
        return float(np.mean([mae(predict(s.input), s.target) for s in test_pool]))

    cells: list[StudyCell] = []
    for fraction in fractions:
        k = round(fraction * n_train)
        subset = train_pool[:k]

        knowledge = KnowledgeSurrogateModel(priors, PenaltyParams())
        knowledge.fit(subset)
        cells.append(StudyCell(fraction, KNOWLEDGE_FIXED, k, test_mae(knowledge.predict)))

        tw0 = TrainableAdjacencyWeights(linear=init_weights(n),
                                        w_cs=priors.w_cs.copy(), w_ss=priors.w_ss.copy())
        tw = train_trainable(tw0, priors.hot_mask, subset, TrainConfig())
        cells.append(StudyCell(fraction, KNOWLEDGE_TRAINABLE, k,
                               test_mae(lambda x: forward_trainable(tw, priors.hot_mask, x))))

        vanilla = VanillaSurrogateModel(layout, PenaltyParams(), MLP_TRAIN, seed=seed)
        vanilla.fit(subset)
        cells.append(StudyCell(fraction, VANILLA, k, test_mae(vanilla.predict)))
    return cells
