"""Training-data-volume study: how much solver-generated data each
surrogate needs.

A pool of solver samples at uniform-random flow rates is split 8:2 into
train and test sets; the knowledge surrogate (adjacency fixed, fitted in
closed form), the knowledge surrogate with trainable adjacency, and the
vanilla MLP (both trained by Adam) are each fitted on growing fractions of
the train set and scored by test MAE against the solver outputs. Each fit
starts cold. The MLP trains in float32 and the trainable-adjacency model
in float64; all three are scored in float64. Every sample is at the one
operating state, so each model computes that state's terms once per fit
and once per scored cell: the fixed-adjacency and vanilla models through
`at`, the trainable-adjacency model through train_trainable and
trainable_at.
"""

from __future__ import annotations

import os
import time
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
    init_weights,
    train_trainable,
    trainable_at,
)

KNOWLEDGE_FIXED = "knowledge-fixed"
KNOWLEDGE_TRAINABLE = "knowledge-trainable"
VANILLA = "vanilla"
SURROGATES = (KNOWLEDGE_FIXED, KNOWLEDGE_TRAINABLE, VANILLA)  # table order; cheapest fit first

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
    """Reject, before any solve, a pool too small to split or a fraction
    outside (0, 1], repeated or empty."""
    if pool_size < MIN_POOL_SIZE:
        raise PoolTooSmallError(f"pool of {pool_size} is too small to split")
    bad = [f for f in fractions if not 0.0 < f <= 1.0]
    if bad:
        raise PoolTooSmallError(f"fractions {bad} are not in (0, 1]")
    repeated = [f for i, f in enumerate(fractions) if f in fractions[:i]]
    if repeated:
        raise PoolTooSmallError(f"fraction {repeated[0]} is repeated")
    n_train = round(TRAIN_SHARE * pool_size)
    for fraction in fractions:
        if round(fraction * n_train) < 1:
            raise PoolTooSmallError(f"fraction {fraction} of {n_train} training samples is empty")


def build_pool(scenario: Scenario, state: OperatingState, pool_size: int,
               seed: int) -> list[TrainingSample]:
    """Solver samples at `state` and flow rates drawn uniformly over the search box."""
    rng = np.random.default_rng(seed)
    solver = ZonalSolver(scenario).at(state)
    pool = []
    for _ in range(pool_size):
        alpha = rng.uniform(SEARCH_BOUNDS.lower, SEARCH_BOUNDS.upper, scenario.layout.n_servers)
        pool.append(TrainingSample(input=solver.state.to_input(alpha), target=solver.solve(alpha)))
    return pool


def run_datavolume_study(scenario: Scenario, state: OperatingState,
                         fractions: Sequence[float] = FRACTIONS, pool_size: int = POOL_SIZE,
                         seed: int = 0) -> list[StudyCell]:
    """Train all three surrogates at every fraction of the train set, each
    in (0, 1]; returns one cell per (fraction, surrogate) pair, fraction by
    fraction in SURROGATES order. The pool's solves run in this process,
    the cold-start fits on every CPU it may use (`_fit_on_every_cpu`)."""
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
        """Mean test MAE of predict, a function of the flow rates at `state`."""
        return float(np.mean([mae(predict(s.input.flow_rates), s.target) for s in test_pool]))

    def fit_cell(fraction: float, surrogate: str) -> StudyCell:
        k = round(fraction * n_train)
        subset = train_pool[:k]
        if surrogate == KNOWLEDGE_FIXED:
            knowledge = KnowledgeSurrogateModel(priors, PenaltyParams()).at(state)
            knowledge.fit(subset)
            return StudyCell(fraction, surrogate, k, test_mae(knowledge.predict))
        if surrogate == KNOWLEDGE_TRAINABLE:
            tw0 = TrainableAdjacencyWeights(linear=init_weights(n),
                                            w_cs=priors.w_cs.copy(), w_ss=priors.w_ss.copy())
            tw = train_trainable(tw0, priors.hot_mask, subset, TrainConfig())
            return StudyCell(fraction, surrogate, k,
                             test_mae(trainable_at(tw, priors.hot_mask, state)))
        vanilla = VanillaSurrogateModel(layout, PenaltyParams(), MLP_TRAIN, seed=seed).at(state)
        vanilla.fit(subset)
        return StudyCell(fraction, surrogate, k, test_mae(vanilla.predict))

    keys = [(fraction, surrogate) for fraction in fractions for surrogate in SURROGATES]
    # costliest fit first: the MLP, then the trainable adjacency, each on its
    # largest subset first, so the last fits to finish are the short ones
    handout = sorted(range(len(keys)),
                     key=lambda i: (-SURROGATES.index(keys[i][1]), -keys[i][0]))
    return _fit_on_every_cpu(lambda i: fit_cell(*keys[i]), handout)


_fit = None  # the running study's fit, for its workers to inherit; set only with no other thread


def _fit_in_worker(index: int):
    return _fit(index)


def _fit_on_every_cpu(fit, handout: list[int]) -> list:
    """[fit(i) for i in range(len(handout))], computed by W forked workers
    that take the indices in `handout` order, W = min(CPUs in this
    process's affinity mask, len(handout)); by this process alone when W
    is 1. A worker inherits `fit` and everything it reads: only the index
    goes in and only fit(index) comes back. The first error, raised by a
    fit or here (an interrupt), ends the study at once: the indices not
    yet taken are cancelled and every worker is killed and reaped before
    it is raised. Nothing is forked while this process runs other threads,
    usually a multithreaded BLAS's: fork is unsafe then, and each worker
    would inherit them to contend for the same CPUs (up to 13 times slower
    on a 2-vCPU machine with OpenBLAS's default 2 threads)."""
    global _fit
    cpus = 1 if _other_threads_run() else len(os.sched_getaffinity(0))
    if min(cpus, len(handout)) == 1:
        return [fit(i) for i in range(len(handout))]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    _fit = fit
    # with fork, the executor (Python 3.11 on) starts every worker at the
    # first submit, before any thread of its own
    pool = ProcessPoolExecutor(min(cpus, len(handout)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        cells = {pool.submit(_fit_in_worker, i): i for i in handout}
        results = {cells[cell]: cell.result() for cell in as_completed(cells)}
    except BaseException:
        # shutdown alone would wait for the running fits, and the executor has no public kill
        for worker in list(pool._processes.values()):
            worker.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)  # reaps the workers and joins the executor's threads
        _fit = None
    # joined threads can stay listed for some ms; wait them out so a study run next forks too
    deadline = time.monotonic() + 1.0
    while _other_threads_run() and time.monotonic() < deadline:
        time.sleep(0.0005)
    return [results[i] for i in range(len(handout))]


def _other_threads_run() -> bool:
    """Whether this process runs a thread besides the calling one; True
    where no /proc tells (macOS, which has no affinity masks either)."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True
