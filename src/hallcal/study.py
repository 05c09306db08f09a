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

import os
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
        return float(np.mean([mae(predict(s.input), s.target) for s in test_pool]))

    def fit_cell(fraction: float, surrogate: str) -> StudyCell:
        k = round(fraction * n_train)
        subset = train_pool[:k]
        if surrogate == KNOWLEDGE_FIXED:
            knowledge = KnowledgeSurrogateModel(priors, PenaltyParams())
            knowledge.fit(subset)
            return StudyCell(fraction, surrogate, k, test_mae(knowledge.predict))
        if surrogate == KNOWLEDGE_TRAINABLE:
            tw0 = TrainableAdjacencyWeights(linear=init_weights(n),
                                            w_cs=priors.w_cs.copy(), w_ss=priors.w_ss.copy())
            tw = train_trainable(tw0, priors.hot_mask, subset, TrainConfig())
            return StudyCell(fraction, surrogate, k,
                             test_mae(lambda x: forward_trainable(tw, priors.hot_mask, x)))
        vanilla = VanillaSurrogateModel(layout, PenaltyParams(), MLP_TRAIN, seed=seed)
        vanilla.fit(subset)
        return StudyCell(fraction, surrogate, k, test_mae(vanilla.predict))

    keys = [(fraction, surrogate) for fraction in fractions for surrogate in SURROGATES]
    # costliest fit first: the MLP, then the trainable adjacency, each on its
    # largest subset first, so the last fits to finish are the short ones
    handout = sorted(range(len(keys)),
                     key=lambda i: (-SURROGATES.index(keys[i][1]), -keys[i][0]))
    return _fit_on_every_cpu(lambda i: fit_cell(*keys[i]), handout)


def _fit_on_every_cpu(fit, handout: list[int]) -> list:
    """[fit(i) for i in range(len(handout))], computed by this process and
    W - 1 forked workers, W = min(CPUs in its affinity mask, len(handout)).

    The processes take the indices in `handout` order from one shared
    counter, so one that finishes early takes the next. A worker inherits
    everything `fit` reads; only the index it takes goes in and only
    (index, fit(index)) comes back. The first error raised in any process
    stops the handout and is raised here once every worker has ended and
    been reaped. With one CPU nothing is forked, and neither is it while
    this process runs other threads. Fork is unsafe then, and the usual
    ones are a multithreaded BLAS's, which every worker would inherit to
    contend for the same CPUs: on a 2-vCPU machine with OpenBLAS's default
    2 threads, forking made the default study up to 13 times slower."""
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("i", 0)  # how many of handout have been taken
    reader, writer = ctx.Pipe(duplex=False)  # worker -> this process: (index, result or error)
    write_lock = ctx.Lock()
    results: dict[int, object] = {}

    def take_and_fit(put) -> None:
        while True:
            with taken.get_lock():
                position = taken.value
                taken.value += 1
            if position >= len(handout):
                return
            try:
                put(handout[position], fit(handout[position]))
            except Exception:
                with taken.get_lock():  # no process takes another index
                    taken.value = len(handout)
                raise

    def work() -> None:
        def put(index, result) -> None:
            with write_lock:
                writer.send((index, result))
        try:
            take_and_fit(put)
        except Exception as exc:
            put(None, exc)

    workers = []
    try:
        cpus = 1 if _other_threads_run() else len(os.sched_getaffinity(0))
        for _ in range(min(cpus, len(handout)) - 1):
            worker = ctx.Process(target=work)
            worker.start()
            workers.append(worker)
        take_and_fit(results.__setitem__)
        running = {worker.sentinel: worker for worker in workers}
        while len(results) < len(handout):
            ready = wait([reader, *running])
            if reader in ready:
                index, result = reader.recv()
                if index is None:
                    raise result
                results[index] = result
                continue
            for sentinel in ready:
                worker = running.pop(sentinel)
                worker.join()
                if worker.exitcode != 0:
                    raise ChildProcessError(f"study worker {worker.pid} ended with exit code "
                                            f"{worker.exitcode} before returning its fits")
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            worker.join()
        reader.close()
        writer.close()
    return [results[i] for i in range(len(handout))]


def _other_threads_run() -> bool:
    """Whether this process runs a thread besides the calling one; True
    where no /proc tells (macOS, which has no affinity masks either)."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True
