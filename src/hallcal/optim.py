"""Search machinery: Adam steps, bounded differential evolution, the
DE-then-Adam hybrid, and a (1+1) evolution strategy with 1/5-rule step
adaptation.

All searchers clip every candidate into the feasible box before the
objective sees it, keep a monotone best-so-far trace, and count objective
invocations exactly (the counts feed the solver-budget comparisons).
Settings with one value in use are the module constants below; the ES
step starts at a fixed fraction of the box span, so it follows the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, ObjectiveNonFiniteError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DE_CROSSOVER_RATE = 0.6
DE_DIFFERENTIAL_WEIGHT = 0.8
ES_STEP_FRACTION = 1.0 / 6.0  # initial ES step as a fraction of the box span
ES_ADAPT_EVERY = 20  # mutations per 1/5-rule window
ES_ADAPT_FACTOR = 1.5


@dataclass(frozen=True)
class Bounds:
    """Element-wise box [lower, upper] for the flow-rate vector."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0 < self.lower < self.upper:
            raise ValueError(f"need 0 < lower < upper, got [{self.lower}, {self.upper}]")

    def clip(self, x: np.ndarray) -> np.ndarray:  # np.clip's values, without its wrappers
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DeConfig:
    population_size: int = 10
    max_iterations: int = 100

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class AdamConfig:
    """Projected-Adam refinement stage."""

    learning_rate: float = 1e-3
    steps: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch surrogate training schedule."""

    epochs: int = 150
    learning_rate: float = 0.1
    decay: float = 0.8
    decay_every: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.decay ** (epoch // self.decay_every)


def _adam_update(m: np.ndarray, v: np.ndarray, params: np.ndarray, grad: np.ndarray,
                 step: int, learning_rate: float, scratch: np.ndarray, step_buf: np.ndarray) -> None:
    """Adam update number `step` (1-based), in place on m, v and params.

    The operation order is fixed, so every caller gets the same bits;
    scratch and step_buf are work vectors of params' shape.
    """
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
    m += scratch
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grad
    v += scratch
    np.divide(m, 1.0 - ADAM_BETA1 ** step, out=step_buf)
    step_buf *= learning_rate
    np.divide(v, 1.0 - ADAM_BETA2 ** step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step_buf /= scratch
    params -= step_buf


def adam_fit(params: np.ndarray, loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
             hyper: TrainConfig) -> np.ndarray:
    """Full-batch Adam with hyper's staged learning-rate decay.

    loss_and_grad(p) returns the loss at p and its gradient there. It is
    always passed the same work vector, updated in place between calls, and
    may return the same gradient buffer every time: each gradient is used
    up before the next call. Returns a new array holding the parameters
    with the lowest observed loss, equal to `params` when no epoch improves
    on it; `params` itself is left unchanged. The work vectors, moments and
    result keep `params`' dtype, so float32 parameters train in float32.
    """
    params = np.array(params)
    best_params = params.copy()
    m, v = np.zeros_like(params), np.zeros_like(params)
    scratch, step_buf = np.empty_like(params), np.empty_like(params)
    best_loss, grad = loss_and_grad(params)
    for epoch in range(hyper.epochs):
        _adam_update(m, v, params, grad, epoch + 1, hyper.lr_at(epoch), scratch, step_buf)
        loss, grad = loss_and_grad(params)
        if loss < best_loss:
            best_loss = loss
            np.copyto(best_params, params)
    return best_params


@dataclass
class SearchResult:
    """Outcome of one bounded search run."""

    x: np.ndarray
    fun: float
    n_evals: int
    best_trace: list[float] = field(default_factory=list)
    # stage diagnostics, populated by the searcher that produces them
    losses: Optional[list[float]] = None
    grad_norms: Optional[list[float]] = None
    adaptations: Optional[list[tuple[float, float]]] = None
    de_fun: Optional[float] = None
    residual: Optional[float] = None  # an exact search's stationarity residual at x


class _Counted:
    """Wrap an objective: clip-checked finiteness, call count, best tracking."""

    def __init__(self, objective: Callable[[np.ndarray], float]):
        self.objective = objective
        self.n_evals = 0
        self.best_x: Optional[np.ndarray] = None
        self.best_f = np.inf
        self.best_trace: list[float] = []

    def __call__(self, x: np.ndarray) -> float:
        f = float(self.objective(x))
        self.n_evals += 1
        if not np.isfinite(f):
            raise ObjectiveNonFiniteError(f"objective returned {f} at {x!r}")
        if f < self.best_f:
            self.best_f = f
            self.best_x = x.copy()
        self.best_trace.append(self.best_f)
        return f


def _lhs_population(rng: np.random.Generator, count: int, dim: int, bounds: Bounds) -> np.ndarray:
    """Latin-hypercube sample of `count` points over the box."""
    strata = (np.argsort(rng.random((count, dim)), axis=0) + rng.random((count, dim))) / count
    return bounds.lower + strata * bounds.span


def de_search(objective: Callable[[np.ndarray], float], bounds: Bounds,
              cfg: DeConfig, x0: np.ndarray, seed: int,
              init_bounds: Optional[Bounds] = None) -> SearchResult:
    """DE/rand/1/bin over the box, population anchored at x0.

    The remaining members are a Latin-hypercube sample spanning
    `init_bounds` (the full box when not given), so the first generations
    already probe far from the anchor; callers with a known low-penalty
    region can seed inside it while the search itself stays free to roam
    the whole box. Every candidate is clipped into the box before
    evaluation; ties keep the incumbent.
    """
    rng = np.random.default_rng(seed)
    dim = x0.size
    obj = _Counted(objective)

    pop = np.empty((cfg.population_size, dim))
    pop[0] = bounds.clip(np.asarray(x0, dtype=float))
    pop[1:] = _lhs_population(rng, cfg.population_size - 1, dim, init_bounds or bounds)
    fitness = np.array([obj(pop[i]) for i in range(cfg.population_size)])

    for _ in range(cfg.max_iterations):
        for i in range(cfg.population_size):
            candidates = [j for j in range(cfg.population_size) if j != i]
            r0, r1, r2 = rng.choice(candidates, size=3, replace=False)
            mutant = bounds.clip(pop[r0] + DE_DIFFERENTIAL_WEIGHT * (pop[r1] - pop[r2]))
            cross = rng.random(dim) < DE_CROSSOVER_RATE
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, pop[i])
            f_trial = obj(trial)
            if f_trial < fitness[i]:
                pop[i] = trial
                fitness[i] = f_trial

    return SearchResult(x=obj.best_x, fun=obj.best_f, n_evals=obj.n_evals,
                        best_trace=obj.best_trace)


def adam_search(objective: Callable[[np.ndarray], float],
                gradient: Callable[[np.ndarray], np.ndarray],
                bounds: Bounds, cfg: AdamConfig, x0: np.ndarray) -> SearchResult:
    """Projected Adam descent: clip back into the box after every step.

    Returns the best evaluated point; records per-step loss and mean
    absolute gradient for the convergence traces. The steps run
    _adam_update in place on one work vector, so the objective and the
    gradient must not keep the array they are passed.
    """
    obj = _Counted(objective)
    params = bounds.clip(np.asarray(x0, dtype=float))
    m, v = np.zeros_like(params), np.zeros_like(params)
    scratch, step_buf = np.empty_like(params), np.empty_like(params)
    losses: list[float] = []
    grad_norms: list[float] = []
    for step in range(1, cfg.steps + 1):
        losses.append(obj(params))
        g = gradient(params)
        if g.shape != params.shape:
            raise DimensionMismatchError(f"gradient shape {g.shape} is not x0's {params.shape}")
        grad_norms.append(float(np.mean(np.abs(g))))
        _adam_update(m, v, params, g, step, cfg.learning_rate, scratch, step_buf)
        np.clip(params, bounds.lower, bounds.upper, out=params)
    losses.append(obj(params))
    return SearchResult(x=obj.best_x, fun=obj.best_f, n_evals=obj.n_evals,
                        best_trace=obj.best_trace, losses=losses, grad_norms=grad_norms)


def hybrid_search(objective: Callable[[np.ndarray], float],
                  gradient: Callable[[np.ndarray], np.ndarray],
                  bounds: Bounds, de_cfg: DeConfig, adam_cfg: AdamConfig,
                  x0: np.ndarray, seed: int,
                  init_bounds: Optional[Bounds] = None) -> SearchResult:
    """Differential evolution followed by projected-Adam refinement of the
    DE winner; returns whichever of the two stages found the lower value."""
    de = de_search(objective, bounds, de_cfg, x0, seed, init_bounds=init_bounds)
    adam = adam_search(objective, gradient, bounds, adam_cfg, de.x)
    if adam.fun <= de.fun:
        x, fun = adam.x, adam.fun
    else:
        x, fun = de.x, de.fun
    trace = de.best_trace + [min(b, de.fun) for b in adam.best_trace]
    return SearchResult(x=x, fun=fun, n_evals=de.n_evals + adam.n_evals,
                        best_trace=trace, losses=adam.losses,
                        grad_norms=adam.grad_norms, de_fun=de.fun)


def cmaes_1p1(objective: Callable[[np.ndarray], float], bounds: Bounds,
              max_evals: int, x0: np.ndarray, seed: int) -> SearchResult:
    """(1+1) evolution strategy with 1/5-success-rule step adaptation.

    The initial step is ES_STEP_FRACTION of the box span. One Gaussian
    offspring per iteration, clipped into the box; a strictly better
    offspring replaces the parent. Every ES_ADAPT_EVERY mutations the step
    is multiplied by ES_ADAPT_FACTOR when the windowed success rate exceeds
    1/5 and divided by it when the rate falls below. Stops after max_evals
    objective calls, the parent's included.
    """
    rng = np.random.default_rng(seed)
    obj = _Counted(objective)
    parent = bounds.clip(np.asarray(x0, dtype=float))
    f_parent = obj(parent)
    sigma = ES_STEP_FRACTION * bounds.span
    adaptations: list[tuple[float, float]] = []
    window_successes = 0
    window_count = 0

    while obj.n_evals < max_evals:
        child = bounds.clip(parent + sigma * rng.standard_normal(parent.size))
        f_child = obj(child)
        window_count += 1
        if f_child < f_parent:
            parent, f_parent = child, f_child
            window_successes += 1
        if window_count == ES_ADAPT_EVERY:
            rate = window_successes / window_count
            if rate > 0.2:
                sigma *= ES_ADAPT_FACTOR
            elif rate < 0.2:
                sigma /= ES_ADAPT_FACTOR
            adaptations.append((rate, sigma))
            window_successes = 0
            window_count = 0

    return SearchResult(x=obj.best_x, fun=obj.best_f, n_evals=obj.n_evals,
                        best_trace=obj.best_trace, adaptations=adaptations)
