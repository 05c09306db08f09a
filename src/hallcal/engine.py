"""Iterative four-step calibration loop.

Three seed solves, at the bound extremes and the midpoint, start the
training dataset. Each iteration then fits the surrogate to everything
accumulated so far (the knowledge surrogate in closed form, from running
sums of its normal equations into which each new solve is folded once;
the MLP by Adam from its last weights), searches the flow rates against the
measurements through the frozen surrogate (the knowledge surrogate
exactly, by its convex search; the MLP by DE+Adam), solves at the search
result, validates that solve against the measurements and appends it to
the dataset. Every solve is at a new point, and a run of k iterations
performs 3 + k solver calls.
"""

from __future__ import annotations

import contextlib
import operator
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import CalibrationAbortedError, DimensionMismatchError, HallcalError
from .hall import DEFAULT_CUT_THRESHOLD, AdjacencyPriors, HallLayout, OperatingState, SystemInput
from .mlp import (
    MlpWeights,
    fit_standardizer,
    init_mlp,
    mlp_forward,
    mlp_grad_alpha,
    mlp_loss_l2,
    mlp_train,
)
from .optim import (
    AdamConfig,
    Bounds,
    DeConfig,
    SearchResult,
    TrainConfig,
    adam_search,
    hybrid_search,
)
from .solver import BoundSolver, ThermalSolver
from .surrogate import (
    PenaltyParams,
    StateTerms,
    SurrogateWeights,
    TrainingSample,
    convex_search,
    fit_terms,
    fold_terms,
    forward_at,
    grad_at,
    init_weights,
    loss_at,
    solve_fit,
)

SEARCH_BOUNDS = Bounds(0.01, 3.0)  # cfm/W, the default flow-rate search box
SETPOINT_RANGE_C = 12.0  # plausible CRAC setpoint band, for augmentation scaling
FAN_RANGE = 1.0
INPUT_NOISE_FRAC = 0.01  # augmentation input noise, as a fraction of each range
TARGET_NOISE_SD = 0.1  # augmentation target noise, degC


@dataclass(frozen=True)
class AugmentScales:
    """Per-feature Gaussian noise scales for dataset augmentation.

    Flow-rate noise is relative (multiplicative): the surrogate consumes
    1/alpha, so range-scaled absolute noise near the lower bound would
    perturb the feature by orders of magnitude while the target stays put.
    """

    setpoint_sd: float
    fan_sd: float
    power_sd: np.ndarray  # per server
    alpha_rel_sd: float
    target_sd: float


def default_augment_scales(layout: HallLayout) -> AugmentScales:
    """Input noise at a fraction of each feature's plausible range (relative
    for flow rates); target noise at a fixed sensor-grade scale in degC."""
    return AugmentScales(
        setpoint_sd=INPUT_NOISE_FRAC * SETPOINT_RANGE_C,
        fan_sd=INPUT_NOISE_FRAC * FAN_RANGE,
        power_sd=INPUT_NOISE_FRAC * layout.rated_powers(),
        alpha_rel_sd=INPUT_NOISE_FRAC,
        target_sd=TARGET_NOISE_SD,
    )


def init_samples(bounds: Bounds, state: OperatingState, solver: ThermalSolver,
                 n_servers: int) -> list[TrainingSample]:
    """Three seed solves at `state`: flow rates pinned at the lower bound,
    the upper bound, and their midpoint."""
    return _seed_samples(bounds, solver.at(state), n_servers)


def _seed_samples(bounds: Bounds, solver: BoundSolver, n_servers: int) -> list[TrainingSample]:
    """init_samples by a solver bound to their state."""
    alphas = [np.full(n_servers, v) for v in (bounds.lower, bounds.upper, bounds.midpoint)]
    return [TrainingSample(input=solver.state.to_input(a), target=solver.solve(a)) for a in alphas]


def augment(samples: list[TrainingSample], batch: int, scales: AugmentScales,
            seed: int, bounds: Optional[Bounds] = None) -> list[TrainingSample]:
    """Replace each sample by `batch` noisy copies (inputs and targets)."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[TrainingSample] = []
    for s in samples:
        x = s.input
        for _ in range(batch):
            tc = x.crac_setpoints + rng.normal(0.0, scales.setpoint_sd, x.crac_setpoints.size)
            fan = np.clip(x.crac_fan_speeds + rng.normal(0.0, scales.fan_sd, x.crac_fan_speeds.size), 0.0, 1.0)
            power = np.maximum(x.server_powers + rng.normal(0.0, 1.0, x.server_powers.size) * scales.power_sd, 0.0)
            alpha = x.flow_rates * (1.0 + rng.normal(0.0, scales.alpha_rel_sd, x.flow_rates.size))
            alpha = bounds.clip(alpha) if bounds is not None else np.maximum(alpha, 1e-6)
            target = s.target + rng.normal(0.0, scales.target_sd, s.target.size)
            out.append(TrainingSample(input=SystemInput(tc, fan, power, alpha), target=target))
    return out


def mae(pred: np.ndarray, meas: np.ndarray) -> float:
    """Mean absolute difference in degC (np.mean's sum and division)."""
    if np.shape(pred) != np.shape(meas):
        raise DimensionMismatchError("prediction and measurement lengths differ")
    diff = np.subtract(pred, meas, dtype=float)
    return float(np.add.reduce(np.abs(diff), axis=None) / diff.size)


# -- surrogate adapters -------------------------------------------------------


class KnowledgeSurrogateModel:
    """Stateful wrapper pairing the knowledge surrogate with its priors.
    `at` binds it to one operating state, whose StateTerms it computes
    once: its fits then take samples at that state, and its predictions,
    objectives and searches take flow rates alone."""

    def __init__(self, priors: AdjacencyPriors, penalty: PenaltyParams):
        self.priors = priors
        self.penalty = penalty
        self.weights: SurrogateWeights = init_weights(priors.n_sensors, penalty.kappa)
        self._summed: list[TrainingSample] = []  # the samples _sums sums, in order
        self._sums = None  # their fit_terms, summed

    def at(self, state: OperatingState) -> "KnowledgeSurrogateModel":
        """This model, bound to a copy of `state`."""
        self.terms: StateTerms = StateTerms.of(self.priors, state.copy())
        return self

    def fit(self, dataset: list[TrainingSample]) -> None:
        """fit_weights on the dataset, samples at the bound state, from
        running sums of fit_terms: only the samples past the prefix already
        summed (the same objects, in order) add terms, each by fold_terms,
        one at a time, the order in which fit_weights sums, so the weights
        match it bit for bit. Any other dataset starts the sums over."""
        k = len(self._summed)
        if not (0 < k <= len(dataset) and all(map(operator.is_, self._summed, dataset))):
            k, self._sums = len(dataset), fit_terms(self.priors, dataset)
        for sample in dataset[k:]:  # the sums are this model's own arrays: add in place
            for total, term in zip(self._sums, fold_terms(self.priors, self.terms, sample)):
                total += term
        self._summed = list(dataset)
        self.weights = solve_fit(*self._sums, len(dataset), self.penalty.kappa)

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        return forward_at(self.weights, self.priors, self.terms, alpha)

    def l2(self, alpha: np.ndarray, t_meas: np.ndarray) -> float:
        return loss_at(self.weights, self.priors, self.terms, alpha, t_meas, self.penalty)

    def l2_grad_alpha(self, alpha: np.ndarray, t_meas: np.ndarray) -> np.ndarray:
        return grad_at(self.weights, self.priors, self.terms, alpha, t_meas, self.penalty)

    def search(self, alpha: np.ndarray, t_meas: np.ndarray, bounds: Bounds) -> SearchResult:
        """The exact minimum of l2 over the box, starting at alpha."""
        return convex_search(self.weights, self.priors, self.terms, alpha, t_meas,
                             self.penalty, bounds)


class VanillaSurrogateModel:
    """Same adapter interface over the black-box MLP baseline.

    Standardization statistics, and with them the features the first layer
    reads, are frozen after the first fit so that later warm-started
    retraining keeps a stable input basis.
    """

    def __init__(self, layout: HallLayout, penalty: PenaltyParams,
                 train_cfg: TrainConfig, seed: int = 0):
        in_dim = sum(getattr(layout, f.metadata["count"]) for f in fields(SystemInput))
        self.penalty = penalty
        self.train_cfg = train_cfg
        self.weights: MlpWeights = init_mlp(in_dim, layout.n_sensors, seed)
        self._stats_fitted = False

    def at(self, state: OperatingState) -> "VanillaSurrogateModel":
        """This model, bound to a copy of `state`: its predictions and objectives take flow rates."""
        self.state = state.copy()
        return self

    def fit(self, dataset: list[TrainingSample]) -> None:
        if not self._stats_fitted:
            self.weights = fit_standardizer(self.weights, dataset)
            self._stats_fitted = True
        self.weights = mlp_train(self.weights, dataset, self.train_cfg)

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        return mlp_forward(self.weights, self.state.to_input(alpha))

    def l2(self, alpha: np.ndarray, t_meas: np.ndarray) -> float:
        return mlp_loss_l2(self.weights, self.state.to_input(alpha), t_meas, self.penalty)

    def l2_grad_alpha(self, alpha: np.ndarray, t_meas: np.ndarray) -> np.ndarray:
        return mlp_grad_alpha(self.weights, self.state.to_input(alpha), t_meas, self.penalty)


# -- the loop -----------------------------------------------------------------


def _penalty_feasible_band(cfg: "CalibConfig") -> Optional[Bounds]:
    """Flow-rate interval where the hinge penalty vanishes, intersected with
    the search box; used to seed the DE population in low-penalty territory
    (whole-box seeds are hinge-infeasible in every coordinate and stall the
    evolution in high dimension)."""
    lo = max(cfg.bounds.lower, cfg.penalty.kappa / cfg.penalty.dt_high)
    hi = min(cfg.bounds.upper, cfg.penalty.kappa / cfg.penalty.dt_low)
    return Bounds(lo, hi) if lo < hi else None


@dataclass(frozen=True)
class CalibConfig:
    """Everything a calibration run needs beyond its input files. The config
    file is this dataclass as JSON, and report.json echoes it in that form.
    The DE and Adam budgets (DeConfig() and AdamConfig()) and the MLP's
    schedule (mlp.MLP_TRAIN) are part of each method, not settings."""

    bounds: Bounds = SEARCH_BOUNDS
    max_iterations: int = 15
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    use_de: Optional[bool] = None  # None: the model's exact search if it has one, else DE+Adam
    seed: int = 0
    cut_threshold: float = DEFAULT_CUT_THRESHOLD  # the knowledge surrogate's adjacency cut

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.cut_threshold < 0:
            raise ValueError("cut_threshold must be >= 0")


@dataclass(kw_only=True)
class IterationTrace:
    iteration: int
    validation_mae: float
    mean_l2: Optional[float] = None  # mean per-step loss of a gradient stage; None on other searches
    mean_grad_mag: Optional[float] = None
    de_l2: Optional[float] = None
    search_residual: Optional[float] = None
    search_evals: Optional[int] = None  # the search's n_evals
    final_l2: Optional[float] = None  # the loss where the search ended
    solver_calls: int
    dataset_size: int
    wall_time_s: float  # this and the fields after it: seconds, for timings.csv alone
    t_fit: Optional[float] = None
    t_search: Optional[float] = None
    t_solve: Optional[float] = None  # a step the method lacks is None


@dataclass
class CalibrationResult:
    alpha_star: np.ndarray
    best_mae: float
    best_solver_temps: Optional[np.ndarray]
    traces: list[IterationTrace]
    n_solver_calls: int
    es_adaptations: Optional[int] = None  # the heuristic's step-size adaptations


class _RunRecord:
    """What every calibration method keeps of its solves: the earliest best
    MAE with its flow rates (the box midpoint until a solve validates) and
    temperatures, and one trace row per solve. A toolkit error raised in a
    solve or under `aborting` ends the run as the CalibrationAbortedError
    `abort` gives, with this result. Before its first solve, the run binds
    `solver` to its state (ThermalSolver.at) under `aborting`."""

    def __init__(self, solver: ThermalSolver, measurements: np.ndarray,
                 layout: HallLayout, bounds: Bounds):
        self.measurements = np.asarray(measurements, dtype=float)
        if self.measurements.size != layout.n_sensors:
            raise DimensionMismatchError("measurement length does not match the layout")
        self.solver = solver  # a bound solver counts its solves in this one's n_calls
        self.alpha_star = np.full(layout.n_servers, bounds.midpoint)
        self.best_mae = np.inf
        self.best_temps: Optional[np.ndarray] = None
        self.traces: list[IterationTrace] = []

    def result(self) -> CalibrationResult:
        return CalibrationResult(alpha_star=self.alpha_star, best_mae=self.best_mae,
                                 best_solver_temps=self.best_temps, traces=self.traces,
                                 n_solver_calls=self.solver.n_calls)

    def abort(self, reason: str, exc: HallcalError) -> CalibrationAbortedError:
        return CalibrationAbortedError(f"{reason}: {exc}", result=self.result())

    @contextlib.contextmanager
    def aborting(self, reason: str):
        try:
            yield
        except HallcalError as exc:
            raise self.abort(reason, exc) from exc

    def solve(self, alpha: np.ndarray, search: Optional[SearchResult] = None,
              dataset: Optional[list[TrainingSample]] = None, t0: Optional[float] = None,
              t_fit: Optional[float] = None, t_search: Optional[float] = None) -> float:
        """Solve at alpha, keep it if it is the earliest best, append it to
        dataset if given, trace it (search columns from search, time from t0,
        t_fit and t_search as given) and return its validation MAE."""
        start = time.perf_counter()
        try:
            temps = self.solver.solve(alpha)
        except HallcalError as exc:
            raise self.abort(f"solver failed at iteration {len(self.traces) + 1}", exc) from exc
        t_solve = time.perf_counter() - start
        val = mae(temps, self.measurements)
        if val < self.best_mae:
            self.best_mae, self.alpha_star, self.best_temps = val, alpha.copy(), temps
        if dataset is not None:
            dataset.append(TrainingSample(self.solver.state.to_input(alpha), temps))
        columns = {} if search is None else dict(
            mean_l2=None if search.losses is None else float(np.mean(search.losses)),
            mean_grad_mag=None if search.grad_norms is None else float(np.mean(search.grad_norms)),
            de_l2=search.de_fun, search_residual=search.residual,
            search_evals=search.n_evals, final_l2=search.fun)
        self.traces.append(IterationTrace(
            iteration=len(self.traces) + 1, validation_mae=val, solver_calls=self.solver.n_calls,
            dataset_size=0 if dataset is None else len(dataset),
            wall_time_s=time.perf_counter() - (start if t0 is None else t0),
            t_fit=t_fit, t_search=t_search, t_solve=t_solve, **columns))
        return val


def calibrate(solver: ThermalSolver, model, measurements: np.ndarray,
              state: OperatingState, layout: HallLayout, cfg: CalibConfig) -> CalibrationResult:
    """Run the four-step loop for cfg.max_iterations and return the best
    validated flow-rate vector with its traces."""
    run = _RunRecord(solver, measurements, layout, cfg.bounds)
    alpha = run.alpha_star
    with run.aborting("solver failed during seeding"):
        run.solver = solver.at(state)
        dataset = _seed_samples(cfg.bounds, run.solver, layout.n_servers)
    with run.aborting("surrogate failed at iteration 1"):
        model = model.at(run.solver.state)
    exact = getattr(model, "search", None) if cfg.use_de is None else None

    def objective(a: np.ndarray) -> float:
        return model.l2(a, run.measurements)

    def gradient(a: np.ndarray) -> np.ndarray:
        return model.l2_grad_alpha(a, run.measurements)

    for it in range(1, cfg.max_iterations + 1):
        t0 = time.perf_counter()
        try:
            model.fit(dataset)
            t1 = time.perf_counter()
            if exact is not None:
                res = exact(alpha, run.measurements, cfg.bounds)
            elif cfg.use_de is False:
                res = adam_search(objective, gradient, cfg.bounds, AdamConfig(), alpha)
            else:  # DE's seed: child it - 1 of cfg.seed, as SeedSequence.spawn numbers them
                child = np.random.SeedSequence(cfg.seed, spawn_key=(it - 1,))
                res = hybrid_search(objective, gradient, cfg.bounds, DeConfig(), AdamConfig(),
                                    alpha, int(child.generate_state(1)[0]),
                                    init_bounds=_penalty_feasible_band(cfg))
        except HallcalError as exc:
            raise run.abort(f"surrogate failed at iteration {it}", exc) from exc
        alpha = res.x
        run.solve(alpha, res, dataset, t0, t_fit=t1 - t0, t_search=time.perf_counter() - t1)

    return run.result()
