"""Iterative four-step calibration loop.

Three seed solves, at the bound extremes and the midpoint, start the
training dataset. Each iteration then fits the surrogate to everything
accumulated so far (the knowledge surrogate in closed form, the MLP by
Adam from its last weights), searches the flow rates against the
measurements through the frozen surrogate (the knowledge surrogate
exactly, by its convex search; the MLP by DE+Adam), solves at the search
result, validates that solve against the measurements and appends it to
the dataset. Every solve is at a new point, and a run of k iterations
performs 3 + k solver calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CalibrationAbortedError, DimensionMismatchError, HallcalError
from .hall import AdjacencyPriors, HallLayout, SystemInput
from .mlp import (
    MLP_TRAIN,
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
from .solver import OperatingState, ThermalSolver
from .surrogate import (
    PenaltyParams,
    SurrogateWeights,
    TrainingSample,
    convex_search,
    fit_weights,
    forward,
    grad_alpha,
    init_weights,
    loss_l2,
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
    """Three seed solves: flow rates pinned at the lower bound, the upper
    bound, and their midpoint."""
    samples = []
    for value in (bounds.lower, bounds.upper, bounds.midpoint):
        x = state.to_input(np.full(n_servers, value))
        samples.append(TrainingSample(input=x, target=solver.solve(x)))
    return samples


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
    """Mean absolute difference in degC."""
    pred = np.asarray(pred, dtype=float)
    meas = np.asarray(meas, dtype=float)
    if pred.shape != meas.shape:
        raise DimensionMismatchError("prediction and measurement lengths differ")
    return float(np.mean(np.abs(pred - meas)))


# -- surrogate adapters -------------------------------------------------------


class KnowledgeSurrogateModel:
    """Stateful wrapper pairing the knowledge surrogate with its priors."""

    def __init__(self, priors: AdjacencyPriors, penalty: PenaltyParams):
        self.priors = priors
        self.penalty = penalty
        self.weights: SurrogateWeights = init_weights(priors.n_sensors, penalty.kappa)

    def fit(self, dataset: list[TrainingSample]) -> None:
        self.weights = fit_weights(self.priors, dataset, self.penalty.kappa)

    def predict(self, x: SystemInput) -> np.ndarray:
        return forward(self.weights, self.priors, x)

    def l2(self, x: SystemInput, t_meas: np.ndarray) -> float:
        return loss_l2(self.weights, self.priors, x, t_meas, self.penalty)

    def l2_grad_alpha(self, x: SystemInput, t_meas: np.ndarray) -> np.ndarray:
        return grad_alpha(self.weights, self.priors, x, t_meas, self.penalty)

    def search(self, x: SystemInput, t_meas: np.ndarray, bounds: Bounds) -> SearchResult:
        """The exact minimum of l2 over the box, starting at x.flow_rates."""
        return convex_search(self.weights, self.priors, x, t_meas, self.penalty, bounds)


class VanillaSurrogateModel:
    """Same adapter interface over the black-box MLP baseline.

    Standardization statistics are frozen after the first fit so that
    later warm-started retraining keeps a stable input basis.
    """

    def __init__(self, layout: HallLayout, penalty: PenaltyParams,
                 train_cfg: TrainConfig, seed: int = 0):
        in_dim = 2 * layout.n_cracs + 2 * layout.n_servers
        self.penalty = penalty
        self.train_cfg = train_cfg
        self.weights: MlpWeights = init_mlp(in_dim, layout.n_sensors, seed)
        self._stats_fitted = False

    def fit(self, dataset: list[TrainingSample]) -> None:
        if not self._stats_fitted:
            self.weights = fit_standardizer(self.weights, dataset)
            self._stats_fitted = True
        self.weights = mlp_train(self.weights, dataset, self.train_cfg)

    def predict(self, x: SystemInput) -> np.ndarray:
        return mlp_forward(self.weights, x)

    def l2(self, x: SystemInput, t_meas: np.ndarray) -> float:
        return mlp_loss_l2(self.weights, x, t_meas, self.penalty)

    def l2_grad_alpha(self, x: SystemInput, t_meas: np.ndarray) -> np.ndarray:
        return mlp_grad_alpha(self.weights, x, t_meas, self.penalty)


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
    bounds: Bounds = SEARCH_BOUNDS
    max_iterations: int = 15
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    train: TrainConfig = MLP_TRAIN  # the vanilla MLP's schedule; the knowledge fit has none
    de: DeConfig = field(default_factory=DeConfig)
    adam: AdamConfig = field(default_factory=AdamConfig)
    use_de: Optional[bool] = None  # None: the model's exact search if it has one, else DE+Adam
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class IterationTrace:
    iteration: int
    validation_mae: float
    mean_l2: float
    mean_grad_mag: float
    de_l2: Optional[float]
    search_residual: Optional[float]
    solver_calls: int
    dataset_size: int
    wall_time_s: float


@dataclass
class CalibrationResult:
    alpha_star: np.ndarray
    best_mae: float
    best_solver_temps: Optional[np.ndarray]
    traces: list[IterationTrace]
    n_solver_calls: int

    @property
    def dataset_sizes(self) -> list[int]:
        return [t.dataset_size for t in self.traces]


def calibrate(solver: ThermalSolver, model, measurements: np.ndarray,
              state: OperatingState, layout: HallLayout, cfg: CalibConfig) -> CalibrationResult:
    """Run the four-step loop for cfg.max_iterations and return the best
    validated flow-rate vector with its traces."""
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size != layout.n_sensors:
        raise DimensionMismatchError("measurement length does not match the layout")

    n_servers = layout.n_servers
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.max_iterations)
    alpha = np.full(n_servers, cfg.bounds.midpoint)

    traces: list[IterationTrace] = []
    best_mae = np.inf
    alpha_star = alpha.copy()
    best_temps: Optional[np.ndarray] = None

    def partial_result() -> CalibrationResult:
        return CalibrationResult(alpha_star=alpha_star, best_mae=best_mae,
                                 best_solver_temps=best_temps, traces=traces,
                                 n_solver_calls=solver.n_calls)

    try:
        dataset = init_samples(cfg.bounds, state, solver, n_servers)
    except HallcalError as exc:
        raise CalibrationAbortedError(f"solver failed during seeding: {exc}",
                                      result=partial_result()) from exc

    for it in range(1, cfg.max_iterations + 1):
        t0 = time.perf_counter()
        model.fit(dataset)

        def objective(a: np.ndarray) -> float:
            return model.l2(state.to_input(a), measurements)

        def gradient(a: np.ndarray) -> np.ndarray:
            return model.l2_grad_alpha(state.to_input(a), measurements)

        de_seed = int(seeds[it - 1].generate_state(1)[0])
        exact = getattr(model, "search", None) if cfg.use_de is None else None
        if exact is not None:
            res = exact(state.to_input(alpha), measurements, cfg.bounds)
        elif cfg.use_de is False:
            res = adam_search(objective, gradient, cfg.bounds, cfg.adam, alpha)
        else:
            res = hybrid_search(objective, gradient, cfg.bounds, cfg.de, cfg.adam, alpha,
                                de_seed, init_bounds=_penalty_feasible_band(cfg))
        alpha = res.x

        x = state.to_input(alpha)
        try:
            temps = solver.solve(x)
        except HallcalError as exc:
            raise CalibrationAbortedError(f"solver failed at iteration {it}: {exc}",
                                          result=partial_result()) from exc

        val = mae(temps, measurements)
        if val < best_mae:
            best_mae = val
            alpha_star = alpha.copy()
            best_temps = temps
        dataset.append(TrainingSample(input=x, target=temps))

        traces.append(IterationTrace(
            iteration=it,
            validation_mae=val,
            mean_l2=float(np.mean(res.losses)),
            mean_grad_mag=float(np.mean(res.grad_norms)),
            de_l2=res.de_fun,
            search_residual=res.residual,
            solver_calls=solver.n_calls,
            dataset_size=len(dataset),
            wall_time_s=time.perf_counter() - t0,
        ))

    return partial_result()
