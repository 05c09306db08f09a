"""Knowledge-structured neural surrogate of the hall's sensor temperatures.

The model splits into a cooling block and a heating block. For sensor k:

  cooling   z_ik = V_i * w_cs[i,k],  c_.k = softmax_i(z_.k) over the CRACs
            with nonzero adjacency to k,  T_cold_k = a_k * sum_i T_ci c_ik + b_k
  heating   X_hot_k = sum_j (P_j / alpha_j) * w_ss[j,k],
            dT_k = c_k * X_hot_k + d_k
  output    That_k = T_cold_k + hot_mask_k * dT_k

Cold-aisle sensors see only the cooling block; hot-aisle sensors see both.
The trainable weights are the 4n per-sensor linear coefficients; the
adjacency matrices stay fixed, so the model is linear in its weights and
fit_weights fits them in closed form, and with the weights frozen it is
affine in 1/alpha, so convex_search finds the best flow rates exactly (a
variant that trains the adjacency too, by Adam, lives at the bottom, used
by the data-volume study).

The heating block's physical anchor is the per-watt air stream: a server
moving alpha cfm/W heats its air by kappa / alpha degC, with kappa set by
air density, heat capacity, and the cfm unit conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyBatchError,
    EmptyDatasetError,
    NonPositiveFlowRateError,
    ObjectiveNonFiniteError,
)
from .hall import AdjacencyPriors, SystemInput
from .optim import Bounds, SearchResult, TrainConfig, adam_fit

AIR_DENSITY = 1.205  # kg/m^3
AIR_HEAT_CAPACITY = 1005.0  # J/(kg K)
CFM_TO_M3S = 0.3048 ** 3 / 60.0

# degC rise of a per-watt air stream of 1 cfm/W: dT = KAPPA_CFM_PER_W / alpha
KAPPA_CFM_PER_W = 1.0 / (AIR_DENSITY * AIR_HEAT_CAPACITY * CFM_TO_M3S)

FIT_RIDGE = 1e-6  # fit_weights' pull toward the physics prior, per sample
SEARCH_TOL = 1e-9  # convex_search stops below this stationarity residual
SEARCH_MAX_STEPS = 2000  # and after this many FISTA steps in any case


@dataclass(frozen=True)
class SurrogateWeights:
    """Per-sensor linear-layer weights; 4n trainables in total."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def n_sensors(self) -> int:
        return self.a.size

    @property
    def n_trainable(self) -> int:
        return self.a.size + self.b.size + self.c.size + self.d.size

    def pack(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.c, self.d])

    @classmethod
    def unpack(cls, flat: np.ndarray, n: int) -> "SurrogateWeights":
        return cls(a=flat[:n].copy(), b=flat[n:2 * n].copy(),
                   c=flat[2 * n:3 * n].copy(), d=flat[3 * n:].copy())


def init_weights(n_sensors: int, kappa: float = KAPPA_CFM_PER_W) -> SurrogateWeights:
    """Physics-anchored start: identity cooling layer, heating slope at the
    first-principle rise constant so the untrained model is already in degC."""
    return SurrogateWeights(
        a=np.ones(n_sensors),
        b=np.zeros(n_sensors),
        c=np.full(n_sensors, kappa),
        d=np.zeros(n_sensors),
    )


@dataclass(frozen=True)
class PenaltyParams:
    """Empirical server temperature-rise band and its hinge penalty."""

    dt_low: float = 5.0  # degC
    dt_high: float = 15.0  # degC
    lam: float = 1.0
    kappa: float = KAPPA_CFM_PER_W  # degC * (cfm/W)

    def __post_init__(self):
        if not 0 < self.dt_low < self.dt_high:
            raise ValueError("need 0 < dt_low < dt_high")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")


@dataclass(frozen=True)
class TrainingSample:
    """One (input, solver temperatures) pair."""

    input: SystemInput
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


def _check_alpha(alpha: np.ndarray) -> None:
    if np.any(alpha <= 0.0):
        raise NonPositiveFlowRateError("all flow rates must be > 0")


def _cooling_coefficients(w_cs: np.ndarray, fan_speeds: np.ndarray,
                          dense: bool = False) -> np.ndarray:
    """Softmax cooling coefficients, restricted to nonzero-adjacency CRACs
    unless dense, which takes the softmax over all CRACs.

    fan_speeds may be (l,) or batched (B, l); the result matches with a
    trailing (l, n) or (B, l, n) shape.
    """
    z = fan_speeds[..., :, None] * w_cs
    if not dense:
        z = np.where(w_cs > 0.0, z, -np.inf)  # exp(-inf) = 0 off the support
    ez = np.exp(z - np.max(z, axis=-2, keepdims=True))
    return ez / ez.sum(axis=-2, keepdims=True)


def _features(w_cs: np.ndarray, w_ss: np.ndarray, x: SystemInput,
              targets: Optional[np.ndarray] = None, dense: bool = False):
    """Softmax coefficients, X_cold and X_hot under the adjacency w_cs (l, n)
    and w_ss (m, n), of one input, its arrays (l,) and (m,), or of a batch
    stacked to (B, l) and (B, m).

    The fixed priors mask the softmax to their support; trainable adjacency
    has no fixed zero pattern, so it is dense. The two variants sum X_hot
    over the servers in different orders, and each order is part of its
    variant's reproducible output. Raises DimensionMismatchError when the
    CRAC, server or (given) target width does not match the adjacency.
    """
    if x.crac_setpoints.shape[-1:] != w_cs.shape[:1]:
        raise DimensionMismatchError("CRAC count does not match the adjacency")
    if x.server_powers.shape[-1:] != w_ss.shape[:1]:
        raise DimensionMismatchError("server count does not match the adjacency")
    if targets is not None and targets.shape[-1:] != w_cs.shape[1:]:
        raise DimensionMismatchError("target width does not match the sensor count")
    _check_alpha(x.flow_rates)
    coeff = _cooling_coefficients(w_cs, x.crac_fan_speeds, dense)
    pw = x.server_powers / x.flow_rates
    x_hot = pw @ w_ss if dense else (pw[..., :, None] * w_ss).sum(axis=-2)
    return coeff, (x.crac_setpoints[..., :, None] * coeff).sum(axis=-2), x_hot


def _predict(w: SurrogateWeights, hot_mask: np.ndarray, x_cold: np.ndarray,
             x_hot) -> np.ndarray:
    if w.n_sensors != hot_mask.size:
        raise DimensionMismatchError("weight count does not match the sensor count")
    return w.a * x_cold + w.b + hot_mask * (w.c * x_hot + w.d)


def forward(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput) -> np.ndarray:
    """Predicted temperatures at all sensor locations, degC."""
    _, x_cold, x_hot = _features(priors.w_cs, priors.w_ss, x)
    return _predict(w, priors.hot_mask, x_cold, x_hot)


def _stack_batch(batch: list[TrainingSample]):
    """A batch as one SystemInput of stacked rows, (B, l) and (B, m), and
    its targets (B, n)."""
    if not batch:
        raise EmptyBatchError("batch is empty")
    inputs = [s.input for s in batch]
    try:
        x = SystemInput(np.stack([i.crac_setpoints for i in inputs]),
                        np.stack([i.crac_fan_speeds for i in inputs]),
                        np.stack([i.server_powers for i in inputs]),
                        np.stack([i.flow_rates for i in inputs]))
        return x, np.stack([s.target for s in batch])
    except ValueError as exc:  # np.stack of rows of unequal length
        raise DimensionMismatchError("batch samples differ in width") from exc


def _batch_features(priors: AdjacencyPriors, batch: list[TrainingSample]):
    """Input-only features of a sample batch: X_cold (B, n), X_hot (B, n) and
    the targets (B, n). No weight enters them, so a fit computes them once."""
    x, targets = _stack_batch(batch)
    return (*_features(priors.w_cs, priors.w_ss, x, targets)[1:], targets)


def _batch_residual(w: SurrogateWeights, hot_mask: np.ndarray, features) -> np.ndarray:
    x_cold, x_hot, targets = features
    return _predict(w, hot_mask, x_cold, x_hot) - targets


def _weight_grad(mask: np.ndarray, features, residual: np.ndarray) -> SurrogateWeights:
    x_cold, x_hot, _ = features
    scale = 2.0 / residual.size  # 1/(B*n)
    return SurrogateWeights(
        a=scale * (residual * x_cold).sum(axis=0),
        b=scale * residual.sum(axis=0),
        c=scale * (residual * mask * x_hot).sum(axis=0),
        d=scale * (residual * mask).sum(axis=0),
    )


def loss_l1(w: SurrogateWeights, priors: AdjacencyPriors, batch: list[TrainingSample]) -> float:
    """Mean over samples of the mean-over-sensors squared error against the
    solver outputs."""
    residual = _batch_residual(w, priors.hot_mask, _batch_features(priors, batch))
    return float(np.mean(residual ** 2))


def grad_weights(w: SurrogateWeights, priors: AdjacencyPriors,
                 batch: list[TrainingSample]) -> SurrogateWeights:
    """Analytic gradient of loss_l1 with respect to (a, b, c, d)."""
    features = _batch_features(priors, batch)
    return _weight_grad(priors.hot_mask, features, _batch_residual(w, priors.hot_mask, features))


def penalty_h(alpha: np.ndarray, powers: np.ndarray, params: PenaltyParams) -> float:
    """Power-weighted hinge penalty on the per-server first-principle rise.

    Each server's rise kappa/alpha_j must sit inside [dt_low, dt_high];
    excursions are charged proportionally to the server power.
    """
    alpha = np.asarray(alpha, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if alpha.shape != powers.shape:
        raise DimensionMismatchError("alpha and powers differ in length")
    _check_alpha(alpha)
    return float(_hinge(alpha, powers, params))


def _hinge(alpha: np.ndarray, powers: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """penalty_h of one flow-rate vector (m,) or of each row of a batch (K, m)."""
    dt = params.kappa / alpha
    low = np.maximum(0.0, params.dt_low - dt)
    high = np.maximum(0.0, dt - params.dt_high)
    return ((low + high) * powers).sum(axis=-1)


def _penalty_grad(alpha: np.ndarray, powers: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """d penalty_h / d alpha with subgradient 0 at the hinge kinks."""
    dt = params.kappa / alpha
    direction = np.where(dt < params.dt_low, 1.0, 0.0) - np.where(dt > params.dt_high, 1.0, 0.0)
    return powers * params.kappa / alpha ** 2 * direction


def _search_residual(pred: np.ndarray, t_meas: np.ndarray) -> np.ndarray:
    t_meas = np.asarray(t_meas, dtype=float)
    if pred.shape != t_meas.shape:
        raise DimensionMismatchError("measurement length does not match sensors")
    return pred - t_meas


def search_loss(pred: np.ndarray, x: SystemInput, t_meas: np.ndarray,
                params: PenaltyParams) -> float:
    """The flow-rate search objective of any surrogate, from its prediction
    at x: mean squared sensor error plus the scaled hinge penalty,
    MSE + (lam / n) * h."""
    mse = float(np.mean(_search_residual(pred, t_meas) ** 2))
    return mse + params.lam / pred.size * penalty_h(x.flow_rates, x.server_powers, params)


def search_grad(pred: np.ndarray, x: SystemInput, t_meas: np.ndarray, params: PenaltyParams,
                mse_grad: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Gradient of search_loss with respect to the flow rates; mse_grad maps
    the residual pred - t_meas to the MSE term's gradient."""
    g_mse = mse_grad(_search_residual(pred, t_meas))
    return g_mse + params.lam / pred.size * _penalty_grad(x.flow_rates, x.server_powers, params)


def loss_l2(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput,
            t_meas: np.ndarray, params: PenaltyParams) -> float:
    """search_loss of the knowledge surrogate."""
    return search_loss(forward(w, priors, x), x, t_meas, params)


def grad_alpha(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput,
               t_meas: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """Analytic gradient of loss_l2 with respect to the flow rates.

    Flow rates reach the loss through X_hot (chain -P_j/alpha_j^2 into the
    hot-aisle sensors) and through the hinge penalty.
    """
    pred = forward(w, priors, x)
    dxhot_scale = -x.server_powers / x.flow_rates ** 2  # (m,)

    def mse_grad(residual: np.ndarray) -> np.ndarray:
        sens = residual * priors.hot_mask * w.c  # (n,)
        return 2.0 / residual.size * dxhot_scale * (priors.w_ss @ sens)

    return search_grad(pred, x, t_meas, params, mse_grad)


def fit_weights(priors: AdjacencyPriors, dataset: list[TrainingSample],
                kappa: float = KAPPA_CFM_PER_W) -> SurrogateWeights:
    """Closed-form fit of (a, b, c) for every sensor: ridge least squares on
    loss_l1, pulled toward the physics prior a=1, b=0, c=kappa.

    With the adjacency fixed the prediction is linear in the weights, so
    each sensor's fit is one 3x3 solve of (G + lam I) theta = X^T t +
    lam theta0 over the columns X_cold, 1 and hot_mask * X_hot. A cold
    sensor's X_hot column is zero, so its c stays at kappa; d stays 0,
    because on a hot sensor it is collinear with b. The ridge weight
    lam = FIT_RIDGE * batch size keeps the solve regular when every sample
    shares one state, where a and b are collinear too.
    """
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    x_cold, x_hot, targets = _batch_features(priors, dataset)
    cols = np.stack([x_cold, np.ones_like(x_cold), priors.hot_mask * x_hot], axis=-1)  # (B, n, 3)
    lam = FIT_RIDGE * len(dataset)
    prior = np.array([1.0, 0.0, kappa])
    gram = np.einsum("bkq,bkr->kqr", cols, cols) + lam * np.eye(3)
    rhs = np.einsum("bkq,bk->kq", cols, targets) + lam * prior
    a, b, c = np.linalg.solve(gram, rhs[..., None])[..., 0].T
    return SurrogateWeights(a=a, b=b, c=c, d=np.zeros_like(a))


def hinge_box_prox(v: np.ndarray, k_lo: float, k_hi: float, s: np.ndarray,
                   u_lo: float, u_hi: float) -> np.ndarray:
    """Per-coordinate prox, in u = 1/alpha, of s_j * dist(u_j, [k_lo, k_hi])
    plus the box [u_lo, u_hi]: the hinge's five-piece shift (v + s below
    k_lo - s, then k_lo up to k_lo, v inside the band, k_hi from k_hi up
    to k_hi + s, v - s above), then a clip into the box."""
    band = np.minimum(np.maximum(v, k_lo), k_hi)
    shifted = band + np.minimum(0.0, v + s - k_lo) + np.maximum(0.0, v - s - k_hi)
    return np.minimum(np.maximum(shifted, u_lo), u_hi)


def convex_search(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput,
                  t_meas: np.ndarray, params: PenaltyParams, bounds: Bounds) -> SearchResult:
    """The minimum of loss_l2 over the flow-rate box, by FISTA in u = 1/alpha.

    With the weights frozen the residual pred - t_meas is affine in u,
    A u + r0 with A[k, j] = hot_k c_k P_j w_ss[j, k] and
    r0 = a X_cold + b + hot d - t_meas, and the hinge penalty is
    (lam/n) kappa P_j dist(u_j, [dt_low, dt_high] / kappa). The search is
    therefore a convex quadratic plus a separable convex term over the box
    [1/upper, 1/lower], which FISTA (Beck & Teboulle 2009: proximal
    gradient steps t = 1/L, L = (2/n) |A|_2^2, with Nesterov momentum)
    solves exactly. The momentum restarts whenever it points uphill
    (O'Donoghue & Candes 2015), which more than halves the steps on the
    reference hall.

    The run starts at x.flow_rates. It stops once the stationarity residual
    |y - T(y)| / t of the extrapolated point y falls below SEARCH_TOL, where
    T(y) = prox(y - t grad(y)) is the next iterate, or after
    SEARCH_MAX_STEPS steps. T is nonexpansive, so the residual at the
    returned iterate, reported as `residual`, is no larger. `losses` and
    `grad_norms` hold loss_l2 and the mean |d loss_l2 / d alpha| at every
    iterate, the start included.
    """
    _, x_cold, _ = _features(priors.w_cs, priors.w_ss, x)
    n = priors.n_sensors
    r0 = _search_residual(_predict(w, priors.hot_mask, x_cold, 0.0), t_meas)  # u = 0
    powers = x.server_powers
    A = (powers[:, None] * priors.w_ss * (priors.hot_mask * w.c)).T  # (n, m)
    if not np.all(np.isfinite(A)):  # the SVD below would fail on it
        raise ObjectiveNonFiniteError("search objective is not finite: non-finite heating term")
    L = 2.0 / n * np.linalg.norm(A, 2) ** 2
    t = 1.0 / L if L > 0.0 else 1.0  # with A = 0 only the hinge moves u, at any step
    # the forward step y - t grad(y) as one affine map M y + c
    M = np.eye(powers.size) - (2.0 * t / n) * (A.T @ A)
    c = -(2.0 * t / n) * (A.T @ r0)
    k_lo, k_hi = params.dt_low / params.kappa, params.dt_high / params.kappa
    s = t * params.lam / n * params.kappa * powers
    u_lo, u_hi = 1.0 / bounds.upper, 1.0 / bounds.lower

    def step(y: np.ndarray) -> np.ndarray:
        return hinge_box_prox(M @ y + c, k_lo, k_hi, s, u_lo, u_hi)

    stop = (SEARCH_TOL * t) ** 2  # |y - T(y)|^2 at the stationarity tolerance
    u = np.clip(1.0 / x.flow_rates, u_lo, u_hi)
    iterates = [u]
    y, theta = u, 1.0
    for _ in range(SEARCH_MAX_STEPS):
        u_next = step(y)
        iterates.append(u_next)
        gap = y - u_next
        if not gap @ gap >= stop:  # NaN stops too
            break
        move = u_next - u
        if gap @ move > 0.0:  # momentum points uphill: restart it
            theta = 1.0
        theta_next = 0.5 * (1.0 + (1.0 + 4.0 * theta * theta) ** 0.5)
        y = u_next + (theta - 1.0) / theta_next * move
        u, theta = u_next, theta_next
    u = iterates[-1]

    # loss_l2 and its flow-rate gradient at every iterate, in one batch
    us = np.stack(iterates)  # (K, m)
    alphas = 1.0 / us
    residuals = us @ A.T + r0  # (K, n)
    losses = np.mean(residuals ** 2, axis=1) + params.lam / n * _hinge(alphas, powers, params)
    grads = (-2.0 / n * us ** 2 * (residuals @ A)
             + params.lam / n * _penalty_grad(alphas, powers, params))
    alpha = bounds.clip(1.0 / u)
    fun = loss_l2(w, priors, x.with_flow_rates(alpha), t_meas, params)
    if not (np.isfinite(fun) and np.all(np.isfinite(losses))):
        raise ObjectiveNonFiniteError(f"search objective is not finite at {alpha!r}")
    return SearchResult(x=alpha, fun=fun, n_evals=len(iterates), losses=losses.tolist(),
                        grad_norms=np.mean(np.abs(grads), axis=1).tolist(),
                        residual=float(np.linalg.norm(u - step(u)) / t))


# -- variant with trainable adjacency (data-volume study) --------------------
#
# Promoting w_cs / w_ss to trainables changes the softmax support: with the
# matrices free to move there is no fixed zero pattern, so the softmax runs
# over all CRACs.


@dataclass(frozen=True)
class TrainableAdjacencyWeights:
    linear: SurrogateWeights
    w_cs: np.ndarray
    w_ss: np.ndarray

    @property
    def n_trainable(self) -> int:
        return self.linear.n_trainable + self.w_cs.size + self.w_ss.size

    def pack(self) -> np.ndarray:
        return np.concatenate([self.linear.pack(), self.w_cs.ravel(), self.w_ss.ravel()])

    @classmethod
    def unpack(cls, flat: np.ndarray, n: int, l: int, m: int) -> "TrainableAdjacencyWeights":
        linear = SurrogateWeights.unpack(flat[:4 * n], n)
        w_cs = flat[4 * n:4 * n + l * n].reshape(l, n).copy()
        w_ss = flat[4 * n + l * n:].reshape(m, n).copy()
        return cls(linear=linear, w_cs=w_cs, w_ss=w_ss)


def forward_trainable(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                      x: SystemInput) -> np.ndarray:
    _, x_cold, x_hot = _features(tw.w_cs, tw.w_ss, x, dense=True)
    return _predict(tw.linear, hot_mask, x_cold, x_hot)


def _trainable_residual(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray, data):
    """Softmax coefficients (B, l, n), features and batch residual (B, n) of
    the trainable variant, from a _stack_batch result; the loss and the
    gradient both start from them."""
    x, targets = data
    coeff, x_cold, x_hot = _features(tw.w_cs, tw.w_ss, x, targets, dense=True)
    features = (x_cold, x_hot, targets)
    return coeff, features, _batch_residual(tw.linear, hot_mask, features)


def _trainable_grad(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray, data,
                    coeff: np.ndarray, features, residual: np.ndarray) -> TrainableAdjacencyWeights:
    x, _ = data
    w = tw.linear
    scale = 2.0 / residual.size

    # softmax jacobian: dX_cold/dz_ik = c_ik (T_ci - X_cold_k); dz/dw_cs = V_i
    upstream = scale * residual * w.a  # (B, n)
    dz = coeff * (x.crac_setpoints[:, :, None] - features[0][:, None, :])  # (B, l, n)
    g_wcs = (upstream[:, None, :] * dz * x.crac_fan_speeds[:, :, None]).sum(axis=0)
    # dX_hot/dw_ss = P / alpha
    g_wss = np.einsum("bm,bn->mn", x.server_powers / x.flow_rates,
                      scale * residual * hot_mask * w.c)
    return TrainableAdjacencyWeights(linear=_weight_grad(hot_mask, features, residual),
                                     w_cs=g_wcs, w_ss=g_wss)


def loss_l1_trainable(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                      batch: list[TrainingSample]) -> float:
    residual = _trainable_residual(tw, hot_mask, _stack_batch(batch))[2]
    return float(np.mean(residual ** 2))


def grad_trainable(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                   batch: list[TrainingSample]) -> TrainableAdjacencyWeights:
    """Analytic gradient of the trainable-adjacency variant's L1."""
    data = _stack_batch(batch)
    return _trainable_grad(tw, hot_mask, data, *_trainable_residual(tw, hot_mask, data))


def train_trainable(tw0: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                    dataset: list[TrainingSample], hyper: TrainConfig) -> TrainableAdjacencyWeights:
    """Full-batch Adam on loss_l1_trainable with hyper's staged decay; the
    batch is stacked once and each epoch's loss and gradient share one
    residual. Returns the weights with the lowest observed loss."""
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    n = tw0.linear.n_sensors
    l, m = tw0.w_cs.shape[0], tw0.w_ss.shape[0]
    data = _stack_batch(dataset)

    def loss_and_grad(params: np.ndarray):
        tw = TrainableAdjacencyWeights.unpack(params, n, l, m)
        parts = _trainable_residual(tw, hot_mask, data)
        return float(np.mean(parts[2] ** 2)), _trainable_grad(tw, hot_mask, data, *parts).pack()

    return TrainableAdjacencyWeights.unpack(adam_fit(tw0.pack(), loss_and_grad, hyper), n, l, m)
