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
affine in 1/alpha, so convex_search finds the best flow rates exactly, by
FISTA finished with a least-squares projection (a variant that trains the
adjacency too, by Adam, lives at the bottom, used by the data-volume
study).

The heating block's physical anchor is the per-watt air stream: a server
moving alpha cfm/W heats its air by kappa / alpha degC, with kappa set by
air density, heat capacity, and the cfm unit conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyBatchError,
    EmptyDatasetError,
    NonPositiveFlowRateError,
    ObjectiveNonFiniteError,
)
from .hall import AdjacencyPriors, OperatingState, SystemInput
from .optim import Bounds, SearchResult, TrainConfig, adam_fit, rate_range

AIR_DENSITY = 1.205  # kg/m^3
AIR_HEAT_CAPACITY = 1005.0  # J/(kg K)
CFM_TO_M3S = 0.3048 ** 3 / 60.0

# degC rise of a per-watt air stream of 1 cfm/W: dT = KAPPA_CFM_PER_W / alpha
KAPPA_CFM_PER_W = 1.0 / (AIR_DENSITY * AIR_HEAT_CAPACITY * CFM_TO_M3S)

FIT_RIDGE = 1e-6  # fit_weights' pull toward the physics prior, per sample
SEARCH_TOL = 1e-9  # convex_search stops below this stationarity residual
SEARCH_MAX_STEPS = 2000  # and after this many FISTA steps in any case
_EYE3 = np.eye(3)
_EPS = np.finfo(float).eps


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


def _check_alpha(alpha: np.ndarray, powers: np.ndarray) -> None:
    if alpha.shape != powers.shape:
        raise DimensionMismatchError("powers and flow rates differ in length")
    if (alpha <= 0.0).any():
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
    ez = np.exp(z - z.max(axis=-2, keepdims=True))
    return ez / ez.sum(axis=-2, keepdims=True)


def _state_features(w_cs: np.ndarray, w_ss: np.ndarray, x: OperatingState,
                    dense: bool = False):
    """Softmax coefficients and X_cold under the adjacency w_cs (l, n), of
    one state, its arrays (l,) and (m,), or of a batch stacked to (B, l) and
    (B, m): the features that do not depend on the flow rates.

    The fixed priors mask the softmax to their support; trainable adjacency
    has no fixed zero pattern, so it is dense. Raises DimensionMismatchError
    when the CRAC or server count does not match the adjacency.
    """
    _check_counts(w_cs, w_ss, x)
    coeff = _cooling_coefficients(w_cs, x.crac_fan_speeds, dense)
    return coeff, (x.crac_setpoints[..., :, None] * coeff).sum(axis=-2)


def _check_counts(w_cs: np.ndarray, w_ss: np.ndarray, x: OperatingState) -> None:
    if x.crac_setpoints.shape[-1:] != w_cs.shape[:1]:
        raise DimensionMismatchError("CRAC count does not match the adjacency")
    if x.server_powers.shape[-1:] != w_ss.shape[:1]:
        raise DimensionMismatchError("server count does not match the adjacency")


def _check_targets(targets: np.ndarray, w_cs: np.ndarray) -> None:
    if targets.shape[-1:] != w_cs.shape[1:]:
        raise DimensionMismatchError("target width does not match the sensor count")


def _features(w_cs: np.ndarray, w_ss: np.ndarray, x: SystemInput,
              targets: Optional[np.ndarray] = None, dense: bool = False):
    """Softmax coefficients, X_cold (see _state_features) and X_hot under
    w_ss (m, n) of one input or a batch; a given target width is checked
    too. The variants sum X_hot over the servers in different orders, and
    each order is part of its variant's reproducible output."""
    coeff, x_cold = _state_features(w_cs, w_ss, x, dense)
    if targets is not None:
        _check_targets(targets, w_cs)
    _check_alpha(x.flow_rates, x.server_powers)
    pw = x.server_powers / x.flow_rates
    return coeff, x_cold, pw @ w_ss if dense else (pw[..., :, None] * w_ss).sum(axis=-2)


@dataclass(frozen=True)
class StateTerms:
    """The fixed-prior surrogate's terms that depend on the operating state
    alone, so every flow rate of a calibration shares them: the server
    powers, X_cold, the hot-sensor indices and w_ss's hot columns, the
    fit's columns at X_hot = 0, and for convex_search's A the heating factor
    H_h[j, k] = P_j w_ss[j, k] over the hot sensors k and its Gram matrix
    G_h = H_h^T H_h. The `_at` functions take them in place of the state;
    KnowledgeSurrogateModel.at computes them once per run."""

    powers: np.ndarray  # (m,)
    x_cold: np.ndarray  # (n,)
    hot: np.ndarray  # (n_hot,) indices of the hot sensors, where hot_mask is 1
    w_hot: np.ndarray  # (m, n_hot) the hot columns of w_ss
    columns: np.ndarray  # (n, 3) _fit_columns at X_hot = 0
    heat_hot: np.ndarray  # (m, n_hot)
    gram_hot: np.ndarray  # (n_hot, n_hot)

    @classmethod
    def of(cls, priors: AdjacencyPriors, x: OperatingState) -> "StateTerms":
        _, x_cold = _state_features(priors.w_cs, priors.w_ss, x)
        hot = np.flatnonzero(priors.hot_mask)
        w_hot = priors.w_ss[:, hot]
        columns = _fit_columns(priors.hot_mask, x_cold, np.zeros_like(x_cold))
        heat_hot = x.server_powers[:, None] * w_hot
        return cls(x.server_powers, x_cold, hot, w_hot, columns, heat_hot, heat_hot.T @ heat_hot)

    def x_hot(self, alpha: np.ndarray) -> np.ndarray:
        """The hot sensors' X_hot at checked alpha, in _features' (sequential) order."""
        return np.add.accumulate((self.powers / alpha)[:, None] * self.w_hot, axis=0)[-1]


def _predict(w: SurrogateWeights, hot_mask: np.ndarray, x_cold: np.ndarray,
             x_hot) -> np.ndarray:
    if w.n_sensors != hot_mask.size:
        raise DimensionMismatchError("weight count does not match the sensor count")
    return w.a * x_cold + w.b + hot_mask * (w.c * x_hot + w.d)


def forward(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput) -> np.ndarray:
    """Predicted temperatures at all sensor locations, degC."""
    _, x_cold, x_hot = _features(priors.w_cs, priors.w_ss, x)
    return _predict(w, priors.hot_mask, x_cold, x_hot)


def forward_at(w: SurrogateWeights, priors: AdjacencyPriors, terms: StateTerms,
               alpha: np.ndarray) -> np.ndarray:
    """forward at the state of `terms` and the flow rates alpha (it adds 0 where hot_mask is 0)."""
    _check_alpha(alpha, terms.powers)
    if w.n_sensors != priors.hot_mask.size:
        raise DimensionMismatchError("weight count does not match the sensor count")
    pred = w.a * terms.x_cold + w.b
    pred[terms.hot] += w.c[terms.hot] * terms.x_hot(alpha) + w.d[terms.hot]
    return pred


def _stack_batch(batch: list[TrainingSample]):
    """A batch as one SystemInput of stacked rows, (B, l) and (B, m), and
    its targets (B, n)."""
    if not batch:
        raise EmptyBatchError("batch is empty")
    try:
        x = SystemInput(**{f.name: np.stack([getattr(s.input, f.name) for s in batch])
                           for f in fields(SystemInput)})
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
    _check_alpha(alpha, powers)
    return _penalty(alpha, powers, params)


def _penalty(alpha: np.ndarray, powers: np.ndarray, params: PenaltyParams) -> float:
    """penalty_h of checked flow rates."""
    dt = params.kappa / alpha
    low = np.maximum(0.0, params.dt_low - dt)
    high = np.maximum(0.0, dt - params.dt_high)
    return float(((low + high) * powers).sum())


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


def search_loss(pred: np.ndarray, alpha: np.ndarray, powers: np.ndarray,
                t_meas: np.ndarray, params: PenaltyParams) -> float:
    """The flow-rate search objective of any surrogate, from its prediction
    at the flow rates alpha and server powers: mean squared sensor error
    plus the scaled hinge penalty, MSE + (lam / n) * h."""
    residual = _search_residual(pred, t_meas)
    return _loss(residual, penalty_h(alpha, powers, params), params)


def _loss(residual: np.ndarray, penalty: float, params: PenaltyParams) -> float:
    """search_loss of the residual and h; the MSE is np.mean's sum and division."""
    return float(np.add.reduce(residual * residual) / residual.size) \
        + params.lam / residual.size * penalty


def search_grad(pred: np.ndarray, alpha: np.ndarray, powers: np.ndarray, t_meas: np.ndarray,
                params: PenaltyParams, mse_grad: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Gradient of search_loss with respect to the flow rates; mse_grad maps
    the residual pred - t_meas to the MSE term's gradient."""
    g_mse = mse_grad(_search_residual(pred, t_meas))
    return g_mse + params.lam / pred.size * _penalty_grad(alpha, powers, params)


def loss_l2(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput,
            t_meas: np.ndarray, params: PenaltyParams) -> float:
    """search_loss of the knowledge surrogate."""
    return search_loss(forward(w, priors, x), x.flow_rates, x.server_powers, t_meas, params)


def loss_at(w: SurrogateWeights, priors: AdjacencyPriors, terms: StateTerms,
            alpha: np.ndarray, t_meas: np.ndarray, params: PenaltyParams) -> float:
    """loss_l2 at the state of `terms` and the flow rates alpha (checked once)."""
    residual = _search_residual(forward_at(w, priors, terms, alpha), t_meas)
    return _loss(residual, _penalty(alpha, terms.powers, params), params)


def _grad(w: SurrogateWeights, priors: AdjacencyPriors, pred: np.ndarray, alpha: np.ndarray,
          powers: np.ndarray, t_meas: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """Analytic gradient of loss_l2 with respect to the flow rates, from the
    prediction at alpha and the powers.

    Flow rates reach the loss through X_hot (chain -P_j/alpha_j^2 into the
    hot-aisle sensors) and through the hinge penalty.
    """
    dxhot_scale = -powers / alpha ** 2  # (m,)

    def mse_grad(residual: np.ndarray) -> np.ndarray:
        sens = residual * priors.hot_mask * w.c  # (n,)
        return 2.0 / residual.size * dxhot_scale * (priors.w_ss @ sens)

    return search_grad(pred, alpha, powers, t_meas, params, mse_grad)


def grad_alpha(w: SurrogateWeights, priors: AdjacencyPriors, x: SystemInput,
               t_meas: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """Analytic gradient of loss_l2 with respect to the flow rates (_grad)."""
    return _grad(w, priors, forward(w, priors, x), x.flow_rates, x.server_powers, t_meas, params)


def grad_at(w: SurrogateWeights, priors: AdjacencyPriors, terms: StateTerms,
            alpha: np.ndarray, t_meas: np.ndarray, params: PenaltyParams) -> np.ndarray:
    """grad_alpha at the state of `terms` and the flow rates alpha."""
    return _grad(w, priors, forward_at(w, priors, terms, alpha), alpha, terms.powers,
                 t_meas, params)


def _fit_columns(hot_mask: np.ndarray, x_cold: np.ndarray, x_hot: np.ndarray) -> np.ndarray:
    """fit_weights' columns X_cold, 1 and hot_mask * X_hot of rows (..., n), as (..., n, 3)."""
    return np.stack([x_cold, np.ones_like(x_cold), hot_mask * x_hot], axis=-1)


def fit_terms(priors: AdjacencyPriors,
              batch: list[TrainingSample]) -> tuple[np.ndarray, np.ndarray]:
    """The batch's share of fit_weights' normal equations: per sensor the
    3x3 Gram matrix X^T X (n, 3, 3) and the right-hand side X^T t (n, 3)
    over the columns X_cold, 1 and hot_mask * X_hot. Both are sums over
    the samples, so the terms of a dataset are those of its parts added."""
    if not batch:
        raise EmptyDatasetError("training dataset is empty")
    x_cold, x_hot, targets = _batch_features(priors, batch)
    cols = _fit_columns(priors.hot_mask, x_cold, x_hot)  # (B, n, 3)
    return np.einsum("bkq,bkr->kqr", cols, cols), np.einsum("bkq,bk->kq", cols, targets)


def fold_terms(priors: AdjacencyPriors, terms: StateTerms,
               sample: TrainingSample) -> tuple[np.ndarray, np.ndarray]:
    """fit_terms(priors, [sample]), bit for bit, for a sample at the state
    of `terms`: only the hot sensors' X_hot is set into the state's columns;
    a cold sensor's hot_mask * X_hot is 0 either way."""
    _check_targets(sample.target, priors.w_cs)
    _check_alpha(sample.input.flow_rates, terms.powers)
    cols = terms.columns.copy()  # (n, 3)
    cols[terms.hot, 2] = terms.x_hot(sample.input.flow_rates)
    return cols[:, :, None] * cols[:, None, :], cols * sample.target[:, None]


def solve_fit(gram: np.ndarray, rhs: np.ndarray, count: int,
              kappa: float = KAPPA_CFM_PER_W) -> SurrogateWeights:
    """fit_weights from the fit_terms summed over `count` samples."""
    lam = FIT_RIDGE * count
    prior = np.array([1.0, 0.0, kappa])
    a, b, c = np.linalg.solve(gram + lam * _EYE3, (rhs + lam * prior)[..., None])[..., 0].T
    return SurrogateWeights(a=a, b=b, c=c, d=np.zeros_like(a))


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
    return solve_fit(*fit_terms(priors, dataset), len(dataset), kappa)


def hinge_box_prox(v: np.ndarray, k_lo: float, k_hi: float, s: np.ndarray,
                   u_lo: float, u_hi: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-coordinate prox, in u = 1/alpha, of s_j * dist(u_j, [k_lo, k_hi])
    plus the box [u_lo, u_hi]: the hinge's five-piece shift (v + s below
    k_lo - s, then k_lo up to k_lo, v inside the band, k_hi from k_hi up
    to k_hi + s, v - s above), then a clip into the box.

    The shift is taken in its min/max form min(max(v, min(v + s, k_lo)),
    max(v - s, k_hi)), so each piece is exactly v + s, k_lo, v, k_hi or
    v - s. The result goes to `out` when given, which may be v itself.
    """
    lo = v + s
    np.minimum(lo, k_lo, out=lo)
    np.maximum(v, lo, out=lo)
    out = np.subtract(v, s, out=out)
    np.maximum(out, k_hi, out=out)
    np.minimum(lo, out, out=out)
    np.maximum(out, u_lo, out=out)
    return np.minimum(out, u_hi, out=out)


def convex_search(w: SurrogateWeights, priors: AdjacencyPriors, terms: StateTerms,
                  alpha0: np.ndarray, t_meas: np.ndarray, params: PenaltyParams,
                  bounds: Bounds) -> SearchResult:
    """The minimum of loss_at over the flow-rate box at the state of
    `terms`, by FISTA in u = 1/alpha, finished by one exact least-squares
    projection.

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

    A's cold-sensor rows are zero, so their share of r0 is a constant of
    the loss and the search works with the n_hot hot rows alone:
    A = (H_h diag(c_h))^T and A A^T = diag(c_h) G_h diag(c_h), from the
    StateTerms' H_h and G_h and the hot sensors' c. |A|_2^2 is the largest
    eigenvalue of that n_hot x n_hot matrix.

    The run starts at alpha0. It stops once the stationarity residual
    |y - T(y)| / t of the extrapolated point y falls below SEARCH_TOL, where
    T(y) = prox(y - t grad(y)) is the next iterate, or after
    SEARCH_MAX_STEPS steps. T is nonexpansive, so the residual at the
    returned iterate, reported as `residual`, is no larger.

    Strictly inside the hinge band and the box only the quadratic is
    active, and from there every FISTA update lies in range(A^T), so the
    path converges to the projection of u onto the least-squares
    minimisers, q = u - A^T (A A^T)^+ (A u + r0). The search tries q, from
    the eigendecomposition of A A^T that gives L, before its first step
    and after every step that ends strictly inside band and box. It
    accepts q, as its last iterate, only when q passes the stop test
    |q - T(q)| < SEARCH_TOL t, and then reports that gap as its residual;
    otherwise it keeps stepping. On the reference hall most warm-started
    searches end at q with no step.
    """
    _check_alpha(alpha0, terms.powers)
    n = priors.n_sensors
    # the hot rows of the residual at u = 0
    r0 = _search_residual(_predict(w, priors.hot_mask, terms.x_cold, 0.0), t_meas)[terms.hot]
    powers = terms.powers
    c_hot = w.c[terms.hot]
    A = (terms.heat_hot * c_hot).T  # (n_hot, m)
    AAt = c_hot[:, None] * terms.gram_hot * c_hot
    if not np.isfinite(AAt).all():  # the eigensolver below would fail on it
        raise ObjectiveNonFiniteError("search objective is not finite: non-finite heating term")
    eig, vec = np.linalg.eigh(AAt)
    top = eig[-1] if eig.size else 0.0  # a hall without hot sensors has no rows of A
    L = 2.0 / n * top
    t = 1.0 / L if L > 0.0 else 1.0  # with A = 0 only the hinge moves u, at any step
    gA = 2.0 * t / n * A  # the forward step y - t grad(y) is y - (A y) gA - r0 gA
    c = r0.dot(gA)
    k_lo, k_hi = params.dt_low / params.kappa, params.dt_high / params.kappa
    s = t * params.lam / n * params.kappa * powers
    u_lo, u_hi = 1.0 / bounds.upper, 1.0 / bounds.lower
    inner_lo, inner_hi = max(k_lo, u_lo), min(k_hi, u_hi)  # band and box
    # the pseudo-inverse's range: a hot sensor whose c or server support is
    # zero makes A A^T singular. The tolerance is that of the n x n matrix
    # over all sensors, whose other eigenvalues are the cold rows' zeros.
    rank = eig > n * _EPS * top
    eig, vec = eig[rank], vec[:, rank]

    def step(y: np.ndarray) -> np.ndarray:
        v = y - A.dot(y).dot(gA)
        v -= c
        return hinge_box_prox(v, k_lo, k_hi, s, u_lo, u_hi, out=v)

    stop = (SEARCH_TOL * t) ** 2  # |y - T(y)|^2 at the stationarity tolerance

    def projection(u: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
        """u's projection q onto the least-squares minimisers and its gap
        |q - T(q)|^2, if it passes the stop test; strict, so NaN and
        SEARCH_TOL = 0 never pass."""
        q = u - (vec.dot((A.dot(u) + r0).dot(vec) / eig)).dot(A)
        gap = q - step(q)
        gap2 = gap.dot(gap)
        return (q, gap2) if gap2 < stop else None

    u = np.minimum(np.maximum(1.0 / alpha0, u_lo), u_hi)
    n_evals = 1  # the points visited: start, FISTA iterates, accepted projection
    found = projection(u)
    y, theta = u.copy(), 1.0
    gap, move = np.empty_like(u), np.empty_like(u)
    for _ in range(0 if found is not None else SEARCH_MAX_STEPS):
        u_next = step(y)
        n_evals += 1
        np.subtract(y, u_next, out=gap)
        np.subtract(u_next, u, out=move)
        u = u_next
        if not gap.dot(gap) >= stop:  # NaN stops too
            break
        if inner_lo < u.min() and u.max() < inner_hi:
            found = projection(u)
            if found is not None:
                break
        if gap.dot(move) > 0.0:  # momentum points uphill: restart it
            theta = 1.0
        theta_next = 0.5 * (1.0 + (1.0 + 4.0 * theta * theta) ** 0.5)
        np.multiply(move, (theta - 1.0) / theta_next, out=y)
        y += u
        theta = theta_next
    if found is not None:
        (u, gap2), n_evals = found, n_evals + 1
        residual = math.sqrt(gap2) / t
    else:
        residual = float(np.linalg.norm(u - step(u)) / t)

    alpha = bounds.clip(1.0 / u)
    fun = loss_at(w, priors, terms, alpha, t_meas, params)
    if not math.isfinite(fun):
        raise ObjectiveNonFiniteError(f"search objective is {fun} at {rate_range(alpha)}")
    return SearchResult(x=alpha, fun=fun, n_evals=n_evals, residual=residual)


# -- variant with trainable adjacency (data-volume study) --------------------
#
# Promoting w_cs / w_ss to trainables changes the softmax support: with the
# matrices free to move there is no fixed zero pattern, so the softmax runs
# over all CRACs. The per-row functions (forward_trainable, loss_l1_trainable,
# grad_trainable) take any batch. train_trainable and trainable_at take one
# operating state, as the study's samples share one: the softmax, X_cold and
# the softmax Jacobian are then computed once on (l, n) and only X_hot per
# sample, with the per-row functions' bits.


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
    def view(cls, flat: np.ndarray, n: int, l: int, m: int) -> "TrainableAdjacencyWeights":
        """Weights of n sensors, l CRACs and m servers as views into a
        contiguous flat vector laid out as pack() lays it out; writes to
        flat show through."""
        linear = SurrogateWeights(a=flat[:n], b=flat[n:2 * n], c=flat[2 * n:3 * n],
                                  d=flat[3 * n:4 * n])
        return cls(linear=linear, w_cs=flat[4 * n:4 * n + l * n].reshape(l, n),
                   w_ss=flat[4 * n + l * n:].reshape(m, n))

    @classmethod
    def unpack(cls, flat: np.ndarray, n: int, l: int, m: int) -> "TrainableAdjacencyWeights":
        return cls.view(np.array(flat, dtype=float), n, l, m)


def forward_trainable(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                      x: SystemInput) -> np.ndarray:
    _, x_cold, x_hot = _features(tw.w_cs, tw.w_ss, x, dense=True)
    return _predict(tw.linear, hot_mask, x_cold, x_hot)


def trainable_at(tw: TrainableAdjacencyWeights, hot_mask: np.ndarray,
                 state: OperatingState) -> Callable[[np.ndarray], np.ndarray]:
    """forward_trainable at `state`, as a function of the flow rates alone:
    X_cold is computed here, once, so each call computes only X_hot."""
    _, x_cold = _state_features(tw.w_cs, tw.w_ss, state, dense=True)
    powers = state.server_powers

    def predict(alpha: np.ndarray) -> np.ndarray:
        _check_alpha(alpha, powers)
        return _predict(tw.linear, hot_mask, x_cold, (powers / alpha) @ tw.w_ss)

    return predict


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
    """Full-batch Adam on loss_l1_trainable with hyper's staged decay;
    returns the weights with the lowest observed loss.

    The samples must be at the first sample's operating state
    (OperatingState.require). The batch is stacked, checked as loss_l1_trainable checks
    it, and its P / alpha formed once per fit. Each epoch then computes
    the softmax coefficients, X_cold and the softmax Jacobian once on
    (l, n), reads the layers as views into Adam's parameter vector and
    writes the gradient into one flat buffer. Every epoch's loss and
    gradient are loss_l1_trainable's and grad_trainable's, bit for bit.
    """
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    n = tw0.linear.n_sensors
    l, m = tw0.w_cs.shape[0], tw0.w_ss.shape[0]
    x, targets = _stack_batch(dataset)
    _check_counts(tw0.w_cs, tw0.w_ss, x)
    _check_targets(targets, tw0.w_cs)
    _check_alpha(x.flow_rates, x.server_powers)
    state = dataset[0].input
    state.require([s.input for s in dataset[1:]], "the first sample's", first=1)
    setpoints, fans = state.crac_setpoints[:, None], state.crac_fan_speeds[:, None]  # (l, 1)
    pw = x.server_powers / x.flow_rates  # (B, m)
    scale = 2.0 / targets.size
    grad_flat = np.empty(tw0.n_trainable)
    grad = TrainableAdjacencyWeights.view(grad_flat, n, l, m)
    # A cold column of the w_ss gradient is hot_mask's 0 times the residual:
    # it is zeroed once and the einsum sums the hot columns only. einsum sums
    # a 1-by-1 product, or with one server columns that are not C-ordered
    # (as scaled[:, hot] would be; take keeps them so), in another order, so
    # one server with one hot sensor sums every column.
    hot = np.flatnonzero(hot_mask)
    if m == 1 and hot.size == 1:
        hot = np.arange(n)
    hot_weights = hot_mask[hot]
    grad.w_ss[...] = 0.0

    def loss_and_grad(params: np.ndarray):
        # _trainable_residual and _trainable_grad, with the state's terms on (l, n)
        tw = TrainableAdjacencyWeights.view(params, n, l, m)
        coeff = _cooling_coefficients(tw.w_cs, state.crac_fan_speeds, dense=True)
        x_cold = (setpoints * coeff).sum(axis=0)  # (n,)
        features = (x_cold, pw @ tw.w_ss, targets)
        residual = _batch_residual(tw.linear, hot_mask, features)
        grad_flat[:4 * n] = _weight_grad(hot_mask, features, residual).pack()
        scaled = scale * residual
        dz = coeff * (setpoints - x_cold)
        np.sum((scaled * tw.linear.a)[:, None, :] * dz * fans, axis=0, out=grad.w_cs)
        grad.w_ss[:, hot] = np.einsum("bm,bn->mn", pw,
                                      scaled.take(hot, axis=1) * hot_weights * tw.linear.c[hot])
        residual *= residual
        return float(np.add.reduce(residual, axis=None) / residual.size), grad_flat  # np.mean's bits

    return TrainableAdjacencyWeights.view(adam_fit(tw0.pack(), loss_and_grad, hyper), n, l, m)
