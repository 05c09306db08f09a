"""Black-box baseline surrogate: a fully connected net from the flattened
system input to the n sensor temperatures.

Hidden layers are 518, 128 and 32 units with ReLU; the output layer is
linear. Inputs are standardized per feature with training-set statistics
(the features mix degC, ratios, watts and cfm/W); targets stay in degC.
The flow rates are ordinary inputs here, so the calibration step can
differentiate the net with respect to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyBatchError, EmptyDatasetError
from .hall import SystemInput
from .optim import TrainConfig, adam_fit
from .surrogate import PenaltyParams, TrainingSample, search_grad, search_loss

HIDDEN_SIZES = (518, 128, 32)
STD_FLOOR = 1e-8  # features that never vary would otherwise blow up
MLP_TRAIN = TrainConfig(learning_rate=0.01)  # TrainConfig's 0.1 is too hot for a deep net


def flatten_input(x: SystemInput) -> np.ndarray:
    """Feature vector [T_c, V, P, alpha] of length 2l + 2m."""
    return np.concatenate([x.crac_setpoints, x.crac_fan_speeds, x.server_powers, x.flow_rates])


@dataclass(frozen=True)
class MlpWeights:
    """Dense layers plus the input standardization statistics."""

    weights: tuple[np.ndarray, ...]  # per layer, (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    input_mean: np.ndarray
    input_std: np.ndarray

    @property
    def n_trainable(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    def pack(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def unpack(self, flat: np.ndarray) -> "MlpWeights":
        arrays, pos = [], 0
        for a in self.weights + self.biases:
            arrays.append(flat[pos:pos + a.size].reshape(a.shape).copy())
            pos += a.size
        k = len(self.weights)
        return MlpWeights(tuple(arrays[:k]), tuple(arrays[k:]), self.input_mean, self.input_std)


def init_mlp(in_dim: int, n_sensors: int, seed: int = 0) -> MlpWeights:
    """Fan-in-scaled uniform initialization; identity standardization until fit."""
    rng = np.random.default_rng(seed)
    sizes = (in_dim,) + HIDDEN_SIZES + (n_sensors,)
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return MlpWeights(tuple(ws), tuple(bs), np.zeros(in_dim), np.ones(in_dim))


def _stack_batch(batch: list[TrainingSample]):
    """Feature rows (B, D) and targets (B, n) of a sample batch."""
    if not batch:
        raise EmptyBatchError("batch is empty")
    return (np.stack([flatten_input(s.input) for s in batch]),
            np.stack([s.target for s in batch]))


def fit_standardizer(w: MlpWeights, batch: list[TrainingSample]) -> MlpWeights:
    """Replace the standardization statistics with the batch's per-feature
    mean and (floored) standard deviation."""
    feats, _ = _stack_batch(batch)
    return MlpWeights(w.weights, w.biases, feats.mean(axis=0),
                      np.maximum(feats.std(axis=0), STD_FLOOR))


def _forward_cached(w: MlpWeights, feats: np.ndarray):
    """Forward pass keeping pre-activations for backprop; feats is (B, D)."""
    h = (feats - w.input_mean) / w.input_std
    activations = [h]
    pres = []
    last = len(w.weights) - 1
    for i, (wi, bi) in enumerate(zip(w.weights, w.biases)):
        pre = h @ wi + bi
        pres.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
        activations.append(h)
    return activations, pres


def _forward_one(w: MlpWeights, x: SystemInput):
    feats = flatten_input(x)
    if feats.size != w.in_dim:
        raise DimensionMismatchError(f"expected input dim {w.in_dim}, got {feats.size}")
    return _forward_cached(w, feats[None, :])


def mlp_forward(w: MlpWeights, x: SystemInput) -> np.ndarray:
    activations, _ = _forward_one(w, x)
    return activations[-1][0]


def mlp_loss_l1(w: MlpWeights, batch: list[TrainingSample]) -> float:
    feats, targets = _stack_batch(batch)
    activations, _ = _forward_cached(w, feats)
    return float(np.mean((activations[-1] - targets) ** 2))


def _backprop(w: MlpWeights, activations, pres, delta_out: np.ndarray):
    """Propagate an output-space delta; returns weight grads and input delta."""
    grads_w = [None] * len(w.weights)
    grads_b = [None] * len(w.biases)
    delta = delta_out
    for i in range(len(w.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ w.weights[i].T
        if i > 0:
            delta = delta * (pres[i - 1] > 0.0)
    return grads_w, grads_b, delta


def _loss_and_grad(w: MlpWeights, feats: np.ndarray, targets: np.ndarray):
    """mlp_loss_l1 and its weight gradient from one forward pass."""
    activations, pres = _forward_cached(w, feats)
    residual = activations[-1] - targets
    delta_out = 2.0 / residual.size * residual
    grads_w, grads_b, _ = _backprop(w, activations, pres, delta_out)
    grad = MlpWeights(tuple(grads_w), tuple(grads_b), w.input_mean, w.input_std)
    return float(np.mean(residual ** 2)), grad


def mlp_grad_weights(w: MlpWeights, batch: list[TrainingSample]) -> MlpWeights:
    """Analytic gradient of mlp_loss_l1 with respect to all layers."""
    return _loss_and_grad(w, *_stack_batch(batch))[1]


def mlp_loss_l2(w: MlpWeights, x: SystemInput, t_meas: np.ndarray,
                params: PenaltyParams) -> float:
    return search_loss(mlp_forward(w, x), x, t_meas, params)


def mlp_grad_alpha(w: MlpWeights, x: SystemInput, t_meas: np.ndarray,
                   params: PenaltyParams) -> np.ndarray:
    """Gradient of mlp_loss_l2 with respect to the flow rates, backpropagated
    to the raw flow-rate features."""
    activations, pres = _forward_one(w, x)
    m = x.flow_rates.size

    def mse_grad(residual: np.ndarray) -> np.ndarray:
        delta_in = _backprop(w, activations, pres, (2.0 / residual.size * residual)[None, :])[2]
        return (delta_in[0] / w.input_std)[-m:]

    return search_grad(activations[-1][0], x, t_meas, params, mse_grad)


def mlp_train(w0: MlpWeights, dataset: list[TrainingSample], hyper: TrainConfig) -> MlpWeights:
    """Full-batch Adam on the squared-error loss with hyper's staged decay;
    returns the weights with the lowest observed loss."""
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    feats, targets = _stack_batch(dataset)

    def loss_and_grad(params: np.ndarray):
        loss, grad = _loss_and_grad(w0.unpack(params), feats, targets)
        return loss, grad.pack()

    return w0.unpack(adam_fit(w0.pack(), loss_and_grad, hyper))
