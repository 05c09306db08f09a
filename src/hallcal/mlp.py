"""Black-box baseline surrogate: a fully connected net from the flattened
system input to the n sensor temperatures.

Hidden layers are 518, 128 and 32 units with ReLU; the output layer is
linear. Inputs are standardized per feature with training-set statistics
(the features mix degC, ratios, watts and cfm/W); targets stay in degC.
The flow rates are ordinary inputs here, so the calibration step can
differentiate the net with respect to them.

A feature that takes one value in every row of the standardizer's batch
carries nothing to learn from, so the first layer keeps weight rows only
for the features that vary. With the operating state fixed, as in a
calibration run and in the data-volume study, that drops the CRAC
setpoints, fan speeds and server powers. The net then ignores a dropped
feature, and its gradient with respect to one is zero.

Training runs in float32 (see mlp_train) and returns float32-exact
weights as float64 arrays; the forward pass, the losses and both
gradients that the search and the checks read run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, EmptyBatchError, EmptyDatasetError
from .hall import SystemInput
from .optim import TrainConfig, adam_fit
from .surrogate import PenaltyParams, TrainingSample, search_grad, search_loss

HIDDEN_SIZES = (518, 128, 32)
STD_FLOOR = 1e-8  # keeps the division finite should a kept feature's spread round to 0
MLP_TRAIN = TrainConfig(learning_rate=0.01)  # TrainConfig's 0.1 is too hot for a deep net


def flatten_input(x: SystemInput) -> np.ndarray:
    """Feature vector [T_c, V, P, alpha] of length 2l + 2m: the fields in order."""
    return np.concatenate([getattr(x, f.name) for f in fields(x)])


@dataclass(frozen=True)
class MlpWeights:
    """Dense layers plus the input standardization statistics. The first
    layer has one row per kept feature; the statistics span every feature."""

    weights: tuple[np.ndarray, ...]  # per layer, (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    kept: np.ndarray  # indices of the features the first layer reads, ascending
    input_mean: np.ndarray
    input_std: np.ndarray

    @property
    def n_trainable(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @property
    def in_dim(self) -> int:
        return self.input_mean.size

    @property
    def out_dim(self) -> int:
        return self.biases[-1].size

    def pack(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def view(self, flat: np.ndarray) -> "MlpWeights":
        """Layers shaped like this net's as views into a contiguous flat
        vector laid out as pack() lays it out; writes to flat show through."""
        arrays, pos = [], 0
        for a in self.weights + self.biases:
            arrays.append(flat[pos:pos + a.size].reshape(a.shape))
            pos += a.size
        k = len(self.weights)
        return MlpWeights(tuple(arrays[:k]), tuple(arrays[k:]), self.kept,
                          self.input_mean, self.input_std)

    def unpack(self, flat: np.ndarray) -> "MlpWeights":
        return self.view(np.array(flat, dtype=float))


def init_mlp(in_dim: int, n_sensors: int, seed: int = 0) -> MlpWeights:
    """Fan-in-scaled uniform initialization; every feature kept and identity
    standardization until fit."""
    rng = np.random.default_rng(seed)
    sizes = (in_dim,) + HIDDEN_SIZES + (n_sensors,)
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return MlpWeights(tuple(ws), tuple(bs), np.arange(in_dim), np.zeros(in_dim), np.ones(in_dim))


def _stack_batch(w: MlpWeights, batch: list[TrainingSample]):
    """Feature rows (B, D) and targets (B, n) of a sample batch, each sample
    checked against w's input and output widths."""
    if not batch:
        raise EmptyBatchError("batch is empty")
    feats = [flatten_input(s.input) for s in batch]
    for f, s in zip(feats, batch):
        if f.size != w.in_dim:
            raise DimensionMismatchError(f"expected input dim {w.in_dim}, got {f.size}")
        if s.target.shape != (w.out_dim,):
            raise DimensionMismatchError(
                f"expected {w.out_dim} targets, got shape {s.target.shape}")
    return np.stack(feats), np.stack([s.target for s in batch])


def fit_standardizer(w: MlpWeights, batch: list[TrainingSample]) -> MlpWeights:
    """Replace the standardization statistics with the batch's per-feature
    mean and (floored) standard deviation, and drop from the first layer
    every kept feature that takes one value in all of the batch's rows. The
    remaining rows keep their values; a dropped feature is not restored."""
    feats, _ = _stack_batch(w, batch)
    varies = feats.max(axis=0)[w.kept] != feats.min(axis=0)[w.kept]
    return MlpWeights((w.weights[0][varies],) + w.weights[1:], w.biases, w.kept[varies],
                      feats.mean(axis=0), np.maximum(feats.std(axis=0), STD_FLOOR))


def _standardize(w: MlpWeights, feats: np.ndarray) -> np.ndarray:
    """The kept columns of feature rows (B, D), standardized."""
    return (feats[:, w.kept] - w.input_mean[w.kept]) / w.input_std[w.kept]


def _forward_cached(w: MlpWeights, h: np.ndarray) -> list[np.ndarray]:
    """Forward pass from standardized features h (B, D); returns each
    layer's input, the output last. A hidden activation is positive exactly
    where its pre-activation is, so backprop reads the ReLU masks off them."""
    activations = [h]
    last = len(w.weights) - 1
    for i, (wi, bi) in enumerate(zip(w.weights, w.biases)):
        h = h @ wi
        h += bi
        if i < last:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return activations


def _forward_one(w: MlpWeights, x: SystemInput) -> list[np.ndarray]:
    feats = flatten_input(x)
    if feats.size != w.in_dim:
        raise DimensionMismatchError(f"expected input dim {w.in_dim}, got {feats.size}")
    return _forward_cached(w, _standardize(w, feats[None, :]))


def mlp_forward(w: MlpWeights, x: SystemInput) -> np.ndarray:
    return _forward_one(w, x)[-1][0]


def mlp_loss_l1(w: MlpWeights, batch: list[TrainingSample]) -> float:
    feats, targets = _stack_batch(w, batch)
    out = _forward_cached(w, _standardize(w, feats))[-1]
    return float(np.mean((out - targets) ** 2))


def _backprop(w: MlpWeights, activations: list[np.ndarray], delta: np.ndarray,
              grad: Optional[MlpWeights] = None) -> Optional[np.ndarray]:
    """Propagate an output-space delta back through the layers.

    With `grad`, write each layer's weight and bias gradient into grad's
    arrays and stop at the first layer, returning None. Without it, form no
    weight gradient and return the delta at the standardized input.
    """
    for i in range(len(w.weights) - 1, -1, -1):
        if grad is not None:
            np.matmul(activations[i].T, delta, out=grad.weights[i])
            np.sum(delta, axis=0, out=grad.biases[i])
            if i == 0:
                return None
        delta = delta @ w.weights[i].T
        if i > 0:
            delta *= activations[i] > 0.0
    return delta


def _loss_into(w: MlpWeights, h: np.ndarray, targets: np.ndarray, grad: MlpWeights) -> float:
    """mlp_loss_l1 at standardized features h; its weight gradient is
    written into grad's arrays from the same forward pass."""
    activations = _forward_cached(w, h)
    residual = activations[-1] - targets
    _backprop(w, activations, 2.0 / residual.size * residual, grad)
    residual *= residual
    return float(np.add.reduce(residual, axis=None) / residual.size)  # np.mean's bits


def mlp_grad_weights(w: MlpWeights, batch: list[TrainingSample]) -> MlpWeights:
    """Analytic gradient of mlp_loss_l1 with respect to all layers."""
    feats, targets = _stack_batch(w, batch)
    grad = w.view(np.empty(w.n_trainable))
    _loss_into(w, _standardize(w, feats), targets, grad)
    return grad


def mlp_loss_l2(w: MlpWeights, x: SystemInput, t_meas: np.ndarray,
                params: PenaltyParams) -> float:
    return search_loss(mlp_forward(w, x), x.flow_rates, x.server_powers, t_meas, params)


def mlp_grad_alpha(w: MlpWeights, x: SystemInput, t_meas: np.ndarray,
                   params: PenaltyParams) -> np.ndarray:
    """Gradient of mlp_loss_l2 with respect to the flow rates, backpropagated
    to the raw flow-rate features. The net's share of it is 0 for a flow
    rate the net dropped; the hinge penalty's is not."""
    activations = _forward_one(w, x)
    m = x.flow_rates.size

    def mse_grad(residual: np.ndarray) -> np.ndarray:
        delta_in = _backprop(w, activations, (2.0 / residual.size * residual)[None, :])
        full = np.zeros(w.in_dim)
        full[w.kept] = delta_in[0] / w.input_std[w.kept]
        return full[-m:]

    return search_grad(activations[-1][0], x.flow_rates, x.server_powers, t_meas, params,
                       mse_grad)


def mlp_train(w0: MlpWeights, dataset: list[TrainingSample], hyper: TrainConfig) -> MlpWeights:
    """Full-batch Adam on the squared-error loss with hyper's staged decay;
    returns the weights with the lowest observed loss.

    Training runs in single precision (Micikevicius et al. 2018): the
    standardized features, the targets, the parameters and the gradient
    are cast to float32 once, and the forward pass, backward pass and Adam
    update all run at that width, which halves the data each epoch moves.
    The returned layers are the float32 result widened to float64, which
    is exact, so every other function here reads them in double precision,
    and a warm-started refit casts them back down without loss.

    The features are standardized once. The layers are read as views into
    Adam's parameter vector, built on the first epoch (adam_fit passes the
    same vector every time), and the gradient is written into one flat
    buffer, so no epoch copies, packs or unpacks a parameter.
    """
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    feats, targets = _stack_batch(w0, dataset)
    h = _standardize(w0, feats).astype(np.float32)
    targets = targets.astype(np.float32)
    grad_flat = np.empty(w0.n_trainable, dtype=np.float32)
    grad = w0.view(grad_flat)
    bound: list = [None, None]  # the parameter vector last passed, and w0's views into it

    def loss_and_grad(params: np.ndarray):
        if params is not bound[0]:
            bound[:] = params, w0.view(params)
        return _loss_into(bound[1], h, targets, grad), grad_flat

    return w0.view(adam_fit(w0.pack().astype(np.float32), loss_and_grad, hyper).astype(float))
