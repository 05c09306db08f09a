from dataclasses import replace

import numpy as np
import pytest

from hallcal import mlp
from hallcal.errors import DimensionMismatchError, EmptyDatasetError
from hallcal.hall import SystemInput
from hallcal.mlp import (
    MlpWeights,
    fit_standardizer,
    init_mlp,
    mlp_forward,
    mlp_grad_alpha,
    mlp_grad_weights,
    mlp_loss_l1,
    mlp_loss_l2,
    mlp_train,
)
from hallcal.optim import TrainConfig, _adam_update, adam_fit
from hallcal.surrogate import PenaltyParams, TrainingSample

L, M, N = 2, 5, 4
IN_DIM = 2 * L + 2 * M


def make_input(rng):
    return SystemInput(rng.uniform(18, 24, L), rng.uniform(0.3, 1.0, L),
                       rng.uniform(50, 400, M), rng.uniform(0.1, 1.0, M))


def test_zero_weights_output_equals_bias():
    w0 = init_mlp(IN_DIM, N, seed=0)
    bias = np.array([1.0, -2.0, 3.0, 0.5])
    zeroed = replace(w0, weights=tuple(np.zeros_like(wi) for wi in w0.weights),
                     biases=tuple(np.zeros_like(b) for b in w0.biases[:-1]) + (bias,))
    out = mlp_forward(zeroed, make_input(np.random.default_rng(0)))
    np.testing.assert_array_equal(out, bias)


def test_forward_deterministic():
    w = init_mlp(IN_DIM, N, seed=1)
    x = make_input(np.random.default_rng(2))
    assert np.array_equal(mlp_forward(w, x), mlp_forward(w, x))


def test_input_dimension_checked():
    w = init_mlp(IN_DIM, N, seed=1)
    bad = SystemInput(np.array([20.0]), np.array([0.5]), np.ones(M), np.full(M, 0.2))
    with pytest.raises(DimensionMismatchError):
        mlp_forward(w, bad)


def test_grad_alpha_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = init_mlp(IN_DIM, N, seed=3)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(6)]
    w = fit_standardizer(w, batch)
    w = mlp_train(w, batch, TrainConfig(epochs=30, learning_rate=0.01))
    params = PenaltyParams()
    x = make_input(rng)
    meas = mlp_forward(w, x) + rng.normal(0, 1, N)
    g = mlp_grad_alpha(w, x, meas, params)
    alpha = x.flow_rates
    fd = np.zeros(M)
    for j in range(M):
        h = 1e-5 * alpha[j]
        ap, am = alpha.copy(), alpha.copy()
        ap[j] += h
        am[j] -= h
        fd[j] = (mlp_loss_l2(w, x.with_flow_rates(ap), meas, params)
                 - mlp_loss_l2(w, x.with_flow_rates(am), meas, params)) / (2 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-10)


def test_fits_single_sample_tightly():
    rng = np.random.default_rng(4)
    # standardizer from a small batch; a single sample would zero out
    # every feature and leave only the output bias trainable
    context = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
               for _ in range(4)]
    sample = context[0]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=4), context)
    initial = mlp_loss_l1(w0, [sample])
    trained = mlp_train(w0, [sample], TrainConfig(learning_rate=0.01))
    assert mlp_loss_l1(trained, [sample]) < 1e-3 * initial


def test_training_deterministic_given_seed():
    rng = np.random.default_rng(5)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(3)]
    outs = []
    for _ in range(2):
        w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=5), batch)
        outs.append(mlp_train(w0, batch, TrainConfig(epochs=25, learning_rate=0.01)).pack())
    assert np.array_equal(outs[0], outs[1])


def test_parameter_count_dwarfs_knowledge_surrogate(reference):
    scenario, _ = reference
    layout = scenario.layout
    w = init_mlp(2 * layout.n_cracs + 2 * layout.n_servers, layout.n_sensors, seed=0)
    assert w.n_trainable > 100 * 4 * layout.n_sensors


def test_standardizer_floors_constant_features():
    rng = np.random.default_rng(6)
    x = make_input(rng)
    batch = [TrainingSample(input=x, target=rng.uniform(18, 30, N)) for _ in range(4)]
    w = fit_standardizer(init_mlp(IN_DIM, N, seed=6), batch)
    assert np.all(w.input_std > 0.0)
    out = mlp_forward(w, x)
    assert np.all(np.isfinite(out))


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        mlp_train(init_mlp(IN_DIM, N, seed=0), [], TrainConfig())


def test_search_objective_rejects_wrong_measurement_length():
    rng = np.random.default_rng(7)
    w = init_mlp(IN_DIM, N, seed=7)
    x = make_input(rng)
    for objective in (mlp_loss_l2, mlp_grad_alpha):
        with pytest.raises(DimensionMismatchError):
            objective(w, x, np.array([25.0]), PenaltyParams())


def float32_loss_and_grad(w: MlpWeights, batch):
    """mlp_loss_l1 and the flat mlp_grad_weights of a net whose layers are
    float32, evaluated afresh at the width mlp_train trains in: the
    standardized features and the targets cast to float32 once."""
    feats, targets = mlp._stack_batch(w, batch)
    h = mlp._standardize(w, feats).astype(np.float32)
    grad = w.view(np.empty(w.n_trainable, dtype=np.float32))
    loss = mlp._loss_into(w, h, targets.astype(np.float32), grad)
    return loss, grad.pack()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("size", [1, 7, 80])
def test_training_loss_has_np_means_bits(size, dtype):
    """_loss_into's loss is the mean squared residual of the forward pass,
    bit for bit, at either width mlp_train may run in."""
    rng = np.random.default_rng(size)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(size)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=size), batch)
    w = w0.view(w0.pack().astype(dtype))
    feats, targets = mlp._stack_batch(w, batch)
    h, targets = mlp._standardize(w, feats).astype(dtype), targets.astype(dtype)
    residual = mlp._forward_cached(w, h)[-1] - targets
    grad = w.view(np.empty(w.n_trainable, dtype=dtype))
    assert mlp._loss_into(w, h, targets, grad) == float(np.mean(residual ** 2))


def test_train_equals_plain_adam_loop():
    """mlp_train against a float32 loss and gradient evaluated afresh each
    epoch and an out-of-place float32 Adam update, with a decay stage
    inside the run."""
    rng = np.random.default_rng(8)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(5)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=8), batch)
    hyper = TrainConfig(epochs=12, learning_rate=0.01, decay_every=5)
    params = w0.pack().astype(np.float32)
    m, v = np.zeros_like(params), np.zeros_like(params)
    best_loss, g = float32_loss_and_grad(w0.view(params.copy()), batch)
    best_params = params.copy()
    for epoch in range(hyper.epochs):
        m, v, params = m.copy(), v.copy(), params.copy()
        _adam_update(m, v, params, g, epoch + 1, hyper.lr_at(epoch), np.empty_like(params))
        loss, g = float32_loss_and_grad(w0.view(params.copy()), batch)
        if loss < best_loss:
            best_loss, best_params = loss, params.copy()
    assert params.dtype == np.float32 and not np.array_equal(best_params, w0.pack())
    assert np.array_equal(mlp_train(w0, batch, hyper).pack(), best_params)


def _arrays(w: MlpWeights):
    return w.weights + w.biases


def test_train_leaves_w0_unchanged_and_results_independent():
    rng = np.random.default_rng(9)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(4)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=9), batch)
    before = w0.pack()
    hyper = TrainConfig(epochs=6, learning_rate=0.01)
    first, second = mlp_train(w0, batch, hyper), mlp_train(w0, batch, hyper)
    assert np.array_equal(w0.pack(), before)
    assert np.array_equal(first.pack(), second.pack())
    for a in _arrays(first):
        for b in _arrays(second) + _arrays(w0):
            assert not np.shares_memory(a, b)


def test_grad_weights_equals_training_gradient(monkeypatch):
    """The gradient mlp_train feeds Adam, read at two points through the
    closure's reused buffer, is the float32 reference bit for bit and
    mlp_grad_weights to single precision."""
    rng = np.random.default_rng(10)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(5)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=10), batch)
    captured = []

    def capture(params, loss_and_grad, _hyper):
        p = params.copy()
        for shift in (0.0, 1e-3):
            p += shift
            loss, grad = loss_and_grad(p)
            captured.append((p.copy(), loss, grad.copy()))
        return params

    monkeypatch.setattr(mlp, "adam_fit", capture)
    mlp_train(w0, batch, TrainConfig())
    assert len(captured) == 2 and not np.array_equal(captured[0][2], captured[1][2])
    for p, loss, grad in captured:
        assert p.dtype == np.float32 and grad.dtype == np.float32
        want_loss, want_grad = float32_loss_and_grad(w0.view(p.copy()), batch)
        assert np.array_equal(grad, want_grad)
        assert loss == want_loss
        g64 = mlp_grad_weights(w0.unpack(p), batch).pack()
        assert np.linalg.norm(grad - g64) <= 1e-5 * np.linalg.norm(g64)
        assert loss == pytest.approx(mlp_loss_l1(w0.unpack(p), batch), rel=1e-5)


def test_grad_weights_matches_finite_differences():
    rng = np.random.default_rng(12)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(4)]
    w = fit_standardizer(init_mlp(IN_DIM, N, seed=12), batch)
    w = w.unpack(w.pack() + rng.normal(0, 0.01, w.n_trainable))  # nonzero biases
    flat, g = w.pack(), mlp_grad_weights(w, batch).pack()
    # a few coordinates of every layer's weights and biases
    sizes = [a.size for a in _arrays(w)]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    coords = np.concatenate([s + rng.choice(k, min(k, 4), replace=False)
                             for s, k in zip(starts, sizes)])
    for i in coords:
        h = 1e-6 * max(abs(flat[i]), 1.0)
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd = (mlp_loss_l1(w.unpack(fp), batch) - mlp_loss_l1(w.unpack(fm), batch)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_batch_width_checked_against_net():
    rng = np.random.default_rng(11)
    w = init_mlp(IN_DIM + 2, N, seed=11)  # samples are two features short
    narrow = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
              for _ in range(3)]
    for call in (lambda b: mlp_train(w, b, TrainConfig(epochs=2)),
                 lambda b: fit_standardizer(w, b), lambda b: mlp_loss_l1(w, b),
                 lambda b: mlp_grad_weights(w, b)):
        with pytest.raises(DimensionMismatchError, match="input dim"):
            call(narrow)
    w = init_mlp(IN_DIM, N, seed=11)
    short = narrow[:2] + [TrainingSample(input=make_input(rng), target=np.ones(N - 1))]
    for call in (lambda b: mlp_train(w, b, TrainConfig(epochs=2)), lambda b: mlp_loss_l1(w, b)):
        with pytest.raises(DimensionMismatchError, match="targets"):
            call(short)


def fixed_state_batch(rng, size, constant_rates=()):
    """Samples sharing one operating state, with the flow rates at the
    indices in constant_rates also shared."""
    x = make_input(rng)
    batch = []
    for _ in range(size):
        alpha = rng.uniform(0.1, 1.0, M)
        alpha[list(constant_rates)] = x.flow_rates[list(constant_rates)]
        batch.append(TrainingSample(input=x.with_flow_rates(alpha), target=rng.uniform(18, 30, N)))
    return batch


def test_fixed_state_keeps_only_the_flow_rates(reference):
    scenario, state = reference
    layout = scenario.layout
    rng = np.random.default_rng(13)
    in_dim = 2 * layout.n_cracs + 2 * layout.n_servers
    batch = [TrainingSample(input=state.to_input(rng.uniform(0.01, 3.0, layout.n_servers)),
                            target=np.zeros(layout.n_sensors)) for _ in range(5)]
    w0 = init_mlp(in_dim, layout.n_sensors, seed=0)
    w = fit_standardizer(w0, batch)
    np.testing.assert_array_equal(w.kept, np.arange(in_dim - layout.n_servers, in_dim))
    assert w.in_dim == in_dim
    assert w.n_trainable == 105022
    assert np.array_equal(w.weights[0], w0.weights[0][w.kept])
    assert w.weights[1:] == w0.weights[1:] and w.biases == w0.biases


def test_dropped_feature_does_not_move_the_output():
    rng = np.random.default_rng(14)
    batch = fixed_state_batch(rng, 6, constant_rates=[2])
    w = fit_standardizer(init_mlp(IN_DIM, N, seed=14), batch)
    w = mlp_train(w, batch, TrainConfig(epochs=10, learning_rate=0.01))
    assert w.kept.size == M - 1
    x = make_input(rng)
    alpha = x.flow_rates.copy()
    alpha[2] *= 3.0
    other = SystemInput(x.crac_setpoints + 5.0, x.crac_fan_speeds * 0.5, x.server_powers + 100.0,
                        alpha)
    assert np.array_equal(mlp_forward(w, x), mlp_forward(w, other))
    bad = SystemInput(np.array([20.0]), np.array([0.5]), np.ones(M), np.full(M, 0.2))
    with pytest.raises(DimensionMismatchError):
        mlp_forward(w, bad)


def test_grad_alpha_is_zero_for_a_flow_rate_constant_in_training():
    rng = np.random.default_rng(15)
    batch = fixed_state_batch(rng, 6, constant_rates=[1])
    w = fit_standardizer(init_mlp(IN_DIM, N, seed=15), batch)
    w = mlp_train(w, batch, TrainConfig(epochs=30, learning_rate=0.01))
    params = PenaltyParams(lam=0.0)  # no hinge term, so only the net moves the loss
    x = batch[0].input.with_flow_rates(rng.uniform(0.1, 1.0, M))
    meas = mlp_forward(w, x) + rng.normal(0, 1, N)
    g = mlp_grad_alpha(w, x, meas, params)
    alpha = x.flow_rates
    fd = np.zeros(M)
    for j in range(M):
        h = 1e-5 * alpha[j]
        ap, am = alpha.copy(), alpha.copy()
        ap[j] += h
        am[j] -= h
        fd[j] = (mlp_loss_l2(w, x.with_flow_rates(ap), meas, params)
                 - mlp_loss_l2(w, x.with_flow_rates(am), meas, params)) / (2 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-10)
    assert g[1] == 0.0 and np.all(g[[0, 2, 3, 4]] != 0.0)


def test_one_sample_batch_trains_the_biases_alone():
    rng = np.random.default_rng(16)
    sample = TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=16), [sample])
    assert w0.kept.size == 0 and w0.weights[0].shape == (0, mlp.HIDDEN_SIZES[0])
    trained = mlp_train(w0, [sample], TrainConfig(epochs=50, learning_rate=0.01))
    assert mlp_loss_l1(trained, [sample]) < mlp_loss_l1(w0, [sample])
    out = mlp_forward(trained, make_input(rng))
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, mlp_forward(trained, sample.input))


def test_refit_never_restores_a_dropped_feature():
    rng = np.random.default_rng(17)
    first = fixed_state_batch(rng, 4, constant_rates=[0, 3])
    w1 = fit_standardizer(init_mlp(IN_DIM, N, seed=17), first)
    w2 = fit_standardizer(w1, fixed_state_batch(rng, 4, constant_rates=[3]) + first)
    np.testing.assert_array_equal(w2.kept, IN_DIM - M + np.array([1, 2, 4]))
    np.testing.assert_array_equal(w2.weights[0], w1.weights[0])


def float64_train(w0: MlpWeights, batch, hyper: TrainConfig) -> MlpWeights:
    """mlp_train's loop at float64 throughout, as a reference."""
    feats, targets = mlp._stack_batch(w0, batch)
    h = mlp._standardize(w0, feats)
    grad_flat = np.empty(w0.n_trainable)
    grad = w0.view(grad_flat)

    def loss_and_grad(params):
        return mlp._loss_into(w0.view(params), h, targets, grad), grad_flat

    return w0.view(adam_fit(w0.pack(), loss_and_grad, hyper))


def test_float32_training_ends_near_float64_training():
    rng = np.random.default_rng(18)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(8)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=18), batch)
    hyper = TrainConfig(learning_rate=0.01)
    single = mlp_loss_l1(mlp_train(w0, batch, hyper), batch)
    double = mlp_loss_l1(float64_train(w0, batch, hyper), batch)
    assert single < 1e-2 * mlp_loss_l1(w0, batch)
    assert single == pytest.approx(double, rel=1e-3)


def test_train_returns_float64_layers_exact_in_float32():
    rng = np.random.default_rng(19)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(4)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=19), batch)
    trained = mlp_train(w0, batch, TrainConfig(epochs=10, learning_rate=0.01))
    for a in _arrays(trained):
        assert a.dtype == np.float64
        assert np.array_equal(a.astype(np.float32).astype(np.float64), a)
    assert trained.input_mean is w0.input_mean and trained.input_std is w0.input_std
