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
from hallcal.optim import AdamState, TrainConfig, adam_step
from hallcal.surrogate import PenaltyParams, TrainingSample

L, M, N = 2, 5, 4
IN_DIM = 2 * L + 2 * M


def make_input(rng):
    return SystemInput(rng.uniform(18, 24, L), rng.uniform(0.3, 1.0, L),
                       rng.uniform(50, 400, M), rng.uniform(0.1, 1.0, M))


def test_zero_weights_output_equals_bias():
    w0 = init_mlp(IN_DIM, N, seed=0)
    bias = np.array([1.0, -2.0, 3.0, 0.5])
    zeroed = MlpWeights(tuple(np.zeros_like(wi) for wi in w0.weights),
                        tuple(np.zeros_like(b) for b in w0.biases[:-1]) + (bias,),
                        w0.input_mean, w0.input_std)
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


def test_train_equals_plain_adam_loop():
    """mlp_train against mlp_loss_l1 and mlp_grad_weights evaluated afresh
    each epoch, with a decay stage inside the run."""
    rng = np.random.default_rng(8)
    batch = [TrainingSample(input=make_input(rng), target=rng.uniform(18, 30, N))
             for _ in range(5)]
    w0 = fit_standardizer(init_mlp(IN_DIM, N, seed=8), batch)
    hyper = TrainConfig(epochs=12, learning_rate=0.01, decay_every=5)
    params = w0.pack()
    best_params, best_loss = params.copy(), mlp_loss_l1(w0, batch)
    state = AdamState.init(params.size, hyper.learning_rate)
    for epoch in range(hyper.epochs):
        g = mlp_grad_weights(w0.unpack(params), batch)
        state.learning_rate = hyper.lr_at(epoch)
        state, params = adam_step(state, params, g.pack())
        loss = mlp_loss_l1(w0.unpack(params), batch)
        if loss < best_loss:
            best_loss, best_params = loss, params.copy()
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
    closure's reused buffer, is mlp_grad_weights bit for bit."""
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
        w = w0.unpack(p)
        assert np.array_equal(grad, mlp_grad_weights(w, batch).pack())
        assert loss == mlp_loss_l1(w, batch)


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
