import numpy as np
import pytest

from hallcal import optim
from hallcal.errors import DimensionMismatchError, ObjectiveNonFiniteError
from hallcal.optim import (
    AdamConfig,
    Bounds,
    DeConfig,
    TrainConfig,
    _adam_update,
    adam_fit,
    adam_search,
    cmaes_1p1,
    de_search,
    hybrid_search,
)
from conftest import reference_adam_trajectory, replay

BOX = Bounds(0.1, 10.0)
CENTER = np.linspace(1.0, 2.0, 8)


def quadratic(x):
    return float(np.sum((x - CENTER) ** 2))


def quadratic_grad(x):
    return 2.0 * (x - CENTER)


class Recorder:
    """Objective wrapper that logs every candidate it is asked to score."""

    def __init__(self, fn):
        self.fn = fn
        self.candidates = []

    def __call__(self, x):
        self.candidates.append(x.copy())
        return self.fn(x)


def random_gradients(rng, count, size):
    """Gradients spanning several magnitudes, some coordinates exactly zero."""
    grads = rng.standard_normal((count, size)) * 10.0 ** rng.uniform(-6, 3, (count, size))
    grads[rng.random((count, size)) < 0.2] = 0.0
    grads[:, :3] = 0.0  # coordinates whose gradient never moves
    return grads


def textbook_adam_trajectory(params, grads, lrs):
    """Parameters after each step of Adam as Kingma & Ba (2015) print it:
    moment estimates, bias-corrected, then the step."""
    m, v = np.zeros_like(params), np.zeros_like(params)
    out = []
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        out.append(params)
    return out


def adam_fit_path(params0, grads, hyper):
    """Every point adam_fit visits when handed the rows of `grads` in turn."""
    seen = []

    def loss_and_grad(p):
        seen.append(p.copy())
        return 0.0, grads[len(seen) - 1]

    adam_fit(params0, loss_and_grad, hyper)
    return seen


class TestAdamStep:
    """One call of _adam_update, the Adam step shared by adam_fit and adam_search."""

    def test_deterministic(self):
        # the work vectors' old contents never reach the result
        m0, v0 = np.array([0.2, -0.1]), np.array([0.04, 0.01])
        params0, grad = np.array([0.5, -0.5]), np.array([0.3, 0.7])
        outs = []
        for fill in (0.0, np.nan):
            m, v, params = m0.copy(), v0.copy(), params0.copy()
            _adam_update(m, v, params, grad, 4, 0.01, np.full(2, fill))
            outs.append((m, v, params))
        for a, b in zip(*outs):
            assert np.array_equal(a, b)
        assert not np.array_equal(outs[0][2], params0)


class TestAdamKernel:
    HYPER = TrainConfig(epochs=13, learning_rate=0.05, decay=0.5, decay_every=5)  # 3 stages

    def test_adam_step_matches_out_of_place_expression(self):
        rng = np.random.default_rng(0)
        params0 = rng.standard_normal(257)
        grads = random_gradients(rng, self.HYPER.epochs, params0.size)
        lrs = [self.HYPER.lr_at(e) for e in range(self.HYPER.epochs)]
        m, v, params = np.zeros_like(params0), np.zeros_like(params0), params0.copy()
        scratch = np.empty_like(params0)
        expected = reference_adam_trajectory(params0, replay(grads), lrs)
        for step, (g, lr, want) in enumerate(zip(grads, lrs, expected), start=1):
            g_before = g.copy()
            _adam_update(m, v, params, g, step, lr, scratch)
            assert np.array_equal(params, want)
            # the step reads its gradient and leaves it as it was
            assert np.array_equal(g, g_before)
        assert np.array_equal(params[:3], params0[:3])

    def test_adam_fit_matches_out_of_place_expression(self):
        rng = np.random.default_rng(1)
        params0 = rng.standard_normal(257)
        grads = random_gradients(rng, self.HYPER.epochs + 1, params0.size)
        losses = rng.random(self.HYPER.epochs + 1)
        grad_buf = np.empty(params0.size)
        seen = []

        def loss_and_grad(p):
            # one gradient buffer rewritten every call, as mlp_train does
            np.copyto(grad_buf, grads[len(seen)])
            seen.append(p.copy())
            return losses[len(seen) - 1], grad_buf

        caller_params = params0.copy()
        best = adam_fit(caller_params, loss_and_grad, self.HYPER)
        lrs = [self.HYPER.lr_at(e) for e in range(self.HYPER.epochs)]
        expected = [params0] + reference_adam_trajectory(params0, replay(grads), lrs)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(best, expected[int(np.argmin(losses))])
        assert np.array_equal(caller_params, params0)

    def test_adam_fit_keeps_float32(self, monkeypatch):
        """float32 parameters give float32 moments and a float32 result,
        equal to a plain float32 _adam_update loop."""
        rng = np.random.default_rng(3)
        params0 = rng.standard_normal(257).astype(np.float32)
        grads = random_gradients(rng, self.HYPER.epochs + 1, params0.size).astype(np.float32)
        losses = rng.random(self.HYPER.epochs + 1)
        seen, kernel_dtypes = [], set()

        def loss_and_grad(p):
            seen.append(p.copy())
            return losses[len(seen) - 1], grads[len(seen) - 1]

        def recorded_update(*arrays_and_settings):
            kernel_dtypes.update(a.dtype for a in arrays_and_settings if isinstance(a, np.ndarray))
            _adam_update(*arrays_and_settings)

        monkeypatch.setattr(optim, "_adam_update", recorded_update)
        best = adam_fit(params0, loss_and_grad, self.HYPER)
        assert best.dtype == np.float32 and kernel_dtypes == {np.dtype(np.float32)}
        params = params0.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        expected = [params0.copy()]
        for epoch in range(self.HYPER.epochs):
            _adam_update(m, v, params, grads[epoch], epoch + 1, self.HYPER.lr_at(epoch),
                         np.empty_like(params))
            expected.append(params.copy())
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(best, expected[int(np.argmin(losses))])

    def test_adam_fit_tracks_textbook_adam(self):
        """The kernel keeps the moments as moving sums and folds the bias
        corrections into two scalars; that is Adam rearranged, so float64
        adam_fit follows the textbook expression to rounding, and a
        coordinate whose gradient is always zero never moves."""
        rng = np.random.default_rng(4)
        params0 = rng.standard_normal(257)
        grads = random_gradients(rng, self.HYPER.epochs + 1, params0.size)
        lrs = [self.HYPER.lr_at(e) for e in range(self.HYPER.epochs)]
        seen = adam_fit_path(params0, grads, self.HYPER)
        expected = [params0] + textbook_adam_trajectory(params0, grads, lrs)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
            assert np.array_equal(got[:3], params0[:3])

    def test_float32_adam_fit_tracks_float64(self):
        """On the same float32 start and gradients, each float32 step adds
        at most a couple of float32 roundings of the parameter and of a step
        of about the learning rate to the float64 path's value."""
        rng = np.random.default_rng(5)
        params0 = rng.standard_normal(257).astype(np.float32)
        grads = random_gradients(rng, self.HYPER.epochs + 1, params0.size).astype(np.float32)
        single = adam_fit_path(params0, grads, self.HYPER)
        double = adam_fit_path(params0.astype(float), grads.astype(float), self.HYPER)
        eps = np.finfo(np.float32).eps
        for t, (p32, p64) in enumerate(zip(single, double)):
            assert p32.dtype == np.float32 and p64.dtype == np.float64
            bound = 2 * t * eps * (np.abs(p64) + self.HYPER.learning_rate)
            assert np.all(np.abs(p32 - p64) <= bound)
            assert np.array_equal(p32[:3], params0[:3])

    def test_adam_fit_returns_input_values_when_no_epoch_improves(self):
        rng = np.random.default_rng(2)
        params0 = rng.standard_normal(33)
        calls = []

        def worsening(p):
            calls.append(None)
            return float(len(calls)), np.ones_like(p)

        caller_params = params0.copy()
        best = adam_fit(caller_params, worsening, self.HYPER)
        assert np.array_equal(best, params0)
        assert not np.shares_memory(best, caller_params)
        assert np.array_equal(caller_params, params0)
        assert len(calls) == self.HYPER.epochs + 1


class TestAdamSearch:
    CFG = AdamConfig(learning_rate=3.0, steps=40)  # steps long enough to reach both box faces

    def test_steps_match_out_of_place_expression_then_clip(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(BOX.lower, BOX.upper, 257)
        grads = random_gradients(rng, self.CFG.steps, x0.size)
        caller_x0 = x0.copy()
        rec = Recorder(lambda x: 1.0)
        adam_search(rec, replay(grads), BOX, self.CFG, caller_x0)
        expected = [x0] + reference_adam_trajectory(
            x0, replay(grads), [self.CFG.learning_rate] * self.CFG.steps,
            lambda p: np.clip(p, BOX.lower, BOX.upper))
        assert len(rec.candidates) == len(expected)
        for got, want in zip(rec.candidates, expected):
            assert np.array_equal(got, want)
        assert np.any(expected[-1] == BOX.lower) and np.any(expected[-1] == BOX.upper)
        assert np.array_equal(expected[-1][:3], x0[:3])
        assert np.array_equal(caller_x0, x0)

    def test_first_step_is_signed_learning_rate(self):
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        rec = Recorder(quadratic)
        grad = np.array([2.0, -0.5, 1e3, 1.0, -1.0, 1e-3, -7.0, 0.25])
        adam_search(rec, lambda x: grad, BOX, AdamConfig(learning_rate=0.05, steps=1),
                    np.full(8, 5.0))
        np.testing.assert_allclose(rec.candidates[1], 5.0 - 0.05 * np.sign(grad), rtol=1e-6)

    def test_zero_gradient_leaves_x0(self):
        x0 = np.linspace(1.0, 3.0, CENTER.size)
        rec = Recorder(quadratic)
        res = adam_search(rec, np.zeros_like, BOX, self.CFG, x0)
        assert all(np.array_equal(c, x0) for c in rec.candidates)
        assert np.array_equal(res.x, x0)

    @pytest.mark.parametrize("size", [1, 9])
    def test_gradient_of_another_shape_raises(self, size):
        # a length-1 gradient would broadcast silently in the update
        with pytest.raises(DimensionMismatchError):
            adam_search(quadratic, lambda x: np.ones(size), BOX, self.CFG, np.full(8, 5.0))


class TestDeSearch:
    def test_quadratic_minimum_inside_box(self):
        # objective within 1e-2 of the analytic minimum (0) in <= 100 iterations
        res = de_search(quadratic, BOX, DeConfig(), np.full(8, 5.0), seed=2)
        assert res.fun <= 1e-2

    def test_minimum_outside_box_lands_on_boundary(self):
        res = de_search(lambda x: float(np.sum((x - 12.0) ** 2)), BOX,
                        DeConfig(), np.full(8, 5.0), seed=0)
        np.testing.assert_allclose(res.x, BOX.upper, atol=1e-9)

    def test_all_candidates_feasible(self):
        rec = Recorder(quadratic)
        de_search(rec, BOX, DeConfig(), np.full(8, 5.0), seed=1)
        for c in rec.candidates:
            assert BOX.contains(c)

    def test_nonfinite_objective_raises(self):
        # one message line: the value, and the vector's size and range
        with pytest.raises(ObjectiveNonFiniteError,
                           match=r"^objective returned nan at 4 flow rates in \[1\.0, 1\.0\]$"):
            de_search(lambda x: float("nan"), BOX, DeConfig(), np.full(4, 1.0), seed=0)

    def test_deterministic_under_seed(self):
        r1 = de_search(quadratic, BOX, DeConfig(), np.full(8, 5.0), seed=7)
        r2 = de_search(quadratic, BOX, DeConfig(), np.full(8, 5.0), seed=7)
        assert np.array_equal(r1.x, r2.x) and r1.fun == r2.fun


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    dx = -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0])
    dy = 200.0 * (x[1] - x[0] ** 2)
    return np.array([dx, dy])


class TestHybridSearch:
    def test_never_worse_than_de_alone(self):
        de_cfg = DeConfig(max_iterations=20)
        adam_cfg = AdamConfig(learning_rate=0.01, steps=200)
        de_only = de_search(quadratic, BOX, de_cfg, np.full(8, 5.0), seed=3)
        hybrid = hybrid_search(quadratic, quadratic_grad, BOX, de_cfg, adam_cfg,
                               np.full(8, 5.0), seed=3)
        assert hybrid.fun <= de_only.fun

    def test_adam_refines_coarse_de_on_rosenbrock(self):
        # a short DE run only locates the valley; the gradient stage must
        # then cut the objective by at least 10x
        box = Bounds(0.01, 3.0)
        de_cfg = DeConfig(max_iterations=10)
        adam_cfg = AdamConfig(learning_rate=0.01, steps=2000)
        de_only = de_search(rosenbrock, box, de_cfg, np.array([2.5, 0.5]), seed=0)
        hybrid = hybrid_search(rosenbrock, rosenbrock_grad, box, de_cfg, adam_cfg,
                               np.array([2.5, 0.5]), seed=0)
        assert hybrid.de_fun == de_only.fun
        assert hybrid.fun <= 0.1 * de_only.fun

    def test_result_within_bounds(self):
        hybrid = hybrid_search(quadratic, quadratic_grad, BOX, DeConfig(),
                               AdamConfig(), np.full(8, 11.0), seed=1)
        assert BOX.contains(hybrid.x)


class TestCmaes:
    def test_sphere_decreases_100x_within_500_evals(self):
        x0 = np.full(8, 5.0)
        res = cmaes_1p1(quadratic, BOX, 500, x0, seed=0)
        assert res.fun <= quadratic(x0) / 100.0
        assert res.n_evals == 500

    def test_step_scales_with_the_box(self):
        # the initial step is a fixed fraction of the span, so one seed
        # draws the same first child in span units on any box
        steps = []
        for box in (Bounds(0.01, 3.0), Bounds(1.0, 101.0)):
            rec = Recorder(lambda x: 1.0)
            x0 = np.full(16, box.midpoint)
            cmaes_1p1(rec, box, 2, x0, seed=3)
            steps.append((rec.candidates[1] - x0) / box.span)
        assert np.any(steps[0] != 0.0)
        np.testing.assert_allclose(steps[0], steps[1], rtol=1e-12, atol=1e-15)

    def test_one_fifth_rule_direction(self):
        res = cmaes_1p1(quadratic, BOX, 400, np.full(8, 5.0), seed=1)
        sigma = BOX.span / 6
        assert res.adaptations, "expected at least one adaptation window"
        for rate, sigma_after in res.adaptations:
            if rate > 0.2:
                assert sigma_after == pytest.approx(sigma * 1.5)
            elif rate < 0.2:
                assert sigma_after == pytest.approx(sigma / 1.5)
            else:
                assert sigma_after == pytest.approx(sigma)
            sigma = sigma_after

    def test_candidates_feasible_and_counted(self):
        rec = Recorder(quadratic)
        res = cmaes_1p1(rec, BOX, 100, np.full(8, 5.0), seed=2)
        assert len(rec.candidates) == res.n_evals == 100
        for c in rec.candidates:
            assert BOX.contains(c)

    def test_deterministic_under_seed(self):
        r1 = cmaes_1p1(quadratic, BOX, 150, np.full(8, 5.0), seed=5)
        r2 = cmaes_1p1(quadratic, BOX, 150, np.full(8, 5.0), seed=5)
        assert np.array_equal(r1.x, r2.x) and r1.best_trace == r2.best_trace


@pytest.mark.parametrize("runner", [
    lambda rec: de_search(rec, BOX, DeConfig(), np.full(8, 5.0), seed=4),
    lambda rec: adam_search(rec, quadratic_grad, BOX, AdamConfig(steps=50), np.full(8, 5.0)),
    lambda rec: cmaes_1p1(rec, BOX, 120, np.full(8, 5.0), seed=4),
])
def test_budget_accounting_and_monotone_best(runner):
    rec = Recorder(quadratic)
    res = runner(rec)
    assert res.n_evals == len(rec.candidates)
    assert len(res.best_trace) == res.n_evals
    assert all(b2 <= b1 for b1, b2 in zip(res.best_trace, res.best_trace[1:]))


@pytest.mark.parametrize("make, rule", [
    (lambda: Bounds(0.0, 1.0), "need 0 < lower < upper"),
    (lambda: Bounds(2.0, 1.0), "need 0 < lower < upper"),
    (lambda: DeConfig(population_size=3), "population_size must be >= 4"),
    (lambda: DeConfig(max_iterations=0), "max_iterations must be >= 1"),
    (lambda: AdamConfig(learning_rate=0.0), "learning_rate must be > 0"),
    (lambda: AdamConfig(learning_rate=-0.01), "learning_rate must be > 0"),
    (lambda: AdamConfig(steps=0), "steps must be >= 1"),
    (lambda: TrainConfig(epochs=0), "epochs must be >= 1"),
    (lambda: TrainConfig(learning_rate=0.0), "learning_rate must be > 0"),
    (lambda: TrainConfig(learning_rate=-1.0), "learning_rate must be > 0"),
    (lambda: TrainConfig(decay=0.0), r"decay must be in \(0, 1\]"),
    (lambda: TrainConfig(decay=-1.0), r"decay must be in \(0, 1\]"),
    (lambda: TrainConfig(decay=1.5), r"decay must be in \(0, 1\]"),
    (lambda: TrainConfig(decay_every=0), "decay_every must be >= 1"),
], ids=["lower-0", "lower-above-upper", "de-population-3", "de-iterations-0", "adam-lr-0",
        "adam-lr-negative", "adam-steps-0", "train-epochs-0", "train-lr-0", "train-lr-negative",
        "train-decay-0", "train-decay-negative", "train-decay-above-1", "train-decay-every-0"])
def test_bounds_validation(make, rule):
    with pytest.raises(ValueError, match=rule):
        make()


def test_settings_at_the_edge_of_each_rule_are_accepted():
    Bounds(1e-9, 2e-9)
    DeConfig(population_size=4, max_iterations=1)
    AdamConfig(learning_rate=1e-12, steps=1)
    TrainConfig(epochs=1, learning_rate=1e-12, decay=1.0, decay_every=1)
