from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcal import surrogate
from hallcal.engine import (
    SEARCH_BOUNDS,
    CalibConfig,
    KnowledgeSurrogateModel,
    _penalty_feasible_band,
    calibrate,
    init_samples,
)
from hallcal.errors import (
    DimensionMismatchError,
    EmptyBatchError,
    EmptyDatasetError,
    MixedStateError,
    NonPositiveFlowRateError,
    ObjectiveNonFiniteError,
)
from hallcal.hall import AdjacencyPriors, OperatingState, SystemInput, build_adjacency
from hallcal.optim import (
    AdamConfig,
    Bounds,
    DeConfig,
    SearchResult,
    TrainConfig,
    adam_fit,
    hybrid_search,
)
from hallcal.scenarios import make_reference_scenario
from hallcal.solver import ZonalSolver, synthesize_measurements
from hallcal.surrogate import (
    AIR_DENSITY,
    AIR_HEAT_CAPACITY,
    CFM_TO_M3S,
    FIT_RIDGE,
    KAPPA_CFM_PER_W,
    SEARCH_TOL,
    PenaltyParams,
    StateTerms,
    SurrogateWeights,
    TrainableAdjacencyWeights,
    TrainingSample,
    _batch_features,
    convex_search,
    fit_terms,
    fit_weights,
    fold_terms,
    forward,
    forward_at,
    forward_trainable,
    grad_alpha,
    grad_at,
    grad_trainable,
    grad_weights,
    hinge_box_prox,
    init_weights,
    loss_l1,
    loss_l1_trainable,
    loss_at,
    loss_l2,
    penalty_h,
    train_trainable,
    trainable_at,
)
from conftest import reference_adam_trajectory


def single_sensor_priors(w_ss_weight=1.0, hot=True):
    return AdjacencyPriors(w_cs=np.array([[1.0]]), w_ss=np.array([[w_ss_weight]]),
                           hot_mask=np.array([1.0 if hot else 0.0]))


def make_input(tc, v, p, alpha):
    return SystemInput(np.atleast_1d(np.asarray(tc, float)), np.atleast_1d(np.asarray(v, float)),
                       np.atleast_1d(np.asarray(p, float)), np.atleast_1d(np.asarray(alpha, float)))


def test_kappa_matches_air_property_derivation():
    # dT = P / (rho * c_p * Vdot), with Vdot = alpha * P cfm converted to m^3/s
    expected = 1.0 / (1.205 * 1005.0 * (0.3048 ** 3 / 60.0))
    assert KAPPA_CFM_PER_W == pytest.approx(expected, rel=1e-12)
    assert KAPPA_CFM_PER_W == pytest.approx(1.75, rel=3e-3)
    assert (AIR_DENSITY, AIR_HEAT_CAPACITY) == (1.205, 1005.0)
    assert CFM_TO_M3S == pytest.approx(4.719474432e-4, rel=1e-9)


class TestForward:
    def test_singleton_softmax_is_identity(self):
        # one CRAC: softmax over a single element is 1 regardless of fan speed
        priors = single_sensor_priors(hot=False)
        w = SurrogateWeights(a=np.array([1.3]), b=np.array([0.7]),
                             c=np.array([9.9]), d=np.array([9.9]))
        for fan in (0.0, 0.4, 1.0):
            x = make_input(21.0, fan, 100.0, 0.2)
            assert forward(w, priors, x)[0] == pytest.approx(1.3 * 21.0 + 0.7)

    def test_hot_sensor_hand_case(self):
        # a=1 b=0 c=1 d=0, CRAC at 20 degC, P/alpha = 10, unit adjacency -> 30
        priors = single_sensor_priors()
        w = SurrogateWeights(a=np.array([1.0]), b=np.array([0.0]),
                             c=np.array([1.0]), d=np.array([0.0]))
        x = make_input(20.0, 0.8, 100.0, 10.0)
        assert forward(w, priors, x)[0] == pytest.approx(30.0)

    def test_cold_sensor_ignores_powers_and_flows(self, reference, reference_priors):
        scenario, state = reference
        rng = np.random.default_rng(0)
        n = scenario.layout.n_sensors
        w = init_weights(n)
        cold = reference_priors.hot_mask == 0.0
        x1 = state.to_input(rng.uniform(0.1, 1.0, scenario.layout.n_servers))
        x2 = SystemInput(x1.crac_setpoints, x1.crac_fan_speeds,
                         rng.uniform(0, 500, x1.server_powers.size),
                         rng.uniform(0.1, 1.0, x1.flow_rates.size))
        t1, t2 = forward(w, reference_priors, x1), forward(w, reference_priors, x2)
        assert np.array_equal(t1[cold], t2[cold])
        assert not np.array_equal(t1[~cold], t2[~cold])

    def test_nonpositive_flow_rejected(self):
        priors = single_sensor_priors()
        w = init_weights(1)
        with pytest.raises(NonPositiveFlowRateError):
            forward(w, priors, make_input(20.0, 0.5, 100.0, 0.0))

    def test_dimension_mismatch(self, reference_priors):
        w = init_weights(reference_priors.n_sensors)
        with pytest.raises(DimensionMismatchError):
            forward(w, reference_priors, make_input(20.0, 0.5, 100.0, 0.2))


class TestLossL1:
    def test_perfect_fit_is_zero(self):
        priors = single_sensor_priors()
        w = init_weights(1)
        x = make_input(20.0, 0.5, 100.0, 0.2)
        batch = [TrainingSample(input=x, target=forward(w, priors, x))]
        assert loss_l1(w, priors, batch) == 0.0

    def test_unit_residuals(self):
        # n=2 sensors, residuals (1, -1) -> (1 + 1)/2 = 1.0
        priors = AdjacencyPriors(w_cs=np.array([[1.0, 1.0]]),
                                 w_ss=np.array([[0.5, 0.5]]),
                                 hot_mask=np.array([0.0, 0.0]))
        w = init_weights(2)
        x = make_input(20.0, 0.5, 100.0, 0.2)
        out = forward(w, priors, x)
        batch = [TrainingSample(input=x, target=out - np.array([1.0, -1.0]))]
        assert loss_l1(w, priors, batch) == pytest.approx(1.0)

    def test_doubling_residuals_quadruples_loss(self):
        priors = single_sensor_priors()
        w = init_weights(1)
        x = make_input(20.0, 0.5, 100.0, 0.2)
        out = forward(w, priors, x)
        l1 = loss_l1(w, priors, [TrainingSample(input=x, target=out - 0.5)])
        l2 = loss_l1(w, priors, [TrainingSample(input=x, target=out - 1.0)])
        assert l2 == pytest.approx(4.0 * l1)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            loss_l1(init_weights(1), single_sensor_priors(), [])


class TestPenalty:
    def test_zero_inside_band(self):
        params = PenaltyParams(dt_low=5.0, dt_high=15.0, kappa=1.75)
        # rises 1.75/0.2 = 8.75 and 1.75/0.25 = 7.0, both inside [5, 15]
        assert penalty_h(np.array([0.2, 0.25]), np.array([300.0, 200.0]), params) == 0.0

    def test_hand_case_500(self):
        # kappa 1.75, alpha 0.0875 -> rise exactly 20; (20 - 15) * 100 = 500
        params = PenaltyParams(dt_low=5.0, dt_high=15.0, kappa=1.75)
        assert penalty_h(np.array([0.0875]), np.array([100.0]), params) == pytest.approx(500.0)

    def test_hinge_closed_at_exact_boundary(self):
        # powers of two make kappa/alpha exact: 2.0 / 0.125 = 16.0 = dt_high
        params = PenaltyParams(dt_low=1.0, dt_high=16.0, kappa=2.0)
        assert penalty_h(np.array([0.125]), np.array([100.0]), params) == 0.0

    def test_low_side_hinge(self):
        params = PenaltyParams(dt_low=5.0, dt_high=15.0, kappa=1.75)
        # alpha 0.7 -> rise 2.5; (5 - 2.5) * 40 = 100
        assert penalty_h(np.array([0.7]), np.array([40.0]), params) == pytest.approx(100.0)

    def test_nonpositive_flow(self):
        with pytest.raises(NonPositiveFlowRateError):
            penalty_h(np.array([-0.1]), np.array([1.0]), PenaltyParams())


class TestLossL2:
    def zero_residual_setup(self, n=10):
        priors = AdjacencyPriors(w_cs=np.ones((1, n)), w_ss=np.ones((1, n)) / n,
                                 hot_mask=np.zeros(n))
        w = init_weights(n)
        x = make_input(20.0, 0.5, [100.0], [0.0875])
        meas = forward(w, priors, x)
        return w, priors, x, meas

    def test_zero_when_perfect_and_in_band(self):
        w, priors, x, meas = self.zero_residual_setup()
        x = x.with_flow_rates(np.array([0.2]))
        meas = forward(w, priors, x)
        assert loss_l2(w, priors, x, meas, PenaltyParams(kappa=1.75)) == 0.0

    def test_lambda_zero_is_pure_mse(self):
        w, priors, x, meas = self.zero_residual_setup()
        params = PenaltyParams(lam=0.0, kappa=1.75)
        shifted = meas + 2.0
        assert loss_l2(w, priors, x, shifted, params) == pytest.approx(4.0)

    def test_penalty_contribution_is_lambda_h_over_n(self):
        # h = 500 (hand case), lam = 1, n = 10, zero residuals -> 50
        w, priors, x, meas = self.zero_residual_setup(n=10)
        params = PenaltyParams(lam=1.0, kappa=1.75)
        assert loss_l2(w, priors, x, meas, params) == pytest.approx(50.0)


class TestGradWeights:
    def test_zero_residual_gives_zero_gradient(self):
        priors = single_sensor_priors()
        w = init_weights(1)
        x = make_input(20.0, 0.5, 100.0, 0.2)
        batch = [TrainingSample(input=x, target=forward(w, priors, x))]
        g = grad_weights(w, priors, batch)
        assert np.all(g.pack() == 0.0)

    def test_bias_gradient_is_mean_residual(self, reference, reference_priors):
        scenario, state = reference
        n = scenario.layout.n_sensors
        rng = np.random.default_rng(3)
        w = init_weights(n)
        x = state.to_input(rng.uniform(0.1, 0.5, scenario.layout.n_servers))
        residual = rng.normal(0, 1, n)
        batch = [TrainingSample(input=x, target=forward(w, reference_priors, x) - residual)]
        g = grad_weights(w, reference_priors, batch)
        np.testing.assert_allclose(g.b, 2.0 / n * residual, rtol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            grad_weights(init_weights(1), single_sensor_priors(), [])

    def test_matches_finite_differences(self, reference, reference_priors):
        scenario, state = reference
        n, m = scenario.layout.n_sensors, scenario.layout.n_servers
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            w = SurrogateWeights(a=1.0 + rng.normal(0, 0.2, n), b=rng.normal(0, 1, n),
                                 c=1.75 * rng.uniform(0.5, 1.5, n), d=rng.normal(0, 1, n))
            x = state.to_input(rng.uniform(0.1, 1.0, m))
            target = forward(w, reference_priors, x) + rng.normal(0, 1, n)
            batch = [TrainingSample(input=x, target=target)]
            g = grad_weights(w, reference_priors, batch).pack()
            flat = w.pack()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                h = 1e-5 * max(abs(flat[i]), 1.0)
                fp, fm = flat.copy(), flat.copy()
                fp[i] += h
                fm[i] -= h
                fd[i] = (loss_l1(SurrogateWeights.unpack(fp, n), reference_priors, batch)
                         - loss_l1(SurrogateWeights.unpack(fm, n), reference_priors, batch)) / (2 * h)
            worst = max(worst, np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)))
        assert worst < 1e-5


class TestGradAlpha:
    def test_zero_when_no_hot_sensors_and_penalty_inactive(self):
        priors = AdjacencyPriors(w_cs=np.array([[1.0, 1.0]]), w_ss=np.full((2, 2), 0.5),
                                 hot_mask=np.zeros(2))
        w = init_weights(2)
        params = PenaltyParams(kappa=1.75)
        x = make_input(20.0, 0.5, [100.0, 50.0], [0.2, 0.3])  # rises inside band
        g = grad_alpha(w, priors, x, np.array([25.0, 19.0]), params)
        assert np.array_equal(g, np.zeros(2))

    def test_single_hot_single_server_symbolic(self):
        # dL2/dalpha = 2/n * (That - Ts) * c * w_ss * (-P/alpha^2), penalty off
        priors = single_sensor_priors(w_ss_weight=1.0)
        w = SurrogateWeights(a=np.array([1.0]), b=np.array([0.0]),
                             c=np.array([0.004]), d=np.array([0.0]))
        params = PenaltyParams(lam=0.0)
        tc, p, alpha, ts = 20.0, 300.0, 0.2, 24.0
        x = make_input(tc, 0.5, p, alpha)
        pred = tc + 0.004 * p / alpha
        expected = 2.0 * (pred - ts) * 0.004 * (-p / alpha ** 2)
        g = grad_alpha(w, priors, x, np.array([ts]), params)
        assert g[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences_away_from_kinks(self, reference, reference_priors):
        scenario, state = reference
        n, m = scenario.layout.n_sensors, scenario.layout.n_servers
        params = PenaltyParams()
        worst = 0.0
        kept = 0
        trial = 0
        while kept < 20:
            trial += 1
            rng = np.random.default_rng(200 + trial)
            alpha = rng.uniform(0.1, 1.0, m)
            dt = params.kappa / alpha
            if np.any(np.abs(dt - params.dt_low) < 0.05) or np.any(np.abs(dt - params.dt_high) < 0.05):
                continue
            kept += 1
            w = SurrogateWeights(a=1.0 + rng.normal(0, 0.2, n), b=rng.normal(0, 1, n),
                                 c=1.75 * rng.uniform(0.5, 1.5, n), d=rng.normal(0, 1, n))
            x = state.to_input(alpha)
            meas = forward(w, reference_priors, x) + rng.normal(0, 1, n)
            g = grad_alpha(w, reference_priors, x, meas, params)
            fd = np.zeros(m)
            for j in range(m):
                h = 1e-5 * alpha[j]
                ap, am = alpha.copy(), alpha.copy()
                ap[j] += h
                am[j] -= h
                fd[j] = (loss_l2(w, reference_priors, x.with_flow_rates(ap), meas, params)
                         - loss_l2(w, reference_priors, x.with_flow_rates(am), meas, params)) / (2 * h)
            worst = max(worst, np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)))
        assert worst < 1e-5


class TestFitWeights:
    @staticmethod
    def known_weights(priors, rng):
        # d = 0 (collinear with b); c of a cold sensor is unseen, so it is the prior's
        n = priors.n_sensors
        hot = priors.hot_mask == 1.0
        return SurrogateWeights(a=rng.uniform(0.8, 1.2, n), b=rng.normal(0, 1, n),
                                c=np.where(hot, rng.uniform(1.0, 2.5, n), KAPPA_CFM_PER_W),
                                d=np.zeros(n))

    @staticmethod
    def varied_batch(w, priors, layout, rng, size=8):
        batch = []
        for _ in range(size):
            l, m = layout.n_cracs, layout.n_servers
            x = SystemInput(rng.uniform(16, 26, l), rng.uniform(0.2, 1.0, l),
                            rng.uniform(100, 500, m), rng.uniform(0.1, 3.0, m))
            batch.append(TrainingSample(input=x, target=forward(w, priors, x)))
        return batch

    def test_recovers_known_weights_over_varied_states(self, reference, reference_priors):
        scenario, _ = reference
        rng = np.random.default_rng(21)
        w = self.known_weights(reference_priors, rng)
        fit = fit_weights(reference_priors, self.varied_batch(w, reference_priors,
                                                               scenario.layout, rng))
        # the ridge's pull toward the prior shifts b by about 1e-3 degC
        np.testing.assert_allclose(fit.a, w.a, atol=1e-4)
        np.testing.assert_allclose(fit.b, w.b, atol=2e-3)
        np.testing.assert_allclose(fit.c, w.c, rtol=1e-6)
        assert np.array_equal(fit.d, np.zeros_like(w.d))
        fresh = self.varied_batch(w, reference_priors, scenario.layout, rng, size=1)[0]
        np.testing.assert_allclose(forward(fit, reference_priors, fresh.input), fresh.target,
                                   atol=1e-3)

    def test_solves_the_ridge_problem(self, reference, reference_priors):
        # per-sensor least squares on [X; sqrt(lam) I] theta = [t; sqrt(lam) theta0]
        scenario, _ = reference
        rng = np.random.default_rng(22)
        w = self.known_weights(reference_priors, rng)
        batch = [TrainingSample(s.input, s.target + rng.normal(0, 0.3, s.target.size))
                 for s in self.varied_batch(w, reference_priors, scenario.layout, rng)]
        fit = fit_weights(reference_priors, batch)
        x_cold, x_hot, targets = _batch_features(reference_priors, batch)
        root = np.sqrt(FIT_RIDGE * len(batch))
        for k in range(reference_priors.n_sensors):
            cols = np.column_stack([x_cold[:, k], np.ones(len(batch)),
                                    reference_priors.hot_mask[k] * x_hot[:, k]])
            lhs = np.vstack([cols, root * np.eye(3)])
            rhs = np.concatenate([targets[:, k], root * np.array([1.0, 0.0, KAPPA_CFM_PER_W])])
            expected = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            np.testing.assert_allclose([fit.a[k], fit.b[k], fit.c[k]], expected, rtol=1e-8)

    def test_one_shared_state_fits_its_targets(self, reference, reference_priors):
        # as in the calibration loop: only the flow rates vary, so a and b are collinear
        scenario, state = reference
        rng = np.random.default_rng(23)
        w = self.known_weights(reference_priors, rng)
        batch = []
        for _ in range(5):
            x = state.to_input(rng.uniform(0.01, 3.0, scenario.layout.n_servers))
            batch.append(TrainingSample(input=x, target=forward(w, reference_priors, x)))
        fit = fit_weights(reference_priors, batch)
        assert np.all(np.isfinite(fit.pack()))
        for s in batch:
            np.testing.assert_allclose(forward(fit, reference_priors, s.input), s.target,
                                       atol=1e-6)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            fit_weights(single_sensor_priors(), [])

    def test_deterministic(self, reference, reference_priors):
        scenario, _ = reference
        rng = np.random.default_rng(24)
        w = self.known_weights(reference_priors, rng)
        batch = self.varied_batch(w, reference_priors, scenario.layout, rng)
        assert np.array_equal(fit_weights(reference_priors, batch).pack(),
                              fit_weights(reference_priors, batch).pack())


def frozen_case(seed: int, **hall):
    """A knowledge surrogate fitted to the three seed solves and three solves
    at random in-band flow rates on make_reference_scenario(seed, **hall),
    its priors, the operating state and the measurements."""
    scenario, state = make_reference_scenario(seed=seed, **hall)
    priors = build_adjacency(scenario.layout)
    solver = ZonalSolver(scenario)
    m = scenario.layout.n_servers
    dataset = init_samples(SEARCH_BOUNDS, state, solver, m)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = state.to_input(rng.uniform(0.12, 0.35, m))
        dataset.append(TrainingSample(input=x, target=solver.solve(x)))
    return fit_weights(priors, dataset), priors, state, synthesize_measurements(scenario, state)


@pytest.fixture(scope="module")
def frozen_cases():
    """The frozen_case of each reference seed 0-4."""
    return [frozen_case(seed) for seed in range(5)]


def five_piece_prox(v, k_lo, k_hi, s, u_lo, u_hi):
    """The hinge's prox written piece by piece, then the box clip."""
    out = np.select([v < k_lo - s, v <= k_lo, v <= k_hi, v <= k_hi + s],
                    [v + s, k_lo, v, k_hi], v - s)
    return np.clip(out, u_lo, u_hi)


def fresh_convex_search(w, priors, x, t_meas, params, bounds):
    """convex_search from x.flow_rates with the StateTerms of x's state."""
    return convex_search(w, priors, StateTerms.of(priors, x), x.flow_rates, t_meas, params, bounds)


class TestConvexSearch:
    params = PenaltyParams()

    def search(self, case, alpha0, bounds=SEARCH_BOUNDS):
        w, priors, state, meas = case
        return fresh_convex_search(w, priors, state.to_input(alpha0), meas, self.params, bounds)

    def test_not_worse_than_hybrid_search(self, frozen_cases):
        cfg = CalibConfig()
        for seed, case in enumerate(frozen_cases):
            w, priors, state, meas = case
            x0 = np.full(state.server_powers.size, SEARCH_BOUNDS.midpoint)
            hybrid = hybrid_search(
                lambda a: loss_l2(w, priors, state.to_input(a), meas, self.params),
                lambda a: grad_alpha(w, priors, state.to_input(a), meas, self.params),
                SEARCH_BOUNDS, DeConfig(), AdamConfig(), x0, seed,
                init_bounds=_penalty_feasible_band(cfg))
            assert self.search(case, x0).fun <= hybrid.fun * (1.0 + 1e-12)

    def test_agrees_with_a_3000_step_run(self, frozen_cases, monkeypatch):
        x0 = np.full(frozen_cases[0][2].server_powers.size, SEARCH_BOUNDS.midpoint)
        found = [self.search(case, x0) for case in frozen_cases]
        monkeypatch.setattr(surrogate, "SEARCH_MAX_STEPS", 3000)
        monkeypatch.setattr(surrogate, "SEARCH_TOL", 0.0)
        for case, res in zip(frozen_cases, found):
            long = self.search(case, x0)
            assert long.n_evals == 3001
            assert abs(res.fun - long.fun) <= 1e-9 * long.fun

    def projection(self, case, alpha):
        """1/alpha projected onto the least-squares minimisers, u - A^+ (A u + r0),
        with A u + r0 the surrogate's residual at alpha."""
        w, priors, state, meas = case
        A = (state.server_powers[:, None] * priors.w_ss * (priors.hot_mask * w.c)).T
        residual = forward(w, priors, state.to_input(alpha)) - meas
        return 1.0 / alpha - np.linalg.lstsq(A, residual, rcond=None)[0]

    def in_band_and_box(self, alpha, bounds=SEARCH_BOUNDS):
        rise = self.params.kappa / alpha
        return bounds.contains(alpha) and np.all((self.params.dt_low <= rise)
                                                 & (rise <= self.params.dt_high))

    def test_most_warm_started_searches_end_at_the_projection(self):
        # FISTA alone takes about 50 steps per search here; an accepted projection
        # at the start makes the search two points, the start and the projection
        evals = []
        for seed in range(5):
            scenario, state = make_reference_scenario(seed=seed)
            cfg = CalibConfig(seed=seed, max_iterations=15)
            model = KnowledgeSurrogateModel(build_adjacency(scenario.layout), cfg.penalty)
            result = calibrate(ZonalSolver(scenario), model,
                               synthesize_measurements(scenario, state), state,
                               scenario.layout, cfg)
            evals += [t.search_evals for t in result.traces[1:]]
        assert len(evals) == 70
        assert 2 * evals.count(2) >= len(evals)

    def test_accepted_projection_is_the_fista_optimum(self, frozen_cases, monkeypatch):
        # started at an optimum, the search accepts the projection of its start
        found = []
        for case in frozen_cases:
            start = self.search(case, np.full(case[2].server_powers.size, 0.2)).x
            res = self.search(case, start)
            assert res.n_evals == 2
            np.testing.assert_allclose(1.0 / res.x, self.projection(case, start), rtol=1e-12)
            assert self.in_band_and_box(res.x)
            assert res.residual <= SEARCH_TOL
            found.append((start, res))
        monkeypatch.setattr(surrogate, "SEARCH_MAX_STEPS", 3000)
        monkeypatch.setattr(surrogate, "SEARCH_TOL", 0.0)  # no projection passes
        for case, (start, res) in zip(frozen_cases, found):
            long = self.search(case, start)
            assert long.n_evals == 3001
            assert abs(res.fun - long.fun) <= 1e-9 * long.fun

    def test_start_projecting_outside_the_band_takes_fista_steps(self, frozen_cases):
        start = np.full(frozen_cases[0][2].server_powers.size, SEARCH_BOUNDS.midpoint)
        leaving = [case for case in frozen_cases
                   if not self.in_band_and_box(1.0 / self.projection(case, start))]
        assert leaving
        for case in leaving:
            res = self.search(case, start)
            assert res.n_evals > 2
            assert res.residual <= SEARCH_TOL

    def test_result_is_certified_and_scored_by_loss_l2(self, frozen_cases):
        for case in frozen_cases:
            w, priors, state, meas = case
            res = self.search(case, np.full(state.server_powers.size, 0.2))
            assert res.fun == loss_l2(w, priors, state.to_input(res.x), meas, self.params)
            assert res.residual <= SEARCH_TOL

    def test_result_inside_the_box_at_a_u_bound(self, frozen_cases):
        # the whole box lies below the penalty band, so the search ends on its
        # upper bound, and 1 / (1 / 0.029) rounds past 0.029
        bounds = Bounds(0.01, 0.029)
        assert 1.0 / (1.0 / bounds.upper) > bounds.upper
        res = self.search(frozen_cases[0], np.full(frozen_cases[0][2].server_powers.size, 0.02),
                          bounds)
        assert bounds.contains(res.x)
        assert np.any(res.x == bounds.upper)

    def test_without_hot_sensors_only_the_hinge_moves_the_flow_rate(self):
        # A is zero: the search ends at the band edge nearest its start
        priors = single_sensor_priors(hot=False)
        res = fresh_convex_search(init_weights(1), priors, make_input(20.0, 0.8, 100.0, 2.0),
                                  np.array([21.0]), self.params, SEARCH_BOUNDS)
        assert res.x[0] == pytest.approx(KAPPA_CFM_PER_W / self.params.dt_low, rel=1e-12)
        assert res.residual == 0.0

    def test_prox_matches_the_five_piece_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k_lo = rng.uniform(0.5, 5.0)
            k_hi = k_lo + rng.uniform(0.1, 5.0)
            s = rng.uniform(0.0, 3.0, 64)
            v = rng.uniform(-5.0, 15.0, 64)
            v[:4] = [k_lo - s[0], k_lo, k_hi, k_hi + s[3]]  # the breakpoints themselves
            u_lo = rng.uniform(0.0, 2.0)
            u_hi = u_lo + rng.uniform(0.5, 10.0)
            got = hinge_box_prox(v, k_lo, k_hi, s, u_lo, u_hi)
            want = five_piece_prox(v, k_lo, k_hi, s, u_lo, u_hi)
            # each piece is exact; only the computed breakpoints round
            np.testing.assert_array_equal(got[4:], want[4:])
            np.testing.assert_allclose(got[:4], want[:4], rtol=1e-14, atol=1e-14)

    def test_prox_writes_into_out(self):
        v = np.array([0.0, 1.0, 2.5, 4.0, 9.0])
        s = np.full(5, 0.5)
        want = hinge_box_prox(v, 1.2, 3.0, s, 0.1, 5.0)
        assert np.array_equal(v, [0.0, 1.0, 2.5, 4.0, 9.0])  # without out, v is untouched
        got = hinge_box_prox(v, 1.2, 3.0, s, 0.1, 5.0, out=v)
        assert got is v
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(want, [0.5, 1.2, 2.5, 3.5, 5.0])

    def test_nan_measurement_or_power_raises(self, frozen_cases):
        w, priors, state, meas = frozen_cases[0]
        alpha = np.full(state.server_powers.size, 0.2)
        bad = meas.copy()
        bad[3] = np.nan
        with pytest.raises(ObjectiveNonFiniteError):
            self.search((w, priors, state, bad), alpha)
        powers = state.server_powers.copy()
        powers[7] = np.nan
        x = SystemInput(state.crac_setpoints, state.crac_fan_speeds, powers, alpha)
        with pytest.raises(ObjectiveNonFiniteError):
            fresh_convex_search(w, priors, x, meas, self.params, SEARCH_BOUNDS)

    def test_input_checks(self, frozen_cases):
        w, priors, state, meas = frozen_cases[0]
        alpha = np.full(state.server_powers.size, 0.2)
        with pytest.raises(DimensionMismatchError):
            self.search((w, priors, state, meas[:-1]), alpha)
        alpha[5] = 0.0
        with pytest.raises(NonPositiveFlowRateError):
            self.search(frozen_cases[0], alpha)


def dense_convex_search(w, priors, x, t_meas, params, bounds):
    """convex_search in its full-row form: A over all n sensors, cold rows
    zero, with A A^T formed from A, and an accepted projection's residual
    taken by one more step. The hot-row search is held to it."""
    n = priors.n_sensors
    x_cold = StateTerms.of(priors, x).x_cold
    r0 = surrogate._predict(w, priors.hot_mask, x_cold, 0.0) - t_meas
    A = (x.server_powers[:, None] * priors.w_ss * (priors.hot_mask * w.c)).T
    eig, vec = np.linalg.eigh(A.dot(A.T))
    L = 2.0 / n * eig[-1]
    t = 1.0 / L if L > 0.0 else 1.0
    gA = 2.0 * t / n * A
    c = r0.dot(gA)
    k_lo, k_hi = params.dt_low / params.kappa, params.dt_high / params.kappa
    s = t * params.lam / n * params.kappa * x.server_powers
    u_lo, u_hi = 1.0 / bounds.upper, 1.0 / bounds.lower
    inner_lo, inner_hi = max(k_lo, u_lo), min(k_hi, u_hi)
    rank = eig > n * np.finfo(float).eps * eig[-1]
    eig, vec = eig[rank], vec[:, rank]

    def step(y):
        return hinge_box_prox(y - A.dot(y).dot(gA) - c, k_lo, k_hi, s, u_lo, u_hi)

    stop = (SEARCH_TOL * t) ** 2

    def projection(u):
        q = u - (vec.dot((A.dot(u) + r0).dot(vec) / eig)).dot(A)
        gap = q - step(q)
        return q if gap.dot(gap) < stop else None

    u = np.clip(1.0 / x.flow_rates, u_lo, u_hi)
    n_evals = 1
    q = projection(u)
    y, theta = u.copy(), 1.0
    for _ in range(0 if q is not None else surrogate.SEARCH_MAX_STEPS):
        u_next = step(y)
        n_evals += 1
        gap, move = y - u_next, u_next - u
        u = u_next
        if not gap.dot(gap) >= stop:
            break
        if inner_lo < u.min() and u.max() < inner_hi:
            q = projection(u)
            if q is not None:
                break
        if gap.dot(move) > 0.0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + (1.0 + 4.0 * theta * theta) ** 0.5)
        y = u + move * ((theta - 1.0) / theta_next)
        theta = theta_next
    if q is not None:
        u, n_evals = q, n_evals + 1
    alpha = bounds.clip(1.0 / u)
    return SearchResult(x=alpha, fun=loss_l2(w, priors, x.with_flow_rates(alpha), t_meas, params),
                        n_evals=n_evals, residual=float(np.linalg.norm(u - step(u)) / t))


class TestHotRowSearch:
    """convex_search over the hot rows against dense_convex_search."""

    params = PenaltyParams()

    def assert_matches_dense(self, case, alpha0):
        w, priors, state, meas = case
        x = state.to_input(alpha0)
        got = fresh_convex_search(w, priors, x, meas, self.params, SEARCH_BOUNDS)
        want = dense_convex_search(w, priors, x, meas, self.params, SEARCH_BOUNDS)
        assert got.n_evals == want.n_evals
        np.testing.assert_allclose(got.x, want.x, rtol=1e-12, atol=0.0)
        assert got.fun == pytest.approx(want.fun, rel=1e-12)
        return got

    def assert_matches_from_cold_and_warm(self, case) -> int:
        """Both searches from the box midpoint, then from where that ended,
        which accepts its projection; the first search's n_evals."""
        first = self.assert_matches_dense(case, np.full(case[2].server_powers.size,
                                                        SEARCH_BOUNDS.midpoint))
        assert self.assert_matches_dense(case, first.x).n_evals == 2
        return first.n_evals

    def test_reference_seeds(self, frozen_cases):
        evals = [self.assert_matches_from_cold_and_warm(case) for case in frozen_cases]
        assert max(evals) > 2  # some take FISTA steps

    def test_wide_hall(self):
        # the 256-server hall with 16 hot sensors that CI calibrates
        case = frozen_case(7, n_cracs=8, n_servers=256, n_cold=32, n_hot=16)
        assert self.assert_matches_from_cold_and_warm(case) > 2

    def test_hot_sensor_without_server_support(self, frozen_cases):
        # its column of H_h is zero, so G_h is singular
        w, priors, state, meas = frozen_cases[0]
        hot = np.flatnonzero(priors.hot_mask)
        w_ss = priors.w_ss.copy()
        w_ss[:, hot[2]] = 0.0
        unsupported = AdjacencyPriors(priors.w_cs, w_ss, priors.hot_mask)
        gram = StateTerms.of(unsupported, state).gram_hot
        assert not gram[2].any() and not gram[:, 2].any()
        assert self.assert_matches_from_cold_and_warm((w, unsupported, state, meas)) > 2


def reference_trainable(priors):
    return TrainableAdjacencyWeights(linear=init_weights(priors.n_sensors),
                                     w_cs=priors.w_cs.copy(), w_ss=priors.w_ss.copy())


def narrowed_input(x, kind):
    """x with one CRAC ("one_crac") or one server ("one_server") left."""
    if kind == "one_crac":
        return SystemInput(x.crac_setpoints[:1], x.crac_fan_speeds[:1], x.server_powers, x.flow_rates)
    return SystemInput(x.crac_setpoints, x.crac_fan_speeds, x.server_powers[:1], x.flow_rates[:1])


BATCH_FUNCTIONS = {
    "fit_weights": lambda priors, batch: fit_weights(priors, batch),
    "loss_l1": lambda priors, batch: loss_l1(init_weights(priors.n_sensors), priors, batch),
    "grad_weights": lambda priors, batch: grad_weights(init_weights(priors.n_sensors), priors, batch),
    "loss_l1_trainable": lambda priors, batch: loss_l1_trainable(reference_trainable(priors),
                                                                 priors.hot_mask, batch),
    "train_trainable": lambda priors, batch: train_trainable(reference_trainable(priors),
                                                             priors.hot_mask, batch,
                                                             TrainConfig(epochs=1)),
}


def outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def same_outcome(got, want) -> bool:
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, tuple):  # fit_terms' (gram, rhs)
        return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got == want


@st.composite
def bound_halls(draw):
    """A generated hall with contained aisles or not, 1-3 hot sensors and,
    if drawn, a server rated 0 W and drawing 0 W; with surrogate weights, a
    flow-rate vector and measurements at its state."""
    seed = draw(st.integers(0, 10_000))
    scenario, state = make_reference_scenario(
        seed=seed % 97, n_cracs=draw(st.integers(1, 4)), n_servers=draw(st.integers(2, 24)),
        n_cold=draw(st.integers(1, 6)), n_hot=draw(st.integers(1, 3)),
        containment=draw(st.booleans()))
    layout = scenario.layout
    if draw(st.booleans()):
        idle = draw(st.integers(0, layout.n_servers - 1))
        servers = list(layout.servers)
        servers[idle] = replace(servers[idle], rated_power=0.0)
        layout = replace(layout, servers=tuple(servers))
        powers = state.server_powers.copy()
        powers[idle] = 0.0
        state = replace(state, server_powers=powers)
    rng = np.random.default_rng(seed)
    n, m = layout.n_sensors, layout.n_servers
    w = SurrogateWeights.unpack(init_weights(n).pack() + rng.normal(0.0, 0.3, 4 * n), n)
    return (build_adjacency(layout), state, w, rng.uniform(0.01, 3.0, m),
            rng.normal(25.0, 3.0, n))


class TestBoundFunctionsEqualThePlainOnes:
    """The `_at` functions sum X_hot over the hot sensors alone and check
    the flow rates once; they must still give the plain functions' bits
    and the plain functions' errors."""

    params = PenaltyParams()

    def pairs(self, priors, state, w, t_meas):
        terms = StateTerms.of(priors, state)
        return [
            (lambda a: forward_at(w, priors, terms, a),
             lambda a: forward(w, priors, state.to_input(a))),
            (lambda a: loss_at(w, priors, terms, a, t_meas, self.params),
             lambda a: loss_l2(w, priors, state.to_input(a), t_meas, self.params)),
            (lambda a: grad_at(w, priors, terms, a, t_meas, self.params),
             lambda a: grad_alpha(w, priors, state.to_input(a), t_meas, self.params)),
        ]

    @settings(max_examples=150, deadline=None)
    @given(bound_halls())
    def test_values_bit_for_bit(self, hall):
        priors, state, w, alpha, t_meas = hall
        for bound, plain in self.pairs(priors, state, w, t_meas):
            want = plain(alpha)
            assert not isinstance(want, tuple)
            assert same_outcome(bound(alpha), want)
        sample = TrainingSample(input=state.to_input(alpha), target=t_meas)
        got = fold_terms(priors, StateTerms.of(priors, state), sample)
        assert same_outcome(got, fit_terms(priors, [sample]))

    @settings(max_examples=60, deadline=None)
    @given(bound_halls(), st.sampled_from(["short", "long", "zero", "negative"]))
    def test_bad_flow_rates_raise_the_same_errors(self, hall, kind):
        priors, state, w, alpha, t_meas = hall
        bad = {"short": alpha[:-1], "long": np.append(alpha, 0.2),
               "zero": np.where(np.arange(alpha.size) == 0, 0.0, alpha),
               "negative": -alpha}[kind]
        for bound, plain in self.pairs(priors, state, w, t_meas):
            want = outcome(plain, bad)
            assert isinstance(want, tuple) and isinstance(want[0], type)
            assert outcome(bound, bad) == want
        if kind in ("zero", "negative"):  # a sample of the wrong width cannot be made
            sample = TrainingSample(input=state.to_input(bad), target=t_meas)
            terms = StateTerms.of(priors, state)
            assert outcome(fold_terms, priors, terms, sample) == outcome(fit_terms, priors, [sample])


class TestWidthChecks:
    """Inputs and targets whose widths do not match the adjacency are
    rejected, not broadcast."""

    @pytest.fixture
    def good(self, reference, reference_priors):
        scenario, state = reference
        x = state.to_input(np.full(scenario.layout.n_servers, 0.2))
        return TrainingSample(input=x, target=forward(init_weights(reference_priors.n_sensors),
                                                      reference_priors, x))

    @pytest.mark.parametrize("fn", BATCH_FUNCTIONS)
    @pytest.mark.parametrize("case", ["one_crac", "one_server", "targets_1_wide"])
    def test_bad_batch_raises(self, reference_priors, good, fn, case):
        if case == "targets_1_wide":
            bad = TrainingSample(input=good.input, target=good.target[:1])
        else:
            bad = TrainingSample(input=narrowed_input(good.input, case), target=good.target)
        BATCH_FUNCTIONS[fn](reference_priors, [good] * 3)  # the well-formed batch passes
        with pytest.raises(DimensionMismatchError):
            BATCH_FUNCTIONS[fn](reference_priors, [bad] * 3)

    @pytest.mark.parametrize("fn", BATCH_FUNCTIONS)
    def test_batch_of_mixed_widths_raises(self, reference_priors, good, fn):
        bad = TrainingSample(input=narrowed_input(good.input, "one_crac"), target=good.target)
        with pytest.raises(DimensionMismatchError):
            BATCH_FUNCTIONS[fn](reference_priors, [good, bad])

    def test_weights_of_another_sensor_count_raise(self, reference_priors, good):
        w = init_weights(1)
        for call in (lambda: loss_l1(w, reference_priors, [good]),
                     lambda: grad_weights(w, reference_priors, [good]),
                     lambda: forward(w, reference_priors, good.input),
                     lambda: fresh_convex_search(w, reference_priors, good.input, good.target,
                                                 PenaltyParams(), SEARCH_BOUNDS)):
            with pytest.raises(DimensionMismatchError):
                call()

    @pytest.mark.parametrize("case", ["one_crac", "one_server"])
    def test_forward_trainable_bad_input_raises(self, reference_priors, good, case):
        tw = reference_trainable(reference_priors)
        forward_trainable(tw, reference_priors.hot_mask, good.input)
        with pytest.raises(DimensionMismatchError):
            forward_trainable(tw, reference_priors.hot_mask, narrowed_input(good.input, case))


class TestStructuralProperties:
    def test_softmax_columns_sum_to_one(self, reference, reference_priors):
        from hallcal.surrogate import _cooling_coefficients
        rng = np.random.default_rng(5)
        fans = rng.uniform(0, 1, reference_priors.w_cs.shape[0])
        coeff = _cooling_coefficients(reference_priors.w_cs, fans)
        np.testing.assert_allclose(coeff.sum(axis=0), 1.0, atol=1e-9)

    def test_trainable_weight_count_is_4n(self, reference_priors):
        n = reference_priors.n_sensors
        assert init_weights(n).n_trainable == 4 * n

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_server_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        l, m, n = 2, 5, 3
        w_cs = rng.uniform(0.1, 1, (l, n))
        w_cs /= w_cs.sum(axis=0)
        w_ss = rng.uniform(0.1, 1, (m, n))
        w_ss /= w_ss.sum(axis=0)
        priors = AdjacencyPriors(w_cs=w_cs, w_ss=w_ss, hot_mask=np.array([0.0, 1.0, 1.0]))
        w = SurrogateWeights(a=rng.normal(1, 0.1, n), b=rng.normal(0, 1, n),
                             c=rng.uniform(0.5, 2, n), d=rng.normal(0, 1, n))
        p = rng.uniform(50, 400, m)
        alpha = rng.uniform(0.1, 1.0, m)
        x = SystemInput(rng.uniform(18, 24, l), rng.uniform(0, 1, l), p, alpha)
        out = forward(w, priors, x)

        perm = rng.permutation(m)
        priors_p = AdjacencyPriors(w_cs=w_cs, w_ss=w_ss[perm], hot_mask=priors.hot_mask)
        x_p = SystemInput(x.crac_setpoints, x.crac_fan_speeds, p[perm], alpha[perm])
        np.testing.assert_allclose(forward(w, priors_p, x_p), out, rtol=1e-12)

    @given(factor=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_heating_block_scale_invariance(self, factor):
        rng = np.random.default_rng(0)
        priors = single_sensor_priors()
        w = init_weights(1)
        p, alpha = 200.0, 0.25
        base = forward(w, priors, make_input(20.0, 0.5, p, alpha))
        scaled = forward(w, priors, make_input(20.0, 0.5, p * factor, alpha * factor))
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestTrainableAdjacency:
    def small_setup(self, one_state=False):
        """Weights, hot mask and a 3-sample batch; with one_state, every
        sample is at the first sample's state, as train_trainable requires."""
        rng = np.random.default_rng(9)
        l, m, n = 2, 3, 4
        w_cs = rng.uniform(0.1, 1.0, (l, n))
        w_ss = rng.uniform(0.1, 1.0, (m, n))
        hot = np.array([0.0, 1.0, 0.0, 1.0])
        tw = TrainableAdjacencyWeights(linear=init_weights(n), w_cs=w_cs, w_ss=w_ss)
        batch = []
        for _ in range(3):
            x = SystemInput(rng.uniform(18, 24, l), rng.uniform(0.2, 1, l),
                            rng.uniform(50, 300, m), rng.uniform(0.1, 0.6, m))
            if one_state and batch:
                x = batch[0].input.with_flow_rates(x.flow_rates)
            # targets near the model output keep the loss O(1), so the
            # difference quotients below stay numerically meaningful
            target = forward_trainable(tw, hot, x) + rng.normal(0, 1, n)
            batch.append(TrainingSample(input=x, target=target))
        return tw, hot, batch

    def test_gradient_matches_finite_differences(self):
        tw, hot, batch = self.small_setup()
        n, l, m = 4, 2, 3
        g = grad_trainable(tw, hot, batch).pack()
        flat = tw.pack()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            h = 1e-6 * max(abs(flat[i]), 1.0)
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            fd[i] = (loss_l1_trainable(TrainableAdjacencyWeights.unpack(fp, n, l, m), hot, batch)
                     - loss_l1_trainable(TrainableAdjacencyWeights.unpack(fm, n, l, m), hot, batch)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    def test_batched_loss_matches_per_sample_loop(self):
        tw, hot, batch = self.small_setup()
        per_sample = np.mean([np.mean((forward_trainable(tw, hot, s.input) - s.target) ** 2)
                              for s in batch])
        assert loss_l1_trainable(tw, hot, batch) == pytest.approx(per_sample, rel=1e-12)

    def test_training_reduces_loss(self):
        # at one state a cold sensor's target noise is not fittable: the
        # targets are another model's outputs
        tw, hot, batch = self.small_setup(one_state=True)
        noise = np.random.default_rng(3).normal(0.0, 0.1, tw.n_trainable)
        other = TrainableAdjacencyWeights.unpack(tw.pack() + noise, 4, 2, 3)
        batch = [TrainingSample(s.input, forward_trainable(other, hot, s.input)) for s in batch]
        initial = loss_l1_trainable(tw, hot, batch)
        trained = train_trainable(tw, hot, batch, TrainConfig())
        assert loss_l1_trainable(trained, hot, batch) < 0.1 * initial

    def test_train_equals_plain_adam_loop(self):
        tw0, hot, batch = self.small_setup(one_state=True)
        n, l, m = 4, 2, 3
        hyper = TrainConfig(epochs=60, decay_every=20)

        def unpack(params):
            return TrainableAdjacencyWeights.unpack(params, n, l, m)

        path = [tw0.pack()] + reference_adam_trajectory(
            tw0.pack(), lambda p: grad_trainable(unpack(p), hot, batch).pack(),
            [hyper.lr_at(epoch) for epoch in range(hyper.epochs)])
        losses = [loss_l1_trainable(unpack(p), hot, batch) for p in path]
        best_params = path[int(np.argmin(losses))]  # the first of equal lowest losses
        assert np.array_equal(train_trainable(tw0, hot, batch, hyper).pack(), best_params)

    def test_train_leaves_w0_unchanged_and_results_independent(self):
        tw0, hot, batch = self.small_setup(one_state=True)
        before = tw0.pack()
        hyper = TrainConfig(epochs=8)
        first = train_trainable(tw0, hot, batch, hyper)
        second = train_trainable(tw0, hot, batch, hyper)
        assert np.array_equal(tw0.pack(), before)
        assert np.array_equal(first.pack(), second.pack())

        def arrays(tw):
            lin = tw.linear
            return [lin.a, lin.b, lin.c, lin.d, tw.w_cs, tw.w_ss]

        for a in arrays(first):
            for b in arrays(second) + arrays(tw0):
                assert not np.shares_memory(a, b)

    def test_parameter_count(self):
        tw, _, _ = self.small_setup()
        assert tw.n_trainable == 4 * 4 + 2 * 4 + 3 * 4


@st.composite
def trainable_halls(draw):
    """A bound_halls hall with trainable weights off its priors and a batch
    of 1-6 samples at its state, at drawn flow rates and targets."""
    priors, state, w, alpha, t_meas = draw(bound_halls())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    tw = TrainableAdjacencyWeights(linear=w,
                                   w_cs=priors.w_cs + rng.uniform(0.0, 0.5, priors.w_cs.shape),
                                   w_ss=priors.w_ss + rng.uniform(0.0, 0.1, priors.w_ss.shape))
    batch = [TrainingSample(input=state.to_input(alpha), target=t_meas)]
    for _ in range(draw(st.integers(0, 5))):
        batch.append(TrainingSample(input=state.to_input(rng.uniform(0.01, 3.0, alpha.size)),
                                    target=t_meas + rng.normal(0.0, 1.0, t_meas.size)))
    return priors.hot_mask, state, tw, batch


class TestBoundTrainableEqualsThePerRowFunctions:
    """train_trainable and trainable_at compute the state's terms once; on
    one-state data they must give the per-row functions' bits and errors."""

    @settings(max_examples=60, deadline=None)
    @given(trainable_halls())
    def test_training_bit_for_bit(self, hall):
        self.check_training_bit_for_bit(hall)

    @pytest.mark.parametrize("n_hot", [1, 2])
    def test_training_bit_for_bit_on_one_server(self, n_hot):
        """With one server, einsum sums a 1-by-1 product, or columns that
        are not C-ordered, in another order than the full-width product, so
        the hot-column w_ss gradient must avoid both."""
        scenario, state = make_reference_scenario(seed=3, n_cracs=1, n_servers=1,
                                                  n_cold=2, n_hot=n_hot)
        priors = build_adjacency(scenario.layout)
        n = scenario.layout.n_sensors
        rng = np.random.default_rng(3)
        tw0 = TrainableAdjacencyWeights(linear=init_weights(n), w_cs=priors.w_cs + 0.2,
                                        w_ss=priors.w_ss + 0.1)
        batch = [TrainingSample(state.to_input(rng.uniform(0.01, 3.0, 1)), rng.normal(25, 3, n))
                 for _ in range(16)]
        self.check_training_bit_for_bit((priors.hot_mask, state, tw0, batch))

    @staticmethod
    def check_training_bit_for_bit(hall):
        hot, _, tw0, batch = hall
        n, (l, m) = hot.size, (tw0.w_cs.shape[0], tw0.w_ss.shape[0])
        hyper = TrainConfig(epochs=12, decay_every=4)

        def unpack(params):
            return TrainableAdjacencyWeights.unpack(params, n, l, m)

        path = [tw0.pack()] + reference_adam_trajectory(
            tw0.pack(), lambda p: grad_trainable(unpack(p), hot, batch).pack(),
            [hyper.lr_at(epoch) for epoch in range(hyper.epochs)])
        losses = [loss_l1_trainable(unpack(p), hot, batch) for p in path]
        best_params = path[int(np.argmin(losses))]  # the first of equal lowest losses
        handed = []  # every point, loss and gradient the fit hands Adam

        def recording_adam_fit(params, loss_and_grad, hyper):
            def recorded(p):
                loss, grad = loss_and_grad(p)
                handed.append((p.copy(), loss, grad.copy()))
                return loss, grad
            return adam_fit(params, recorded, hyper)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surrogate, "adam_fit", recording_adam_fit)
            trained = train_trainable(tw0, hot, batch, hyper)
        assert np.array_equal(trained.pack(), best_params)
        assert len(handed) == hyper.epochs + 1
        for p, loss, grad in handed:
            assert loss == loss_l1_trainable(unpack(p), hot, batch)
            assert np.array_equal(grad, grad_trainable(unpack(p), hot, batch).pack())

    @settings(max_examples=60, deadline=None)
    @given(trainable_halls())
    def test_scorer_bit_for_bit(self, hall):
        hot, state, tw, batch = hall
        predict = trainable_at(tw, hot, state)
        for sample in batch:
            alpha = sample.input.flow_rates
            assert np.array_equal(predict(alpha), forward_trainable(tw, hot, state.to_input(alpha)))

    @settings(max_examples=40, deadline=None)
    @given(trainable_halls(), st.sampled_from(["zero", "negative", "targets_1_wide"]))
    def test_bad_samples_raise_the_same_errors(self, hall, kind):
        hot, state, tw, batch = hall
        alpha, target = batch[-1].input.flow_rates, batch[-1].target
        if kind == "targets_1_wide":
            target = target[:1]
        else:
            alpha = np.where(np.arange(alpha.size) == 0, 0.0 if kind == "zero" else -alpha, alpha)
        bad = batch[:-1] + [TrainingSample(input=state.to_input(alpha), target=target)]
        want = outcome(loss_l1_trainable, tw, hot, bad)
        assert isinstance(want, tuple) and isinstance(want[0], type)
        assert outcome(train_trainable, tw, hot, bad, TrainConfig(epochs=1)) == want
        if kind != "targets_1_wide":
            assert outcome(trainable_at(tw, hot, state), alpha) == \
                outcome(forward_trainable, tw, hot, state.to_input(alpha))

    @settings(max_examples=40, deadline=None)
    @given(trainable_halls(), st.sampled_from(["crac_setpoints", "crac_fan_speeds",
                                               "server_powers"]), st.data())
    def test_mixed_states_raise(self, hall, field, data):
        hot, state, tw, batch = hall
        other = data.draw(st.integers(0, len(batch)))  # a new sample at another state
        values = getattr(state, field).copy()
        values[data.draw(st.integers(0, values.size - 1))] += 0.5
        moved = replace(state, **{field: values})
        sample = TrainingSample(input=moved.to_input(batch[0].input.flow_rates),
                                target=batch[0].target)
        mixed = batch[:other] + [sample] + batch[other:]
        with pytest.raises(MixedStateError, match=f"^sample {max(other, 1)} .*its {field} differ$"):
            train_trainable(tw, hot, mixed, TrainConfig(epochs=1))
