import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcal import surrogate
from hallcal.engine import SEARCH_BOUNDS, CalibConfig, _penalty_feasible_band, init_samples
from hallcal.errors import (
    DimensionMismatchError,
    EmptyBatchError,
    EmptyDatasetError,
    NonPositiveFlowRateError,
    ObjectiveNonFiniteError,
)
from hallcal.hall import AdjacencyPriors, SystemInput, build_adjacency
from hallcal.optim import AdamState, Bounds, TrainConfig, adam_step, hybrid_search
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
    SurrogateWeights,
    TrainableAdjacencyWeights,
    TrainingSample,
    _batch_features,
    convex_search,
    fit_weights,
    forward,
    forward_trainable,
    grad_alpha,
    grad_trainable,
    grad_weights,
    hinge_box_prox,
    init_weights,
    loss_l1,
    loss_l1_trainable,
    loss_l2,
    penalty_h,
    train_trainable,
)


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


@pytest.fixture(scope="module")
def frozen_cases():
    """Per reference seed 0-4: a knowledge surrogate fitted to the three seed
    solves and three solves at random in-band flow rates, its priors, the
    operating state and the measurements."""
    cases = []
    for seed in range(5):
        scenario, state = make_reference_scenario(seed=seed)
        priors = build_adjacency(scenario.layout)
        solver = ZonalSolver(scenario)
        m = scenario.layout.n_servers
        dataset = init_samples(SEARCH_BOUNDS, state, solver, m)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = state.to_input(rng.uniform(0.12, 0.35, m))
            dataset.append(TrainingSample(input=x, target=solver.solve(x)))
        cases.append((fit_weights(priors, dataset), priors, state,
                      synthesize_measurements(scenario, state)))
    return cases


def five_piece_prox(v, k_lo, k_hi, s, u_lo, u_hi):
    """The hinge's prox written piece by piece, then the box clip."""
    out = np.select([v < k_lo - s, v <= k_lo, v <= k_hi, v <= k_hi + s],
                    [v + s, k_lo, v, k_hi], v - s)
    return np.clip(out, u_lo, u_hi)


class TestConvexSearch:
    params = PenaltyParams()

    def search(self, case, alpha0, bounds=SEARCH_BOUNDS):
        w, priors, state, meas = case
        return convex_search(w, priors, state.to_input(alpha0), meas, self.params, bounds)

    def test_not_worse_than_hybrid_search(self, frozen_cases):
        cfg = CalibConfig()
        for seed, case in enumerate(frozen_cases):
            w, priors, state, meas = case
            x0 = np.full(state.server_powers.size, SEARCH_BOUNDS.midpoint)
            hybrid = hybrid_search(
                lambda a: loss_l2(w, priors, state.to_input(a), meas, self.params),
                lambda a: grad_alpha(w, priors, state.to_input(a), meas, self.params),
                SEARCH_BOUNDS, cfg.de, cfg.adam, x0, seed, init_bounds=_penalty_feasible_band(cfg))
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

    def test_result_is_certified_and_scored_by_loss_l2(self, frozen_cases):
        for case in frozen_cases:
            w, priors, state, meas = case
            res = self.search(case, np.full(state.server_powers.size, 0.2))
            assert res.fun == loss_l2(w, priors, state.to_input(res.x), meas, self.params)
            assert res.residual <= SEARCH_TOL
            assert len(res.losses) == len(res.grad_norms) == res.n_evals
            assert res.losses[-1] == pytest.approx(res.fun, rel=1e-6)

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
        res = convex_search(init_weights(1), priors, make_input(20.0, 0.8, 100.0, 2.0),
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
            np.testing.assert_allclose(hinge_box_prox(v, k_lo, k_hi, s, u_lo, u_hi),
                                       five_piece_prox(v, k_lo, k_hi, s, u_lo, u_hi),
                                       rtol=1e-14, atol=1e-14)

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
            convex_search(w, priors, x, meas, self.params, SEARCH_BOUNDS)

    def test_input_checks(self, frozen_cases):
        w, priors, state, meas = frozen_cases[0]
        alpha = np.full(state.server_powers.size, 0.2)
        with pytest.raises(DimensionMismatchError):
            self.search((w, priors, state, meas[:-1]), alpha)
        alpha[5] = 0.0
        with pytest.raises(NonPositiveFlowRateError):
            self.search(frozen_cases[0], alpha)


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
}


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
                     lambda: convex_search(w, reference_priors, good.input, good.target,
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
    def small_setup(self):
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
        tw, hot, batch = self.small_setup()
        initial = loss_l1_trainable(tw, hot, batch)
        trained = __import__("hallcal.surrogate", fromlist=["train_trainable"]).train_trainable(
            tw, hot, batch, TrainConfig())
        assert loss_l1_trainable(trained, hot, batch) < 0.1 * initial

    def test_train_equals_plain_adam_loop(self):
        tw0, hot, batch = self.small_setup()
        n, l, m = 4, 2, 3
        hyper = TrainConfig(epochs=60, decay_every=20)
        params = tw0.pack()
        best_params, best_loss = params.copy(), loss_l1_trainable(tw0, hot, batch)
        state = AdamState.init(params.size, hyper.learning_rate)
        for epoch in range(hyper.epochs):
            g = grad_trainable(TrainableAdjacencyWeights.unpack(params, n, l, m), hot, batch)
            state.learning_rate = hyper.lr_at(epoch)
            state, params = adam_step(state, params, g.pack())
            loss = loss_l1_trainable(TrainableAdjacencyWeights.unpack(params, n, l, m), hot, batch)
            if loss < best_loss:
                best_loss, best_params = loss, params.copy()
        assert np.array_equal(train_trainable(tw0, hot, batch, hyper).pack(), best_params)

    def test_train_leaves_w0_unchanged_and_results_independent(self):
        tw0, hot, batch = self.small_setup()
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
