from dataclasses import replace

import numpy as np
import pytest

from hallcal.engine import (
    AugmentScales,
    CalibConfig,
    KnowledgeSurrogateModel,
    VanillaSurrogateModel,
    augment,
    calibrate,
    default_augment_scales,
    init_samples,
    mae,
)
from hallcal.errors import (
    CalibrationAbortedError,
    DimensionMismatchError,
    InvalidInputError,
    NonPositiveFlowRateError,
)
from hallcal.hall import SystemInput, build_adjacency
from hallcal.optim import Bounds, DeConfig, TrainConfig
from hallcal.scenarios import make_identifiable_scenario
from hallcal.solver import OperatingState, ThermalSolver, ZonalSolver, synthesize_measurements
from hallcal.surrogate import (
    SEARCH_TOL,
    PenaltyParams,
    SurrogateWeights,
    TrainingSample,
    grad_alpha,
    init_weights,
    loss_l2,
)


@pytest.fixture(scope="module")
def small_case():
    scenario, state = make_identifiable_scenario(seed=0)
    return scenario, state, build_adjacency(scenario.layout, cut_threshold=0.1)


def small_config(**overrides):
    base = dict(max_iterations=4, de=DeConfig(max_iterations=30), seed=0)
    base.update(overrides)
    return CalibConfig(**base)


class TestInitSamples:
    def test_bound_and_midpoint_probes(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        samples = init_samples(Bounds(0.01, 3.0), state, solver, scenario.layout.n_servers)
        values = [s.input.flow_rates for s in samples]
        np.testing.assert_array_equal(values[0], 0.01)
        np.testing.assert_array_equal(values[1], 3.0)
        np.testing.assert_array_equal(values[2], 1.505)
        assert solver.n_calls == 3

    def test_targets_match_their_inputs(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        samples = init_samples(Bounds(0.01, 3.0), state, solver, scenario.layout.n_servers)
        check = ZonalSolver(scenario)
        for s in samples:
            np.testing.assert_array_equal(s.target, check.solve(s.input))


class TestAugment:
    def scales(self, layout, **overrides):
        base = default_augment_scales(layout)
        return replace(base, **overrides)

    def test_three_samples_batch_16_gives_48(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        raw = init_samples(Bounds(0.01, 3.0), state, solver, scenario.layout.n_servers)
        out = augment(raw, 16, self.scales(scenario.layout), seed=0)
        assert len(out) == 48

    def test_zero_noise_gives_identical_copies(self, small_case):
        scenario, state, _ = small_case
        x = state.to_input(np.full(scenario.layout.n_servers, 0.2))
        sample = TrainingSample(input=x, target=np.arange(12.0))
        zero = AugmentScales(setpoint_sd=0.0, fan_sd=0.0,
                             power_sd=np.zeros(scenario.layout.n_servers),
                             alpha_rel_sd=0.0, target_sd=0.0)
        out = augment([sample], 16, zero, seed=0)
        assert len(out) == 16
        for copy in out:
            np.testing.assert_array_equal(copy.input.flow_rates, x.flow_rates)
            np.testing.assert_array_equal(copy.target, sample.target)

    def test_seeded_determinism(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        raw = init_samples(Bounds(0.01, 3.0), state, solver, scenario.layout.n_servers)
        a = augment(raw, 4, self.scales(scenario.layout), seed=5)
        b = augment(raw, 4, self.scales(scenario.layout), seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.input.flow_rates, sb.input.flow_rates)
            np.testing.assert_array_equal(sa.target, sb.target)

    def test_alpha_stays_in_bounds(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        bounds = Bounds(0.01, 3.0)
        raw = init_samples(bounds, state, solver, scenario.layout.n_servers)
        out = augment(raw, 16, self.scales(scenario.layout), seed=1, bounds=bounds)
        for s in out:
            assert bounds.contains(s.input.flow_rates)


class TestMae:
    def test_identical_vectors(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_case(self):
        assert mae(np.array([1.0, -2.0, 3.0]), np.zeros(3)) == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        perm = rng.permutation(10)
        assert mae(a, b) == pytest.approx(mae(a[perm], b[perm]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mae(np.zeros(3), np.zeros(4))


class TestKnowledgeModelObjective:
    """model.l2 and model.l2_grad_alpha against the plain surrogate functions."""

    @pytest.fixture
    def model(self, small_case):
        scenario, _, priors = small_case
        n = scenario.layout.n_sensors
        model = KnowledgeSurrogateModel(priors, PenaltyParams())
        rng = np.random.default_rng(4)
        model.weights = SurrogateWeights.unpack(init_weights(n).pack() + rng.normal(0, 0.3, 4 * n), n)
        return model

    @staticmethod
    def assert_bit_identical(model, x, meas):
        assert model.l2(x, meas) == loss_l2(model.weights, model.priors, x, meas, model.penalty)
        assert np.array_equal(model.l2_grad_alpha(x, meas),
                              grad_alpha(model.weights, model.priors, x, meas, model.penalty))

    def test_two_states_used_alternately(self, small_case, model):
        scenario, state, _ = small_case
        other = OperatingState(state.crac_setpoints + 1.5, state.crac_fan_speeds * 0.8,
                               state.server_powers)
        meas = synthesize_measurements(scenario, state)
        rng = np.random.default_rng(5)
        for i in range(6):
            alpha = rng.uniform(0.05, 0.6, scenario.layout.n_servers)
            self.assert_bit_identical(model, (state, other)[i % 2].to_input(alpha), meas)

    def test_in_place_edit_of_a_state(self, small_case, model):
        scenario, state, _ = small_case
        edited = OperatingState(state.crac_setpoints.copy(), state.crac_fan_speeds.copy(),
                                state.server_powers)
        meas = synthesize_measurements(scenario, state)
        alpha = np.full(scenario.layout.n_servers, 0.2)
        before = model.l2(edited.to_input(alpha), meas)
        edited.crac_setpoints[0] += 2.0
        self.assert_bit_identical(model, edited.to_input(alpha), meas)
        assert model.l2(edited.to_input(alpha), meas) != before
        edited.crac_fan_speeds[-1] *= 0.5
        self.assert_bit_identical(model, edited.to_input(alpha), meas)

    def test_every_call_checks_its_input(self, small_case, model):
        scenario, state, _ = small_case
        meas = synthesize_measurements(scenario, state)
        alpha = np.full(scenario.layout.n_servers, 0.2)
        model.l2(state.to_input(alpha), meas)  # a valid call first, with this state
        alpha[3] = 0.0
        for method in (model.l2, model.l2_grad_alpha):
            with pytest.raises(NonPositiveFlowRateError):
                method(state.to_input(alpha), meas)
            with pytest.raises(DimensionMismatchError):
                method(SystemInput(state.crac_setpoints[:-1], state.crac_fan_speeds[:-1],
                                   state.server_powers, np.full(alpha.size, 0.2)), meas)


class FailingSolver(ThermalSolver):
    """Delegates to a zonal solver, then starts failing after a set number
    of successful calls."""

    def __init__(self, scenario, fail_after):
        super().__init__()
        self.inner = ZonalSolver(scenario)
        self.fail_after = fail_after

    def _solve(self, x):
        if self.n_calls > self.fail_after:
            raise InvalidInputError("synthetic solver outage")
        return self.inner._solve(x)


class RecordingSolver(ZonalSolver):
    """A zonal solver that keeps every input it is asked to solve."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.inputs = []

    def _solve(self, x):
        self.inputs.append(x)
        return super()._solve(x)


class TestCalibrate:
    def test_every_solve_is_at_a_new_input(self, small_case):
        # iteration 1 solves at its search result, not again at the midpoint seed
        scenario, state, priors = small_case
        solver = RecordingSolver(scenario)
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=5)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        calibrate(solver, model, meas, state, scenario.layout, cfg)
        keys = {np.concatenate([x.crac_setpoints, x.crac_fan_speeds, x.server_powers,
                                x.flow_rates]).tobytes() for x in solver.inputs}
        assert len(solver.inputs) == 3 + 5
        assert len(keys) == len(solver.inputs)

    def test_budget_and_dataset_accounting(self, small_case):
        scenario, state, priors = small_case
        solver = ZonalSolver(scenario)
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=5)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        res = calibrate(solver, model, meas, state, scenario.layout, cfg)
        assert res.n_solver_calls == 3 + 5
        assert [t.solver_calls for t in res.traces] == [4, 5, 6, 7, 8]
        assert res.dataset_sizes == [4, 5, 6, 7, 8]
        assert Bounds(0.01, 3.0).contains(res.alpha_star)

    def test_best_mae_is_running_minimum(self, small_case):
        scenario, state, priors = small_case
        solver = ZonalSolver(scenario)
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=6)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        res = calibrate(solver, model, meas, state, scenario.layout, cfg)
        vals = [t.validation_mae for t in res.traces]
        assert res.best_mae == pytest.approx(min(vals))
        running = np.minimum.accumulate(vals)
        assert all(b2 <= b1 for b1, b2 in zip(running, running[1:]))

    def test_end_to_end_determinism(self, small_case):
        scenario, state, priors = small_case
        meas = synthesize_measurements(scenario, state)
        results = []
        for _ in range(2):
            cfg = small_config(max_iterations=3)
            model = KnowledgeSurrogateModel(priors, cfg.penalty)
            results.append(calibrate(ZonalSolver(scenario), model, meas, state,
                                     scenario.layout, cfg))
        a, b = results
        np.testing.assert_array_equal(a.alpha_star, b.alpha_star)
        assert [t.validation_mae for t in a.traces] == [t.validation_mae for t in b.traces]
        assert [t.mean_l2 for t in a.traces] == [t.mean_l2 for t in b.traces]

    def test_solver_failure_attaches_partial_result(self, small_case):
        scenario, state, priors = small_case
        solver = FailingSolver(scenario, fail_after=5)  # dies inside iteration 3
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=8)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        with pytest.raises(CalibrationAbortedError) as exc_info:
            calibrate(solver, model, meas, state, scenario.layout, cfg)
        partial = exc_info.value.result
        assert partial is not None
        assert len(partial.traces) == 2
        assert partial.best_mae == pytest.approx(min(t.validation_mae for t in partial.traces))

    @pytest.mark.parametrize("use_de, stage", [(None, "convex"), (True, "de"), (False, "adam")])
    def test_use_de_selects_the_search(self, small_case, use_de, stage):
        # None takes the knowledge model's exact search; True and False force DE+Adam and Adam
        scenario, state, priors = small_case
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=2, use_de=use_de)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        res = calibrate(ZonalSolver(scenario), model, meas, state, scenario.layout, cfg)
        for t in res.traces:
            assert (t.de_l2 is not None) == (stage == "de")
            assert (t.search_residual is not None) == (stage == "convex")
            if stage == "convex":
                assert t.search_residual <= SEARCH_TOL

    def test_vanilla_model_runs_through_engine(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=2, train=TrainConfig(epochs=40, learning_rate=0.01))
        model = VanillaSurrogateModel(scenario.layout, cfg.penalty, cfg.train, seed=0)
        res = calibrate(solver, model, meas, state, scenario.layout, cfg)
        assert res.n_solver_calls == 5
        assert np.isfinite(res.best_mae)
