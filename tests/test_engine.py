from dataclasses import fields, replace

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
from hallcal import engine, surrogate
from hallcal.errors import (
    CalibrationAbortedError,
    DimensionMismatchError,
    EmptyDatasetError,
    HallcalError,
    InvalidInputError,
    MixedStateError,
    NonPositiveFlowRateError,
    ObjectiveNonFiniteError,
)
from hallcal.hall import build_adjacency
from hallcal.mlp import mlp_forward, mlp_grad_alpha, mlp_loss_l2
from hallcal.optim import Bounds, TrainConfig
from hallcal.scenarios import make_identifiable_scenario, make_reference_scenario
from hallcal.solver import OperatingState, ThermalSolver, ZonalSolver, synthesize_measurements
from hallcal.surrogate import (
    SEARCH_TOL,
    PenaltyParams,
    StateTerms,
    SurrogateWeights,
    TrainingSample,
    convex_search,
    fit_weights,
    forward,
    grad_alpha,
    init_weights,
    loss_l2,
)


@pytest.fixture(scope="module")
def small_case():
    scenario, state = make_identifiable_scenario(seed=0)
    return scenario, state, build_adjacency(scenario.layout, cut_threshold=0.1)


def small_config(**overrides):
    base = dict(max_iterations=4, seed=0)
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
    """A bound model's predict, l2 and l2_grad_alpha against the plain
    surrogate functions at the state it bound."""

    @pytest.fixture
    def weights(self, small_case):
        n = small_case[0].layout.n_sensors
        rng = np.random.default_rng(4)
        return SurrogateWeights.unpack(init_weights(n).pack() + rng.normal(0, 0.3, 4 * n), n)

    @staticmethod
    def bound(small_case, weights, state):
        model = KnowledgeSurrogateModel(small_case[2], PenaltyParams()).at(state)
        model.weights = weights
        return model

    @staticmethod
    def assert_bit_identical(model, x, meas):
        alpha = x.flow_rates
        assert np.array_equal(model.predict(alpha), forward(model.weights, model.priors, x))
        assert model.l2(alpha, meas) == loss_l2(model.weights, model.priors, x, meas,
                                                model.penalty)
        assert np.array_equal(model.l2_grad_alpha(alpha, meas),
                              grad_alpha(model.weights, model.priors, x, meas, model.penalty))

    def test_two_states_used_alternately(self, small_case, weights):
        scenario, state, _ = small_case
        other = OperatingState(state.crac_setpoints + 1.5, state.crac_fan_speeds * 0.8,
                               state.server_powers)
        models = [self.bound(small_case, weights, s) for s in (state, other)]
        meas = synthesize_measurements(scenario, state)
        rng = np.random.default_rng(5)
        for i in range(6):
            alpha = rng.uniform(0.05, 0.6, scenario.layout.n_servers)
            self.assert_bit_identical(models[i % 2], (state, other)[i % 2].to_input(alpha), meas)

    def test_in_place_edit_of_a_state(self, small_case, weights):
        # the model keeps the values it bound: a write to the caller's arrays
        # after binding changes nothing it computes
        scenario, state, _ = small_case
        edited = state.copy()
        model = self.bound(small_case, weights, edited)
        meas = synthesize_measurements(scenario, state)
        alpha = np.full(scenario.layout.n_servers, 0.2)
        edited.crac_setpoints[0] += 2.0
        edited.crac_fan_speeds[-1] *= 0.5
        edited.server_powers[1] += 50.0
        self.assert_bit_identical(model, state.to_input(alpha), meas)
        assert model.l2(alpha, meas) != loss_l2(weights, model.priors, edited.to_input(alpha),
                                                meas, model.penalty)

    def test_every_call_checks_its_input(self, small_case, weights):
        scenario, state, _ = small_case
        model = self.bound(small_case, weights, state)
        meas = synthesize_measurements(scenario, state)
        alpha = np.full(scenario.layout.n_servers, 0.2)
        model.l2(alpha, meas)  # a valid call first
        zero = alpha.copy()
        zero[3] = 0.0
        calls = (model.predict, lambda a: model.l2(a, meas), lambda a: model.l2_grad_alpha(a, meas),
                 lambda a: model.search(a, meas, engine.SEARCH_BOUNDS))
        for call in calls:
            with pytest.raises(NonPositiveFlowRateError):
                call(zero)
            for wrong in (alpha[:-1], np.append(alpha, 0.2)):
                with pytest.raises(DimensionMismatchError):
                    call(wrong)
        with pytest.raises(DimensionMismatchError):  # a state of another CRAC count
            model.at(OperatingState(state.crac_setpoints[:-1], state.crac_fan_speeds[:-1],
                                    state.server_powers))


@pytest.fixture(scope="module")
def two_states():
    """The reference hall, its priors, its state and a second state."""
    scenario, state = make_reference_scenario(seed=0)
    other = OperatingState(state.crac_setpoints + 1.5, state.crac_fan_speeds * 0.9,
                           state.server_powers * 1.1)
    return scenario, build_adjacency(scenario.layout), state, other


def solved(solver, state, rng, count):
    """`count` solves of `state` at random flow rates, as training samples."""
    samples = []
    for _ in range(count):
        x = state.to_input(rng.uniform(0.05, 1.0, state.server_powers.size))
        samples.append(TrainingSample(input=x, target=solver.solve(x)))
    return samples


def assert_same_weights(got: SurrogateWeights, want: SurrogateWeights):
    for name in "abcd":
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.fixture(scope="module")
def reference_fits():
    """Per reference seed 0-4: the priors, the model after a 15-iteration
    run, and every fit of that run as (dataset at fit time, weights)."""
    runs = {}
    for seed in range(5):
        scenario, state = make_reference_scenario(seed=seed)
        priors = build_adjacency(scenario.layout)
        cfg = CalibConfig(seed=seed, max_iterations=15)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        fits, fit = [], model.fit

        def recorded_fit(dataset, model=model, fits=fits, fit=fit):
            fit(dataset)
            fits.append((list(dataset), model.weights))

        model.fit = recorded_fit
        calibrate(ZonalSolver(scenario), model, synthesize_measurements(scenario, state),
                  state, scenario.layout, cfg)
        model.fit = fit
        runs[seed] = (priors, model, fits)
    return runs


class TestKnowledgeModelFit:
    @pytest.mark.parametrize("seed", range(5))
    def test_running_sums_equal_the_full_fit(self, reference_fits, seed):
        priors, model, fits = reference_fits[seed]
        assert [len(dataset) for dataset, _ in fits] == list(range(3, 18))
        for dataset, weights in fits:
            assert_same_weights(weights, fit_weights(priors, dataset, model.penalty.kappa))

    def test_each_fit_sums_only_the_new_samples(self, small_case, monkeypatch):
        # the first fit folds in its three seed solves and every later fit its
        # one new solve, with no batch sum; the weights are fit_weights' bit
        # for bit
        scenario, state, priors = small_case
        batches, folds = [], []
        fit_terms, fold_terms = surrogate.fit_terms, engine.fold_terms

        def counted_batch(priors, batch):
            batches.append(list(batch))
            return fit_terms(priors, batch)

        def counted_fold(*args):
            folds.append(args[2])
            return fold_terms(*args)

        monkeypatch.setattr(surrogate, "fit_terms", counted_batch)
        monkeypatch.setattr(engine, "fold_terms", counted_fold)
        cfg = small_config(max_iterations=5)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        calibrate(ZonalSolver(scenario), model, synthesize_measurements(scenario, state), state,
                  scenario.layout, cfg)
        assert batches == []
        assert len(folds) == 7 and len({id(s) for s in folds}) == 7
        assert_same_weights(model.weights, fit_weights(priors, folds))

    def test_folds_match_the_full_fit_across_a_state_switch(self, two_states):
        # a model bound anew folds each later sample at the state it is bound to
        scenario, priors, first, second = two_states
        solver, rng = ZonalSolver(scenario), np.random.default_rng(5)
        dataset = (solved(solver, first, rng, 5) + solved(solver, second, rng, 4)
                   + solved(solver, first, rng, 2))
        states = [first] * 5 + [second] * 4 + [first] * 2
        model = KnowledgeSurrogateModel(priors, PenaltyParams())
        for k in range(3, len(dataset) + 1):
            model.at(states[k - 1]).fit(dataset[:k])
            assert_same_weights(model.weights, fit_weights(priors, dataset[:k]))

    @pytest.mark.parametrize("field", [f.name for f in fields(OperatingState)])
    @pytest.mark.parametrize("kind", ["folded", "restarted"])
    def test_a_sample_at_another_state_raises(self, two_states, field, kind):
        # a bound model names the first sample it would sum off its state, and
        # its sums are left as they were: the next fit of its own samples
        # matches fit_weights
        scenario, priors, first, second = two_states
        solver, rng = ZonalSolver(scenario), np.random.default_rng(8)
        moved = replace(first, **{field: getattr(second, field)})
        dataset = solved(solver, first, rng, 3)
        model = KnowledgeSurrogateModel(priors, PenaltyParams()).at(first)
        model.fit(dataset)
        stray = solved(solver, moved, rng, 1) + solved(solver, first, rng, 1)
        mixed = dataset + stray if kind == "folded" else dataset[:1] + stray
        with pytest.raises(MixedStateError,
                           match=f"^sample {len(mixed) - 2} is not .*: its {field} differ$"):
            model.fit(mixed)
        dataset += solved(solver, first, rng, 1)
        model.fit(dataset)
        assert_same_weights(model.weights, fit_weights(priors, dataset))

    def test_a_state_written_in_place_is_told_by_its_values(self, two_states):
        # the model binds a copy of the state: after the caller overwrites the
        # arrays it bound with another state, its folds and searches still
        # use the values it bound
        scenario, priors, first, second = two_states
        solver, rng = ZonalSolver(scenario), np.random.default_rng(6)
        held = first.copy()
        model = KnowledgeSurrogateModel(priors, PenaltyParams()).at(held)
        dataset = solved(solver, first, rng, 3)
        model.fit(dataset)
        for f in fields(OperatingState):
            getattr(held, f.name)[:] = getattr(second, f.name)
        dataset += solved(solver, first, rng, 2)
        model.fit(dataset[:4])
        model.fit(dataset)
        assert_same_weights(model.weights, fit_weights(priors, dataset))
        alpha, meas = dataset[0].input.flow_rates, dataset[0].target
        got = model.search(alpha, meas, engine.SEARCH_BOUNDS)
        want = convex_search(model.weights, priors, StateTerms.of(priors, first), alpha, meas,
                             model.penalty, engine.SEARCH_BOUNDS)
        assert np.array_equal(got.x, want.x) and got.fun == want.fun

    def test_search_matches_a_fresh_convex_search(self, two_states):
        scenario, priors, first, second = two_states
        solver, rng = ZonalSolver(scenario), np.random.default_rng(7)
        model = KnowledgeSurrogateModel(priors, PenaltyParams()).at(first)
        dataset = solved(solver, first, rng, 4)
        model.fit(dataset[:3])
        model.fit(dataset)
        meas = synthesize_measurements(scenario, first)
        bounds = engine.SEARCH_BOUNDS
        alpha = np.full(scenario.layout.n_servers, bounds.midpoint)
        for state in (first, second, first):
            got = model.at(state).search(alpha, meas, bounds)
            want = convex_search(model.weights, priors, StateTerms.of(priors, state), alpha, meas,
                                 model.penalty, bounds)
            assert np.array_equal(got.x, want.x)
            assert (got.fun, got.n_evals, got.residual) == (want.fun, want.n_evals, want.residual)

    @pytest.mark.parametrize("kind", ["reordered", "shorter"])
    def test_a_list_that_does_not_extend_the_prefix_starts_over(self, reference_fits, kind):
        priors, model, fits = reference_fits[0]
        full = fits[-1][0]
        model.fit(full)  # the sums hold exactly `full` now
        other = full[::-1] if kind == "reordered" else full[:9]
        model.fit(other)
        assert_same_weights(model.weights, fit_weights(priors, other, model.penalty.kappa))
        model.fit(full)
        assert_same_weights(model.weights, fit_weights(priors, full, model.penalty.kappa))

    def test_empty_dataset(self, reference_fits):
        priors, model, fits = reference_fits[0]
        with pytest.raises(EmptyDatasetError):
            model.fit([])
        with pytest.raises(EmptyDatasetError):
            KnowledgeSurrogateModel(priors, model.penalty).fit([])

    def test_an_unbound_model_does_not_fit(self, two_states):
        # a fit before `at` raises, naming it, whether or not it would extend
        # the last; the dataset is not summed, and once bound the model fits it
        scenario, priors, first, _ = two_states
        dataset = solved(ZonalSolver(scenario), first, np.random.default_rng(3), 4)
        model = KnowledgeSurrogateModel(priors, PenaltyParams())
        for k in (3, 4):
            with pytest.raises(HallcalError, match=r"^an unbound .* with at\(state\)$"):
                model.fit(dataset[:k])
        with pytest.raises(EmptyDatasetError):
            model.fit([])
        model.at(first).fit(dataset)
        assert_same_weights(model.weights, fit_weights(priors, dataset))

    @pytest.mark.parametrize("size", [1, 3, 8, 24, 48, 80, 160])
    def test_a_fresh_model_folds_from_zero_to_the_full_fit(self, two_states, size):
        # the study's cold-start fit: a fresh bound model sums every sample by
        # fold_terms, from zero, and matches fit_weights bit for bit
        scenario, priors, first, _ = two_states
        dataset = solved(ZonalSolver(scenario), first, np.random.default_rng(size), size)
        model = KnowledgeSurrogateModel(priors, PenaltyParams()).at(first)
        model.fit(dataset)
        assert_same_weights(model.weights, fit_weights(priors, dataset, model.penalty.kappa))

    def test_a_sample_with_equal_values_in_other_bytes_is_at_the_state(self, two_states):
        # a server drawing -0.0 W is at a state where it draws 0.0 W
        scenario, priors, first, _ = two_states
        held, twin = first.copy(), first.copy()
        held.server_powers[0], twin.server_powers[0] = 0.0, -0.0
        solver, rng = ZonalSolver(scenario), np.random.default_rng(4)
        dataset = solved(solver, held, rng, 2) + solved(solver, twin, rng, 2)
        model = KnowledgeSurrogateModel(priors, PenaltyParams()).at(held)
        model.fit(dataset)
        assert_same_weights(model.weights, fit_weights(priors, dataset))


class TestVanillaModel:
    def test_bound_model_equals_the_mlp_functions(self, small_case):
        scenario, state, _ = small_case
        model = VanillaSurrogateModel(scenario.layout, PenaltyParams(), TrainConfig(), seed=3)
        edited = state.copy()
        model.at(edited)
        edited.server_powers[:] += 10.0  # the model keeps the values it bound
        meas = synthesize_measurements(scenario, state)
        alpha = np.random.default_rng(8).uniform(0.05, 1.0, scenario.layout.n_servers)
        x = state.to_input(alpha)
        assert np.array_equal(model.predict(alpha), mlp_forward(model.weights, x))
        assert model.l2(alpha, meas) == mlp_loss_l2(model.weights, x, meas, model.penalty)
        assert np.array_equal(model.l2_grad_alpha(alpha, meas),
                              mlp_grad_alpha(model.weights, x, meas, model.penalty))


class TestVanillaModelFit:
    def test_warm_started_refit_is_deterministic(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(5):
            x = state.to_input(rng.uniform(0.01, 3.0, scenario.layout.n_servers))
            samples.append(TrainingSample(input=x, target=solver.solve(x)))
        train = TrainConfig(epochs=20, learning_rate=0.01)
        fits = []
        for _ in range(2):
            model = VanillaSurrogateModel(scenario.layout, PenaltyParams(), train, seed=0)
            model.fit(samples[:3])
            first = model.weights.pack()
            model.fit(samples)  # warm-started from the first fit's weights
            fits.append((first, model.weights.pack()))
        (first, refit), (first_again, refit_again) = fits
        assert np.array_equal(first, first_again) and np.array_equal(refit, refit_again)
        assert not np.array_equal(first, refit)
        for flat in (first, refit):
            assert np.array_equal(flat.astype(np.float32).astype(np.float64), flat)


class FailingSolver(ThermalSolver):
    """Delegates to a zonal solver, then starts failing after a set number
    of successful calls."""

    def __init__(self, scenario, fail_after):
        super().__init__()
        self.inner = ZonalSolver(scenario)
        self.fail_after = fail_after

    def _bind(self, state):
        solve = self.inner._bind(state)

        def failing(alpha):
            if self.n_calls > self.fail_after:
                raise InvalidInputError("synthetic solver outage")
            return solve(alpha)

        return failing


class RecordingSolver(ZonalSolver):
    """A zonal solver that keeps every input it is asked to solve, bound or not."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.inputs = []

    def _bind(self, x):
        solve = super()._bind(x)
        return lambda alpha: self.inputs.append(x.to_input(alpha)) or solve(alpha)


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
        assert [t.dataset_size for t in res.traces] == [4, 5, 6, 7, 8]
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

    @pytest.mark.parametrize("field, index, value", [("server_powers", 2, np.nan),
                                                     ("crac_fan_speeds", 0, 1.5)],
                             ids=["nan-power", "fan-1.5"])
    def test_invalid_state_aborts_during_seeding(self, small_case, field, index, value):
        scenario, state, priors = small_case
        bad = OperatingState(*[np.array(getattr(state, f.name)) for f in fields(OperatingState)])
        getattr(bad, field)[index] = value
        cfg = small_config()
        with pytest.raises(CalibrationAbortedError,
                           match="^solver failed during seeding: ") as exc_info:
            calibrate(ZonalSolver(scenario), KnowledgeSurrogateModel(priors, cfg.penalty),
                      synthesize_measurements(scenario, state), bad, scenario.layout, cfg)
        assert isinstance(exc_info.value.__cause__, InvalidInputError)
        partial = exc_info.value.result
        assert partial is not None and partial.traces == [] and partial.best_mae == np.inf
        assert np.array_equal(partial.alpha_star, np.full(scenario.layout.n_servers, 1.505))

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

    @pytest.mark.parametrize("method, error", [("fit", EmptyDatasetError),
                                               ("search", ObjectiveNonFiniteError)])
    def test_fit_or_search_failure_attaches_partial_result(self, small_case, monkeypatch,
                                                           method, error):
        scenario, state, priors = small_case
        original, calls = getattr(KnowledgeSurrogateModel, method), []

        def failing(self, *args):
            calls.append(args)
            if len(calls) == 3:  # iteration 3
                raise error("synthetic surrogate failure")
            return original(self, *args)

        monkeypatch.setattr(KnowledgeSurrogateModel, method, failing)
        cfg = small_config(max_iterations=8)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        with pytest.raises(CalibrationAbortedError, match="iteration 3") as exc_info:
            calibrate(ZonalSolver(scenario), model, synthesize_measurements(scenario, state),
                      state, scenario.layout, cfg)
        assert isinstance(exc_info.value.__cause__, error)
        partial = exc_info.value.result
        assert len(partial.traces) == 2
        assert partial.n_solver_calls == 5
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

    @pytest.mark.parametrize("use_de", [True, False], ids=["de-adam", "adam"])
    def test_state_features_once_per_state(self, small_case, monkeypatch, use_de):
        # binding the model featurizes its state once per run; every fold,
        # objective and gradient call reads the model's one StateTerms
        scenario, state, priors = small_case
        calls, features = [], surrogate._state_features
        monkeypatch.setattr(surrogate, "_state_features", lambda w_cs, w_ss, x, dense=False: (
            calls.append(x.crac_setpoints.shape[:-1]) or features(w_cs, w_ss, x, dense)))
        cfg = small_config(max_iterations=3, use_de=use_de)
        calibrate(ZonalSolver(scenario), KnowledgeSurrogateModel(priors, cfg.penalty),
                  synthesize_measurements(scenario, state), state, scenario.layout, cfg)
        assert calls == [()]

    def test_de_seeds_are_the_spawned_children_of_the_run_seed(self, small_case, monkeypatch):
        # iteration i's DE seed is child i - 1 of SeedSequence(cfg.seed).spawn(...)
        scenario, state, priors = small_case
        seeds, hybrid = [], engine.hybrid_search
        monkeypatch.setattr(engine, "hybrid_search",
                            lambda *args, **kw: seeds.append(args[6]) or hybrid(*args, **kw))
        cfg = small_config(max_iterations=3, use_de=True, seed=11)
        calibrate(ZonalSolver(scenario), KnowledgeSurrogateModel(priors, cfg.penalty),
                  synthesize_measurements(scenario, state), state, scenario.layout, cfg)
        children = np.random.SeedSequence(11).spawn(3)
        assert seeds == [int(c.generate_state(1)[0]) for c in children]

    def test_vanilla_model_runs_through_engine(self, small_case):
        scenario, state, _ = small_case
        solver = ZonalSolver(scenario)
        meas = synthesize_measurements(scenario, state)
        cfg = small_config(max_iterations=2)
        model = VanillaSurrogateModel(scenario.layout, cfg.penalty,
                                      TrainConfig(epochs=40, learning_rate=0.01), seed=0)
        res = calibrate(solver, model, meas, state, scenario.layout, cfg)
        assert res.n_solver_calls == 5
        assert np.isfinite(res.best_mae)
