"""Acceptance suite: every criterion runs at its stated tolerance on the
shipped reference scenario (zonal simulator, 4 CRACs, 64 servers, 24
sensors with 16 cold and 8 hot, hidden ground-truth flow rates, sensor
noise 0.1 degC) and prints one PASS line when it holds."""

import time

import numpy as np
import pytest

from hallcal.engine import (
    CalibConfig,
    KnowledgeSurrogateModel,
    augment,
    calibrate,
    default_augment_scales,
    init_samples,
    mae,
)
from hallcal.errors import CommandFailedError, ParseError, SolverTimeoutError
from hallcal.hall import SystemInput, build_adjacency
from hallcal.optim import AdamConfig, Bounds, DeConfig, cmaes_1p1, hybrid_search
from hallcal.scenarios import make_identifiable_scenario, make_reference_scenario
from hallcal.solver import ZonalSolver, synthesize_measurements
from hallcal.study import KNOWLEDGE_FIXED, VANILLA, run_datavolume_study
from hallcal.surrogate import (
    PenaltyParams,
    SurrogateWeights,
    forward,
    grad_alpha,
    grad_weights,
    init_weights,
    loss_l1,
    loss_l2,
    TrainingSample,
)

SEEDS = (0, 1, 2, 3, 4)
BOUNDS = Bounds(0.01, 3.0)


@pytest.fixture(scope="module")
def reference_runs():
    """One 15-iteration knowledge-surrogate calibration per fixed seed."""
    runs = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        scenario, state = make_reference_scenario(seed=seed)
        priors = build_adjacency(scenario.layout)
        solver = ZonalSolver(scenario)
        measurements = synthesize_measurements(scenario, state)
        cfg = CalibConfig(seed=seed, max_iterations=15)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        result = calibrate(solver, model, measurements, state, scenario.layout, cfg)
        runs[seed] = dict(scenario=scenario, state=state, measurements=measurements,
                          result=result, solver=solver)
    runs["elapsed_s"] = time.perf_counter() - t0
    return runs


def test_criterion_1_calibration_efficacy(reference_runs):
    """MAE <= 0.5 degC within 15 iterations (<= 18 solver calls) for at
    least 4 of 5 seeds, in under 2 minutes."""
    maes = {seed: reference_runs[seed]["result"].best_mae for seed in SEEDS}
    hits = sum(1 for v in maes.values() if v <= 0.5)
    for seed in SEEDS:
        assert reference_runs[seed]["result"].n_solver_calls == 18
    assert hits >= 4, f"only {hits}/5 seeds reached 0.5 degC: {maes}"
    assert reference_runs["elapsed_s"] < 120.0
    print(f"\nPASS criterion 1: best MAE by seed "
          f"{ {s: round(v, 3) for s, v in maes.items()} }, "
          f"{hits}/5 within 0.5 degC, {reference_runs['elapsed_s']:.1f}s for all runs")


def test_criterion_2_budget_dominance_over_heuristic(reference_runs):
    """At an equal 18-call budget the (1+1)-ES MAE is >= 2x worse, and
    matching the knowledge-surrogate MAE costs >= 3x more solver calls."""
    run = reference_runs[0]
    kalibre_mae = run["result"].best_mae
    solver = ZonalSolver(run["scenario"])
    state, measurements = run["state"], run["measurements"]

    def objective(alpha):
        return mae(solver.solve(state.to_input(alpha)), measurements)

    x0 = np.full(run["scenario"].layout.n_servers, BOUNDS.midpoint)
    es = cmaes_1p1(objective, BOUNDS, 150, x0, seed=0)
    es_mae_at_18 = es.best_trace[17]
    assert es_mae_at_18 >= 2.0 * kalibre_mae

    reached = next((i + 1 for i, v in enumerate(es.best_trace) if v <= kalibre_mae), None)
    assert reached is None or reached >= 3 * 18
    reached_text = reached if reached is not None else ">150"
    print(f"\nPASS criterion 2: heuristic {es_mae_at_18:.3f} vs kalibre "
          f"{kalibre_mae:.3f} degC at 18 calls ({es_mae_at_18 / kalibre_mae:.1f}x); "
          f"solver calls to match: {reached_text} (>= 54)")


def test_criterion_3_small_data_learning_efficiency():
    """On a 200-sample pool split 8:2, the knowledge surrogate beats the
    MLP at the 5% fraction and the MAE ratio shrinks by 50%."""
    scenario, state = make_reference_scenario(seed=0)
    cells = run_datavolume_study(scenario, state, fractions=[0.05, 0.50],
                                 pool_size=200, seed=0)
    table = {(c.fraction, c.surrogate): c.test_mae for c in cells}
    know_5, van_5 = table[(0.05, KNOWLEDGE_FIXED)], table[(0.05, VANILLA)]
    know_50, van_50 = table[(0.50, KNOWLEDGE_FIXED)], table[(0.50, VANILLA)]
    assert know_5 < van_5
    ratio_5 = van_5 / know_5
    ratio_50 = van_50 / know_50
    assert ratio_5 > ratio_50
    print(f"\nPASS criterion 3: 5% fraction knowledge {know_5:.2f} < vanilla "
          f"{van_5:.2f} degC; ratio {ratio_5:.2f} at 5% vs {ratio_50:.2f} at 50%")


def test_criterion_4_hybrid_search_acceleration():
    """Mean search loss at iteration 10 with DE+Adam is <= 10% of the
    Adam-only loss under identical seeds and budgets."""
    scenario, state = make_reference_scenario(seed=0)
    priors = build_adjacency(scenario.layout)
    measurements = synthesize_measurements(scenario, state)
    losses = {}
    for use_de in (True, False):
        solver = ZonalSolver(scenario)
        cfg = CalibConfig(seed=0, max_iterations=10, use_de=use_de)
        model = KnowledgeSurrogateModel(priors, cfg.penalty)
        result = calibrate(solver, model, measurements, state, scenario.layout, cfg)
        losses[use_de] = result.traces[-1].mean_l2
    assert losses[True] <= 0.10 * losses[False]
    print(f"\nPASS criterion 4: mean L2 at iteration 10 hybrid {losses[True]:.3g} "
          f"vs Adam-only {losses[False]:.3g} ({losses[True] / losses[False]:.2e})")


def test_criterion_5_gradient_correctness():
    """100 random configurations away from hinge kinks: both analytic
    gradients within 1e-5 relative of central finite differences, < 10 s."""
    scenario, state = make_reference_scenario(seed=0)
    priors = build_adjacency(scenario.layout)
    n, m = scenario.layout.n_sensors, scenario.layout.n_servers
    params = PenaltyParams()
    t0 = time.perf_counter()
    worst_w = worst_a = 0.0
    kept = 0
    trial = 0
    while kept < 100:
        trial += 1
        rng = np.random.default_rng(10_000 + trial)
        alpha = rng.uniform(0.1, 1.0, m)
        dt = params.kappa / alpha
        if np.any(np.abs(dt - params.dt_low) < 0.05) or np.any(np.abs(dt - params.dt_high) < 0.05):
            continue
        kept += 1
        w = SurrogateWeights(a=1.0 + rng.normal(0, 0.2, n), b=rng.normal(0, 1, n),
                             c=1.75 * rng.uniform(0.5, 1.5, n), d=rng.normal(0, 1, n))
        x = state.to_input(alpha)
        target = forward(w, priors, x) + rng.normal(0, 1, n)
        batch = [TrainingSample(input=x, target=target)]
        meas = target + rng.normal(0, 0.5, n)

        g = grad_weights(w, priors, batch).pack()
        flat = w.pack()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            h = 1e-5 * max(abs(flat[i]), 1.0)
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            fd[i] = (loss_l1(SurrogateWeights.unpack(fp, n), priors, batch)
                     - loss_l1(SurrogateWeights.unpack(fm, n), priors, batch)) / (2 * h)
        # components far below the gradient scale are compared at that scale:
        # the difference quotient itself carries ~1e-6 cancellation noise
        floor = 1e-3 * np.max(np.abs(fd))
        worst_w = max(worst_w, np.max(np.abs(g - fd) / np.maximum(np.abs(fd), floor)))

        ga = grad_alpha(w, priors, x, meas, params)
        fda = np.zeros(m)
        for j in range(m):
            h = 1e-5 * alpha[j]
            ap, am = alpha.copy(), alpha.copy()
            ap[j] += h
            am[j] -= h
            fda[j] = (loss_l2(w, priors, x.with_flow_rates(ap), meas, params)
                      - loss_l2(w, priors, x.with_flow_rates(am), meas, params)) / (2 * h)
        floor_a = 1e-3 * np.max(np.abs(fda))
        worst_a = max(worst_a, np.max(np.abs(ga - fda) / np.maximum(np.abs(fda), floor_a)))
    elapsed = time.perf_counter() - t0
    assert worst_w < 1e-5 and worst_a < 1e-5
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: worst relative error weights {worst_w:.2e}, "
          f"flow rates {worst_a:.2e} over 100 points in {elapsed:.1f}s")


class CandidateRecorder:
    def __init__(self, fn):
        self.fn = fn
        self.candidates = []

    def __call__(self, x):
        self.candidates.append(x.copy())
        return self.fn(x)


def test_criterion_6_structural_invariants(reference_runs):
    """Softmax normalization, cold-sensor independence, 4n weight count,
    candidate feasibility, 48-sample augmentation, 3+k solver calls, and
    non-increasing best-MAE trace, under 5 fixed seeds."""
    from hallcal.surrogate import _cooling_coefficients

    for seed in SEEDS:
        run = reference_runs[seed]
        scenario, state = run["scenario"], run["state"]
        layout = scenario.layout
        priors = build_adjacency(layout)
        rng = np.random.default_rng(seed)

        coeff = _cooling_coefficients(priors.w_cs, rng.uniform(0, 1, layout.n_cracs))
        np.testing.assert_allclose(coeff.sum(axis=0), 1.0, atol=1e-9)

        w = init_weights(layout.n_sensors)
        cold = priors.hot_mask == 0.0
        x1 = state.to_input(rng.uniform(0.05, 2.0, layout.n_servers))
        x2 = SystemInput(x1.crac_setpoints, x1.crac_fan_speeds,
                         rng.uniform(0, 500, layout.n_servers),
                         rng.uniform(0.05, 2.0, layout.n_servers))
        assert np.array_equal(forward(w, priors, x1)[cold], forward(w, priors, x2)[cold])

        assert w.n_trainable == 4 * layout.n_sensors

        params = PenaltyParams()
        meas = run["measurements"]
        objective = CandidateRecorder(
            lambda a: loss_l2(w, priors, state.to_input(a), meas, params))
        gradient = lambda a: grad_alpha(w, priors, state.to_input(a), meas, params)
        x0 = np.full(layout.n_servers, BOUNDS.midpoint)
        hybrid_search(objective, gradient, BOUNDS, DeConfig(max_iterations=10),
                      AdamConfig(steps=20), x0, seed=seed)
        es_objective = CandidateRecorder(
            lambda a: loss_l2(w, priors, state.to_input(a), meas, params))
        cmaes_1p1(es_objective, BOUNDS, 50, x0, seed=seed)
        for c in objective.candidates + es_objective.candidates:
            assert BOUNDS.contains(c)

        solver = ZonalSolver(scenario)
        raw = init_samples(BOUNDS, state, solver, layout.n_servers)
        scales = default_augment_scales(layout)
        assert len(augment(raw, 16, scales, seed=seed, bounds=BOUNDS)) == 48

        result = run["result"]
        assert result.n_solver_calls == 3 + len(result.traces)
        vals = [t.validation_mae for t in result.traces]
        running = np.minimum.accumulate(vals)
        assert all(b2 <= b1 for b1, b2 in zip(running, running[1:]))
        assert result.best_mae == pytest.approx(min(vals))
        assert BOUNDS.contains(result.alpha_star)
    print("\nPASS criterion 6: structural invariants hold under 5 fixed seeds")


def test_criterion_7_oracle_recovery():
    """Noise-free identifiable scenario: calibrated flow rates within 10%
    of the hidden truth element-wise after 15 iterations."""
    scenario, state = make_identifiable_scenario(seed=0)
    priors = build_adjacency(scenario.layout, cut_threshold=0.1)
    solver = ZonalSolver(scenario)
    measurements = synthesize_measurements(scenario, state)
    cfg = CalibConfig(seed=0, max_iterations=15)
    model = KnowledgeSurrogateModel(priors, cfg.penalty)
    result = calibrate(solver, model, measurements, state, scenario.layout, cfg)
    rel = np.abs(result.alpha_star - scenario.alpha_true) / scenario.alpha_true
    assert np.all(rel <= 0.10), f"relative errors {rel}"
    print(f"\nPASS criterion 7: flow rates recovered within "
          f"{100 * rel.max():.1f}% element-wise (limit 10%)")


def test_criterion_8_external_solver_bridge(tmp_path):
    """Echo harness round-trips exactly; CommandFailed, ParseError, and
    Timeout paths all surface as their named errors."""
    import sys
    from pathlib import Path

    from hallcal.solver import ExternalSolverSpec, external_solve

    echo = Path(__file__).parents[1] / "scripts" / "echo_solver.py"
    alpha = np.array([0.17, 0.23, 0.31, 2.05])
    x = SystemInput(np.array([20.0]), np.array([0.8]), np.full(4, 150.0), alpha)
    spec = ExternalSolverSpec(command=(sys.executable, str(echo)), workdir=tmp_path / "w1")
    out = external_solve(spec, x, ["s1", "s2", "s3", "s4"])
    assert np.array_equal(out, alpha)

    with pytest.raises(CommandFailedError):
        external_solve(ExternalSolverSpec(command=(sys.executable, "-c", "raise SystemExit(9)"),
                                          workdir=tmp_path / "w2"), x, ["s1"])
    with pytest.raises(ParseError):
        external_solve(ExternalSolverSpec(command=(sys.executable, "-c", "pass"),
                                          workdir=tmp_path / "w3"), x, ["s1"])
    with pytest.raises(SolverTimeoutError):
        external_solve(ExternalSolverSpec(command=(sys.executable, "-c", "import time; time.sleep(5)"),
                                          workdir=tmp_path / "w4", timeout_s=0.5), x, ["s1"])
    print("\nPASS criterion 8: external bridge round-trips exactly; "
          "CommandFailed, ParseError, and Timeout paths covered")
