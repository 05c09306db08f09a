#!/usr/bin/env python3
"""Compare the three calibration methods on the reference hall at an equal
solver-call budget: knowledge surrogate, vanilla MLP surrogate, and the
(1+1)-ES heuristic that pays one solver call per candidate. Each method runs
through `hallcal calibrate`'s own path with default settings."""

from hallcal.cli import (
    METHOD_HEURISTIC,
    METHOD_KALIBRE,
    METHOD_VANILLA,
    _count,
    _Parser,
    _seed,
    load_settings,
    run_calibration,
)
from hallcal.scenarios import make_reference_scenario
from hallcal.solver import ZonalSolver, synthesize_measurements


def main(argv=None):
    parser = _Parser(description=__doc__)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--iters", type=_count)
    args = parser.parse_args(argv)

    scenario, state = make_reference_scenario(seed=args.seed)
    measurements = synthesize_measurements(scenario, state)
    settings = load_settings(None, iters=args.iters, seed=args.seed)

    print(f"{'method':<12} {'best MAE (degC)':>16} {'solver calls':>13}")
    for method in (METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC):
        result = run_calibration(method, ZonalSolver(scenario), measurements, state,
                                 scenario.layout, settings)
        print(f"{method:<12} {result.best_mae:>16.4f} {result.n_solver_calls:>13}")


if __name__ == "__main__":
    main()
