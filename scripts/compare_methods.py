#!/usr/bin/env python3
"""Compare the three calibration methods on the reference hall at an equal
solver-call budget: knowledge surrogate, vanilla MLP surrogate, and the
(1+1)-ES heuristic that pays one solver call per candidate. Each method runs
through `hallcal calibrate`'s own path with default settings."""

import argparse

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
    # an option left off is not passed, so CalibConfig's default applies
    parser = _Parser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--iters", dest="max_iterations", metavar="ITERS", type=_count)
    overrides = vars(parser.parse_args(argv))

    scenario, state = make_reference_scenario(seed=overrides["seed"])
    measurements = synthesize_measurements(scenario, state)
    cfg = load_settings(None, **overrides)

    print(f"{'method':<12} {'best MAE (degC)':>16} {'solver calls':>13}")
    for method in (METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC):
        result = run_calibration(method, ZonalSolver(scenario), measurements, state,
                                 scenario.layout, cfg)
        print(f"{method:<12} {result.best_mae:>16.4f} {result.n_solver_calls:>13}")


if __name__ == "__main__":
    main()
