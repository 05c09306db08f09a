#!/usr/bin/env python3
"""Calibrate the reference hall with the knowledge surrogate and print the
per-iteration convergence trace. The run takes `hallcal calibrate`'s own
path with default settings."""

import argparse

from hallcal.cli import METHOD_KALIBRE, _count, _Parser, _seed, load_settings, run_calibration
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
    result = run_calibration(METHOD_KALIBRE, ZonalSolver(scenario), measurements, state,
                             scenario.layout, cfg)

    print(f"{'iter':>4} {'val MAE':>9} {'evals':>6} {'final L2':>12} {'residual':>10} "
          f"{'solver calls':>12} {'dataset':>8}")
    for t in result.traces:
        print(f"{t.iteration:>4} {t.validation_mae:>9.4f} {t.search_evals:>6} {t.final_l2:>12.4g} "
              f"{t.search_residual:>10.2e} {t.solver_calls:>12} {t.dataset_size:>8}")
    print(f"\nbest MAE {result.best_mae:.4f} degC "
          f"in {result.n_solver_calls} solver calls")


if __name__ == "__main__":
    main()
