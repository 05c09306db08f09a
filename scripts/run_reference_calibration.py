#!/usr/bin/env python3
"""Calibrate the reference hall with the knowledge surrogate and print the
per-iteration convergence trace. The run takes `hallcal calibrate`'s own
path with default settings."""

import sys

from hallcal.cli import (METHOD_KALIBRE, exit_code, load_settings, parse_script_options,
                         run_calibration)
from hallcal.scenarios import make_reference_scenario
from hallcal.solver import ZonalSolver, synthesize_measurements


def main(argv=None):
    options = parse_script_options(__doc__, {"calibrate": ("--seed", "--iters")}, argv)
    cfg = load_settings(None, **options["calibrate"])
    scenario, state = make_reference_scenario(cfg.seed)
    measurements = synthesize_measurements(scenario, state)
    result = run_calibration(METHOD_KALIBRE, ZonalSolver(scenario), measurements, state,
                             scenario.layout, cfg)

    print(f"{'iter':>4} {'val MAE':>9} {'evals':>6} {'final L2':>12} {'residual':>10} "
          f"{'solver calls':>12} {'dataset':>8}")
    for t in result.traces:
        print(f"{t.iteration:>4} {t.validation_mae:>9.4f} {t.search_evals:>6} {t.final_l2:>12.4g} "
              f"{t.search_residual:>10.2e} {t.solver_calls:>12} {t.dataset_size:>8}")
    print(f"\nbest MAE {result.best_mae:.4f} degC in {result.n_solver_calls} solver calls")


if __name__ == "__main__":
    sys.exit(exit_code(main))
