#!/usr/bin/env python3
"""Compare the three calibration methods on the reference hall at an equal
solver-call budget: knowledge surrogate, vanilla MLP surrogate, and the
(1+1)-ES heuristic that pays one solver call per candidate. Each method runs
through `hallcal calibrate`'s own path with default settings. The hall-size
options are `hallcal generate`'s and default to the reference hall."""

import sys

from hallcal.cli import (
    METHOD_HEURISTIC,
    METHOD_KALIBRE,
    METHOD_VANILLA,
    exit_code,
    load_settings,
    parse_script_options,
    run_calibration,
)
from hallcal.scenarios import make_reference_scenario
from hallcal.solver import ZonalSolver, synthesize_measurements


def main(argv=None):
    options = parse_script_options(__doc__, {
        "calibrate": ("--seed", "--iters"),
        "generate": ("--cracs", "--servers", "--sensors-cold", "--sensors-hot")}, argv)
    cfg = load_settings(None, **options["calibrate"])
    scenario, state = make_reference_scenario(cfg.seed, **options["generate"])
    measurements = synthesize_measurements(scenario, state)

    print(f"{'method':<12} {'best MAE (degC)':>16} {'solver calls':>13}")
    for method in (METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC):
        result = run_calibration(method, ZonalSolver(scenario), measurements, state,
                                 scenario.layout, cfg)
        print(f"{method:<12} {result.best_mae:>16.4f} {result.n_solver_calls:>13}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
