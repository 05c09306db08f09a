#!/usr/bin/env python3
"""Compare the three calibration methods on the reference hall at an equal
solver-call budget: knowledge surrogate, vanilla MLP surrogate, and the
(1+1)-ES heuristic that pays one solver call per candidate. Each method runs
through `hallcal calibrate`'s own path with default settings. The hall-size
options are `hallcal generate`'s and default to the reference hall."""

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

# `hallcal generate`'s hall-size options and make_reference_scenario's keywords
HALL_OPTIONS = (("--cracs", "n_cracs"), ("--servers", "n_servers"),
                ("--sensors-cold", "n_cold"), ("--sensors-hot", "n_hot"))


def main(argv=None):
    # an option left off is not passed, so CalibConfig's default applies
    parser = _Parser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--iters", dest="max_iterations", metavar="ITERS", type=_count)
    for flag, dest in HALL_OPTIONS:
        parser.add_argument(flag, dest=dest, type=_count)
    overrides = vars(parser.parse_args(argv))
    hall = {dest: overrides.pop(dest) for _, dest in HALL_OPTIONS if dest in overrides}

    scenario, state = make_reference_scenario(seed=overrides["seed"], **hall)
    measurements = synthesize_measurements(scenario, state)
    cfg = load_settings(None, **overrides)

    print(f"{'method':<12} {'best MAE (degC)':>16} {'solver calls':>13}")
    for method in (METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC):
        result = run_calibration(method, ZonalSolver(scenario), measurements, state,
                                 scenario.layout, cfg)
        print(f"{method:<12} {result.best_mae:>16.4f} {result.n_solver_calls:>13}")


if __name__ == "__main__":
    main()
