#!/usr/bin/env python3
"""Train the three surrogate designs on growing fractions of a solver
sample pool and print the resulting test-MAE table."""

import sys

from hallcal.cli import exit_code, parse_script_options
from hallcal.scenarios import make_reference_scenario
from hallcal.study import run_datavolume_study


def main(argv=None):
    options = parse_script_options(__doc__, {
        "generate": ("--seed",),
        "study-datavolume": ("--seed", "--pool-size", "--fractions")}, argv)
    scenario, state = make_reference_scenario(**options["generate"])
    cells = run_datavolume_study(scenario, state, **options["study-datavolume"])

    surrogates = sorted({c.surrogate for c in cells})
    table = {(c.fraction, c.surrogate): c.test_mae for c in cells}
    print("fraction " + " ".join(f"{s:>20}" for s in surrogates))
    for fraction in [c.fraction for c in cells if c.surrogate == surrogates[0]]:
        cellstr = " ".join(f"{table[(fraction, s)]:>20.3f}" for s in surrogates)
        print(f"{fraction:>8.2f} {cellstr}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
