#!/usr/bin/env python3
"""Train the three surrogate designs on growing fractions of a solver
sample pool and print the resulting test-MAE table."""

import argparse

from hallcal.cli import _fractions, _Parser, _pool_size, _seed
from hallcal.scenarios import make_reference_scenario
from hallcal.study import run_datavolume_study


def main(argv=None):
    # an option left off is not passed, so run_datavolume_study's default applies
    parser = _Parser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--pool-size", type=_pool_size)
    parser.add_argument("--fractions", type=_fractions)
    shape = vars(parser.parse_args(argv))

    scenario, state = make_reference_scenario(seed=shape["seed"])
    cells = run_datavolume_study(scenario, state, **shape)

    surrogates = sorted({c.surrogate for c in cells})
    table = {(c.fraction, c.surrogate): c.test_mae for c in cells}
    header = "fraction " + " ".join(f"{s:>20}" for s in surrogates)
    print(header)
    for fraction in [c.fraction for c in cells if c.surrogate == surrogates[0]]:
        cellstr = " ".join(f"{table[(fraction, s)]:>20.3f}" for s in surrogates)
        print(f"{fraction:>8.2f} {cellstr}")


if __name__ == "__main__":
    main()
