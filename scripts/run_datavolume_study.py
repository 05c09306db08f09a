#!/usr/bin/env python3
"""Train the three surrogate designs on growing fractions of a solver
sample pool and print the resulting test-MAE table."""

from hallcal.cli import _fractions, _Parser, _pool_size, _seed
from hallcal.scenarios import make_reference_scenario
from hallcal.study import run_datavolume_study


def main(argv=None):
    parser = _Parser(description=__doc__)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--pool-size", type=_pool_size, default=200)
    parser.add_argument("--fractions", type=_fractions, default="0.05,0.15,0.30,0.50")
    args = parser.parse_args(argv)

    scenario, state = make_reference_scenario(seed=args.seed)
    cells = run_datavolume_study(scenario, state, args.fractions, args.pool_size, args.seed)

    surrogates = sorted({c.surrogate for c in cells})
    table = {(c.fraction, c.surrogate): c.test_mae for c in cells}
    header = "fraction " + " ".join(f"{s:>20}" for s in surrogates)
    print(header)
    for fraction in args.fractions:
        cellstr = " ".join(f"{table[(fraction, s)]:>20.3f}" for s in surrogates)
        print(f"{fraction:>8.2f} {cellstr}")


if __name__ == "__main__":
    main()
