#!/usr/bin/env python3
"""Run one workload of the hallcal benchmark.

    python3 perfbench/run.py --workload calib-knowledge --seed 0 --seconds 30 --trace 0

Run from anywhere; the program under test is the hallcal source tree in
`src/` next to this directory. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Scratch files go to `.bench_work/` at the repository root.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: ops run one at a time, and on a 2-core machine two BLAS
# threads ran the MLP matmuls slower than one. Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hallcal" / "cli.py").is_file():
        print(f"error: no hallcal source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    work = bench.WORK / f"{workload.name}-s{args.seed}-t{args.trace}"
    run = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    result = bench.report(workload, run, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
