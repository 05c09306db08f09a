"""Checks of the benchmark itself, at reduced size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload):
    """The same workload at a size that runs in seconds, one case per run."""
    op = workload.op
    if isinstance(op, bench.StudyOp):
        op = replace(op, pool_size=20, fractions=(0.25, 0.5))
    else:
        op = replace(op, iters=7 if op.external else 2)
    return replace(workload, op=op, seeds_per_run=1)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace, tmp_path, capsys):
    workload = smoke(bench.WORKLOADS[name])
    run = bench.run_workload(workload, seed=3, seconds=0, trace=trace, work=tmp_path)
    result = bench.report(workload, run, trace, tmp_path)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric, spec in zip(result["metrics"].values(), expected):
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("name", ["calib-knowledge", "bridge-heuristic"])
def test_same_seed_reruns_are_byte_identical(name, tmp_path):
    workload = smoke(bench.WORKLOADS[name])
    case = tmp_path / "case"
    bench.setup_case(case, 5)
    bench.child_solver.write_geometry(json.loads((case / "layout.json").read_text()),
                                      case / bench.GEOMETRY)
    outs = [tmp_path / "first", tmp_path / "second"]
    handler = signal.getsignal(signal.SIGALRM)
    for out in outs:
        record = bench.run_op(workload, case, 5, out)
        assert record.problems == []
        assert record.ref_s > 0 and 0 <= record.sampled_s < 0.05 * record.wall_s
    # the speed sampler leaves no timer or handler behind
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    for file in ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv"):
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file


def test_checks_catch_bad_outputs(tmp_path):
    workload = smoke(bench.WORKLOADS["calib-knowledge"])
    case, out = tmp_path / "case", tmp_path / "out"
    bench.setup_case(case, 0)
    assert bench.run_op(workload, case, 0, out).problems == []

    report = json.loads((out / "report.json").read_text())
    report["result"]["n_solver_calls"] += 1
    report["result"]["best_mae_c"] /= 2
    (out / "report.json").write_text(json.dumps(report))
    alpha = (out / "alpha_star.csv").read_text().splitlines()
    alpha[1] = alpha[1].split(",")[0] + ",3.5"
    (out / "alpha_star.csv").write_text("\n".join(alpha) + "\n")
    problems = workload.op.check(case, out)
    assert len(problems) == 3, problems


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calib-knowledge",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
