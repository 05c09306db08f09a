"""Workloads, output checks and metrics of the hallcal benchmark.

One op is one in-process `hallcal.cli.main(argv)` call, the same path the
`hallcal` console script takes: argument parsing, file loading, the
calibration loop or the study, and the report writers. Ops run one at a
time in this process. See README.md for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import marshal
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import child_solver
from hallcal import cli
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ALPHA_BOUNDS = (0.01, 3.0)  # the CLI's default search box
TARGET_MAE_C = 0.1  # accuracy of "time to a solution of stated accuracy"
HARD_STOP_S = 120.0  # start no op after this, whatever the run still lacks
GEOMETRY = "child_geometry.bin"  # the bridge child's digest of layout.json

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hallcal import cli
code = cli.main(["generate", "--out-dir", sys.argv[2], "--seed", sys.argv[3]])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _case_files(case: Path) -> list[str]:
    return ["--layout", str(case / "layout.json"), "--scenario", str(case / "scenario.json"),
            "--state", str(case / "state.json")]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class CalibrateOp:
    """`hallcal calibrate` on a generated case; k iterations cost 3 + k solves
    (for the heuristic, --iters k sets an ES budget of 3 + k solves)."""

    method: str
    iters: int
    external: bool = False
    outputs: tuple = ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv")

    @property
    def budget(self) -> int:
        return 3 + self.iters

    def argv(self, case: Path, seed: int, out: Path) -> list[str]:
        argv = ["calibrate", *_case_files(case), "--measurements", str(case / "measurements.csv"),
                "--method", self.method, "--iters", str(self.iters), "--seed", str(seed),
                "--out-dir", str(out)]
        if self.external:
            command = [sys.executable, "-S", "-E", str(HERE / "child_solver.py"),
                       str(case / GEOMETRY)]
            if any(c.split() != [c] for c in command):
                raise RuntimeError(f"the bridge splits its command on spaces: {command}")
            argv += ["--solver", "external", "--external-command", " ".join(command),
                     "--workdir", str(out / "bridge")]
        else:
            argv += ["--solver", "zonal"]
        return argv

    def check(self, case: Path, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text())["result"]
        problems = []
        if report["n_solver_calls"] != self.budget:
            problems.append(f"n_solver_calls {report['n_solver_calls']} != {self.budget}")
        best = report["best_mae_c"]
        validation = [float(r["validation_mae_c"]) for r in _read_csv(out / "traces.csv")]
        if not math.isfinite(best) or best != min(validation):
            problems.append(f"best_mae_c {best} != min validation_mae_c {min(validation)}")
        alpha = {r["server_id"]: float(r["alpha_cfm_per_w"])
                 for r in _read_csv(out / "alpha_star.csv")}
        if not all(ALPHA_BOUNDS[0] <= a <= ALPHA_BOUNDS[1] for a in alpha.values()):
            problems.append("alpha_star outside the bounds")
        if self.external:
            with open(case / GEOMETRY, "rb") as fh:
                geometry = marshal.load(fh)
            expected = child_solver.solve(geometry, json.loads((case / "state.json").read_text()),
                                          alpha)
            got = {r["sensor_id"]: float(r["predicted_c"]) for r in _read_csv(out / "sensors.csv")}
            if got != dict(expected):
                problems.append("sensors.csv differs from the child solver at alpha_star")
        return problems

    def quality(self, out: Path) -> dict[str, float]:
        rows = _read_csv(out / "traces.csv")
        reached = [int(r["solver_calls"]) for r in rows
                   if float(r["validation_mae_c"]) <= TARGET_MAE_C]
        return {"mae_c": json.loads((out / "report.json").read_text())["result"]["best_mae_c"],
                "solves_to_target": min(reached, default=self.budget + 1)}


@dataclass(frozen=True)
class StudyOp:
    """`hallcal study-datavolume`: three surrogates at every fraction."""

    pool_size: int
    fractions: tuple
    outputs: tuple = ("study.json", "study.csv")

    def argv(self, case: Path, seed: int, out: Path) -> list[str]:
        return ["study-datavolume", *_case_files(case), "--pool-size", str(self.pool_size),
                "--fractions", ",".join(str(f) for f in self.fractions), "--seed", str(seed),
                "--out-dir", str(out)]

    def check(self, case: Path, out: Path) -> list[str]:
        cells = json.loads((out / "study.json").read_text())["cells"]
        problems = []
        if len(cells) != 3 * len(self.fractions):
            problems.append(f"{len(cells)} study cells, expected {3 * len(self.fractions)}")
        if not all(math.isfinite(c["test_mae_c"]) for c in cells):
            problems.append("non-finite study cell")
        return problems

    def quality(self, out: Path) -> dict[str, float]:
        cells = json.loads((out / "study.json").read_text())["cells"]
        reached = [c["n_train"] for c in cells if c["test_mae_c"] <= TARGET_MAE_C]
        quality = {
            "mae_c": statistics.fmean(c["test_mae_c"] for c in cells),
            "solves_to_target": min(reached, default=round(0.8 * self.pool_size) + 1),
        }
        for name in ("knowledge-fixed", "knowledge-trainable", "vanilla"):
            key = "study.test_mae_c." + name.replace("-", "_")
            quality[key] = statistics.fmean(c["test_mae_c"] for c in cells if c["surrogate"] == name)
        return quality


@dataclass(frozen=True)
class Workload:
    name: str
    op: CalibrateOp | StudyOp
    seeds_per_run: int  # distinct cases per run; quality metrics average over them


WORKLOADS = {w.name: w for w in (
    Workload("calib-knowledge", CalibrateOp("kalibre", iters=15), seeds_per_run=6),
    Workload("study-datavolume", StudyOp(200, (0.05, 0.15, 0.30, 0.50)), seeds_per_run=6),
    Workload("bridge-heuristic", CalibrateOp("heuristic", iters=97, external=True),
             seeds_per_run=24),
    Workload("calib-vanilla", CalibrateOp("vanilla", iters=15), seeds_per_run=2),
)}


# -- running ops ----------------------------------------------------------------


class SpeedSampler:
    """Samples the host's speed while an op runs.

    Every PERIOD_S of wall time, SIGALRM runs a fixed piece of work of about
    0.1 ms, small numpy calls driven from a Python loop like an op's, and
    records how long it took. It uses no hallcal code, so a change to
    hallcal cannot move it. The host's speed moves by 20-50% for seconds to
    minutes at a time with load from other tenants, for the ops and for this
    work alike; an op's time over the mean sample taken during it
    (`reference_s`) removes most of that. The handler takes about 0.2% of an
    op's time, which is taken off before dividing.
    """

    PERIOD_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a, self._w = rng.random((24, 4)), rng.random(4)
        self.samples: list[float] = []

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        total = 0.0
        for i in range(40):
            total += float((self._a @ self._w)[0]) + 0.5 * i
        self.samples.append(time.perf_counter() - start)

    def reference_s(self) -> float:
        """Mean sample without the slowest 5%, which mostly caught the
        process descheduled rather than running slowly."""
        samples = sorted(self.samples)
        return statistics.fmean(samples[:len(samples) - len(samples) // 20])

    @contextlib.contextmanager
    def running(self):
        """Sample from entry to exit; one sample is always taken on entry."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    seed: int
    traced: bool
    timed: bool  # False for the run's first op, a warm-up
    wall_s: float
    ref_s: float = 0.0  # SpeedSampler.reference_s() of the op
    sampled_s: float = 0.0  # time the sampler's handler took out of wall_s
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def setup_case(case: Path, seed: int) -> float:
    """Cold `import hallcal.cli` plus `hallcal generate`, in a fresh
    interpreter; returns the seconds it took."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(case), str(seed)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"hallcal generate failed for seed {seed}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(workload: Workload, case: Path, seed: int, out: Path,
           tracer: Tracer | None = None, timed: bool = True) -> OpRecord:
    """One cli.main call, timed, with its outputs checked."""
    op = workload.op
    argv = op.argv(case, seed, out)
    record = OpRecord(seed=seed, traced=tracer is not None, timed=timed, wall_s=0.0)
    patched = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.start_op()
    sampler = SpeedSampler()
    with sampler.running():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), patched, root:
                code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
            record.problems.append("cli.main raised: " + traceback.format_exc(limit=3))
        record.wall_s = time.perf_counter() - start
    record.ref_s = sampler.reference_s()
    record.sampled_s = sum(sampler.samples[1:])
    if code != 0:
        record.problems.append(f"cli.main returned {code}")
        return record
    missing = [name for name in op.outputs if not (out / name).is_file()]
    if missing:
        record.problems.append(f"missing outputs {missing}")
        return record
    try:
        record.problems += op.check(case, out)
        record.quality = op.quality(out)
    except (ValueError, KeyError, TypeError):
        record.problems.append("unreadable outputs: " + traceback.format_exc(limit=2))
    return record


def _schedule(index: int, seeds: list[int], trace: bool) -> tuple[int, bool]:
    """Seed and tracing of op `index`. Op 0 is an untraced warm-up. Untraced
    runs cycle through the seeds; traced runs then make pairs of one
    untraced and one traced op on one seed, alternating which goes first so
    that drift cancels."""
    if not trace or index == 0:
        return seeds[index % len(seeds)], False
    pair = (index - 1) // 2
    return seeds[pair % len(seeds)], (index - 1) % 2 != pair % 2


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Run ops until `seconds` have passed and every case has run (every
    pair, when traced), setting up each case just before its first op.

    Set-ups are spread over the run, not bunched at its start, so that their
    median samples the host over the whole run, as the ops do. The first op
    is a warm-up: checked, but left out of the timings. On the reference
    machine it ran up to 30% slower than the ops after it.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = [1000 * seed + i for i in range(workload.seeds_per_run)]
    cases = {s: work / f"case-{s}" for s in seeds}
    setup: list[float] = []

    tracer = Tracer() if trace else None
    min_ops = 3 if trace else max(len(seeds), 2)
    records: list[OpRecord] = []
    first_bytes: dict[int, dict[str, bytes]] = {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in records) if records else 0.0
        whole = not trace or len(records) % 2 == 1  # warm-up plus whole pairs
        done = len(records) >= min_ops and whole and elapsed + typical > seconds
        if done or elapsed > HARD_STOP_S:
            break
        op_seed, traced = _schedule(len(records), seeds, trace)
        case = cases[op_seed]
        if not case.exists():
            setup.append(setup_case(case, op_seed))
            child_solver.write_geometry(json.loads((case / "layout.json").read_text()),
                                        case / GEOMETRY)
        out = work / f"op-{len(records)}"
        record = run_op(workload, case, op_seed, out, tracer if traced else None,
                        timed=bool(records))
        if not record.problems:
            files = {name: (out / name).read_bytes() for name in workload.op.outputs}
            expected = first_bytes.setdefault(op_seed, files)
            changed = [name for name in files if files[name] != expected[name]]
            if changed:
                record.problems.append(f"same-seed rerun differs in {changed}")
        records.append(record)
        shutil.rmtree(out, ignore_errors=True)

    if tracer:
        tracer.write_spans(work / "spans.csv")
    return {"setup": setup, "records": records, "tracer": tracer, "seeds": seeds}


# -- metrics ----------------------------------------------------------------------


def _case_mean(records: list[OpRecord], key: str) -> float:
    """Mean of a quality value over the distinct cases among `records`."""
    per_case = {r.seed: r.quality[key] for r in records if key in r.quality}
    return statistics.fmean(per_case.values()) if per_case else 0.0


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    records = [r for r in run["records"] if not r.problems]
    timed = [r for r in records if r.timed]
    return {
        "wall_ref": (statistics.median((r.wall_s - r.sampled_s) / r.ref_s for r in timed)
                     if timed else 0.0, "ref"),
        "setup_s": (statistics.median(run["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "mae_c": (_case_mean(records, "mae_c"), "degC"),
        "solves_to_target": (_case_mean(records, "solves_to_target"), "calls"),
    }


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    records = [r for r in run["records"] if not r.problems]
    traced = [r.wall_s for r in records if r.traced]
    plain = [r.wall_s for r in records if r.timed and not r.traced]
    metrics = run["tracer"].layer_metrics(max(len(traced), 1))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if traced and plain else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name in ("knowledge_fixed", "knowledge_trainable", "vanilla"):
        key = "study.test_mae_c." + name
        metrics[key] = (_case_mean(records, key), "degC")
    return metrics


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine_settings_changed": False,
        "not_measured": [
            "cold-cache file reads: the page cache is never dropped, so fileio times are warm-cache",
            "quiet-machine timings: no CPU pinning, isolation or frequency control is applied, "
            "so other load on the host shows in the op wall time and setup_s; wall_ref divides "
            "most of it out with the SpeedSampler",
        ],
    }


def report(workload: Workload, run: dict, trace: bool, work: Path) -> dict:
    """Print the human-readable summary and return the result object."""
    records = run["records"]
    failed = sum(1 for r in records if r.problems)
    metrics = per_layer(run) if trace else end_to_end(run)
    facts = machine_facts()
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {workload.name}: {len(records)} ops, {len(run['seeds'])} cases set up, "
          f"{failed} failed, fail_frac {failed / max(len(records), 1):.3f}")
    for r in records:
        for problem in r.problems:
            print(f"# op seed {r.seed} failed: {problem}")
    if trace and run["tracer"].missing:
        print(f"# not traced, no longer in hallcal: {sorted(run['tracer'].missing)}")
    timed = [r for r in records if r.timed and not r.problems]
    if timed:
        print(f"# op wall time {statistics.median(r.wall_s for r in timed):.4f} s, reference "
              f"sample {statistics.median(r.ref_s for r in timed) * 1e6:.1f} us (medians of "
              f"{len(timed)} ops after a warm-up op)")
    samples = {"wall_ref": f"median over {len(timed)} ops after a warm-up op of the op's wall "
                           "time / the mean reference sample taken during it",
               "setup_s": f"median of {len(run['setup'])} set-ups",
               "mae_c": f"mean over {len(run['seeds'])} cases",
               "solves_to_target": f"mean over {len(run['seeds'])} cases"}
    for name, (value, unit) in metrics.items():
        note = "" if trace else f" (lower is better; {samples.get(name, 'one value per run')})"
        print(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0 and bool(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({
        **result, "workload": workload.name, "machine": facts, "setup_s": run["setup"],
        "ops": [vars(r) for r in records]}, indent=2, default=str) + "\n")
    return result
