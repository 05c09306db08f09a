"""The run contract in fresh processes: one table of command-line cases.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q tests/contract.py

Each case runs `python -m hallcal ARGS`, or a script under scripts/, in a
new interpreter with src on PYTHONPATH and every RuntimeWarning an error,
and checks its exit code, its output files and, where given, its stderr.
A case that compares files with no other case runs under PYTHONHASHSEED 1
and 2, so a same-seed rerun must write the same bytes whatever the hash
seed. The file name keeps the table out of the default test run;
test_contract.py runs a few of its cases there.
"""

from __future__ import annotations

import filecmp
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import ChainMap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]

REPORT = ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv")
PARTIAL = ("report.json", "traces.csv", "alpha_star.csv")  # an abort before any validated solve
STUDY = ("study.json", "study.csv")
INPUTS = {"layout": "layout.json", "scenario": "scenario.json", "state": "state.json",
          "measurements": "measurements.csv"}
GENERATED = tuple(INPUTS.values())
# a study with one BLAS thread forks its workers; from Python 3.12 os.fork warns when the
# process runs other threads, and that warning is an error here
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "PYTHONWARNINGS": "error::DeprecationWarning"}

# `hallcal generate` options of the halls the cases run on
HALLS = {
    "case": "--seed 7",
    # 16 hot sensors: each search's least-squares projection has rank 16, not 8
    "wide": "--servers 256 --sensors-cold 32 --sensors-hot 16 --cracs 8 --seed 7",
    # an uncontained hall takes the zonal solver's linear-system branch
    "open": "--seed 7 --no-containment",
}
CONFIGS = {
    "cut-all": {"cut_threshold": 1e9},  # cuts every prior before any solve
    "old-de": {"de": {}},  # the DE budget is a constant, so `de` is an unknown field
    "use-de-false": {"use_de": False},
    "use-de-true": {"use_de": True},
}


def inputs(hall: str, measurements: bool = True) -> str:
    """The input-file options of a command run on the generated `hall`."""
    kinds = list(INPUTS)[:3 + measurements]
    return " ".join(f"--{kind} {{{hall}}}/{INPUTS[kind]}" for kind in kinds)


@dataclass(frozen=True)
class Case:
    """One command and what its runs must show.

    `argv` follows `python -m hallcal`, or starts with a script's path under
    the repository. Each `{key}` in it and in `blocked` and `makes` is filled
    in per run: `out` is the run's own directory, a hall's name its generated
    directory, `tmp` the table's directory; `stderr` may name `out`.

    A case with `same` files and no `like` runs under PYTHONHASHSEED 1 and
    2, into `<out>-1` and `<out>-2`, and the files must be equal across the
    two; with `like`, it runs once and the files must equal those of
    `like`'s first run. `reuse` runs it under both hash seeds into one
    directory. A run that fails prints nothing on stdout, and one that
    exits 2 makes no `out` that was not there.
    """

    argv: str
    same: tuple[str, ...] = ()
    like: Optional[str] = None
    reuse: bool = False
    code: int = 0
    stderr: Optional[str] = None  # a pattern the whole of stderr matches
    env: dict = field(default_factory=dict)
    one_cpu: bool = False  # pinned to one CPU, as `taskset` does
    blocked: tuple[str, ...] = ()  # paths made as directories first, so no file goes there
    makes: tuple[str, ...] = ()  # files each run must leave


FAILING_SOLVER = "--solver external --external-command {exit4} --workdir {tmp}/abort-work"

CASES = {
    # the experiment scripts
    "script-reference": Case("scripts/run_reference_calibration.py --iters 2"),
    "script-compare": Case("scripts/compare_methods.py --iters 2"),
    "script-compare-small-hall": Case("scripts/compare_methods.py --iters 2 --cracs 2 "
                                      "--servers 20 --sensors-cold 5 --sensors-hot 3"),
    "script-study": Case("scripts/run_datavolume_study.py --pool-size 20 --fractions 0.5",
                         env=ONE_BLAS_THREAD),
    # a toolkit error ends a script as it ends hallcal: exit 2 and one line
    "script-repeated-fraction": Case(
        "scripts/run_datavolume_study.py --pool-size 20 --fractions 0.5,0.5",
        code=2, stderr=r"error: fraction 0\.5 is repeated\n"),

    # every parser builds: a wrong dest or default shows only when it is built and run
    "help": Case("--help"),
    **{f"help-{command}": Case(f"{command} --help")
       for command in ("generate", "solve", "calibrate", "study-datavolume")},
    **{f"help-{script}": Case(f"scripts/{script}.py --help")
       for script in ("run_reference_calibration", "compare_methods", "run_datavolume_study")},
    # a command reads its line with its own parser; an argument it does not know, after
    # a line that parses, is reported by the full parser under the top-level usage line
    "unknown-argument": Case("calibrate --layout l --scenario s --state t --measurements m "
                             "--out-dir o --bogus",
                             code=1, stderr=r"usage: hallcal \[-h\] \{{generate,.*"),
    "no-command": Case("", code=1),
    # generate's defaults are the documented ones
    "generate-defaults": Case("generate --out-dir {out}"),
    "generate-spelt-out": Case("generate --out-dir {out} --seed 0 --cracs 4 --servers 64 "
                               "--sensors-cold 16 --sensors-hot 8 --noise-sd 0.1 "
                               "--recirculation 0.05",
                               same=GENERATED, like="generate-defaults"),

    # an empty or repeated study fraction, a threshold that cuts every prior, an old
    # config's block and an input path that is not a file each exit 2 before any solve
    "empty-fraction": Case(f"study-datavolume {inputs('case', False)} --pool-size 200 "
                           "--fractions 0.5,0.001 --out-dir {out}", code=2),
    "repeated-fraction": Case(f"study-datavolume {inputs('case', False)} --pool-size 20 "
                              "--fractions 0.5,0.5 --out-dir {out}", code=2),
    "cut-all": Case(f"calibrate {inputs('case')} --config {{tmp}}/cut-all.json --out-dir {{out}}",
                    code=2),
    "old-de": Case(f"calibrate {inputs('case')} --config {{tmp}}/old-de.json --out-dir {{out}}",
                   code=2),
    "dir-measurements": Case(f"calibrate {inputs('case', False)} --measurements {{case}} "
                             "--out-dir {out}", code=2),
    # an output file that cannot be written exits 2 and names it, with no traceback
    "blocked": Case("generate --out-dir {out}", code=2, blocked=("{out}/layout.json",),
                    stderr=r"error: cannot write {out}/layout\.json: Is a directory\n"),
    # a server rated 0 W and drawing 0 W is idle: kalibre runs on it
    "zero-rated": Case(f"calibrate {inputs('zero')} --iters 15 --seed 7 --out-dir {{out}}"),

    # kalibre runs all 15 iterations, so every fit folds a new solve into its running sums
    **{method: Case(f"calibrate {inputs('case')} --method {method} --iters {iters} --seed 7 "
                    "--out-dir {out}", same=REPORT)
       for method, iters in (("kalibre", 15), ("vanilla", 2), ("heuristic", 2))},
    # a run into a used --out-dir overwrites each file
    "reused": Case(f"calibrate {inputs('case')} --method kalibre --iters 15 --seed 7 "
                   "--out-dir {out}", same=REPORT, like="kalibre", reuse=True),
    # kalibre forced onto Adam alone and onto DE+Adam: the two paths of adam_search
    **{f"use-de-{use_de}": Case(f"calibrate {inputs('case')} --method kalibre "
                                f"--config {{tmp}}/use-de-{use_de}.json --iters 2 --seed 7 "
                                "--out-dir {out}", same=REPORT)
       for use_de in ("false", "true")},
    # a solver that exits 4 aborts kalibre while seeding and the heuristic at its first
    # solve: each exits 3 and writes a partial run directory with no sensors.csv
    **{f"abort-{method}": Case(f"calibrate {inputs('case')} --method {method} --iters 2 "
                               f"--seed 7 {FAILING_SOLVER} --out-dir {{out}}",
                               same=PARTIAL, code=3)
       for method in ("kalibre", "heuristic")},
    # a command that cannot start aborts kalibre while seeding in the same way
    "abort-no-command": Case(f"calibrate {inputs('case')} --method kalibre --iters 2 --seed 7 "
                             "--solver external --external-command no-such-solver-binary "
                             "--workdir {tmp}/no-command-work --out-dir {out}",
                             same=PARTIAL, code=3),
    # the bridge's success path, through the benchmark's numpy-free child solver: a
    # bound run writes its state.json sidecar once, and every solve reads it
    **{f"bridge-{method}": Case(f"calibrate {inputs('case')} --method {method} --iters 5 "
                                f"--seed 7 --solver external --external-command {{child}} "
                                f"--workdir {{tmp}}/bridge-work-{method} --out-dir {{out}}",
                                same=REPORT, makes=(f"{{tmp}}/bridge-work-{method}/state.json",))
       for method in ("heuristic", "kalibre")},
    # an abort whose partial report.json cannot be written still exits 3
    "abort-blocked": Case(f"calibrate {inputs('case')} --method kalibre --iters 2 --seed 7 "
                          f"{FAILING_SOLVER} --out-dir {{out}}",
                          same=("traces.csv", "alpha_star.csv"), code=3,
                          blocked=("{out}/report.json",)),
    # a solver output that is not UTF-8 aborts kalibre while seeding in the same way
    "abort-undecodable": Case(f"calibrate {inputs('case')} --method kalibre --iters 2 --seed 7 "
                              "--solver external --external-command {undecodable} "
                              "--workdir {tmp}/undecodable-work --out-dir {out}",
                              same=PARTIAL, code=3),
    # each search's least-squares projection on the 256-server hall (after FISTA steps
    # in iteration 1, at the warm start after that) has rank 16
    "wide": Case(f"calibrate {inputs('wide')} --method kalibre --iters 15 --seed 7 "
                 "--out-dir {out}", same=REPORT),
    # each trainable-adjacency fit computes the dense 8-CRAC softmax over 48 sensors once
    # per epoch; on every CPU, twice, and on one CPU, the study writes the same files
    "wide-study": Case(f"study-datavolume {inputs('wide', False)} --pool-size 40 "
                       "--fractions 0.25,0.5 --seed 7 --out-dir {out}",
                       same=STUDY, env=ONE_BLAS_THREAD),
    "wide-study-one-cpu": Case(f"study-datavolume {inputs('wide', False)} --pool-size 40 "
                               "--fractions 0.25,0.5 --seed 7 --out-dir {out}",
                               same=STUDY, like="wide-study", env=ONE_BLAS_THREAD, one_cpu=True),
    # the benchmark's study shape: float32 MLP fits on 8, 24, 48 and 80 samples, with one
    # BLAS thread as the benchmark runs it (OpenBLAS's thread count changes the MLP's
    # last digits), so the cells are fitted on every CPU; on one CPU it forks no worker
    "study": Case(f"study-datavolume {inputs('case', False)} --pool-size 200 "
                  "--fractions 0.05,0.15,0.30,0.50 --seed 7 --out-dir {out}",
                  same=STUDY, env=ONE_BLAS_THREAD),
    "study-one-cpu": Case(f"study-datavolume {inputs('case', False)} --pool-size 200 "
                          "--fractions 0.05,0.15,0.30,0.50 --seed 7 --out-dir {out}",
                          same=STUDY, like="study", env=ONE_BLAS_THREAD, one_cpu=True),
    # vanilla runs the MLP, whose first layer reads only the flow rates, on the open hall
    **{f"open-{method}": Case(f"calibrate {inputs('open')} --method {method} --iters {iters} "
                              "--seed 7 --out-dir {out}", same=REPORT)
       for method, iters in (("kalibre", 15), ("vanilla", 2))},
    "open-solve": Case(f"solve {inputs('open', False)} --out {{out}}/temps.csv",
                       same=("temps.csv",)),
}


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Runs(dict):
    """What a case's `{key}`s stand for, each made on first use, and the
    run directories of the cases checked so far."""

    def __init__(self, tmp: Path):
        python = shlex.quote(sys.executable)
        super().__init__(tmp=str(tmp), exit4=f"{python} -c 'import sys; sys.exit(4)'",
                         undecodable=f"{python} -c 'import sys; open(sys.argv[1] + "
                                     "\"/sensor_output.txt\", \"wb\").write(bytes([255]))'")
        self.tmp, self.checked = tmp, {}
        for name, doc in CONFIGS.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc))

    def __missing__(self, key: str) -> str:
        path = self.tmp / key
        if key in HALLS:
            proc = self.run(["generate", "--out-dir", str(path), *HALLS[key].split()])
            assert proc.returncode == 0, proc.stderr
            value = str(path)
        elif key == "zero":  # the `case` hall with server 5 rated 0 W and drawing 0 W
            shutil.copytree(self["case"], path)
            layout, state = (json.loads((path / f"{name}.json").read_text())
                             for name in ("layout", "state"))
            layout["servers"][5]["rated_power"] = state["server_powers"][5] = 0.0
            for name, doc in (("layout", layout), ("state", state)):
                (path / f"{name}.json").write_text(json.dumps(doc))
            value = str(path)
        elif key == "child":  # the benchmark's child solver on the `case` hall's geometry
            spec = importlib.util.spec_from_file_location("child_solver",
                                                          ROOT / "perfbench" / "child_solver.py")
            child = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(child)
            child.write_geometry(json.loads((Path(self["case"]) / "layout.json").read_text()),
                                 path)
            value = shlex.join([sys.executable, "-S", "-E", spec.origin, str(path)])
        else:
            raise KeyError(key)
        self[key] = value
        return value

    def run(self, argv: list[str], hash_seed: Optional[int] = None, env: Optional[dict] = None,
            one_cpu: bool = False) -> subprocess.CompletedProcess:
        """`python -m hallcal argv`, or the script argv[0] with its options, in a
        fresh process."""
        if argv and argv[0].endswith(".py"):
            command = [str(ROOT / argv[0]), *argv[1:]]
        else:
            command = ["-m", "hallcal", *argv]
        env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = str(hash_seed)
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *command],
                              env=env, cwd=self.tmp, capture_output=True, text=True, timeout=600,
                              preexec_fn=_pin_to_one_cpu if one_cpu else None)

    def check(self, name: str) -> list[Path]:
        """Run the case `name` and check what it shows; its run directories."""
        if name in self.checked:
            return self.checked[name]
        case = CASES[name]
        twice = bool(case.same) and case.like is None or case.reuse
        outs = []
        for hash_seed in (1, 2) if twice else (None,):
            out = self.tmp / (f"{name}-{hash_seed}" if twice and not case.reuse else name)
            fill = ChainMap({"out": str(out)}, self)
            for path in case.blocked:
                Path(path.format_map(fill)).mkdir(parents=True)
            existed = out.exists()
            proc = self.run([token.format_map(fill) for token in shlex.split(case.argv)],
                            hash_seed, case.env, case.one_cpu)
            assert proc.returncode == case.code, proc.stderr
            if case.stderr is not None:
                pattern = case.stderr.format(out=re.escape(str(out)))
                assert re.fullmatch(pattern, proc.stderr, re.S), proc.stderr
            assert case.code == 0 or proc.stdout == ""
            assert case.code != 2 or existed or not out.exists()
            for path in case.makes:
                assert Path(path.format_map(fill)).is_file(), path
            outs.append(out)
        first = self.check(case.like)[0] if case.like else outs[0]
        for file in case.same:
            assert filecmp.cmp(first / file, outs[-1] / file, shallow=False), file
        self.checked[name] = outs
        return outs


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> Runs:
    return Runs(tmp_path_factory.mktemp("contract"))


@pytest.mark.parametrize("name", CASES)
def test_case(name, runs):
    runs.check(name)
