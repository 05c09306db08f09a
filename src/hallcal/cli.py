"""Command-line front end: generate scenarios, run one-shot solves,
calibrate by any of the three methods, and run the data-volume study.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 solver
failure. A calibration run has one seed, the config's `seed` or --seed;
the DE and ES seeds derive from it.
"""

from __future__ import annotations

import argparse
import functools
import shlex
import shutil
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio
from .engine import (
    CalibConfig,
    CalibrationResult,
    IterationTrace,
    KnowledgeSurrogateModel,
    VanillaSurrogateModel,
    _RunRecord,
    calibrate,
)
from .errors import (
    CalibrationAbortedError,
    HallcalError,
    InvalidInputError,
    ParseError,
    OutputDirectoryError,
    UnknownMethodError,
)
from .hall import build_adjacency
from .mlp import MLP_TRAIN
from .optim import cmaes_1p1
from .scenarios import make_reference_scenario
from .solver import ExternalSolver, ExternalSolverSpec, ZonalSolver, synthesize_measurements
from .study import FRACTIONS, MIN_POOL_SIZE, POOL_SIZE, StudyCell, check_shape, run_datavolume_study

METHOD_KALIBRE = "kalibre"
METHOD_VANILLA = "vanilla"
METHOD_HEURISTIC = "heuristic"


def load_settings(config_path, **overrides) -> CalibConfig:
    """The config file's settings (defaults without one), with the fields
    in `overrides` (--iters and --seed) replaced."""
    doc = fileio._load_json(config_path) if config_path else {}
    return replace(fileio.from_json(CalibConfig, doc, config_path or "<defaults>"), **overrides)


# -- commands -----------------------------------------------------------------


def _make_out_dir(out_dir) -> Path:
    """Create a command's output directory; a path that cannot hold one fails
    before any solve."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirectoryError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def cmd_generate(out_dir, **hall) -> dict:
    """Write layout, scenario, state, and synthesized measurement files for
    make_reference_scenario(**hall), whose defaults give the reference hall.
    The measurements are synthesized first, so a noise level whose draws
    overflow fails before the directory is made."""
    scenario, state = make_reference_scenario(**hall)
    layout = scenario.layout
    measurements = synthesize_measurements(scenario, state)
    out = _make_out_dir(out_dir)
    paths = {
        "layout": out / "layout.json",
        "scenario": out / "scenario.json",
        "state": out / "state.json",
        "measurements": out / "measurements.csv",
    }
    fileio.save_layout(layout, paths["layout"])
    fileio.save_scenario(scenario, paths["scenario"])
    fileio.save_state(state, paths["state"])
    fileio.save_measurements([s.id for s in layout.sensors], measurements,
                             paths["measurements"])
    return {k: str(v) for k, v in paths.items()}


def _make_solver(kind, layout, scenario, external_command=None, workdir=None):
    if kind == "zonal":
        stray = [flag for flag, value in (("--external-command", external_command),
                                          ("--workdir", workdir)) if value is not None]
        if stray:
            verb = "requires" if len(stray) == 1 else "require"
            raise ParseError(f"{' and '.join(stray)} {verb} --solver external")
        return ZonalSolver(scenario)
    if kind == "external":
        if not external_command:
            raise ParseError("--solver external requires --external-command")
        try:
            command = tuple(shlex.split(external_command))
        except ValueError as exc:  # unbalanced quotes or a trailing backslash
            raise ParseError(f"--external-command {external_command!r}: {exc}") from None
        spec = ExternalSolverSpec(command=command, workdir=Path(workdir or "external_work"))
        return ExternalSolver(spec, layout)
    raise ParseError(f"unknown solver kind {kind!r}")


def _table(columns, records):
    """The header and rows of the records' named attributes; an MAE column's
    name gets its unit, degC."""
    header = [c + "_c" if c.endswith("_mae") else c for c in columns]
    return header, [[getattr(r, c) for c in columns] for r in records]


def _write_calibration_report(out_dir: Path, method: str, cfg: CalibConfig,
                              inputs: dict, layout, measurements, result: CalibrationResult,
                              aborted: Optional[str] = None):
    """The run directory's files. A run that aborted writes the iterations
    it finished, its reason under result.aborted, and sensors.csv only if
    some iteration validated."""
    names = [f.name for f in fields(IterationTrace)]
    traced, timed = names[:names.index("wall_time_s")], names[names.index("wall_time_s"):]
    for name, columns in (("traces.csv", traced), ("timings.csv", ["iteration", *timed])):
        fileio.write_csv(out_dir / name, *_table(columns, result.traces))
    predicted = result.best_solver_temps
    if predicted is not None:
        fileio.write_csv(out_dir / "sensors.csv",
                         ["sensor_id", "aisle", "measured_c", "predicted_c"],
                         [[s.id, s.aisle, float(m), float(p)]
                          for s, m, p in zip(layout.sensors, measurements, predicted)])
    fileio.save_alpha([s.id for s in layout.servers], result.alpha_star,
                      out_dir / "alpha_star.csv")
    report = {
        "method": method,
        "inputs": inputs,
        "config": fileio.to_json(cfg),
        "result": {
            "best_mae_c": result.best_mae if predicted is not None else None,
            "n_solver_calls": result.n_solver_calls,
            "iterations": len(result.traces),
        },
    }
    if result.es_adaptations is not None:
        report["result"]["es_adaptations"] = result.es_adaptations
    if aborted is not None:
        report["result"]["aborted"] = aborted
    fileio._dump_json(report, out_dir / "report.json")
    return report


def cmd_calibrate(layout_file, scenario_file, state_file, measurements_file,
                  out_dir, config_file=None, method=METHOD_KALIBRE,
                  solver_kind="zonal", external_command=None, workdir=None,
                  **overrides) -> dict:
    """Run one calibration by the selected method and write its report;
    `overrides` replace CalibConfig fields of the config file."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    measurements = fileio.load_measurements(measurements_file, [s.id for s in layout.sensors])
    cfg = load_settings(config_file, **overrides)
    solver = _make_solver(solver_kind, layout, scenario, external_command, workdir)
    model = make_surrogate(method, layout, cfg)
    out = _make_out_dir(out_dir)
    inputs = {"layout": str(layout_file), "scenario": str(scenario_file),
              "state": str(state_file), "measurements": str(measurements_file),
              "solver": solver_kind}
    try:
        result = _run_method(model, solver, measurements, state, layout, cfg)
    except CalibrationAbortedError as exc:
        try:
            _write_calibration_report(out, method, cfg, inputs,
                                      layout, measurements, exc.result, aborted=str(exc))
        except OutputDirectoryError as write_exc:  # the abort, not the partial write, ends the run
            print(f"error: {write_exc}", file=sys.stderr)
        raise
    return _write_calibration_report(out, method, cfg, inputs, layout, measurements, result)


def make_surrogate(method, layout, cfg: CalibConfig):
    """The method's surrogate, None for the heuristic. Kalibre's builds the
    adjacency priors, so a threshold that cuts them all fails here."""
    if method == METHOD_KALIBRE:
        return KnowledgeSurrogateModel(build_adjacency(layout, cfg.cut_threshold), cfg.penalty)
    if method == METHOD_VANILLA:
        return VanillaSurrogateModel(layout, cfg.penalty, MLP_TRAIN, seed=cfg.seed)
    if method != METHOD_HEURISTIC:
        raise UnknownMethodError(f"unknown method {method!r}")
    return None


def run_calibration(method, solver, measurements, state, layout,
                    cfg: CalibConfig) -> CalibrationResult:
    """Calibrate by one method."""
    model = make_surrogate(method, layout, cfg)
    return _run_method(model, solver, measurements, state, layout, cfg)


def _run_method(model, solver, measurements, state, layout, cfg: CalibConfig) -> CalibrationResult:
    """A surrogate runs the engine's loop; with none, the heuristic runs the
    (1+1)-ES on the loop's run record (solver MAE), one solver call per
    candidate, for the 3 + max_iterations calls a surrogate run makes."""
    if model is not None:
        return calibrate(solver, model, measurements, state, layout, cfg)
    run = _RunRecord(solver, measurements, layout, cfg.bounds)
    with run.aborting("solver failed at iteration 1"):
        run.solver = solver.at(state)
    res = cmaes_1p1(run.solve, cfg.bounds, 3 + cfg.max_iterations, run.alpha_star, cfg.seed)
    return replace(run.result(), es_adaptations=len(res.adaptations))


def cmd_solve(layout_file, scenario_file, state_file, alpha_file=None, out=None) -> np.ndarray:
    """One-shot zonal solve, at alpha_true unless an alpha file is given;
    the readings go to the file `out` if given, its directory made first."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    if alpha_file:
        alpha = fileio.load_alpha(alpha_file, [s.id for s in layout.servers])
    else:
        alpha = scenario.alpha_true
    if out:
        _make_out_dir(Path(out).parent)
    temps = ZonalSolver(scenario).solve(state.to_input(alpha))
    if out:
        fileio.save_measurements([s.id for s in layout.sensors], temps, out)
    return temps


def cmd_study_datavolume(layout_file, scenario_file, state_file, out_dir,
                         fractions=FRACTIONS, pool_size=POOL_SIZE, seed=0) -> list:
    """Data-volume study over the three surrogate designs."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    check_shape(list(fractions), pool_size)
    out = _make_out_dir(out_dir)
    cells = run_datavolume_study(scenario, state, list(fractions), pool_size, seed)
    header, rows = _table([f.name for f in fields(StudyCell)], cells)
    fileio.write_csv(out / "study.csv", header, rows)
    fileio._dump_json({
        "pool_size": pool_size,
        "fractions": list(fractions),
        "seed": seed,
        "cells": [dict(zip(header, row)) for row in rows],
    }, out / "study.json")
    return cells


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # HelpFormatter's default width, the terminal's less 2, found once per
        # parser and not by each of the formatters add_argument makes
        width = shutil.get_terminal_size().columns - 2
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=width),
                         **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _checked(cast, ok, rule: str):
    """An argparse type: cast the text and require ok(value)."""
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a fraction in (0, 1]")
_pool_size = _checked(int, lambda v: v >= MIN_POOL_SIZE, f"an integer >= {MIN_POOL_SIZE}")
_noise_sd = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_recirculation = _checked(float, lambda v: 0.0 <= v < 1.0, "a fraction in [0, 1)")


def _fractions(text: str) -> list[float]:
    """A comma-separated list of _fraction values."""
    return [_fraction(part) for part in text.split(",")]


# each subcommand: its help, its input files (each a required --<input>), (flag, keywords)s
_COMMANDS = {
    "generate": ("write a synthetic hall scenario", (), [
        ("--out-dir", dict(required=True)),
        ("--seed", dict(type=_seed)),
        ("--cracs", dict(dest="n_cracs", type=_count)),
        ("--servers", dict(dest="n_servers", type=_count)),
        ("--sensors-cold", dict(dest="n_cold", type=_count)),
        ("--sensors-hot", dict(dest="n_hot", type=_count)),
        ("--noise-sd", dict(type=_noise_sd)),
        ("--recirculation", dict(type=_recirculation)),
        ("--no-containment", dict(dest="containment", action="store_false"))]),
    "solve": ("one-shot zonal solve", ("layout", "scenario", "state"), [
        ("--alpha", dict(dest="alpha_file", help="flow-rate csv; defaults to the hidden truth")),
        ("--out", {})]),
    "calibrate": ("run one calibration", ("layout", "scenario", "state", "measurements"), [
        ("--config", dict(dest="config_file")),
        ("--method", dict(choices=[METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC])),
        ("--solver", dict(dest="solver_kind", choices=["zonal", "external"])),
        ("--external-command", {}),
        ("--workdir", {}),
        ("--iters", dict(dest="max_iterations", metavar="ITERS", type=_count)),
        ("--seed", dict(type=_seed)),
        ("--out-dir", dict(required=True))]),
    "study-datavolume": ("training-data-volume study", ("layout", "scenario", "state"), [
        ("--fractions", dict(type=_fractions)),
        ("--pool-size", dict(type=_pool_size)),
        ("--seed", dict(type=_seed)),
        ("--out-dir", dict(required=True))]),
}


def _add_options(parser: argparse.ArgumentParser, inputs, options) -> argparse.ArgumentParser:
    for kind in inputs:
        parser.add_argument(f"--{kind}", dest=f"{kind}_file", required=True)
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command `name` alone: it reads the arguments after
    the command word as build_parser's subparser of that name does."""
    _, inputs, options = _COMMANDS[name]
    return _add_options(_Parser(prog=f"hallcal {name}", argument_default=argparse.SUPPRESS),
                        inputs, options)


def parse_script_options(description: str, flags: dict, argv=None) -> dict[str, dict]:
    """A script's options by command. `flags` names each command's flags, added in
    that order as _COMMANDS declares them; a flag named under two commands is added
    once and passed to both. An option left off the command line is not passed."""
    parser = _Parser(description=description, argument_default=argparse.SUPPRESS)
    dests = {}
    for name, names in flags.items():
        spec = dict(_COMMANDS[name][2])
        dests.update({f: parser.add_argument(f, **spec[f]).dest for f in names if f not in dests})
    options = vars(parser.parse_args(argv))
    return {name: {dests[f]: options[dests[f]] for f in names if dests[f] in options}
            for name, names in flags.items()}


def build_parser() -> argparse.ArgumentParser:
    """Every command's parser under one `hallcal`. Each option's dest is its
    command function's keyword. An option left off the command line is not
    passed, so the function's default applies."""
    parser = _Parser(prog="hallcal",
                     description="Surrogate-assisted flow-rate calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help, inputs, options) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS),
                     inputs, options)
    return parser


def _parse(argv) -> tuple[str, dict]:
    """The command and its options. A command's line is read by that command's
    parser alone; the full tree reads anything else (a bare `hallcal`, --help,
    an unknown command) and reports an argument the command does not know,
    under the top-level usage line."""
    if argv and argv[0] in _COMMANDS:
        options, unknown = command_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            return argv[0], vars(options)
    options = vars(build_parser().parse_args(argv))
    return options.pop("command"), options


def _run(command: str, options: dict) -> None:
    if command == "generate":
        for name, path in cmd_generate(**options).items():
            print(f"{name}: {path}")
    elif command == "solve":
        temps = cmd_solve(**options)
        if not options.get("out"):
            for value in temps:
                print(repr(float(value)))
    elif command == "calibrate":
        report = cmd_calibrate(**options)
        print(f"best MAE {report['result']['best_mae_c']:.4f} degC "
              f"in {report['result']['n_solver_calls']} solver calls")
    elif command == "study-datavolume":
        for c in cmd_study_datavolume(**options):
            print(f"{c.surrogate:20s} frac {c.fraction:.2f} test MAE {c.test_mae:.3f}")


def exit_code(run, *args) -> int:
    """run(*args)'s exit code: 0, or for a toolkit error, printed to stderr, 1 (an
    unknown method), 3 (an aborted calibration or a solver input error) or 2."""
    try:
        run(*args)
    except UnknownMethodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CalibrationAbortedError as exc:  # its message names the failed solve, fit or search
        print(f"calibration aborted: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:  # the zonal solver's input check; in a calibration it aborts
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except HallcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    return exit_code(_run, *_parse(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
