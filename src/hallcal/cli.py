"""Command-line front end: generate scenarios, run one-shot solves,
calibrate by any of the three methods, and run the data-volume study.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 solver
failure. A calibration run has one seed, the config's `seed` or --seed;
the DE and ES seeds derive from it.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import dataclass, field, fields, replace
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
from .hall import DEFAULT_CUT_THRESHOLD, build_adjacency
from .optim import cmaes_1p1
from .scenarios import make_reference_scenario
from .solver import ExternalSolver, ExternalSolverSpec, ZonalSolver, synthesize_measurements
from .study import MIN_POOL_SIZE, check_shape, run_datavolume_study

METHOD_KALIBRE = "kalibre"
METHOD_VANILLA = "vanilla"
METHOD_HEURISTIC = "heuristic"


@dataclass(frozen=True)
class RunSettings:
    """Everything a calibration run needs beyond the input files. The config
    file is this dataclass as JSON, with `calib`'s fields at the top level:
    load_settings parses that form and settings_echo writes it."""

    calib: CalibConfig = field(default_factory=CalibConfig, metadata={"inline": True})
    cut_threshold: float = DEFAULT_CUT_THRESHOLD

    def __post_init__(self):
        if self.cut_threshold < 0:
            raise ValueError("cut_threshold must be >= 0")


def load_settings(config_path, iters=None, seed=None) -> RunSettings:
    """Settings from the config file (defaults without one), then the
    --iters and --seed overrides."""
    doc = fileio._load_json(config_path) if config_path else {}
    settings = fileio.from_json(RunSettings, doc, config_path or "<defaults>")
    calib = settings.calib
    if iters is not None:
        calib = replace(calib, max_iterations=iters)
    if seed is not None:
        calib = replace(calib, seed=seed)
    return replace(settings, calib=calib)


settings_echo = fileio.to_json  # the config-file form of settings; load_settings reads it


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


def cmd_generate(out_dir, seed=0, n_cracs=4, n_servers=64, n_cold=16, n_hot=8,
                 noise_sd=0.1, recirculation=0.05, containment=True) -> dict:
    """Write layout, scenario, state, and synthesized measurement files."""
    scenario, state = make_reference_scenario(
        seed=seed, n_cracs=n_cracs, n_servers=n_servers, n_cold=n_cold, n_hot=n_hot,
        noise_sd=noise_sd, recirculation=recirculation, containment=containment)
    layout = scenario.layout
    out = _make_out_dir(out_dir)
    measurements = synthesize_measurements(scenario, state)
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
        return ZonalSolver(scenario)
    if kind == "external":
        if not external_command:
            raise ParseError("--solver external requires --external-command")
        spec = ExternalSolverSpec(command=tuple(shlex.split(external_command)),
                                  workdir=Path(workdir or "external_work"))
        return ExternalSolver(spec, layout)
    raise ParseError(f"unknown solver kind {kind!r}")


def _write_calibration_report(out_dir: Path, method: str, settings: RunSettings,
                              inputs: dict, layout, measurements, result: CalibrationResult,
                              aborted: Optional[str] = None):
    """The run directory's files. A run that aborted writes the iterations
    it finished, its reason under result.aborted, and sensors.csv only if
    some iteration validated."""
    traced = [f.name for f in fields(IterationTrace) if f.name != "wall_time_s"]
    for name, columns in (("traces.csv", traced), ("timings.csv", ["iteration", "wall_time_s"])):
        fileio.write_csv(out_dir / name,
                         [{"validation_mae": "validation_mae_c"}.get(c, c) for c in columns],
                         [[getattr(t, c) for c in columns] for t in result.traces])
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
        "config": settings_echo(settings),
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
                  iters=None, seed=None) -> dict:
    """Run one calibration by the selected method and write its report."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    measurements = fileio.load_measurements(measurements_file, [s.id for s in layout.sensors])
    settings = load_settings(config_file, iters=iters, seed=seed)
    solver = _make_solver(solver_kind, layout, scenario, external_command, workdir)
    model = make_surrogate(method, layout, settings)
    out = _make_out_dir(out_dir)
    inputs = {"layout": str(layout_file), "scenario": str(scenario_file),
              "state": str(state_file), "measurements": str(measurements_file),
              "solver": solver_kind}
    try:
        result = _run_method(model, solver, measurements, state, layout, settings)
    except CalibrationAbortedError as exc:
        _write_calibration_report(out, method, settings, inputs,
                                  layout, measurements, exc.result, aborted=str(exc))
        raise
    return _write_calibration_report(out, method, settings, inputs,
                                     layout, measurements, result)


def make_surrogate(method, layout, settings: RunSettings):
    """The method's surrogate, None for the heuristic. Kalibre's builds the
    adjacency priors, so a threshold that cuts them all fails here."""
    calib = settings.calib
    if method == METHOD_KALIBRE:
        return KnowledgeSurrogateModel(build_adjacency(layout, settings.cut_threshold),
                                       calib.penalty)
    if method == METHOD_VANILLA:
        return VanillaSurrogateModel(layout, calib.penalty, calib.train, seed=calib.seed)
    if method != METHOD_HEURISTIC:
        raise UnknownMethodError(f"unknown method {method!r}")
    return None


def run_calibration(method, solver, measurements, state, layout,
                    settings: RunSettings) -> CalibrationResult:
    """Calibrate by one method."""
    model = make_surrogate(method, layout, settings)
    return _run_method(model, solver, measurements, state, layout, settings)


def _run_method(model, solver, measurements, state, layout, settings) -> CalibrationResult:
    """A surrogate runs the engine's loop; with none, the heuristic runs the
    (1+1)-ES on the loop's run record (solver MAE), one solver call per
    candidate, for the 3 + max_iterations calls a surrogate run makes."""
    calib = settings.calib
    if model is not None:
        return calibrate(solver, model, measurements, state, layout, calib)
    run = _RunRecord(solver, measurements, state, layout, calib.bounds)
    res = cmaes_1p1(run.solve, calib.bounds, 3 + calib.max_iterations, run.alpha_star, calib.seed)
    return replace(run.result(), es_adaptations=len(res.adaptations))


def cmd_solve(layout_file, scenario_file, state_file, alpha_file=None, out=None) -> np.ndarray:
    """One-shot zonal solve, at alpha_true unless an alpha file is given."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    if alpha_file:
        alpha = fileio.load_alpha(alpha_file, [s.id for s in layout.servers])
    else:
        alpha = scenario.alpha_true
    temps = ZonalSolver(scenario).solve(state.to_input(alpha))
    if out:
        fileio.save_measurements([s.id for s in layout.sensors], temps, Path(out))
    return temps


def cmd_study_datavolume(layout_file, scenario_file, state_file, out_dir,
                         fractions=(0.05, 0.15, 0.30, 0.50), pool_size=200,
                         seed=0) -> list:
    """Data-volume study over the three surrogate designs."""
    layout = fileio.load_layout(layout_file)
    scenario = fileio.load_scenario(scenario_file, layout)
    state = fileio.load_state(state_file, layout)
    check_shape(list(fractions), pool_size)
    out = _make_out_dir(out_dir)
    cells = run_datavolume_study(scenario, state, list(fractions), pool_size, seed)
    header = ["fraction", "surrogate", "n_train", "test_mae_c"]
    rows = [[c.fraction, c.surrogate, c.n_train, c.test_mae] for c in cells]
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


_iterations = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a fraction in (0, 1]")
_pool_size = _checked(int, lambda v: v >= MIN_POOL_SIZE, f"an integer >= {MIN_POOL_SIZE}")
_noise_sd = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_recirculation = _checked(float, lambda v: 0.0 <= v < 1.0, "a fraction in [0, 1)")


def _fractions(text: str) -> list[float]:
    """A comma-separated list of _fraction values."""
    return [_fraction(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hallcal",
                     description="Surrogate-assisted flow-rate calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a synthetic hall scenario")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--cracs", type=int, default=4)
    g.add_argument("--servers", type=int, default=64)
    g.add_argument("--sensors-cold", type=int, default=16)
    g.add_argument("--sensors-hot", type=int, default=8)
    g.add_argument("--noise-sd", type=_noise_sd, default=0.1)
    g.add_argument("--recirculation", type=_recirculation, default=0.05)
    g.add_argument("--no-containment", action="store_true")

    s = sub.add_parser("solve", help="one-shot zonal solve")
    s.add_argument("--layout", required=True)
    s.add_argument("--scenario", required=True)
    s.add_argument("--state", required=True)
    s.add_argument("--alpha", default=None, help="flow-rate csv; defaults to the hidden truth")
    s.add_argument("--out", default=None)

    c = sub.add_parser("calibrate", help="run one calibration")
    c.add_argument("--layout", required=True)
    c.add_argument("--scenario", required=True)
    c.add_argument("--state", required=True)
    c.add_argument("--measurements", required=True)
    c.add_argument("--config", default=None)
    c.add_argument("--method", choices=[METHOD_KALIBRE, METHOD_VANILLA, METHOD_HEURISTIC],
                   default=METHOD_KALIBRE)
    c.add_argument("--solver", choices=["zonal", "external"], default="zonal")
    c.add_argument("--external-command", default=None)
    c.add_argument("--workdir", default=None)
    c.add_argument("--iters", type=_iterations, default=None)
    c.add_argument("--seed", type=_seed, default=None)
    c.add_argument("--out-dir", required=True)

    d = sub.add_parser("study-datavolume", help="training-data-volume study")
    d.add_argument("--layout", required=True)
    d.add_argument("--scenario", required=True)
    d.add_argument("--state", required=True)
    d.add_argument("--fractions", default="0.05,0.15,0.30,0.50", type=_fractions)
    d.add_argument("--pool-size", type=_pool_size, default=200)
    d.add_argument("--seed", type=_seed, default=0)
    d.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            paths = cmd_generate(args.out_dir, seed=args.seed, n_cracs=args.cracs,
                                 n_servers=args.servers, n_cold=args.sensors_cold,
                                 n_hot=args.sensors_hot, noise_sd=args.noise_sd,
                                 recirculation=args.recirculation,
                                 containment=not args.no_containment)
            for name, path in paths.items():
                print(f"{name}: {path}")
        elif args.command == "solve":
            temps = cmd_solve(args.layout, args.scenario, args.state,
                              alpha_file=args.alpha, out=args.out)
            if not args.out:
                for value in temps:
                    print(repr(float(value)))
        elif args.command == "calibrate":
            report = cmd_calibrate(args.layout, args.scenario, args.state,
                                   args.measurements, args.out_dir,
                                   config_file=args.config, method=args.method,
                                   solver_kind=args.solver,
                                   external_command=args.external_command,
                                   workdir=args.workdir, iters=args.iters,
                                   seed=args.seed)
            print(f"best MAE {report['result']['best_mae_c']:.4f} degC "
                  f"in {report['result']['n_solver_calls']} solver calls")
        elif args.command == "study-datavolume":
            cells = cmd_study_datavolume(args.layout, args.scenario, args.state,
                                         args.out_dir, fractions=args.fractions,
                                         pool_size=args.pool_size, seed=args.seed)
            for c in cells:
                print(f"{c.surrogate:20s} frac {c.fraction:.2f} test MAE {c.test_mae:.3f}")
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


if __name__ == "__main__":
    sys.exit(main())
