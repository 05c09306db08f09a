import importlib.util
from pathlib import Path

import pytest

from hallcal.cli import cmd_calibrate, cmd_generate
from hallcal.engine import CalibConfig

SCRIPTS = Path(__file__).parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_methods_matches_calibrate(tmp_path, capsys):
    # the script runs each method down the same path as `hallcal calibrate`
    load_script("compare_methods").main(["--iters", "2", "--seed", "1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    printed = {method: (best, int(calls)) for method, best, calls in map(str.split, rows)}

    paths = cmd_generate(tmp_path / "case", seed=1)
    assert list(printed) == ["kalibre", "vanilla", "heuristic"]
    for method, (best, calls) in printed.items():
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], tmp_path / method, method=method,
                               max_iterations=2, seed=1)["result"]
        assert (f"{report['best_mae_c']:.4f}", report["n_solver_calls"]) == (best, calls)
        assert calls == 5


def test_compare_methods_takes_generate_hall_sizes(tmp_path, capsys):
    # a small non-default hall: each method still pays 3 + k solver calls, on
    # the hall `hallcal generate` makes of the same options
    hall = dict(n_cracs=2, n_servers=20, n_cold=5, n_hot=3)
    load_script("compare_methods").main(["--cracs", "2", "--servers", "20", "--sensors-cold", "5",
                                         "--sensors-hot", "3", "--iters", "2", "--seed", "4"])
    rows = capsys.readouterr().out.splitlines()[1:]
    printed = {method: (best, int(calls)) for method, best, calls in map(str.split, rows)}

    paths = cmd_generate(tmp_path / "case", seed=4, **hall)
    assert list(printed) == ["kalibre", "vanilla", "heuristic"]
    for method, (best, calls) in printed.items():
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], tmp_path / method, method=method,
                               max_iterations=2, seed=4)["result"]
        assert (f"{report['best_mae_c']:.4f}", report["n_solver_calls"]) == (best, calls)
        assert calls == 3 + 2


def test_reference_calibration_prints_each_iteration(capsys):
    # one row per iteration, then the best-MAE line, on the exact search's columns
    load_script("run_reference_calibration").main(["--iters", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["iter", "val", "MAE", "evals"]
    assert [row.split()[0] for row in lines[1:3]] == ["1", "2"]
    assert lines[3] == ""
    assert lines[4].startswith("best MAE ") and lines[4].endswith(" in 5 solver calls")
    assert len(lines) == 5


def test_reference_calibration_runs_the_config_default_iterations(capsys):
    load_script("run_reference_calibration").main([])
    lines = capsys.readouterr().out.splitlines()
    n = CalibConfig().max_iterations
    assert [row.split()[0] for row in lines[1:-2]] == [str(i) for i in range(1, n + 1)]
    assert lines[-1].endswith(f" in {3 + n} solver calls")


BAD_NUMBERS = [
    ("run_reference_calibration", ["--iters", "0"]),
    ("run_reference_calibration", ["--seed", "-1"]),
    ("compare_methods", ["--iters", "0"]),
    ("compare_methods", ["--seed", "1.5"]),
    ("compare_methods", ["--servers", "0"]),
    ("compare_methods", ["--sensors-hot", "two"]),
    ("run_datavolume_study", ["--pool-size", "5"]),
    ("run_datavolume_study", ["--seed", "-1"]),
    ("run_datavolume_study", ["--fractions", "0.5,2"]),
    ("run_datavolume_study", ["--fractions", "nan"]),
]


@pytest.mark.parametrize("name, argv", BAD_NUMBERS,
                         ids=[f"{name}{''.join(argv)}" for name, argv in BAD_NUMBERS])
def test_bad_number_is_a_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(argv)
    assert exc.value.code == 1
    assert f"error: argument {argv[0]}" in capsys.readouterr().err
