import csv
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcal import fileio
from hallcal.cli import (
    RunSettings,
    _make_solver,
    cmd_calibrate,
    cmd_generate,
    cmd_solve,
    cmd_study_datavolume,
    load_settings,
    main,
    run_calibration,
    settings_echo,
)
from hallcal.engine import CalibConfig, mae
from hallcal.errors import EmptyFacilityClassError, ParseError, PoolTooSmallError, UnknownMethodError
from hallcal.optim import AdamConfig, Bounds, DeConfig, TrainConfig
from hallcal.surrogate import PenaltyParams
from hallcal.scenarios import make_identifiable_scenario, make_reference_scenario
from hallcal.solver import ZonalSolver, external_solve, synthesize_measurements

ECHO_SOLVER = Path(__file__).parents[1] / "scripts" / "echo_solver.py"


@pytest.fixture
def generated(tmp_path):
    """A small generated scenario directory shared by CLI tests."""
    out = tmp_path / "case"
    paths = cmd_generate(out, seed=9, n_servers=12, n_cold=4, n_hot=2)
    return out, paths


class TestRoundTrips:
    def test_layout_scenario_state_measurements(self, generated):
        out, paths = generated
        layout = fileio.load_layout(paths["layout"])
        scenario = fileio.load_scenario(paths["scenario"], layout)
        state = fileio.load_state(paths["state"], layout)
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])

        # write everything again and compare bytes
        redo = out.parent / "redo"
        redo.mkdir()
        fileio.save_layout(layout, redo / "layout.json")
        fileio.save_scenario(scenario, redo / "scenario.json")
        fileio.save_state(state, redo / "state.json")
        fileio.save_measurements([s.id for s in layout.sensors], meas, redo / "measurements.csv")
        for name in ("layout.json", "scenario.json", "state.json", "measurements.csv"):
            assert (redo / name).read_bytes() == (out / name).read_bytes()

    def test_alpha_round_trip(self, tmp_path):
        ids = ["a", "b", "c"]
        alpha = np.array([0.1, 0.25550000000000001, 2.9999999999])
        fileio.save_alpha(ids, alpha, tmp_path / "alpha.csv")
        loaded = fileio.load_alpha(tmp_path / "alpha.csv", ids)
        assert np.array_equal(loaded, alpha)

    def test_same_seed_regenerates_identical_files(self, tmp_path):
        a = cmd_generate(tmp_path / "a", seed=4, n_servers=8, n_cold=3, n_hot=2)
        b = cmd_generate(tmp_path / "b", seed=4, n_servers=8, n_cold=3, n_hot=2)
        for key in a:
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_generate_rejects_empty_server_class(self, tmp_path):
        with pytest.raises(EmptyFacilityClassError):
            cmd_generate(tmp_path / "bad", n_servers=0)

    def test_generate_default_sizes(self, tmp_path):
        paths = cmd_generate(tmp_path / "ref", seed=0)
        layout = fileio.load_layout(paths["layout"])
        assert (layout.n_cracs, layout.n_servers, layout.n_sensors) == (4, 64, 24)
        assert sum(1 for s in layout.sensors if s.aisle == "cold") == 16
        assert sum(1 for s in layout.sensors if s.aisle == "hot") == 8


class TestParseErrors:
    def test_malformed_measurement_line_number(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,temperature_c\nsen-1,21.5\nsen-2,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            fileio.load_measurements(path, ["sen-1", "sen-2"])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sen-1,21.5\n")
        with pytest.raises(ParseError, match="line 1"):
            fileio.load_measurements(path, ["sen-1"])

    def test_missing_sensor(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,temperature_c\nsen-1,21.5\n")
        with pytest.raises(ParseError, match="sen-2"):
            fileio.load_measurements(path, ["sen-1", "sen-2"])

    @pytest.mark.parametrize("body, line", [
        ("a,nan\nb,20.0\n", 2),
        ("a,20.0\nb,inf\n", 3),
        ("a,20.0\nb,21.0\na,3\n", 4),
    ])
    def test_measurements_reject_non_finite_and_duplicate(self, tmp_path, body, line):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,temperature_c\n" + body)
        with pytest.raises(ParseError, match=f"meas.csv line {line}"):
            fileio.load_measurements(path, ["a", "b"])

    @pytest.mark.parametrize("body, line", [
        ("s1,-inf\ns2,0.2\n", 2),
        ("s1,0.1\ns2,0.2\ns2,0.3\n", 4),
    ])
    def test_alpha_rejects_non_finite_and_duplicate(self, tmp_path, body, line):
        path = tmp_path / "alpha.csv"
        path.write_text("server_id,alpha_cfm_per_w\n" + body)
        with pytest.raises(ParseError, match=f"alpha.csv line {line}"):
            fileio.load_alpha(path, ["s1", "s2"])

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            fileio.load_layout(path)

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"max_iterations": 3, "typo_field": 1}))
        with pytest.raises(ParseError, match="typo_field"):
            load_settings(cfg)


@st.composite
def run_settings(draw):
    """Random valid settings, every field drawn."""
    counts = st.integers(1, 10 ** 6)
    seeds = st.integers(0, 2 ** 63)
    positive = st.floats(1e-9, 1e9)
    unit = st.floats(0.0, 1.0)
    decay = st.floats(0.0, 1.0, exclude_min=True)
    lower = draw(st.floats(1e-4, 1.0))
    dt_low = draw(st.floats(1e-3, 50.0))
    calib = CalibConfig(
        bounds=Bounds(lower, lower + draw(st.floats(1e-3, 10.0))),
        max_iterations=draw(counts),
        penalty=PenaltyParams(dt_low, dt_low + draw(st.floats(1e-3, 50.0)),
                              draw(unit), draw(positive)),
        train=TrainConfig(draw(counts), draw(positive), draw(decay), draw(counts)),
        de=DeConfig(draw(st.integers(4, 10 ** 6)), draw(counts)),
        adam=AdamConfig(draw(positive), draw(counts)),
        use_de=draw(st.sampled_from([None, True, False])),
        seed=draw(seeds),
    )
    return RunSettings(calib=calib, cut_threshold=draw(unit))


# config files the loader must refuse, each with the field its error names
BAD_CONFIGS = [
    ('{"use_de": "false"}', "use_de"),
    ('{"augment_batch": true}', "augment_batch"),
    ('{"max_iterations": 15.9}', "max_iterations"),
    ('{"cut_threshold": NaN}', "cut_threshold"),
    ('{"penalty": {"dt_low": 20}}', "penalty: need 0 < dt_low"),
    ('{"bounds": [0.01, NaN]}', "bounds.upper"),
    ('{"es": {"sigma0": -1}}', "es: unknown field"),
    ('{"max_iterations": 0}', "max_iterations"),
    ('{"train": {"epochs": "3"}}', "train.epochs"),
    ('{"de": {"population_size": 10.0}}', "de.population_size"),
    ('{"max_iterations": 1e400}', "max_iterations"),
    ('{"penalty": {"lam": NaN}}', "penalty.lam"),
    ('{"penalty": {"dt_lo": 5.0}}', "penalty.dt_lo"),
    ('{"penalty": 3}', "penalty"),
    ('{"bounds": [1.0]}', "bounds"),
    ('{"bounds": [2.0, 1.0]}', "bounds"),
    ('{"seed": -1}', "seed"),
    ('{"de": {"seed": 1}}', "de.seed: unknown field"),
    ('{"es": {"seed": 1}}', "es: unknown field"),
    ('{"train": {"decay_every": 0}}', "train: decay_every"),
    ('{"input_noise_frac": -0.1}', "input_noise_frac"),
    ('{"cut_threshold": -1}', "cut_threshold"),
    ('{"es": {"adapt_factor": 0}}', "es: unknown field"),
    ('{"es": {"adapt_every": 0}}', "es: unknown field"),
    ('{"augment_batch": 16}', "augment_batch: unknown field"),
    ('{"mlp_learning_rate": 0.01}', "mlp_learning_rate: unknown field"),
    ('{"es": {}}', "es: unknown field"),
    ('{"de": {"crossover_rate": 0.6}}', "de.crossover_rate: unknown field"),
    ('{"adam": {"beta1": 0.9}}', "adam.beta1: unknown field"),
    ('{"adam": {"learning_rate": -0.01}}', "adam: learning_rate"),
    ('{"adam": {"steps": -3}}', "adam: steps"),
    ('{"de": {"max_iterations": -1}}', "de: max_iterations"),
    ('{"train": {"epochs": 0}}', "train: epochs"),
    ('{"train": {"learning_rate": -1}}', "train: learning_rate"),
    ('{"train": {"decay": -1}}', "train: decay"),
    ('{"train": {"decay": 0}}', "train: decay"),
]

BAD_CONFIG_IDS = [re.sub(r"\W+", "_", doc).strip("_") for doc, _ in BAD_CONFIGS]


class TestConfigSchema:
    @given(settings_=run_settings())
    @settings(max_examples=60, deadline=None)
    def test_echo_parses_back_to_the_same_settings(self, settings_):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            fileio._dump_json(settings_echo(settings_), path)
            assert load_settings(path) == settings_

    def test_null_use_de_is_the_default(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"use_de": None}))
        assert load_settings(cfg) == load_settings(None)
        assert load_settings(cfg).calib.use_de is None

    def test_echo_widens_integral_floats(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"penalty": {"lam": 2}, "bounds": [1, 2]}))
        echo = settings_echo(load_settings(cfg))
        assert json.dumps([echo["penalty"]["lam"], echo["bounds"]]) == "[2.0, [1.0, 2.0]]"

    @pytest.mark.parametrize("doc, field", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_value_names_its_field(self, tmp_path, doc, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        with pytest.raises(ParseError, match=r"c\.json: .*" + re.escape(field)):
            load_settings(cfg, iters=1)

    @pytest.mark.parametrize("doc, field", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_value_exits_2(self, generated, tmp_path, capsys, doc, field):
        out, paths = generated
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--config", str(cfg),
                     "--iters", "1", "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


# one-field edits of a generated case that the loaders must refuse:
# (file, edit, the dotted field its error names)
BAD_INPUTS = {
    "containment_string": ("layout", lambda d: d.update(containment="false"), "containment"),
    "rated_power_nan": ("layout", lambda d: d["servers"][0].update(rated_power=float("nan")),
                        "servers.0.rated_power"),
    "rated_power_string": ("layout", lambda d: d["servers"][3].update(rated_power="400"),
                           "servers.3.rated_power"),
    "position_of_two": ("layout", lambda d: d["cracs"][1].update(position=[2.5, 0.5]),
                        "cracs.1.position"),
    "scenario_unknown_key": ("scenario", lambda d: d.update(recirculation=0.4), "recirculation"),
    "max_sweeps_string": ("scenario", lambda d: d.update(max_sweeps="500"), "max_sweeps"),
    "max_sweeps_fraction": ("scenario", lambda d: d.update(max_sweeps=2.5), "max_sweeps"),
    "damping_string": ("scenario", lambda d: d.update(damping="0.5"), "damping"),
    "ambient_nan": ("scenario", lambda d: d.update(ambient_c=float("nan")), "ambient_c"),
    "recirculation_out_of_range": ("scenario", lambda d: d.update(recirculation_fraction=2),
                                   "recirculation_fraction"),
    "alpha_true_short": ("scenario", lambda d: d["alpha_true"].pop(), "alpha_true"),
    "alpha_true_missing": ("scenario", lambda d: d.pop("alpha_true"), "alpha_true: missing"),
    "state_unknown_key": ("state", lambda d: d.update(ambient_c=22.0), "ambient_c"),
    "setpoint_nan": ("state", lambda d: d["crac_setpoints"].__setitem__(1, float("nan")),
                     "crac_setpoints.1"),
    "state_one_crac": ("state", lambda d: d.update(crac_setpoints=d["crac_setpoints"][:1],
                                                   crac_fan_speeds=d["crac_fan_speeds"][:1]),
                       "crac_setpoints: expected 4 entries, got 1"),
    "state_server_short": ("state", lambda d: d["server_powers"].pop(), "server_powers"),
    "fan_speed_above_one": ("state", lambda d: d["crac_fan_speeds"].__setitem__(2, 1.5),
                            "crac_fan_speeds.2: 1.5 is not in [0, 1]"),
    "fans_all_off": ("state", lambda d: d.update(crac_fan_speeds=[0.0] * 4), "crac_fan_speeds"),
    "power_negative": ("state", lambda d: d["server_powers"].__setitem__(5, -5.0),
                       "server_powers.5: -5.0 is not >= 0"),
}


class TestInputSchema:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_is_a_parse_error_exit_2(self, generated, tmp_path, capsys, case):
        out, paths = generated
        name, edit, field = BAD_INPUTS[case]
        doc = json.loads(Path(paths[name]).read_text())
        edit(doc)
        files = dict(paths, **{name: tmp_path / f"{name}.json"})
        files[name].write_text(json.dumps(doc))
        message = re.escape(f"{name}.json: ") + ".*" + re.escape(field)
        with pytest.raises(ParseError, match=message):
            layout = fileio.load_layout(files["layout"])
            fileio.load_scenario(files["scenario"], layout)
            fileio.load_state(files["state"], layout)
        code = main(["solve", "--layout", str(files["layout"]),
                     "--scenario", str(files["scenario"]), "--state", str(files["state"])])
        assert code == 2
        assert re.search("^error: .*" + message, capsys.readouterr().err)


class TestCalibrateCommand:
    def test_kalibre_report_files(self, generated, tmp_path):
        out, paths = generated
        run = tmp_path / "run"
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], run, iters=2, seed=1)
        assert (run / "report.json").exists()
        assert (run / "traces.csv").exists()
        assert (run / "sensors.csv").exists()
        assert (run / "alpha_star.csv").exists()
        assert (run / "timings.csv").exists()
        assert report["result"]["n_solver_calls"] == 5
        lines = (run / "traces.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per iteration

    def test_reports_reproduce_byte_for_byte(self, generated, tmp_path):
        out, paths = generated
        runs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], run, iters=2, seed=1)
            runs.append(run)
        for f in ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv"):
            assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()

    def test_echoed_config_replays_the_run(self, generated, tmp_path):
        # the config block inside report.json is itself a valid --config
        out, paths = generated
        first = tmp_path / "first"
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                      paths["measurements"], first, iters=3, seed=7)
        echoed = json.loads((first / "report.json").read_text())["config"]
        cfg_file = tmp_path / "echoed.json"
        cfg_file.write_text(json.dumps(echoed))
        replay = tmp_path / "replay"
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                      paths["measurements"], replay, config_file=cfg_file)
        for f in ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv"):
            assert (first / f).read_bytes() == (replay / f).read_bytes()

    @pytest.mark.parametrize("method", ["kalibre", "vanilla", "heuristic"])
    def test_seed_flag_equals_config_seed(self, generated, tmp_path, method):
        # the config's seed is the run's only seed, as --seed sets it
        out, paths = generated
        base = {"train": {"epochs": 20}}
        for name, doc, seed in (("flag", base, 3), ("file", dict(base, seed=3), None)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], tmp_path / name, config_file=cfg,
                          iters=2, seed=seed, method=method)
        for f in ("traces.csv", "alpha_star.csv"):
            assert (tmp_path / "flag" / f).read_bytes() == (tmp_path / "file" / f).read_bytes()

    def test_vanilla_default_search_is_de_adam(self, generated, tmp_path):
        # the MLP has no exact search, so use_de=None runs DE+Adam as use_de=True does
        out, paths = generated
        for name, use_de in (("default", None), ("de", True)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"train": {"epochs": 20}, "use_de": use_de}))
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], tmp_path / name, config_file=cfg,
                          iters=2, seed=1, method="vanilla")
        for f in ("traces.csv", "alpha_star.csv"):
            assert (tmp_path / "default" / f).read_bytes() == (tmp_path / "de" / f).read_bytes()
        rows = list(csv.DictReader((tmp_path / "default" / "traces.csv").read_text().splitlines()))
        assert all(r["de_l2"] and not r["search_residual"] for r in rows)

    def test_heuristic_traces_each_solves_own_mae(self, tmp_path, monkeypatch):
        # on reference seed 0: validation_mae_c is each solve's MAE, not the running best
        paths = cmd_generate(tmp_path / "case", seed=0)
        inputs = []
        solve = ZonalSolver._solve
        monkeypatch.setattr(ZonalSolver, "_solve", lambda self, x: inputs.append(x) or solve(self, x))
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], tmp_path / "run", seed=0,
                               method="heuristic")
        monkeypatch.undo()
        maes = [float(r["validation_mae_c"])
                for r in csv.DictReader((tmp_path / "run" / "traces.csv").read_text().splitlines())]
        assert any(b > a for a, b in zip(maes, maes[1:]))
        assert min(maes) == report["result"]["best_mae_c"]
        layout = fileio.load_layout(paths["layout"])
        solver = ZonalSolver(fileio.load_scenario(paths["scenario"], layout))
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])
        assert maes == [mae(solver.solve(x), meas) for x in inputs]

    def test_heuristic_improves_on_its_start_within_default_budget(self):
        # the ES step is a sixth of the box span, so within the 18 solves of
        # a default run it finds a point better than the midpoint it starts at
        scenario, state = make_reference_scenario(seed=0)
        result = run_calibration("heuristic", ZonalSolver(scenario),
                                 synthesize_measurements(scenario, state), state,
                                 scenario.layout, load_settings(None))
        assert result.n_solver_calls == 18
        assert result.best_mae < result.traces[0].validation_mae

    def test_heuristic_trace_per_solver_call(self, generated, tmp_path):
        out, paths = generated
        run = tmp_path / "run_h"
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], run, iters=4, seed=1,
                               method="heuristic")
        assert report["result"]["n_solver_calls"] == 7  # budget 3 + iters
        lines = (run / "traces.csv").read_text().splitlines()
        assert len(lines) == 1 + 7
        timings = (run / "timings.csv").read_text().splitlines()[1:]
        assert len(timings) == 7
        assert all(float(row.split(",")[1]) > 0.0 for row in timings)

    def test_heuristic_budget_follows_config_iterations(self, generated, tmp_path):
        out, paths = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iterations": 2}))
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], tmp_path / "run_h", config_file=cfg,
                               method="heuristic")
        assert report["result"]["n_solver_calls"] == 5  # as a 2-iteration kalibre run

    def test_vanilla_method_runs(self, generated, tmp_path):
        out, paths = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 30, "learning_rate": 0.01}}))
        run = tmp_path / "run_v"
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], run, config_file=cfg,
                               iters=1, seed=1, method="vanilla")
        assert report["method"] == "vanilla"

    def test_unknown_method_raises(self, generated, tmp_path):
        out, paths = generated
        with pytest.raises(UnknownMethodError):
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], tmp_path / "x", method="alchemy")

    def test_external_solver_round_trip(self, tmp_path):
        # external command implementing a crude constant model for the layout
        scenario, state = make_identifiable_scenario(seed=0)
        case = tmp_path / "case"
        case.mkdir()
        fileio.save_layout(scenario.layout, case / "layout.json")
        fileio.save_scenario(scenario, case / "scenario.json")
        fileio.save_state(state, case / "state.json")
        sensor_ids = [s.id for s in scenario.layout.sensors]
        meas = synthesize_measurements(scenario, state)
        fileio.save_measurements(sensor_ids, meas, case / "measurements.csv")

        script = tmp_path / "fake_solver.py"
        script.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "workdir = Path(sys.argv[1])\n"
            "alphas = [float(l.split(',')[1]) for l in\n"
            "          (workdir / 'flow_config.txt').read_text().splitlines() if l.strip()]\n"
            "mean = sum(alphas) / len(alphas)\n"
            f"ids = {sensor_ids!r}\n"
            "rows = [f'{sid}, {20.0 + 5.0 * mean}' for sid in ids]\n"
            "(workdir / 'sensor_output.txt').write_text('\\n'.join(rows) + '\\n')\n"
        )
        run = tmp_path / "run_ext"
        report = cmd_calibrate(case / "layout.json", case / "scenario.json",
                               case / "state.json", case / "measurements.csv", run,
                               iters=1, seed=0, solver_kind="external",
                               external_command=f"{sys.executable} {script}",
                               workdir=str(tmp_path / "ext_work"))
        assert report["inputs"]["solver"] == "external"
        assert report["result"]["n_solver_calls"] == 4


BAD_STATES = {k: BAD_INPUTS[k] for k in ("state_one_crac", "fan_speed_above_one", "power_negative")}


@pytest.mark.parametrize("case", BAD_STATES)
def test_bad_state_exits_2_before_any_external_solve(generated, tmp_path, capsys, case):
    out, paths = generated
    _, edit, field = BAD_STATES[case]
    doc = json.loads(Path(paths["state"]).read_text())
    edit(doc)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    # the command counts its calls and reads 25 degC at every sensor
    calls = tmp_path / "calls.txt"
    rows = "".join(f"{s.id}, 25.0\n" for s in fileio.load_layout(paths["layout"]).sensors)
    script = tmp_path / "counting_solver.py"
    script.write_text("import sys\nfrom pathlib import Path\n"
                      f"with open({str(calls)!r}, 'a') as f:\n    f.write('call\\n')\n"
                      f"(Path(sys.argv[1]) / 'sensor_output.txt').write_text({rows!r})\n")
    code = main(["calibrate", "--layout", str(paths["layout"]),
                 "--scenario", str(paths["scenario"]), "--state", str(state),
                 "--measurements", str(paths["measurements"]), "--iters", "2",
                 "--solver", "external", "--external-command", f"{sys.executable} {script}",
                 "--workdir", str(tmp_path / "work"), "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert re.search("^error: .*" + re.escape("state.json: " + field), capsys.readouterr().err)
    assert not calls.exists()


def test_external_command_is_split_like_a_shell(tmp_path):
    # the echo solver under a path with a space, quoted on the command line
    solver_dir = tmp_path / "echo solver"
    solver_dir.mkdir()
    script = solver_dir / "echo_solver.py"
    script.write_bytes(ECHO_SOLVER.read_bytes())
    scenario, state = make_identifiable_scenario(seed=0)
    solver = _make_solver("external", scenario.layout, scenario,
                          external_command=f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
                          workdir=tmp_path / "work")
    assert solver.spec.command == (sys.executable, str(script))
    x = state.to_input(scenario.alpha_true)
    out = external_solve(solver.spec, x, [s.id for s in scenario.layout.servers])
    assert np.array_equal(out, scenario.alpha_true)


class TestSolveCommand:
    def test_solve_at_truth_matches_noiseless_measurements(self, tmp_path):
        paths = cmd_generate(tmp_path / "c", seed=2, n_servers=8, n_cold=3,
                             n_hot=2, noise_sd=0.0)
        layout = fileio.load_layout(paths["layout"])
        out_file = tmp_path / "solved.csv"
        temps = cmd_solve(paths["layout"], paths["scenario"], paths["state"],
                          out=out_file)
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])
        np.testing.assert_allclose(temps, meas, atol=1e-12)
        assert out_file.exists()


class TestStudyCommand:
    def test_pool_too_small(self, generated, tmp_path):
        out, paths = generated
        with pytest.raises(PoolTooSmallError):
            cmd_study_datavolume(paths["layout"], paths["scenario"], paths["state"],
                                 tmp_path / "study", pool_size=5)
        with pytest.raises(PoolTooSmallError):
            cmd_study_datavolume(paths["layout"], paths["scenario"], paths["state"],
                                 tmp_path / "study", fractions=(0.01,), pool_size=20)

    @pytest.mark.parametrize("fraction", [2.0, 0.0, -0.5, float("nan")])
    def test_fraction_outside_unit_interval(self, generated, tmp_path, fraction):
        # above 1, n_train would exceed the train set the cells were fitted on
        out, paths = generated
        with pytest.raises(PoolTooSmallError, match=r"not in \(0, 1\]"):
            cmd_study_datavolume(paths["layout"], paths["scenario"], paths["state"],
                                 tmp_path / "study", fractions=(0.5, fraction), pool_size=20)
        assert not (tmp_path / "study").exists()

    def test_small_study_writes_table(self, generated, tmp_path):
        out, paths = generated
        cells = cmd_study_datavolume(paths["layout"], paths["scenario"], paths["state"],
                                     tmp_path / "study", fractions=(0.5,), pool_size=20,
                                     seed=1)
        assert len(cells) == 3  # one row per surrogate design
        table = (tmp_path / "study" / "study.csv").read_text().splitlines()
        assert table[0] == "fraction,surrogate,n_train,test_mae_c"
        assert len(table) == 4


class TestMainExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])  # missing required arguments
        assert exc.value.code == 1

    def test_unknown_subcommand_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_parse_error_is_2(self, tmp_path, generated):
        out, paths = generated
        bad = tmp_path / "bad.csv"
        bad.write_text("sensor_id,temperature_c\nsen,oops\n")
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"]),
                     "--measurements", str(bad),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2

    def test_solver_failure_is_3(self, generated, tmp_path):
        out, paths = generated
        # sabotage the scenario so the fixed point cannot converge
        doc = json.loads(Path(paths["scenario"]).read_text())
        doc["max_sweeps"] = 1
        doc["ambient_c"] = 45.0
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(doc))
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(bad),
                     "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 3

    def test_generate_and_solve_succeed(self, tmp_path):
        assert main(["generate", "--out-dir", str(tmp_path / "g"), "--seed", "1",
                     "--servers", "8", "--sensors-cold", "3", "--sensors-hot", "2"]) == 0
        assert main(["solve", "--layout", str(tmp_path / "g" / "layout.json"),
                     "--scenario", str(tmp_path / "g" / "scenario.json"),
                     "--state", str(tmp_path / "g" / "state.json"),
                     "--out", str(tmp_path / "out.csv")]) == 0


CALIBRATE_ARGS = ["calibrate", "--layout", "l.json", "--scenario", "s.json", "--state",
                  "t.json", "--measurements", "m.csv", "--out-dir", "run"]
STUDY_ARGS = ["study-datavolume", "--layout", "l.json", "--scenario", "s.json",
              "--state", "t.json", "--out-dir", "study"]


class TestBadNumbersAreUsageErrors:
    @pytest.mark.parametrize("argv", [
        CALIBRATE_ARGS + ["--iters", "0"],
        CALIBRATE_ARGS + ["--iters", "x"],
        CALIBRATE_ARGS + ["--seed", "-1"],
        STUDY_ARGS + ["--fractions", "abc"],
        STUDY_ARGS + ["--fractions", "nan"],
        STUDY_ARGS + ["--fractions", "1.5"],
        STUDY_ARGS + ["--fractions", "0.1,0"],
        ["generate", "--out-dir", "g", "--seed", "-3"],
        STUDY_ARGS + ["--pool-size", "5"],
    ])
    def test_exit_1_at_argument_parsing(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--noise-sd", "nan"), ("--noise-sd", "inf"), ("--noise-sd", "-1"),
        ("--recirculation", "1.0"), ("--recirculation", "-0.1"),
    ])
    def test_generate_rejects_bad_noise_and_recirculation(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out-dir", str(tmp_path / "g"), flag, value])
        assert exc.value.code == 1
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_whole_train_set_is_a_valid_fraction(self, generated, tmp_path):
        out, paths = generated
        study = tmp_path / "study"
        assert main(["study-datavolume", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--pool-size", "20", "--fractions", "1", "--out-dir", str(study)]) == 0
        rows = (study / "study.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"16"}  # 80% of the pool
