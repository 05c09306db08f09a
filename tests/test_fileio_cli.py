import csv
import dataclasses
import json
import os
import re
import shlex
import sys
import tempfile
import threading
import typing
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcal import cli, fileio
from hallcal.cli import (
    _make_solver,
    cmd_calibrate,
    cmd_generate,
    cmd_solve,
    cmd_study_datavolume,
    load_settings,
    main,
    run_calibration,
)
from hallcal.engine import CalibConfig, KnowledgeSurrogateModel, mae
from hallcal.errors import (
    EmptyFacilityClassError,
    ObjectiveNonFiniteError,
    ParseError,
    PoolTooSmallError,
    UnknownMethodError,
)
from hallcal.hall import HallLayout, OperatingState
from hallcal.optim import Bounds
from hallcal.surrogate import PenaltyParams
from hallcal.scenarios import make_identifiable_scenario, make_reference_scenario
from hallcal.solver import (Scenario, ThermalSolver, ZonalSolver, external_solve,
                            synthesize_measurements)
from hallcal.study import FRACTIONS, POOL_SIZE

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

    def test_generate_without_options_is_the_reference_hall(self, tmp_path):
        # the hall's shape comes from make_reference_scenario's own defaults
        assert main(["generate", "--out-dir", str(tmp_path / "cli")]) == 0
        scenario, state = make_reference_scenario()
        ref = tmp_path / "ref"
        ref.mkdir()
        fileio.save_layout(scenario.layout, ref / "layout.json")
        fileio.save_scenario(scenario, ref / "scenario.json")
        fileio.save_state(state, ref / "state.json")
        fileio.save_measurements([s.id for s in scenario.layout.sensors],
                                 synthesize_measurements(scenario, state), ref / "measurements.csv")
        for name in ("layout.json", "scenario.json", "state.json", "measurements.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes()


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
        ("a,20.0\nb,21.0\nsen-zz-99,21.5\n", 4),  # a sensor the layout lacks
    ])
    def test_measurements_reject_non_finite_and_duplicate(self, tmp_path, body, line):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,temperature_c\n" + body)
        with pytest.raises(ParseError, match=f"meas.csv line {line}"):
            fileio.load_measurements(path, ["a", "b"])

    @pytest.mark.parametrize("body, line", [
        ("s1,-inf\ns2,0.2\n", 2),
        ("s1,0.1\ns2,0.2\ns2,0.3\n", 4),
        ("s1,0.1\nsrv-zz-99,0.3\ns2,0.2\n", 3),  # a server the layout lacks
    ])
    def test_alpha_rejects_non_finite_and_duplicate(self, tmp_path, body, line):
        path = tmp_path / "alpha.csv"
        path.write_text("server_id,alpha_cfm_per_w\n" + body)
        with pytest.raises(ParseError, match=f"alpha.csv line {line}"):
            fileio.load_alpha(path, ["s1", "s2"])

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_alpha_rejects_non_positive(self, tmp_path, rate):
        path = tmp_path / "alpha.csv"
        path.write_text(f"server_id,alpha_cfm_per_w\ns1,0.1\ns2,{rate}\n")
        with pytest.raises(ParseError, match=f"alpha.csv line 3: non-positive value '{rate}'"):
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
    lower = draw(st.floats(1e-4, 1.0))
    dt_low = draw(st.floats(1e-3, 50.0))
    return CalibConfig(
        bounds=Bounds(lower, lower + draw(st.floats(1e-3, 10.0))),
        max_iterations=draw(counts),
        penalty=PenaltyParams(dt_low, dt_low + draw(st.floats(1e-3, 50.0)),
                              draw(unit), draw(positive)),
        use_de=draw(st.sampled_from([None, True, False])),
        seed=draw(seeds),
        cut_threshold=draw(unit),
    )


# config files the loader must refuse, each with the field its error names. The
# search budgets and the MLP schedule are constants: an old config's train, de or
# adam block is an unknown field, as es is
BAD_CONFIGS = [
    ('{"use_de": "false"}', "use_de"),
    ('{"augment_batch": true}', "augment_batch"),
    ('{"max_iterations": 15.9}', "max_iterations"),
    ('{"cut_threshold": NaN}', "cut_threshold"),
    ('{"penalty": {"dt_low": 20}}', "penalty: need 0 < dt_low"),
    ('{"bounds": [0.01, NaN]}', "bounds.upper"),
    ('{"es": {"sigma0": -1}}', "es: unknown field"),
    ('{"max_iterations": 0}', "max_iterations"),
    ('{"train": {"epochs": "3"}}', "train: unknown field"),
    ('{"de": {"population_size": 10.0}}', "de: unknown field"),
    ('{"max_iterations": 1e400}', "max_iterations"),
    ('{"penalty": {"lam": NaN}}', "penalty.lam"),
    ('{"penalty": {"dt_lo": 5.0}}', "penalty.dt_lo"),
    ('{"penalty": 3}', "penalty"),
    ('{"bounds": [1.0]}', "bounds"),
    ('{"bounds": [2.0, 1.0]}', "bounds"),
    ('{"seed": -1}', "seed"),
    ('{"de": {"seed": 1}}', "de: unknown field"),
    ('{"es": {"seed": 1}}', "es: unknown field"),
    ('{"train": {"decay_every": 0}}', "train: unknown field"),
    ('{"input_noise_frac": -0.1}', "input_noise_frac"),
    ('{"cut_threshold": -1}', "cut_threshold"),
    ('{"es": {"adapt_factor": 0}}', "es: unknown field"),
    ('{"es": {"adapt_every": 0}}', "es: unknown field"),
    ('{"augment_batch": 16}', "augment_batch: unknown field"),
    ('{"mlp_learning_rate": 0.01}', "mlp_learning_rate: unknown field"),
    ('{"es": {}}', "es: unknown field"),
    ('{"de": {"crossover_rate": 0.6}}', "de: unknown field"),
    ('{"adam": {"beta1": 0.9}}', "adam: unknown field"),
    ('{"adam": {"learning_rate": -0.01}}', "adam: unknown field"),
    ('{"adam": {"steps": -3}}', "adam: unknown field"),
    ('{"de": {"max_iterations": -1}}', "de: unknown field"),
    ('{"train": {"epochs": 0}}', "train: unknown field"),
    ('{"train": {"learning_rate": -1}}', "train: unknown field"),
    ('{"train": {"decay": -1}}', "train: unknown field"),
    ('{"train": {"decay": 0}}', "train: unknown field"),
]

BAD_CONFIG_IDS = [re.sub(r"\W+", "_", doc).strip("_") for doc, _ in BAD_CONFIGS]


class TestConfigSchema:
    @given(settings_=run_settings())
    @settings(max_examples=60, deadline=None)
    def test_echo_parses_back_to_the_same_settings(self, settings_):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            fileio._dump_json(fileio.to_json(settings_), path)
            assert load_settings(path) == settings_

    def test_null_use_de_is_the_default(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"use_de": None}))
        assert load_settings(cfg) == load_settings(None)
        assert load_settings(cfg).use_de is None

    def test_echo_widens_integral_floats(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"penalty": {"lam": 2}, "bounds": [1, 2]}))
        echo = fileio.to_json(load_settings(cfg))
        assert json.dumps([echo["penalty"]["lam"], echo["bounds"]]) == "[2.0, [1.0, 2.0]]"

    @pytest.mark.parametrize("doc, field", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_value_names_its_field(self, tmp_path, doc, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        with pytest.raises(ParseError, match=r"c\.json: .*" + re.escape(field)):
            load_settings(cfg, max_iterations=1)

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
    "rated_power_negative": ("layout", lambda d: d["servers"][3].update(rated_power=-400.0),
                             "servers.3: rated_power must be >= 0"),
    "server_id_comma": ("layout", lambda d: d["servers"][0].update(id="srv,001"),
                        "servers.0: id 'srv,001' must be non-empty, with no ','"),
    "sensor_id_empty": ("layout", lambda d: d["sensors"][1].update(id=""), "sensors.1: id ''"),
    "sensor_id_line_break": ("layout", lambda d: d["sensors"][2].update(id="sen\nc-03"),
                             "sensors.2: id 'sen\\nc-03'"),
    "crac_id_padded": ("layout", lambda d: d["cracs"][0].update(id=" crac-1"),
                       "cracs.0: id ' crac-1'"),
    "seed_string": ("scenario", lambda d: d.update(seed="500"), "seed"),
    "seed_fraction": ("scenario", lambda d: d.update(seed=2.5), "seed"),
    "sensor_mixing_string": ("scenario", lambda d: d.update(sensor_mixing="0.5"), "sensor_mixing"),
    "crac_cfm_zero": ("scenario", lambda d: d.update(crac_nominal_cfm=0),
                      "crac_nominal_cfm must be > 0"),
    "crac_cfm_negative": ("scenario", lambda d: d.update(crac_nominal_cfm=-1200),
                          "crac_nominal_cfm must be > 0"),
    "server_cfm_zero": ("scenario", lambda d: d.update(server_nominal_cfm_per_w=0),
                        "server_nominal_cfm_per_w must be > 0"),
    "leakage_above_one": ("scenario", lambda d: d.update(ambient_leakage=1.5),
                          "ambient_leakage must be in [0, 1]"),
    "sensor_mixing_above_one": ("scenario", lambda d: d.update(sensor_mixing=2),
                                "sensor_mixing must be in [0, 1]"),
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


def json_sites(tp, value, names=(), keys=(), required=True):
    """Every value in `value`, the JSON form of a `tp`, as (keys, names, type,
    required): the keys that reach it in the document, the dotted field that
    names it, its field type, and whether its object must hold it."""
    yield keys, names, tp, required
    if value is None:
        return
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]: a wrong type for X is wrong for it too
        (tp,) = [t for t in args if t is not type(None)]
    if tp is Bounds:
        for i, name in enumerate(("lower", "upper")):
            yield from json_sites(float, value[i], names + (name,), keys + (i,), False)
    elif tp is np.ndarray or typing.get_origin(tp) is tuple:
        item = float if tp is np.ndarray else args[0]
        for i, v in enumerate(value):
            yield from json_sites(item, v, names + (i,), keys + (i,), False)
    elif dataclasses.is_dataclass(tp):
        for f, ftp in fileio._schema(tp):
            if f.name in value:
                needed = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
                yield from json_sites(ftp, value[f.name], names + (f.name,), keys + (f.name,),
                                      needed)


def wrong_kinds(tp) -> list:
    """JSON values of a type other than the field type `tp` (true for a number)."""
    if tp in (float, int):
        return [True, "1"] + ([2.5] if tp is int else [])
    if tp is str:
        return [7, None]
    if tp in (bool, Optional[bool]):
        return [1, "true"]
    if dataclasses.is_dataclass(tp) and tp is not Bounds:
        return [[], "x"]
    return [{"x": 1}, 3.0]  # a tuple, an array or Bounds


@st.composite
def json_inputs(draw):
    """A generated layout, scenario, state or config document, the object it
    was written from and the layout it is read against, with at most one
    mutation: (what, object, layout, document, the dotted field the mutation
    names or None, a part of its message)."""
    what = draw(st.sampled_from(["layout", "scenario", "state", "config"]))
    scenario, state = make_reference_scenario(
        seed=draw(st.integers(0, 2 ** 16)), n_cracs=draw(st.integers(1, 3)),
        n_servers=draw(st.integers(1, 5)), n_cold=draw(st.integers(1, 3)),
        n_hot=draw(st.integers(1, 3)), containment=draw(st.booleans()))
    cls, obj = {"layout": (HallLayout, scenario.layout), "scenario": (Scenario, scenario),
                "state": (OperatingState, state), "config": (CalibConfig, None)}[what]
    if what == "config":
        obj = draw(run_settings())
    doc = fileio.to_json(obj, omit=("layout",) if what == "scenario" else ())
    sites = list(json_sites(cls, doc))
    kinds = ["none", "type", "added key"]
    kinds += ["dropped key"] * any(keys and required for keys, _, _, required in sites)
    kinds += ["non-finite"] * any(tp is float for _, _, tp, _ in sites)
    kinds += ["position length"] * (what == "layout")
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return what, obj, scenario.layout, doc, None, None
    if kind == "added key":
        keys, names, _, _ = draw(st.sampled_from(
            [s for s in sites if isinstance(_at(doc, s[0]), dict)]))
        _at(doc, keys)["zz_extra"] = 1
        return what, obj, scenario.layout, doc, names + ("zz_extra",), "unknown field"
    if kind == "dropped key":
        keys, names, _, _ = draw(st.sampled_from([s for s in sites if s[0] and s[3]]))
        del _at(doc, keys[:-1])[keys[-1]]
        return what, obj, scenario.layout, doc, names, "missing field"
    if kind == "position length":
        keys, names, _, _ = draw(st.sampled_from([s for s in sites if s[1][-1:] == ("position",)]))
        position = _at(doc, keys)
        _at(doc, keys[:-1])[keys[-1]] = draw(st.sampled_from([position[:2], position + [0.0]]))
        return what, obj, scenario.layout, doc, names, "must be a list of 3 values"
    candidates = [s for s in sites if s[0] and (kind == "type" or s[2] is float)]
    keys, names, tp, _ = draw(st.sampled_from(candidates))
    bad = draw(st.sampled_from(wrong_kinds(tp) if kind == "type"
                               else [float("nan"), float("inf"), -float("inf")]))
    _at(doc, keys[:-1])[keys[-1]] = bad
    return what, obj, scenario.layout, doc, names, "must be"


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _read_back(what, path, layout):
    if what == "layout":
        return fileio.load_layout(path)
    if what == "scenario":
        return fileio.load_scenario(path, layout)
    if what == "state":
        return fileio.load_state(path, layout)
    return load_settings(path)


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a) and not isinstance(a, (HallLayout, CalibConfig)):
        return type(a) is type(b) and all(
            np.array_equal(getattr(a, f.name), getattr(b, f.name))
            if isinstance(getattr(a, f.name), np.ndarray) else getattr(a, f.name) == getattr(b, f.name)
            for f in dataclasses.fields(a))
    return a == b


class TestReadersOverGeneratedDocuments:
    @given(case=json_inputs())
    @settings(max_examples=150, deadline=None)
    def test_each_mutation_names_its_field(self, case):
        what, obj, layout, doc, names, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{what}.json"
            path.write_text(json.dumps(doc))
            if names is None:
                assert _same(_read_back(what, path, layout), obj)
                return
            dotted = ".".join(map(str, names))
            with pytest.raises(ParseError) as err:
                _read_back(what, path, layout)
        message = str(err.value)
        assert re.match(re.escape(f"{path}: {dotted}") + "[: ]", message), message
        assert expected in message


class TestCalibrateCommand:
    def test_kalibre_report_files(self, generated, tmp_path):
        out, paths = generated
        run = tmp_path / "run"
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], run, max_iterations=2, seed=1)
        assert (run / "report.json").exists()
        assert (run / "traces.csv").exists()
        assert (run / "sensors.csv").exists()
        assert (run / "alpha_star.csv").exists()
        assert (run / "timings.csv").exists()
        assert report["result"]["n_solver_calls"] == 5
        lines = (run / "traces.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per iteration

    @pytest.mark.parametrize("method, steps", [("kalibre", ("t_fit", "t_search", "t_solve")),
                                               ("heuristic", ("t_solve",))])
    def test_timings_split_each_iteration(self, generated, tmp_path, method, steps):
        # timings.csv gives each row's fit, search and solve seconds (empty
        # where the method has no such step), inside its wall time; traces.csv
        # keeps its columns
        out, paths = generated
        run = tmp_path / "run"
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"], paths["measurements"],
                      run, max_iterations=3, seed=1, method=method)
        with open(run / "timings.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["iteration", "wall_time_s", "t_fit", "t_search", "t_solve"]
        assert len(rows) == (3 if method == "kalibre" else 6)
        for row in rows:
            times = [float(row[name]) for name in steps]
            assert all(t >= 0.0 for t in times)
            assert sum(times) <= float(row["wall_time_s"])
            assert all(row[name] == "" for name in ("t_fit", "t_search", "t_solve")
                       if name not in steps)
        header = (run / "traces.csv").read_text().splitlines()[0]
        assert header == ("iteration,validation_mae_c,mean_l2,mean_grad_mag,de_l2,search_residual,"
                          "search_evals,final_l2,solver_calls,dataset_size")

    def test_reports_reproduce_byte_for_byte(self, generated, tmp_path):
        out, paths = generated
        runs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], run, max_iterations=2, seed=1)
            runs.append(run)
        for f in ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv"):
            assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()

    @pytest.mark.parametrize("command", ["calibrate", "generate"])
    def test_rerun_into_a_used_out_dir_matches_a_fresh_run(self, generated, tmp_path, command):
        # each output overwrites a longer stale file, and then the run's own files
        out, paths = generated
        argv = (["generate", "--seed", "3", "--servers", "6"] if command == "generate" else
                ["calibrate", *[f"--{k}={v}" for k, v in paths.items()], "--iters", "3"])
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert main(argv + ["--out-dir", str(fresh)]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        reused.mkdir()
        stale = "stale,1.0\n" * 5000
        for name in names:
            (reused / name).write_text(stale)
        for _ in range(2):
            assert main(argv + ["--out-dir", str(reused)]) == 0
            assert sorted(p.name for p in reused.iterdir()) == names
            for name in names:
                if name == "timings.csv":  # wall-clock values: compare its shape
                    lines = [(reused / name).read_text().splitlines(),
                             (fresh / name).read_text().splitlines()]
                    assert lines[0][0] == lines[1][0] and len(lines[0]) == len(lines[1])
                else:
                    assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_echoed_config_replays_the_run(self, generated, tmp_path):
        # the config block inside report.json is itself a valid --config
        out, paths = generated
        first = tmp_path / "first"
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                      paths["measurements"], first, max_iterations=3, seed=7)
        echoed = json.loads((first / "report.json").read_text())["config"]
        cfg_file = tmp_path / "echoed.json"
        cfg_file.write_text(json.dumps(echoed))
        replay = tmp_path / "replay"
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                      paths["measurements"], replay, config_file=cfg_file)
        for f in ("report.json", "traces.csv", "sensors.csv", "alpha_star.csv"):
            assert (first / f).read_bytes() == (replay / f).read_bytes()

    def test_echoed_non_default_config_replays_through_main(self, generated, tmp_path):
        # cut_threshold sits beside the search settings in the one echoed config block
        out, paths = generated
        inputs = ["--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                  "--state", str(paths["state"]), "--measurements", str(paths["measurements"])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cut_threshold": 0.02, "penalty": {"dt_low": 4.0, "lam": 0.5}}))
        assert main(["calibrate", *inputs, "--config", str(cfg), "--iters", "3", "--seed", "7",
                     "--out-dir", str(tmp_path / "first")]) == 0
        echoed = json.loads((tmp_path / "first" / "report.json").read_text())["config"]
        assert (echoed["cut_threshold"], echoed["penalty"]["dt_low"], echoed["penalty"]["lam"],
                echoed["max_iterations"], echoed["seed"]) == (0.02, 4.0, 0.5, 3, 7)
        cfg.write_text(json.dumps(echoed))
        assert main(["calibrate", *inputs, "--config", str(cfg),
                     "--out-dir", str(tmp_path / "replay")]) == 0
        for f in ("report.json", "traces.csv", "alpha_star.csv"):
            assert (tmp_path / "first" / f).read_bytes() == (tmp_path / "replay" / f).read_bytes()

    @pytest.mark.parametrize("method", ["kalibre", "vanilla", "heuristic"])
    def test_seed_flag_equals_config_seed(self, generated, tmp_path, method):
        # the config's seed is the run's only seed, as --seed sets it
        out, paths = generated
        for name, doc, flags in (("flag", {}, {"seed": 3}), ("file", {"seed": 3}, {})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], tmp_path / name, config_file=cfg,
                          max_iterations=2, method=method, **flags)
        for f in ("traces.csv", "alpha_star.csv"):
            assert (tmp_path / "flag" / f).read_bytes() == (tmp_path / "file" / f).read_bytes()

    def test_vanilla_default_search_is_de_adam(self, generated, tmp_path):
        # the MLP has no exact search, so use_de=None runs DE+Adam as use_de=True does
        out, paths = generated
        for name, use_de in (("default", None), ("de", True)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"use_de": use_de}))
            cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                          paths["measurements"], tmp_path / name, config_file=cfg,
                          max_iterations=2, seed=1, method="vanilla")
        for f in ("traces.csv", "alpha_star.csv"):
            assert (tmp_path / "default" / f).read_bytes() == (tmp_path / "de" / f).read_bytes()
        rows = list(csv.DictReader((tmp_path / "default" / "traces.csv").read_text().splitlines()))
        assert all(r["de_l2"] and not r["search_residual"] for r in rows)

    def test_traces_record_where_each_search_ended(self, tmp_path, monkeypatch):
        # search_evals and final_l2 are the search's own count and end loss; the
        # exact search records no per-step path, so mean_l2 and mean_grad_mag are empty
        paths = cmd_generate(tmp_path / "case", seed=7)
        found = []
        search = KnowledgeSurrogateModel.search
        monkeypatch.setattr(KnowledgeSurrogateModel, "search",
                            lambda self, *args: found.append(search(self, *args)) or found[-1])
        cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                      paths["measurements"], tmp_path / "run", max_iterations=15, seed=7)
        rows = list(csv.DictReader((tmp_path / "run" / "traces.csv").read_text().splitlines()))
        assert len(rows) == len(found) == 15
        for row, res in zip(rows, found):
            assert int(row["search_evals"]) == res.n_evals
            assert float(row["final_l2"]) == res.fun
        assert all(r["mean_l2"] == r["mean_grad_mag"] == "" for r in rows)

    @pytest.mark.parametrize("iters, adaptations", [(15, 0), (97, 4)])
    def test_heuristic_reports_its_step_adaptations(self, generated, tmp_path, iters, adaptations):
        # the 1/5 rule adapts every ES_ADAPT_EVERY = 20 mutations; a budget
        # of 3 + iters solves makes 2 + iters of them
        out, paths = generated
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], tmp_path / "run", max_iterations=iters, seed=1,
                               method="heuristic")
        assert report["result"]["es_adaptations"] == adaptations
        rows = list(csv.DictReader((tmp_path / "run" / "traces.csv").read_text().splitlines()))
        assert all(r["search_evals"] == r["final_l2"] == r["mean_l2"] == r["mean_grad_mag"] == ""
                   for r in rows)

    def test_heuristic_traces_each_solves_own_mae(self, tmp_path, monkeypatch):
        # on reference seed 0: validation_mae_c is each solve's MAE, not the running best
        paths = cmd_generate(tmp_path / "case", seed=0)
        inputs = []  # the flow rates of every solve, which the run makes at its bound state
        solve = ThermalSolver.solve
        monkeypatch.setattr(ThermalSolver, "solve",
                            lambda self, alpha: inputs.append(alpha) or solve(self, alpha))
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
        state = fileio.load_state(paths["state"], layout)
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])
        assert maes == [mae(solver.solve(state.to_input(a)), meas) for a in inputs]

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
                               paths["measurements"], run, max_iterations=4, seed=1,
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
        run = tmp_path / "run_v"
        report = cmd_calibrate(paths["layout"], paths["scenario"], paths["state"],
                               paths["measurements"], run, max_iterations=1, seed=1,
                               method="vanilla")
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
                               max_iterations=1, seed=0, solver_kind="external",
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
    @pytest.mark.parametrize("containment", [True, False])
    def test_solve_at_alpha_star_reproduces_the_run(self, tmp_path, containment):
        # `solve` derives the state afresh for its one input; a calibration
        # binds it once per run. Both must read the same temperatures.
        case, run = tmp_path / "case", tmp_path / "run"
        assert main(["generate", "--out-dir", str(case), "--seed", "7",
                     *([] if containment else ["--no-containment"])]) == 0
        inputs = ["--layout", str(case / "layout.json"), "--scenario", str(case / "scenario.json"),
                  "--state", str(case / "state.json")]
        assert main(["calibrate", *inputs, "--measurements", str(case / "measurements.csv"),
                     "--iters", "3", "--out-dir", str(run)]) == 0
        assert main(["solve", *inputs, "--alpha", str(run / "alpha_star.csv"),
                     "--out", str(tmp_path / "solved.csv")]) == 0
        with open(run / "sensors.csv") as f:
            rows = list(csv.DictReader(f))
        solved = fileio.load_measurements(tmp_path / "solved.csv", [r["sensor_id"] for r in rows])
        assert [float(r["predicted_c"]) for r in rows] == list(solved)

    def test_solve_at_truth_matches_noiseless_measurements(self, tmp_path):
        paths = cmd_generate(tmp_path / "c", seed=2, n_servers=8, n_cold=3,
                             n_hot=2, noise_sd=0.0)
        layout = fileio.load_layout(paths["layout"])
        out_file = tmp_path / "new" / "solved.csv"  # --out makes its directory
        temps = cmd_solve(paths["layout"], paths["scenario"], paths["state"],
                          out=out_file)
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])
        np.testing.assert_allclose(temps, meas, atol=1e-12)
        assert np.array_equal(fileio.load_measurements(out_file, [s.id for s in layout.sensors]),
                              temps)

    def test_out_under_a_regular_file_is_2_before_the_solve(self, generated, tmp_path, capsys,
                                                           monkeypatch):
        out, paths = generated
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        solves = []
        monkeypatch.setattr(ZonalSolver, "_solve", lambda self, x: solves.append(x))
        code = main(["solve", "--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"]), "--out", str(blocker / "solved.csv")])
        assert code == 2
        assert re.fullmatch("error: cannot create output directory " + re.escape(str(blocker))
                            + ": .+\n", capsys.readouterr().err)
        assert solves == []

    def test_out_that_is_a_directory_is_2(self, generated, tmp_path, capsys):
        out, paths = generated
        code = main(["solve", "--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"]), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_out_that_is_a_fifo_is_written_through(self, generated, tmp_path):
        # an --out that exists and is not a regular file (a FIFO, a device)
        # is opened and written, not replaced
        out, paths = generated
        inputs = ["solve", "--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                  "--state", str(paths["state"]), "--out"]
        assert main(inputs + [str(tmp_path / "solved.csv")]) == 0
        fifo = tmp_path / "solved.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(inputs + [str(fifo)]) == 0
        reader.join(timeout=10)
        assert got == [(tmp_path / "solved.csv").read_bytes()]
        assert fifo.is_fifo()


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

    def test_empty_fraction_is_2_before_any_solve(self, generated, tmp_path, capsys,
                                                  monkeypatch):
        out, paths = generated
        solves = []
        solve = ThermalSolver.solve
        monkeypatch.setattr(ThermalSolver, "solve",
                            lambda self, x: solves.append(x) or solve(self, x))
        code = main(["study-datavolume", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--pool-size", "200", "--fractions", "0.5,0.001",
                     "--out-dir", str(tmp_path / "study")])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: fraction 0.001 of 160 training samples is empty\n"
        assert solves == []
        assert not (tmp_path / "study").exists()

    def test_default_shape_comes_from_the_study_module(self, generated, tmp_path, monkeypatch):
        out, paths = generated
        calls = []
        monkeypatch.setattr(cli, "run_datavolume_study",
                            lambda scenario, state, *shape: calls.append(shape) or [])
        assert main(["study-datavolume", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--out-dir", str(tmp_path / "study")]) == 0
        assert calls == [(list(FRACTIONS), POOL_SIZE, 0)]

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

    def test_directory_as_measurements_is_2_with_no_run_dir(self, generated, tmp_path, capsys):
        out, paths = generated
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(out), "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out}: cannot read: Is a directory\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("options, message", [
        (["--external-command", "no-such-binary"], "--external-command requires --solver external"),
        (["--solver", "zonal", "--workdir", "wd"], "--workdir requires --solver external"),
        (["--external-command", "no-such-binary", "--workdir", "wd"],
         "--external-command and --workdir require --solver external"),
        (["--solver", "external", "--external-command", "python -c 'print(1)"],
         "--external-command \"python -c 'print(1)\": No closing quotation"),
    ], ids=["command-on-zonal", "workdir-on-zonal", "both-on-zonal", "unsplittable-command"])
    def test_solver_options_that_cannot_apply_are_2_before_any_solve(
            self, generated, tmp_path, capsys, monkeypatch, options, message):
        """An external-solver option without `--solver external` would be
        ignored, and a command shlex cannot split cannot be run: each exits
        2 naming the options, with no solve and no run directory."""
        out, paths = generated
        monkeypatch.setattr(cli, "_run_method", lambda *args: pytest.fail("a solve ran"))
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), *options,
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_non_utf8_layout_is_2(self, generated, tmp_path, capsys):
        out, paths = generated
        layout = tmp_path / "layout.json"
        layout.write_bytes(Path(paths["layout"]).read_bytes().replace(b'"crac-', b'"\xffcrac-', 1))
        code = main(["solve", "--layout", str(layout), "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"])])
        assert code == 2
        assert re.fullmatch(f"error: {re.escape(str(layout))}: not UTF-8 text at byte \\d+\n",
                            capsys.readouterr().err)

    def test_non_utf8_solver_output_is_3_with_a_partial_report(self, generated, tmp_path, capsys):
        out, paths = generated
        script = tmp_path / "undecodable_solver.py"
        script.write_text("import sys\nfrom pathlib import Path\n"
                          "(Path(sys.argv[1]) / 'sensor_output.txt').write_bytes(b'\\xff\\n')\n")
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--iters", "2",
                     "--solver", "external",
                     "--external-command", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
                     "--workdir", str(tmp_path / "work"), "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert "sensor_output.txt: not UTF-8 text at byte 0" in capsys.readouterr().err
        result = json.loads((tmp_path / "r" / "report.json").read_text())["result"]
        assert result["aborted"].startswith("solver failed during seeding: ")
        assert result["iterations"] == 0 and result["n_solver_calls"] == 1
        assert (tmp_path / "r" / "traces.csv").exists()
        assert (tmp_path / "r" / "alpha_star.csv").exists()

    @pytest.mark.parametrize("method, aborted", [
        ("kalibre", "solver failed during seeding"),
        ("vanilla", "solver failed during seeding"),
        ("heuristic", "solver failed at iteration 1"),  # the ES has no seed solves
    ], ids=["kalibre", "vanilla", "heuristic"])
    def test_solver_failure_is_3(self, generated, tmp_path, capsys, method, aborted):
        out, paths = generated
        failing = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(4)'"
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--method", method,
                     "--solver", "external", "--external-command", failing,
                     "--workdir", str(tmp_path / "work"), "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert "external solver exited 4" in capsys.readouterr().err
        # it failed at its first solve: a report with no iteration and no sensor table
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["result"]["iterations"] == 0 and report["result"]["best_mae_c"] is None
        assert report["result"]["aborted"].startswith(aborted)
        assert report["result"]["n_solver_calls"] == 1
        assert (tmp_path / "r" / "traces.csv").read_text().count("\n") == 1
        assert (tmp_path / "r" / "alpha_star.csv").exists()
        assert not (tmp_path / "r" / "sensors.csv").exists()

    @pytest.mark.parametrize("method, aborted", [
        ("kalibre", "solver failed during seeding"),
        ("heuristic", "solver failed at iteration 1"),
    ], ids=["kalibre", "heuristic"])
    @pytest.mark.parametrize("case", ["missing-command", "workdir-is-a-file"])
    def test_bridge_that_cannot_run_is_3_naming_what_failed(self, generated, tmp_path, capsys,
                                                          method, aborted, case):
        # a command that cannot start, or a workdir that cannot be made, aborts the
        # run as a failing solve does: a partial report names the command or the path
        out, paths = generated
        workdir, command = tmp_path / "work", "no-such-solver-binary"
        if case == "missing-command":
            reason, calls = ("cannot start external solver no-such-solver-binary: "
                             "No such file or directory"), 1
        else:
            workdir.write_text("")
            command = f"{shlex.quote(sys.executable)} -c pass"
            reason, calls = f"cannot create solver workdir {workdir}: File exists", 0
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--method", method,
                     "--solver", "external", "--external-command", command,
                     "--workdir", str(workdir), "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == f"calibration aborted: {aborted}: {reason}\n"
        result = json.loads((tmp_path / "r" / "report.json").read_text())["result"]
        assert result["aborted"] == f"{aborted}: {reason}"
        assert result["iterations"] == 0 and result["n_solver_calls"] == calls
        assert (tmp_path / "r" / "traces.csv").read_text().count("\n") == 1
        assert (tmp_path / "r" / "alpha_star.csv").exists()

    def test_bridge_output_with_an_unknown_id_is_3(self, generated, tmp_path, capsys):
        # the solver's readings are keyed by the layout's sensors, and one more fails the solve
        out, paths = generated
        layout = fileio.load_layout(paths["layout"])
        script = tmp_path / "extra_solver.py"
        rows = "".join(f"{s.id}, 21.0\n" for s in layout.sensors) + "sen-zz-99, 21.5\n"
        script.write_text("import sys\nfrom pathlib import Path\n"
                          f"(Path(sys.argv[1]) / 'sensor_output.txt').write_text({rows!r})\n")
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--solver", "external",
                     "--external-command", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
                     "--workdir", str(tmp_path / "work"), "--out-dir", str(tmp_path / "r")])
        assert code == 3
        output = tmp_path / "work" / "sensor_output.txt"
        assert capsys.readouterr().err == ("calibration aborted: solver failed during seeding: "
                                           f"{output} line 7: unknown id 'sen-zz-99'\n")

    def test_abort_whose_partial_report_cannot_be_written_is_3(self, generated, tmp_path,
                                                              capsys):
        # the failed write is reported, then the abort ends the run
        out, paths = generated
        run = tmp_path / "r"
        (run / "report.json").mkdir(parents=True)
        failing = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(4)'"
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--solver", "external",
                     "--external-command", failing, "--workdir", str(tmp_path / "work"),
                     "--out-dir", str(run)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {run / 'report.json'}: Is a directory",
            "calibration aborted: solver failed during seeding: external solver exited 4"]
        assert (run / "traces.csv").exists() and (run / "alpha_star.csv").exists()

    def test_heuristic_solver_failure_partway_keeps_its_solves(self, generated, tmp_path, capsys):
        # the command logs each call's flow rates and readings, and exits 4 on its 6th call
        out, paths = generated
        layout = fileio.load_layout(paths["layout"])
        log = tmp_path / "calls.jsonl"
        script = tmp_path / "failing_solver.py"
        script.write_text(
            "import json, sys\nfrom pathlib import Path\n"
            "work = Path(sys.argv[1])\n"
            f"log = Path({str(log)!r})\n"
            "if log.exists() and len(log.read_text().splitlines()) == 5:\n    sys.exit(4)\n"
            "alpha = [float(l.split(',')[1]) for l in\n"
            "         (work / 'flow_config.txt').read_text().splitlines() if l.strip()]\n"
            f"ids = {[s.id for s in layout.sensors]!r}\n"
            "temps = [20.0 + (k + 1) * alpha[k] for k in range(len(ids))]\n"
            "(work / 'sensor_output.txt').write_text(\n"
            "    ''.join(f'{i}, {t!r}\\n' for i, t in zip(ids, temps)))\n"
            "with open(log, 'a') as f:\n    f.write(json.dumps([alpha, temps]) + '\\n')\n")
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]), "--method", "heuristic",
                     "--iters", "15", "--seed", "1", "--solver", "external",
                     "--external-command", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
                     "--workdir", str(tmp_path / "work"), "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err.startswith("calibration aborted: solver failed at iteration 6")
        run = tmp_path / "r"
        result = json.loads((run / "report.json").read_text())["result"]
        assert result["iterations"] == 5 and result["n_solver_calls"] == 6
        assert result["aborted"].startswith("solver failed at iteration 6: external solver exited 4")
        assert "es_adaptations" not in result
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        meas = fileio.load_measurements(paths["measurements"], [s.id for s in layout.sensors])
        maes = [mae(np.array(temps), meas) for _, temps in calls]
        with open(run / "traces.csv") as f:
            traces = list(csv.DictReader(f))
        assert [float(t["validation_mae_c"]) for t in traces] == maes
        assert [int(t["solver_calls"]) for t in traces] == [1, 2, 3, 4, 5]
        best = int(np.argmin(maes))  # the earliest of equal bests
        assert result["best_mae_c"] == maes[best]
        with open(run / "sensors.csv") as f:
            assert [float(r["predicted_c"]) for r in csv.DictReader(f)] == calls[best][1]
        ids = [s.id for s in layout.servers]
        assert list(fileio.load_alpha(run / "alpha_star.csv", ids)) == calls[best][0]
        assert len((run / "timings.csv").read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("command", ["calibrate", "study-datavolume", "generate"])
    def test_out_dir_that_cannot_be_made_is_2_before_any_solve(self, generated, tmp_path,
                                                              capsys, monkeypatch, command):
        out, paths = generated
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        solves = []
        solve = ThermalSolver.solve
        monkeypatch.setattr(ThermalSolver, "solve",
                            lambda self, x: solves.append(x) or solve(self, x))
        argv = [command, "--out-dir", str(blocker / "run")]
        if command != "generate":
            argv += ["--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"])]
        if command == "calibrate":
            argv += ["--measurements", str(paths["measurements"]), "--iters", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch("error: cannot create output directory "
                            + re.escape(str(blocker / "run")) + ": .+\n", err)
        assert solves == []

    @pytest.mark.parametrize("command, blocked", [("generate", "layout.json"),
                                                  ("calibrate", "report.json"),
                                                  ("study-datavolume", "study.json")])
    def test_output_file_that_cannot_be_written_is_2(self, generated, tmp_path, capsys,
                                                     command, blocked):
        # the run directory exists, but one file in it is a directory
        out, paths = generated
        run = tmp_path / "run"
        (run / blocked).mkdir(parents=True)
        argv = [command, "--out-dir", str(run)]
        if command != "generate":
            argv += ["--layout", str(paths["layout"]), "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"])]
        if command == "calibrate":
            argv += ["--measurements", str(paths["measurements"]), "--iters", "1"]
        if command == "study-datavolume":
            argv += ["--pool-size", "20", "--fractions", "0.5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {run / blocked}: Is a directory\n"

    def test_threshold_that_cuts_every_weight_is_2_with_no_run_dir(self, generated, tmp_path,
                                                                  capsys, monkeypatch):
        out, paths = generated
        calls = []
        build = cli.build_adjacency
        monkeypatch.setattr(cli, "build_adjacency",
                            lambda *args: calls.append(args) or build(*args))
        config = tmp_path / "cut.json"
        argv = ["calibrate", "--layout", str(paths["layout"]),
                "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                "--measurements", str(paths["measurements"]), "--iters", "1"]
        config.write_text(json.dumps({"cut_threshold": 1e9}))
        assert main(argv + ["--config", str(config), "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == \
            "error: threshold 1000000000.0 removed all CRAC weights of sensor 0\n"
        assert not (tmp_path / "r").exists()
        assert len(calls) == 1
        assert main(argv + ["--out-dir", str(tmp_path / "ok")]) == 0
        assert len(calls) == 2  # one build of the priors per run

    def test_non_positive_flow_rate_file_is_2(self, generated, tmp_path, capsys):
        out, paths = generated
        layout = fileio.load_layout(paths["layout"])
        alpha = np.full(layout.n_servers, 0.2)
        alpha[0] = 0.0
        fileio.save_alpha([s.id for s in layout.servers], alpha, tmp_path / "flows.csv")
        code = main(["solve", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--alpha", str(tmp_path / "flows.csv")])
        assert code == 2
        assert "flows.csv line 2: non-positive value '0.0'" in capsys.readouterr().err

    def test_search_failure_is_3(self, generated, tmp_path, capsys, monkeypatch):
        out, paths = generated
        search, calls = KnowledgeSurrogateModel.search, []

        def failing_search(self, *args):
            calls.append(args)
            if len(calls) == 3:
                raise ObjectiveNonFiniteError("search objective is not finite")
            return search(self, *args)

        monkeypatch.setattr(KnowledgeSurrogateModel, "search", failing_search)
        code = main(["calibrate", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]),
                     "--state", str(paths["state"]),
                     "--measurements", str(paths["measurements"]),
                     "--iters", "5", "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "calibration aborted: surrogate failed at iteration 3")
        run = tmp_path / "r"
        report = json.loads((run / "report.json").read_text())
        assert report["result"]["iterations"] == 2 and report["result"]["n_solver_calls"] == 5
        assert report["result"]["aborted"] == ("surrogate failed at iteration 3: "
                                               "search objective is not finite")
        with open(run / "traces.csv") as f:
            traces = list(csv.DictReader(f))
        assert [int(t["iteration"]) for t in traces] == [1, 2]
        assert report["result"]["best_mae_c"] == min(float(t["validation_mae_c"]) for t in traces)
        for name in ("timings.csv", "sensors.csv", "alpha_star.csv"):
            assert (run / name).exists()

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

    @pytest.mark.parametrize("flag", ["--cracs", "--servers", "--sensors-cold", "--sensors-hot"])
    def test_generate_rejects_bad_counts(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out-dir", str(tmp_path / "g"), flag, "0"])
        assert exc.value.code == 1
        assert f"error: argument {flag}: '0' is not an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_whole_train_set_is_a_valid_fraction(self, generated, tmp_path):
        out, paths = generated
        study = tmp_path / "study"
        assert main(["study-datavolume", "--layout", str(paths["layout"]),
                     "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                     "--pool-size", "20", "--fractions", "1", "--out-dir", str(study)]) == 0
        rows = (study / "study.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"16"}  # 80% of the pool


class TestOneCommandParser:
    """main reads a command's line with that command's parser alone
    (cli.command_parser); it must read each line as the full parser does,
    and every text main prints while parsing must be the full parser's."""

    ARGVS = [
        ["generate", "--out-dir", "g", "--seed", "3", "--servers", "12", "--no-containment"],
        ["solve", "--layout", "l", "--scenario", "s", "--state", "t", "--alpha", "a", "--out", "o"],
        CALIBRATE_ARGS + ["--method", "heuristic", "--iters", "4", "--seed", "2",
                          "--solver", "external", "--external-command", "x y", "--workdir", "w"],
        STUDY_ARGS + ["--fractions", "0.1,0.5", "--pool-size", "20", "--seed", "1"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys) -> tuple:
        """The exit code, stdout and stderr of parse(argv), which must exit."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_same_namespace_and_help(self, argv, capsys):
        command = argv[0]
        full, one = cli.build_parser(), cli.command_parser(command)
        options, unknown = one.parse_known_args(argv[1:])
        assert unknown == []
        expected = vars(full.parse_args(argv))
        assert expected.pop("command") == command and vars(options) == expected
        help_text = self.outcome(full.parse_args, [command, "--help"], capsys)
        assert self.outcome(one.parse_args, ["--help"], capsys) == help_text
        assert one.format_help() == help_text[1]

    @pytest.mark.parametrize("argv", [ARGVS[2][:-1], ARGVS[2] + ["--bogus"], ["calibrate"]])
    def test_same_usage_error(self, argv, capsys):
        errors = [self.outcome(parse, argv, capsys) for parse in (cli.build_parser().parse_args,
                                                                   main)]
        assert errors[0] == errors[1] and errors[0][0] == 1

    # command lines main must answer with the full parser's text and exit code
    TEXT_CASES = {
        "bare": [],
        "help": ["--help"],
        "unknown-command": ["frobnicate", "--out-dir", "x"],
        "command-first-option": ["--out-dir", "x", "generate"],
        **{f"{argv[0]}-help": [argv[0], "--help"] for argv in ARGVS},
        **{f"{argv[0]}-h-among-options": argv[:3] + ["-h"] for argv in ARGVS},
        **{f"{argv[0]}-missing-option": [argv[0]] for argv in ARGVS},
        **{f"{argv[0]}-missing-value": argv + ["--out-dir"] for argv in ARGVS},
        **{f"{argv[0]}-unrecognized": argv + ["--bogus", "1"] for argv in ARGVS},
        **{f"{argv[0]}-stray-positional": argv[:1] + ["stray"] + argv[1:] for argv in ARGVS},
        "calibrate-iters-0": ARGVS[2] + ["--iters", "0"],
        "calibrate-bad-method": ARGVS[2] + ["--method", "annealing"],
        "calibrate-abbreviation-without-value": ARGVS[2] + ["--it"],
        "study-fraction-above-one": ARGVS[3] + ["--fractions", "0.1,2"],
        "generate-seed-negative": ARGVS[0] + ["--seed", "-1"],
    }

    @pytest.mark.parametrize("case", TEXT_CASES)
    def test_main_prints_the_full_parsers_text(self, case, capsys):
        argv = self.TEXT_CASES[case]
        expected = self.outcome(cli.build_parser().parse_args, argv, capsys)
        assert self.outcome(main, argv, capsys) == expected
        if case.endswith(("unrecognized", "stray-positional")):
            assert expected[0] == 1
            assert expected[2].startswith("usage: hallcal [-h] {generate,")
