import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcal.errors import (
    CommandFailedError,
    DimensionMismatchError,
    HallcalError,
    InvalidInputError,
    OutputDirectoryError,
    ParseError,
    SolverTimeoutError,
)
from hallcal.hall import COLD, HOT, Crac, HallLayout, Sensor, Server, SystemInput
from hallcal.scenarios import make_identifiable_scenario, make_reference_scenario
from hallcal.solver import (
    BoundSolver,
    ExternalSolver,
    ExternalSolverSpec,
    OperatingState,
    Scenario,
    ZonalSolver,
    external_solve,
    synthesize_measurements,
    zonal_solve,
)
from hallcal.surrogate import KAPPA_CFM_PER_W

ECHO_SOLVER = Path(__file__).parents[1] / "scripts" / "echo_solver.py"


def one_server_layout():
    return HallLayout(
        cracs=(Crac(id="c1", position=(0.0, 0.0, 1.0)),),
        servers=(Server(id="s1", position=(2.0, 3.0, 1.2), type_tag="t",
                        rated_power=200.0),),
        sensors=(Sensor(id="n-cold", position=(2.0, 2.0, 1.5), aisle=COLD),
                 Sensor(id="n-hot", position=(2.0, 4.0, 1.5), aisle=HOT)),
    )


def one_server_scenario(recirculation=0.0, **overrides):
    layout = one_server_layout()
    defaults = dict(layout=layout, alpha_true=np.array([0.2]),
                    recirculation_fraction=recirculation, ambient_c=20.0,
                    sensor_noise_sd=0.0, seed=0)
    defaults.update(overrides)
    return Scenario(**defaults)


def one_server_state(power=200.0):
    return OperatingState(crac_setpoints=np.array([20.0]),
                          crac_fan_speeds=np.array([0.8]),
                          server_powers=np.array([power]))


def sweep_solve(solver, x):
    """The zonal energy balance by plain fixed-point sweeps, run until no
    cold-zone temperature moves by 1e-12."""
    sc = solver.scenario
    r, leak = sc.recirculation_fraction, sc.ambient_leakage
    phi = sc.crac_nominal_cfm * x.crac_fan_speeds ** sc.fan_law_exponent
    cold_supply = (phi * x.crac_setpoints) @ solver.crac_to_cold
    cold_flow = phi @ solver.crac_to_cold
    bypass_flow = r * (phi @ solver.crac_to_hot)
    rise = KAPPA_CFM_PER_W * x.server_powers / solver.rated / x.flow_rates
    exhaust = (sc.server_nominal_cfm_per_w * solver.rated)[:, None] * solver.server_exhaust
    backflow = (0.0 if sc.layout.containment else r) * exhaust.sum(axis=0)
    t_cold = np.full(solver.cold_idx.size, sc.ambient_c)
    for _ in range(10_000):
        cold_near = solver.hot_to_cold @ t_cold
        t_hot = ((exhaust.T @ (solver.server_inlet @ t_cold + rise) + bypass_flow * cold_near)
                 / (exhaust.sum(axis=0) + bypass_flow))
        cold_in = cold_supply + (backflow * t_hot) @ solver.hot_to_cold
        cold_total = cold_flow + backflow @ solver.hot_to_cold
        t_next = (1.0 - leak) * cold_in / cold_total + leak * sc.ambient_c
        if np.max(np.abs(t_next - t_cold)) < 1e-12:
            break
        t_cold = t_next
    else:
        raise AssertionError("sweeps did not settle")
    readings = np.empty(solver.layout.n_sensors)
    readings[solver.cold_idx] = solver.mix_cold @ t_cold
    readings[solver.hot_idx] = solver.mix_hot @ t_hot
    return readings


class TestZonalSolve:
    def test_zero_power_reads_pure_crac_mix(self, reference):
        scenario, state = reference
        solver = ZonalSolver(scenario)
        x = SystemInput(state.crac_setpoints, state.crac_fan_speeds,
                        np.zeros(scenario.layout.n_servers),
                        np.full(scenario.layout.n_servers, 0.2))
        t = solver.solve(x)
        cold, hot = t[solver.cold_idx], t[solver.hot_idx]
        lo = min(state.crac_setpoints.min(), scenario.ambient_c) - 1e-9
        hi = max(state.crac_setpoints.max(), scenario.ambient_c) + 1e-9
        assert np.all((t >= lo) & (t <= hi))
        # hot aisles pick up no heat, so they agree with the cold mix
        assert abs(hot.mean() - cold.mean()) < 0.05

    def test_zero_rated_idle_server_is_no_server(self, reference):
        # a rating of 0 is allowed: the solve must not divide by it (pytest makes
        # a RuntimeWarning an error), and the server then moves no air at all
        scenario, state = reference
        j, keep = 5, np.arange(scenario.layout.n_servers) != 5
        servers = list(scenario.layout.servers)
        servers[j] = replace(servers[j], rated_power=0.0)
        zero_rated = replace(scenario, layout=replace(scenario.layout, servers=tuple(servers)))
        powers = state.server_powers.copy()
        powers[j] = 0.0
        got = ZonalSolver(zero_rated).solve(SystemInput(
            state.crac_setpoints, state.crac_fan_speeds, powers, scenario.alpha_true))
        removed = replace(scenario, alpha_true=scenario.alpha_true[keep], layout=replace(
            scenario.layout, servers=tuple(s for s, k in zip(servers, keep) if k)))
        want = ZonalSolver(removed).solve(SystemInput(
            state.crac_setpoints, state.crac_fan_speeds, powers[keep], scenario.alpha_true[keep]))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_single_server_first_principle_rise(self):
        # one CRAC at 20 degC, no recirculation, P = rated = 200 W,
        # alpha = 0.175 cfm/W -> hot sensor at 20 + kappa/0.175 ~ 30
        scenario = one_server_scenario()
        x = one_server_state().to_input(np.array([0.175]))
        t = zonal_solve(scenario, x)
        expected_hot = 20.0 + KAPPA_CFM_PER_W / 0.175
        assert t[1] == pytest.approx(expected_hot, abs=1e-9)
        assert t[1] == pytest.approx(30.0, abs=0.01)
        assert t[0] == pytest.approx(20.0, abs=1e-9)

    def test_fan_doubling_halves_server_rise_share(self):
        # two-zone balance by hand: T_hot - T_cold = q * rise / (q + r*phi*V)
        scenario = one_server_scenario(recirculation=0.5, crac_nominal_cfm=2000.0)
        state = one_server_state()
        rise = KAPPA_CFM_PER_W / 0.2
        q = scenario.server_nominal_cfm_per_w * 200.0
        contributions = {}
        for fan in (0.5, 1.0):
            x = SystemInput(np.array([20.0]), np.array([fan]), np.array([200.0]),
                            np.array([0.2]))
            t = zonal_solve(scenario, x)
            expected = q * rise / (q + 0.5 * 2000.0 * fan)
            assert t[1] - t[0] == pytest.approx(expected, abs=1e-9)
            contributions[fan] = t[1] - t[0]
        ratio = contributions[1.0] / contributions[0.5]
        assert 0.5 < ratio < 0.53  # doubling the fan roughly halves the share

    def test_deterministic_bit_identical(self, reference):
        scenario, state = reference
        x = state.to_input(scenario.alpha_true)
        t1 = ZonalSolver(scenario).solve(x)
        t2 = ZonalSolver(scenario).solve(x)
        assert np.array_equal(t1, t2)

    def test_invalid_inputs(self):
        scenario = one_server_scenario()
        state = one_server_state()
        solver = ZonalSolver(scenario)
        with pytest.raises(InvalidInputError):
            solver.solve(state.to_input(np.array([0.0])))  # nonpositive flow
        with pytest.raises(InvalidInputError):
            solver.solve(SystemInput(np.array([20.0]), np.array([1.2]),
                                     np.array([200.0]), np.array([0.2])))
        with pytest.raises(InvalidInputError):
            solver.solve(SystemInput(np.array([20.0]), np.array([0.0]),
                                     np.array([200.0]), np.array([0.2])))
        from hallcal.errors import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            solver.solve(SystemInput(np.array([20.0, 21.0]), np.array([0.5, 0.5]),
                                     np.array([200.0]), np.array([0.2])))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", [f.name for f in fields(SystemInput)])
    def test_non_finite_input_is_invalid(self, name, value):
        solver = ZonalSolver(one_server_scenario())
        x = one_server_state().to_input(np.array([0.2]))
        values = {f.name: getattr(x, f.name) for f in fields(x)}
        values[name] = np.array([value])
        with pytest.raises(InvalidInputError):
            solver.solve(SystemInput(**values))

    @pytest.mark.parametrize("name, x", [
        ("crac_setpoints", SystemInput([20.0, 21.0], [0.5, 0.5], [200.0], [0.2])),
        ("server_powers", SystemInput([20.0], [0.5], [200.0, 100.0], [0.2, 0.2])),
    ], ids=["cracs", "servers"])
    def test_count_mismatch_names_the_field(self, name, x):
        with pytest.raises(DimensionMismatchError, match=f"^{name}: expected 1 entries, got 2$"):
            ZonalSolver(one_server_scenario()).solve(x)

    def test_call_counter(self, reference):
        scenario, state = reference
        solver = ZonalSolver(scenario)
        x = state.to_input(scenario.alpha_true)
        for expected in range(1, 4):
            solver.solve(x)
            assert solver.n_calls == expected

    @pytest.mark.parametrize("maker", [make_reference_scenario, make_identifiable_scenario])
    def test_shipped_scenarios_converge(self, maker):
        scenario, state = maker(seed=0)
        zonal_solve(scenario, state.to_input(scenario.alpha_true))  # raises if invalid

    @pytest.mark.parametrize("containment", [True, False])
    def test_exact_solve_is_the_sweep_fixed_point(self, reference, containment):
        scenario, state = reference
        if not containment:
            layout = replace(scenario.layout, containment=False)
            scenario = replace(scenario, layout=layout, recirculation_fraction=0.3)
        solver = ZonalSolver(scenario)
        rng = np.random.default_rng(15)
        for alpha in (scenario.alpha_true, rng.uniform(0.05, 2.0, scenario.layout.n_servers)):
            x = state.to_input(alpha)
            assert np.max(np.abs(solver.solve(x) - sweep_solve(solver, x))) < 1e-9

    def test_uncontained_variant_converges(self, reference):
        scenario, state = reference
        layout = replace(scenario.layout, containment=False)
        uncontained = replace(scenario, layout=layout, recirculation_fraction=0.3)
        t_open = zonal_solve(uncontained, state.to_input(scenario.alpha_true))
        t_closed = zonal_solve(scenario, state.to_input(scenario.alpha_true))
        solver = ZonalSolver(uncontained)
        # backflow warms the cold aisles relative to the contained hall
        assert t_open[solver.cold_idx].mean() > t_closed[solver.cold_idx].mean()


def small_scenario(containment: bool) -> Scenario:
    """Two CRACs, four servers (the third rated 0 W), two cold and two hot
    sensors, with or without containment."""
    layout = HallLayout(
        cracs=(Crac(id="c1", position=(0.0, 0.0, 1.0)), Crac(id="c2", position=(8.0, 0.0, 1.0))),
        servers=tuple(Server(id=f"s{j}", position=(1.0 + 2.0 * j, 3.0, 1.2), type_tag="t",
                             rated_power=0.0 if j == 2 else 400.0) for j in range(4)),
        sensors=(Sensor(id="n1", position=(3.0, 2.0, 1.5), aisle=COLD),
                 Sensor(id="n2", position=(6.0, 2.0, 1.5), aisle=COLD),
                 Sensor(id="n3", position=(3.0, 4.0, 1.5), aisle=HOT),
                 Sensor(id="n4", position=(6.0, 4.0, 1.5), aisle=HOT)),
        containment=containment)
    return Scenario(layout=layout, alpha_true=np.full(4, 0.2), recirculation_fraction=0.3)


def small_state(i: int) -> OperatingState:
    """A new copy of one of two valid states; the zero-rated server draws 0 W
    in the first and 50 W in the second."""
    return [OperatingState([18.0, 20.0], [0.8, 0.5], [300.0, 150.0, 0.0, 380.0]),
            OperatingState([21.0, 19.5], [0.0, 1.0], [100.0, 400.0, 50.0, 0.0])][i]


BAD_FLOWS = {  # flow rates a solve must reject, with the error of their first failing check
    "short": ([0.2, 0.2, 0.2], DimensionMismatchError, "powers and flow rates differ in length"),
    "long": ([0.2] * 5, DimensionMismatchError, "powers and flow rates differ in length"),
    "nan": ([0.2, np.nan, 0.2, 0.2], InvalidInputError, "non-finite entries in solver input"),
    "inf": ([0.2, np.inf, 0.2, 0.2], InvalidInputError, "non-finite entries in solver input"),
    "zero": ([0.2, 0.0, 0.2, 0.2], InvalidInputError, "flow rates must be positive"),
    "negative": ([0.2, -0.1, 0.2, 0.2], InvalidInputError, "flow rates must be positive"),
    # positive, but its server's rise overflows: raised with no RuntimeWarning on the way
    "subnormal": ([0.2, 1e-310, 0.2, 0.2], InvalidInputError,
                  "non-finite readings at 4 flow rates in [1e-310, 0.2]"),
    # count before finiteness before sign
    "short, nan and zero": ([np.nan, 0.0, 0.2], DimensionMismatchError,
                            "powers and flow rates differ in length"),
    "nan and zero": ([0.0, np.nan, 0.2, -1.0], InvalidInputError,
                     "non-finite entries in solver input"),
}

BOUND_OPS = st.one_of(
    st.tuples(st.just("state"), st.integers(0, 1)),
    st.tuples(st.just("write"), st.sampled_from([f.name for f in fields(OperatingState)]),
              st.integers(0, 3),
              st.one_of(st.floats(-1.0, 500.0, allow_subnormal=False),
                        st.sampled_from([0.0, 1.0, 1.5, np.nan, np.inf]))),
    st.tuples(st.just("bind"), st.none()),
    st.tuples(st.just("solve"), st.lists(st.floats(0.05, 3.0), min_size=4, max_size=4)),
    st.tuples(st.just("bad flow"), st.sampled_from(sorted(BAD_FLOWS))),
)


def outcome(solve, x):
    """The readings of solve(x), or the type and message of what it raised."""
    try:
        return solve(x)
    except Exception as exc:
        return type(exc), str(exc)


class TestBoundSolver:
    """ZonalSolver.at checks a copy of the state and derives its terms
    once; each answer of the bound solver must be a fresh zonal_solve's at
    the values it bound, bit for bit and error for error."""

    @settings(max_examples=150, deadline=None)
    @given(containment=st.booleans(), ops=st.lists(BOUND_OPS, min_size=1, max_size=12))
    def test_matches_a_fresh_solver(self, containment, ops):
        # "state" swaps in new arrays of a base state, "write" edits the
        # current state's arrays in place (a bad value makes a bad state),
        # "bind" binds the current state; the rest solve at the bound state
        scenario = small_scenario(containment)
        solver = ZonalSolver(scenario)
        state = small_state(0)
        bound, held, solves = solver.at(state), state.copy(), 0
        for op, *arg in ops:
            if op == "state":
                state = small_state(*arg)
            elif op == "write":
                name, i, value = arg
                values = getattr(state, name)
                values[i % values.size] = value
            elif op == "bind":
                held = state.copy()  # the values bound, whatever is written later
                got = outcome(solver.at, state)
                want = outcome(lambda x: zonal_solve(scenario, x), held.to_input(np.full(4, 0.2)))
                assert isinstance(got, BoundSolver) == isinstance(want, np.ndarray)
                bound = got if isinstance(got, BoundSolver) else None
                if bound is None:
                    assert got == want  # the state's own check, as a fresh solve makes it
            elif bound is not None:
                alpha = np.array(arg[0] if op == "solve" else BAD_FLOWS[arg[0]][0])
                got = outcome(bound.solve, alpha)
                want = outcome(lambda a: zonal_solve(scenario, held.to_input(a)), alpha)
                solves += 1
                assert all(np.array_equal(getattr(bound.state, f.name), getattr(held, f.name),
                                          equal_nan=True) for f in fields(OperatingState))
                if isinstance(want, np.ndarray):
                    assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                else:
                    assert got == want
        assert solver.n_calls == solves  # each bound solve counts once, in the parent

    @pytest.mark.parametrize("containment", [True, False])
    @pytest.mark.parametrize("case", sorted(BAD_FLOWS))
    def test_each_solve_checks_its_flow_rates(self, containment, case):
        # count, finiteness, then sign, with the type and message of zonal_solve's check
        scenario, state = small_scenario(containment), small_state(0)
        alpha, error, message = BAD_FLOWS[case]
        alpha = np.array(alpha)
        want = outcome(lambda a: zonal_solve(scenario, state.to_input(a)), alpha)
        assert want == (error, message)
        assert outcome(ZonalSolver(scenario).at(state).solve, alpha) == want

    def test_binding_checks_and_derives_once(self, monkeypatch):
        bound, bind = [], ZonalSolver._bind
        monkeypatch.setattr(ZonalSolver, "_bind", lambda self, x: bound.append(x) or bind(self, x))
        solver = ZonalSolver(small_scenario(False))
        at_state = solver.at(small_state(0))
        for alpha in (0.1, 0.2, 0.3):
            at_state.solve(np.full(4, alpha))
        assert len(bound) == 1
        assert solver.n_calls == at_state.n_calls == 3


class TestMonotonicity:
    def test_power_increase_never_cools_hot_sensors(self, reference):
        scenario, state = reference
        solver = ZonalSolver(scenario)
        rng = np.random.default_rng(13)
        m = scenario.layout.n_servers
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0, m)
            powers = rng.uniform(0.0, 500.0, m)
            x = SystemInput(state.crac_setpoints, state.crac_fan_speeds, powers, alpha)
            base = solver.solve(x)[solver.hot_idx]
            j = rng.integers(m)
            bumped = powers.copy()
            bumped[j] += rng.uniform(10.0, 200.0)
            x2 = SystemInput(state.crac_setpoints, state.crac_fan_speeds, bumped, alpha)
            after = solver.solve(x2)[solver.hot_idx]
            assert np.all(after >= base - 1e-12)

    def test_flow_increase_never_heats_hot_sensors(self, reference):
        scenario, state = reference
        solver = ZonalSolver(scenario)
        rng = np.random.default_rng(14)
        m = scenario.layout.n_servers
        for _ in range(20):
            alpha = rng.uniform(0.05, 1.5, m)
            x = state.to_input(alpha)
            base = solver.solve(x)[solver.hot_idx]
            j = rng.integers(m)
            raised = alpha.copy()
            raised[j] *= rng.uniform(1.2, 2.0)
            after = solver.solve(state.to_input(raised))[solver.hot_idx]
            dominant = int(np.argmax(solver.server_exhaust[j]))
            assert after[dominant] <= base[dominant] + 1e-12
            assert np.all(after <= base + 1e-12)


class TestSynthesizeMeasurements:
    def test_zero_noise_equals_truth_solve(self, reference):
        scenario, state = reference
        clean = zonal_solve(scenario, state.to_input(scenario.alpha_true))
        noiseless = replace(scenario, sensor_noise_sd=0.0)
        assert np.array_equal(synthesize_measurements(noiseless, state), clean)

    def test_same_seed_identical(self, reference):
        scenario, state = reference
        m1 = synthesize_measurements(scenario, state)
        m2 = synthesize_measurements(scenario, state)
        assert np.array_equal(m1, m2)

    def test_noise_whose_draws_overflow_raises(self, reference):
        scenario, state = reference
        with pytest.raises(HallcalError, match=r"^sensor noise sd 1e\+308 draws a non-finite "
                                               "measurement$"):
            synthesize_measurements(replace(scenario, sensor_noise_sd=1e308), state)

    def test_noise_sd_statistics(self):
        scenario = one_server_scenario(sensor_noise_sd=0.1)
        state = one_server_state()
        clean = zonal_solve(scenario, state.to_input(scenario.alpha_true))
        draws = np.stack([synthesize_measurements(scenario, state, seed=s)
                          for s in range(1000)])
        noise = (draws - clean).ravel()
        assert abs(noise.std() - 0.1) / 0.1 < 0.05


class TestExternalSolve:
    def make_input(self, alpha):
        return SystemInput(np.array([20.0]), np.array([0.8]),
                           np.full(len(alpha), 100.0), np.asarray(alpha, dtype=float))

    def test_echo_round_trip_exact(self, tmp_path):
        spec = ExternalSolverSpec(command=(sys.executable, str(ECHO_SOLVER)),
                                  workdir=tmp_path)
        alpha = np.array([0.13, 0.25, 0.4])
        out = external_solve(spec, self.make_input(alpha), ["s1", "s2", "s3"])
        assert np.array_equal(out, alpha)

    def test_command_failed(self, tmp_path):
        spec = ExternalSolverSpec(command=(sys.executable, "-c", "import sys; sys.exit(3)"),
                                  workdir=tmp_path)
        with pytest.raises(CommandFailedError):
            external_solve(spec, self.make_input([0.2]), ["s1"])

    @pytest.mark.parametrize("stderr, message", [
        ("", "external solver exited 4"),
        ("first\nlast line\n\n", "external solver exited 4: last line"),
    ], ids=["silent", "stderr"])
    def test_command_failed_message(self, tmp_path, stderr, message):
        code = f"import sys; sys.stderr.write({stderr!r}); sys.exit(4)"
        spec = ExternalSolverSpec(command=(sys.executable, "-c", code), workdir=tmp_path)
        with pytest.raises(CommandFailedError) as exc:
            external_solve(spec, self.make_input([0.2]), ["s1"])
        assert str(exc.value) == message

    def test_command_that_cannot_start_names_it(self, tmp_path):
        spec = ExternalSolverSpec(command=("no-such-solver-binary", "--flag"), workdir=tmp_path)
        with pytest.raises(CommandFailedError) as exc:
            external_solve(spec, self.make_input([0.2]), ["s1"])
        assert str(exc.value) == ("cannot start external solver no-such-solver-binary --flag: "
                                  "No such file or directory")

    @pytest.mark.parametrize("blocked, message", [
        ("", "cannot create solver workdir {path}: File exists"),
        ("flow_config.txt", "cannot write {path}: Is a directory"),
        ("sensor_output.txt", "cannot remove {path}: Is a directory"),
    ], ids=["workdir", "flow-config", "stale-output"])
    def test_workdir_file_that_cannot_be_made_names_it(self, tmp_path, blocked, message):
        # a regular file where the workdir goes, or a directory where a file goes
        path = tmp_path / "work" / blocked
        if blocked:
            path.mkdir(parents=True)
        else:
            path.write_text("")
        spec = ExternalSolverSpec(command=(sys.executable, str(ECHO_SOLVER)),
                                  workdir=tmp_path / "work")
        with pytest.raises(OutputDirectoryError) as exc:
            external_solve(spec, self.make_input([0.2]), ["s1"])
        assert str(exc.value) == message.format(path=path)

    def test_missing_output_is_parse_error(self, tmp_path):
        spec = ExternalSolverSpec(command=(sys.executable, "-c", "pass"), workdir=tmp_path)
        with pytest.raises(ParseError):
            external_solve(spec, self.make_input([0.2]), ["s1"])

    def test_malformed_output_names_line(self, tmp_path):
        writer = ("import sys, pathlib; "
                  "pathlib.Path(sys.argv[1], 'sensor_output.txt')"
                  ".write_text('sen-1, 20.0\\nsen-2, not-a-number\\n')")
        spec = ExternalSolverSpec(command=(sys.executable, "-c", writer), workdir=tmp_path)
        with pytest.raises(ParseError, match="line 2"):
            external_solve(spec, self.make_input([0.2]), ["s1"])

    @pytest.mark.parametrize("output, line", [
        ("sen-1, nan\\nsen-2, 20.0\\n", 1),
        ("sen-1, 20.0\\nsen-2, -inf\\n", 2),
        ("sen-1, 20.0\\nsen-1, 21.0\\n", 2),
    ])
    def test_non_finite_or_duplicate_output_names_line(self, tmp_path, output, line):
        writer = ("import sys, pathlib; "
                  "pathlib.Path(sys.argv[1], 'sensor_output.txt')"
                  f".write_text('{output}')")
        spec = ExternalSolverSpec(command=(sys.executable, "-c", writer), workdir=tmp_path)
        with pytest.raises(ParseError, match=f"sensor_output.txt line {line}"):
            external_solve(spec, self.make_input([0.2]), ["s1"])

    def test_timeout(self, tmp_path):
        spec = ExternalSolverSpec(command=(sys.executable, "-c", "import time; time.sleep(5)"),
                                  workdir=tmp_path, timeout_s=0.5)
        with pytest.raises(SolverTimeoutError):
            external_solve(spec, self.make_input([0.2]), ["s1"])

    @pytest.mark.parametrize("interrupted", [False, True])
    def test_timeout_or_interrupt_kills_the_grandchildren(self, tmp_path, monkeypatch,
                                                          interrupted):
        # a shell wrapper that starts the real solver, detached from the
        # captured pipes, and waits for it
        wrapper = 'sleep 60 > /dev/null 2>&1 & echo $! > "$0/grandchild.pid"; wait'
        pid_file = tmp_path / "grandchild.pid"
        spec = ExternalSolverSpec(command=("sh", "-c", wrapper), workdir=tmp_path,
                                  timeout_s=0.5)

        def interrupt(proc, timeout=None):  # Ctrl-C once the grandchild runs
            deadline = time.monotonic() + 5.0
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            raise KeyboardInterrupt

        if interrupted:
            monkeypatch.setattr(subprocess.Popen, "communicate", interrupt)
        try:
            with pytest.raises(KeyboardInterrupt if interrupted else SolverTimeoutError):
                external_solve(spec, self.make_input([0.2]), ["s1"])
            # a killed process can still read R for a moment under load, so
            # poll until it is a zombie or reaped
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    stat = Path(f"/proc/{int(pid_file.read_text())}/stat").read_text()
                except FileNotFoundError:  # killed and reaped
                    break
                if stat.rsplit(")", 1)[1].split()[0] == "Z":
                    break
                assert time.monotonic() < deadline, f"grandchild outlived the kill: {stat}"
                time.sleep(0.01)
        finally:
            if pid_file.exists():
                try:
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_counted_solver_orders_by_sensor_id(self, tmp_path):
        layout = one_server_layout()
        writer = ("import sys, pathlib; "
                  "pathlib.Path(sys.argv[1], 'sensor_output.txt')"
                  ".write_text('n-hot, 31.5\\nn-cold, 20.5\\n')")
        solver = ExternalSolver(ExternalSolverSpec(command=(sys.executable, "-c", writer),
                                                   workdir=tmp_path), layout)
        out = solver.solve(self.make_input([0.2]))
        assert np.array_equal(out, [20.5, 31.5])
        assert solver.n_calls == 1

    @pytest.mark.parametrize("method", ["heuristic", "kalibre"])
    def test_bound_run_writes_the_sidecar_once(self, tmp_path, monkeypatch, method):
        # binding writes state.json; each of the 3 + k bound solves writes only
        # its flow rates, and an unbound solve still writes both
        from hallcal import cli, fileio
        from hallcal.engine import CalibConfig
        layout = one_server_layout()
        writer = ("import sys, pathlib; "
                  "pathlib.Path(sys.argv[1], 'sensor_output.txt')"
                  ".write_text('n-hot, 31.5\\nn-cold, 20.5\\n')")
        solver = ExternalSolver(ExternalSolverSpec(command=(sys.executable, "-c", writer),
                                                   workdir=tmp_path / "work"), layout)
        writes = []
        save_state = fileio.save_state
        monkeypatch.setattr(fileio, "save_state",
                            lambda state, path: (writes.append(path), save_state(state, path)))
        state = one_server_state()
        result = cli.run_calibration(method, solver, np.array([20.0, 31.0]), state, layout,
                                     CalibConfig(max_iterations=2))
        assert result.n_solver_calls == 5
        assert writes == [tmp_path / "work" / "state.json"]
        save_state(state, tmp_path / "expected.json")
        assert (tmp_path / "work" / "state.json").read_bytes() == \
            (tmp_path / "expected.json").read_bytes()
        other = replace(state, crac_setpoints=np.array([18.5]))
        solver.solve(other.to_input(np.array([0.2])))
        assert len(writes) == 2
        save_state(other, tmp_path / "expected.json")
        assert (tmp_path / "work" / "state.json").read_bytes() == \
            (tmp_path / "expected.json").read_bytes()

    @pytest.mark.parametrize("method, reason", [("heuristic", "solver failed at iteration 1"),
                                                ("kalibre", "solver failed during seeding")])
    def test_sidecar_that_cannot_be_written_aborts_at_binding(self, tmp_path, method, reason):
        from hallcal import cli
        from hallcal.engine import CalibConfig
        from hallcal.errors import CalibrationAbortedError
        (tmp_path / "state.json").mkdir()
        solver = ExternalSolver(ExternalSolverSpec(command=(sys.executable, "-c", "pass"),
                                                   workdir=tmp_path), one_server_layout())
        with pytest.raises(CalibrationAbortedError, match=f"^{reason}: cannot write ") as exc:
            cli.run_calibration(method, solver, np.array([20.0, 31.0]), one_server_state(),
                                one_server_layout(), CalibConfig(max_iterations=2))
        assert exc.value.result.n_solver_calls == 0
        assert not (tmp_path / "flow_config.txt").exists()

    def test_missing_sensor_id(self, tmp_path):
        layout = one_server_layout()
        writer = ("import sys, pathlib; "
                  "pathlib.Path(sys.argv[1], 'sensor_output.txt')"
                  ".write_text('n-hot, 31.5\\n')")
        solver = ExternalSolver(ExternalSolverSpec(command=(sys.executable, "-c", writer),
                                                   workdir=tmp_path), layout)
        with pytest.raises(ParseError):
            solver.solve(self.make_input([0.2]))
