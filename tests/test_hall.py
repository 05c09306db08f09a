from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hallcal.errors import (
    AllWeightsCutError,
    DimensionMismatchError,
    DuplicateIdError,
    DuplicatePositionError,
    EmptyFacilityClassError,
    MissingAisleCoverageError,
    NonFinitePositionError,
    ZeroDistanceError,
)
from hallcal.hall import (
    COLD,
    HOT,
    Crac,
    HallLayout,
    OperatingState,
    Sensor,
    Server,
    SystemInput,
    build_adjacency,
    hot_aisle_mask,
    squared_distances,
    validate_layout,
)
from conftest import random_layout


def sensor(i, position, aisle):
    return Sensor(id=f"sen-{i}", position=position, aisle=aisle)


class TestValidateLayout:
    def test_minimal_valid_layout_returned_unchanged(self, tiny_layout):
        assert validate_layout(tiny_layout) is tiny_layout

    def test_duplicate_server_id(self, tiny_layout):
        servers = tiny_layout.servers[:2] + (
            Server(id="srv-0", position=(9.0, 3.0, 1.2), type_tag="t", rated_power=100.0),
        )
        bad = HallLayout(tiny_layout.cracs, servers, tiny_layout.sensors)
        with pytest.raises(DuplicateIdError):
            validate_layout(bad)

    def test_only_cold_sensors(self, tiny_layout):
        sensors = (sensor(1, (3.0, 2.0, 1.5), COLD), sensor(2, (5.0, 2.0, 1.5), COLD))
        with pytest.raises(MissingAisleCoverageError):
            validate_layout(HallLayout(tiny_layout.cracs, tiny_layout.servers, sensors))

    def test_empty_classes(self, tiny_layout):
        with pytest.raises(EmptyFacilityClassError):
            validate_layout(HallLayout((), tiny_layout.servers, tiny_layout.sensors))
        with pytest.raises(EmptyFacilityClassError):
            validate_layout(HallLayout(tiny_layout.cracs, (), tiny_layout.sensors))
        with pytest.raises(EmptyFacilityClassError):
            validate_layout(HallLayout(tiny_layout.cracs, tiny_layout.servers,
                                       tiny_layout.sensors[:1]))

    def test_non_finite_position(self, tiny_layout):
        cracs = (Crac(id="c", position=(np.nan, 0.0, 1.0)),) + tiny_layout.cracs[1:]
        with pytest.raises(NonFinitePositionError):
            validate_layout(HallLayout(cracs, tiny_layout.servers, tiny_layout.sensors))

    def test_same_class_same_position(self, tiny_layout):
        cracs = tiny_layout.cracs + (Crac(id="c3", position=(0.0, 0.0, 1.0)),)
        with pytest.raises(DuplicatePositionError):
            validate_layout(HallLayout(cracs, tiny_layout.servers, tiny_layout.sensors))


class TestLayoutDerivedOnce:
    def test_each_layout_is_validated_once(self, tmp_path, monkeypatch):
        # loading a layout, solving on it and deriving its priors check it once
        from hallcal import fileio, hall
        from hallcal.scenarios import make_reference_scenario
        from hallcal.solver import ZonalSolver
        scenario, _ = make_reference_scenario(n_servers=12, n_cold=4, n_hot=2)
        fileio.save_layout(scenario.layout, tmp_path / "layout.json")
        fileio.save_scenario(scenario, tmp_path / "scenario.json")
        checks = []
        check_positions = hall._check_positions
        monkeypatch.setattr(hall, "_check_positions",
                            lambda positions, cls: (checks.append(cls),
                                                    check_positions(positions, cls)))
        layout = fileio.load_layout(tmp_path / "layout.json")
        ZonalSolver(fileio.load_scenario(tmp_path / "scenario.json", layout))
        build_adjacency(layout)
        assert checks == ["CRAC", "server", "sensor"]

    def test_position_arrays_are_read_only_and_shared(self, tiny_layout):
        for positions in (tiny_layout.crac_positions, tiny_layout.server_positions,
                          tiny_layout.sensor_positions):
            values = positions()
            assert values is positions()
            assert values.shape[1:] == (3,)
            with pytest.raises(ValueError):
                values[0, 0] = 1.0

    def test_an_invalid_layout_raises_on_every_check(self, tiny_layout):
        cracs = tiny_layout.cracs + (Crac(id="c3", position=(0.0, 0.0, 1.0)),)
        bad = HallLayout(cracs, tiny_layout.servers, tiny_layout.sensors)
        messages = []
        for check in (validate_layout, build_adjacency, validate_layout):
            with pytest.raises(DuplicatePositionError) as exc:
                check(bad)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1


class TestBuildAdjacency:
    def two_crac_layout(self, d1, d2):
        """One cold sensor at given distances from two CRACs, plus a far hot
        sensor so the layout validates."""
        return HallLayout(
            cracs=(Crac(id="c1", position=(-d1, 0.0, 0.0)),
                   Crac(id="c2", position=(d2, 0.0, 0.0))),
            servers=(Server(id="s1", position=(0.0, 5.0, 0.0), type_tag="t",
                            rated_power=100.0),),
            sensors=(sensor(1, (0.0, 0.0, 0.0), COLD),
                     sensor(2, (0.0, 9.0, 0.0), HOT)),
        )

    def test_equidistant_cracs_share_equally(self):
        priors = build_adjacency(self.two_crac_layout(2.0, 2.0), cut_threshold=0.0)
        np.testing.assert_allclose(priors.w_cs[:, 0], [0.5, 0.5])

    def test_one_and_three_meters(self):
        priors = build_adjacency(self.two_crac_layout(1.0, 3.0), cut_threshold=0.0)
        np.testing.assert_allclose(priors.w_cs[:, 0], [0.75, 0.25])

    def test_sensor_coincident_with_server(self, tiny_layout):
        servers = tiny_layout.servers[:3] + (
            Server(id="s-here", position=(3.0, 2.0, 1.5), type_tag="t", rated_power=1.0),
        )
        with pytest.raises(ZeroDistanceError):
            build_adjacency(HallLayout(tiny_layout.cracs, servers, tiny_layout.sensors))

    def test_threshold_cuts_and_renormalizes(self):
        # normalized weights 0.75/0.25; threshold 0.3 zeroes the far CRAC
        priors = build_adjacency(self.two_crac_layout(1.0, 3.0), cut_threshold=0.3)
        np.testing.assert_allclose(priors.w_cs[:, 0], [1.0, 0.0])

    def test_all_weights_cut(self):
        # both normalized weights are 0.5 < 0.6
        with pytest.raises(AllWeightsCutError):
            build_adjacency(self.two_crac_layout(2.0, 2.0), cut_threshold=0.6)

    def test_negative_threshold_rejected(self, tiny_layout):
        with pytest.raises(ValueError):
            build_adjacency(tiny_layout, cut_threshold=-0.1)


class TestHotAisleMask:
    def test_direct_mapping(self):
        layout = HallLayout(
            cracs=(Crac(id="c", position=(0.0, 0.0, 0.0)),),
            servers=(Server(id="s", position=(1.0, 1.0, 0.0), type_tag="t",
                            rated_power=1.0),),
            sensors=(sensor(1, (0.0, 1.0, 0.0), COLD),
                     sensor(2, (0.0, 2.0, 0.0), HOT),
                     sensor(3, (0.0, 3.0, 0.0), HOT)),
        )
        np.testing.assert_array_equal(hot_aisle_mask(layout), [0.0, 1.0, 1.0])

    def test_single_hot(self, tiny_layout):
        mask = hot_aisle_mask(tiny_layout)
        assert mask.sum() == 1.0

    def test_reference_length(self, reference):
        scenario, _ = reference
        assert hot_aisle_mask(scenario.layout).size == 24


@given(seed=st.integers(0, 10 ** 6),
       n_cracs=st.integers(1, 4), n_servers=st.integers(1, 6),
       n_cold=st.integers(1, 4), n_hot=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_columns_sum_to_one_without_threshold(seed, n_cracs, n_servers, n_cold, n_hot):
    layout = random_layout(seed, n_cracs, n_servers, n_cold, n_hot)
    priors = build_adjacency(layout, cut_threshold=0.0)
    np.testing.assert_allclose(priors.w_cs.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(priors.w_ss.sum(axis=0), 1.0, atol=1e-12)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_closer_facility_gets_larger_weight(seed):
    rng = np.random.default_rng(seed)
    d1, d2 = sorted(rng.uniform(0.5, 8.0, 2))
    if d1 == d2:
        return
    layout = TestBuildAdjacency().two_crac_layout(d1, d2)
    priors = build_adjacency(layout, cut_threshold=0.0)
    assert priors.w_cs[0, 0] > priors.w_cs[1, 0]


def loop_duplicate_pair(positions):
    """The first coinciding pair in (i, j > i) order, as the original double
    loop in validate_layout found it; None when all positions differ."""
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if np.array_equal(positions[i], positions[j]):
                return i, j
    return None


@given(seed=st.integers(0, 10 ** 6), n_servers=st.integers(1, 40),
       plants=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=4),
       signed_zero=st.none() | st.tuples(st.integers(0, 39), st.integers(0, 39)))
@settings(max_examples=150, deadline=None)
def test_duplicate_position_names_the_loops_first_pair(seed, n_servers, plants, signed_zero):
    layout = random_layout(seed, 2, n_servers, 2, 2)
    positions = [s.position for s in layout.servers]
    for src, dst in plants:
        positions[dst % n_servers] = positions[src % n_servers]
    if signed_zero is not None:  # -0.0 and 0.0 coincide for array_equal
        positions[signed_zero[0] % n_servers] = (0.0, 1.0, 2.0)
        positions[signed_zero[1] % n_servers] = (-0.0, 1.0, 2.0)
    servers = tuple(Server(id=s.id, position=p, type_tag=s.type_tag, rated_power=s.rated_power)
                    for s, p in zip(layout.servers, positions))
    planted = HallLayout(layout.cracs, servers, layout.sensors)
    expected = loop_duplicate_pair(np.array(positions))
    if expected is None:
        validate_layout(planted)
    else:
        with pytest.raises(DuplicatePositionError) as exc:
            validate_layout(planted)
        assert str(exc.value) == f"server entries {expected[0]} and {expected[1]} share a position"


def test_build_adjacency_deterministic(reference):
    scenario, _ = reference
    a = build_adjacency(scenario.layout)
    b = build_adjacency(scenario.layout)
    assert np.array_equal(a.w_cs, b.w_cs)
    assert np.array_equal(a.w_ss, b.w_ss)
    assert np.array_equal(a.hot_mask, b.hot_mask)


class TestOperatingState:
    def test_input_is_the_state_plus_its_flow_rates(self, reference):
        scenario, state = reference
        alpha = np.linspace(0.1, 0.3, scenario.layout.n_servers)
        x = state.to_input(alpha)
        y = SystemInput(state.crac_setpoints, state.crac_fan_speeds, state.server_powers,
                        np.zeros_like(alpha)).with_flow_rates(alpha)
        assert isinstance(x, OperatingState) and type(y) is SystemInput
        assert [f.name for f in fields(SystemInput)] == \
            [f.name for f in fields(OperatingState)] + ["flow_rates"]
        for f in fields(SystemInput):
            assert np.array_equal(getattr(x, f.name), getattr(y, f.name))
            assert getattr(x, f.name).dtype == float
        x.check(scenario.layout)

    @pytest.mark.parametrize("name", ["crac_setpoints", "crac_fan_speeds", "server_powers"])
    def test_count_mismatch_names_the_field(self, reference, name):
        scenario, state = reference
        values = {f.name: getattr(state, f.name) for f in fields(OperatingState)}
        expected = values[name].size
        values[name] = values[name][:1]
        with pytest.raises(DimensionMismatchError) as exc:
            OperatingState(**values).check(scenario.layout)
        assert str(exc.value) == f"{name}: expected {expected} entries, got 1"


positions = st.integers(1, 40).flatmap(lambda n: arrays(
    float, (n, 3), elements=st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0, 0.5, 1.5])))


@given(a=positions, b=positions)
@settings(max_examples=200, deadline=None)
def test_squared_distances_are_the_summed_squares_bit_for_bit(a, b):
    # one coordinate at a time, in order: the sum over the coordinate axis
    diff = a[:, None, :] - b[None, :, :]
    expected = np.sum(diff * diff, axis=2)
    got = squared_distances(a, b)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
