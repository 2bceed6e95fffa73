"""The master's rest rule: a one-config loop whose state repeats stops stepping.

A loop is at rest once two steps in a row leave every unit's outputs and
declared state (``SimulationUnit._step_state``) with the same bits.  The
rows it then records must be the rows that stepping on would record, and a
loop holding any unit whose state the key does not cover must keep stepping.
"""

import math
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim.errors import SimulationError
from fieldsim.orchestrator import (
    Connection, InstanceSpec, MultiModelConfig, PortRef, lockstep_cosim, run_cosim,
)
from fieldsim.safety import SafetyRun, harvester_config, read_safety_suite
from fieldsim.simunit import PortDescriptor, PortDirection, SimulationUnit, UnitDescription, UnitRegistry
from fieldsim.units import (
    GridMap,
    PurePursuitUnit,
    SensorUnit,
    SupervisoryBrake,
    VehicleUnit,
    default_registry,
    pure_pursuit_factory,
    read_grid_map,
    sensor_factory,
)

from conftest import build_field_map

SAMPLES = Path(__file__).resolve().parents[1] / "samples"
DECLARING = (VehicleUnit, SupervisoryBrake, PurePursuitUnit, SensorUnit)
PROBE = UnitDescription("probe", (
    PortDescriptor("u", PortDirection.INPUT),
    PortDescriptor("y", PortDirection.OUTPUT),
    PortDescriptor("z", PortDirection.OUTPUT),
))


class Hold(SimulationUnit):
    """Holds ``y`` at 1 and ``z`` at 0 and counts its steps, which nothing else depends on."""

    _step_state = ()

    def __init__(self):
        super().__init__(PROBE)
        self._outputs["y"] = 1.0
        self.steps = 0

    def _advance(self, h):
        self.steps += 1


class HiddenCounter(Hold):
    """Its outputs hold while its declared step count grows."""

    _step_state = ("_count",)

    def __init__(self):
        super().__init__()
        self._count = 0

    def _advance(self, h):
        super()._advance(h)
        self._count += 1


class ZeroFlip(Hold):
    """Its outputs hold while its declared state flips between 0.0 and -0.0."""

    _step_state = ("_zero",)

    def __init__(self):
        super().__init__()
        self._zero = 0.0

    def _advance(self, h):
        super()._advance(h)
        self._zero = -self._zero


class Undeclared(Hold):
    """Holds its outputs, but declares nothing."""

    _step_state = None


class UnrecordedCounter(Hold):
    """Counts its steps in ``z``, an output that no row records."""

    def _advance(self, h):
        super()._advance(h)
        self._outputs["z"] += 1.0


class Unpackable(Hold):
    """Holds ``z`` at an integer past the floats, which no key can pack."""

    def __init__(self):
        super().__init__()
        self._outputs["z"] = 10**400


class TurnsInfinite(Hold):
    """``y`` is 1 for its first step, then infinite for good."""

    _step_state = ("_count",)

    def __init__(self):
        super().__init__()
        self._count = 0

    def _advance(self, h):
        super()._advance(h)
        self._count = min(self._count + 1, 2)
        self._outputs["y"] = math.inf if self._count == 2 else 1.0


def run_units(units: dict, outputs: list[str], duration: float = 1.0):
    """Run the given unit objects, ``a.y`` feeding ``b.u`` when both exist, at 0.1 s steps."""
    registry = UnitRegistry()
    for name, unit in units.items():
        registry.register(name, lambda parameters, unit=unit: unit)
    connections = [Connection(PortRef("a", "y"), PortRef("b", "u"))] if {"a", "b"} <= set(units) else []
    config = MultiModelConfig(
        instances={name: InstanceSpec(name) for name in units},
        connections=connections,
        outputs=[PortRef.parse(text) for text in outputs],
        step_size=0.1,
        duration=duration,
    )
    return run_cosim(config, registry)


def test_a_loop_at_rest_records_its_row_to_the_end_without_stepping():
    a, b = Hold(), Hold()
    trace = run_units({"a": a, "b": b}, ["a.y", "b.z"])
    # rows 1 and 2 repeat row 0, and the key after step 2 is the key after step 1
    assert (a.steps, b.steps) == (2, 2)
    assert trace.values == [[1.0, 0.0]] * 11
    assert all(row is trace.values[-1] for row in trace.values[2:])
    assert trace.values[1] is not trace.values[2]


def test_a_hidden_step_counter_keeps_the_loop_stepping():
    counter = HiddenCounter()
    run_units({"c": counter}, ["c.y"])
    assert counter.steps == 10


def test_declared_state_that_flips_the_sign_of_a_zero_keeps_the_loop_stepping():
    flip = ZeroFlip()
    run_units({"f": flip}, ["f.y"])
    assert flip.steps == 10


def test_a_unit_that_declares_nothing_keeps_the_loop_stepping():
    hold, undeclared = Hold(), Undeclared()
    run_units({"h": hold, "n": undeclared}, ["h.y", "n.z"])
    assert (hold.steps, undeclared.steps) == (10, 10)


def test_an_unrecorded_output_that_changes_keeps_the_loop_stepping():
    counter = UnrecordedCounter()
    run_units({"c": counter}, ["c.y"])
    assert (counter.steps, counter.get_output("z")) == (10, 10.0)


def test_an_unpackable_output_does_not_raise():
    unit = Unpackable()
    trace = run_units({"p": unit}, ["p.y"])
    assert unit.steps == 10
    assert trace.values == [[1.0]] * 11


def test_a_non_finite_value_recorded_before_the_rest_fails_after_the_last_row():
    unit = TurnsInfinite()
    registry = UnitRegistry()
    registry.register("p", lambda parameters: unit)
    config = MultiModelConfig({"p": InstanceSpec("p")}, [], [PortRef("p", "y")], 0.1, 1.0)
    rows = []
    with pytest.raises(SimulationError, match=r"^recorded output p\.y is inf at t=0\.2$"):
        rows.extend(lockstep_cosim([config], registry)[2])
    # infinite from step 2 on, the same bits from step 3 on: at rest after step 4
    assert unit.steps == 4
    assert rows == [[1.0], [1.0]] + [[math.inf]] * 9


def shifted_field_map(shift: int) -> GridMap:
    grid = build_field_map()
    cells = [0] * len(grid.cells)
    for index, cell in enumerate(grid.cells):
        if cell:
            cells[index + shift] = 1
    return GridMap(grid.width, grid.height, grid.resolution, grid.x0, grid.y0, tuple(cells))


def harvester_trace(run: SafetyRun, grid: GridMap):
    registry = default_registry()
    registry.register("pure_pursuit", pure_pursuit_factory(run.path))
    registry.register("sensor", sensor_factory(grid))
    return run_cosim(harvester_config(run), registry)


def harvester_rows(run: SafetyRun, grid: GridMap):
    """Every recorded value of a suite run by ``float.hex``, or the failure's text."""
    try:
        trace = harvester_trace(run, grid)
    except SimulationError as exc:
        return str(exc)
    return [[t.hex()] + [v.hex() for v in row] for t, row in zip(trace.times, trace.values)]


def test_a_stopped_harvester_rests_two_rows_after_its_rows_repeat():
    suite = read_safety_suite(SAMPLES / "safety_suite.json")
    tails = {}
    for run in suite.runs:
        values = harvester_trace(run, read_grid_map(run.map_path)).values
        equal = shared = len(values) - 1
        while equal and values[equal - 1] == values[-1]:
            equal -= 1
        while shared and values[shared - 1] is values[-1]:
            shared -= 1
        # on the sample's straight path, the vehicle stops with no lateral
        # motion left, so its state repeats as soon as its rows do
        assert shared == min(equal + 2, len(values) - 1), run.run_id
        tails[run.run_id] = len(values) - shared
    assert tails["degraded_v1"] == 1  # it never stops
    assert sum(tails.values()) > 7000


@settings(max_examples=25, deadline=None)
@given(
    speed=st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 4.0),
    decel=st.sampled_from([4.0]) | st.floats(0.5, 8.0),
    margin=st.sampled_from([0.8]) | st.floats(0.0, 1.5),
    min_range=st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.5),
    reach=st.sampled_from([1.1, 1.5]) | st.floats(0.1, 3.0),
    shift=st.integers(-8, 8),
    end_y=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
    duration=st.sampled_from([5.0, 15.0]),
)
def test_a_suite_run_at_rest_records_what_stepping_records(
    speed, decel, margin, min_range, reach, shift, end_y, duration
):
    run = SafetyRun(
        "r", "", speed, {"min_range": min_range, "max_range": min_range + reach}, decel, margin,
        path=((0.0, 0.0), (50.0, end_y)), duration=duration,
    )
    grid = shifted_field_map(shift)
    rested = harvester_rows(run, grid)
    with ExitStack() as stack:
        for cls in DECLARING:
            stack.enter_context(patch.object(cls, "_step_state", None))
        stepped = harvester_rows(run, grid)
    assert rested == stepped
