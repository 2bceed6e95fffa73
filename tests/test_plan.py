"""The compiled step plan against the checked unit protocol.

``run_cosim`` compiles each run once and then moves values with only the
checks a unit can still fail.  ``checked_run`` below is the master loop
written against the public protocol alone (``set_input``, ``do_step``,
``get_output``, every check on every call); the plan must give exactly
the same trace, and must fail with the same texts.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim import orchestrator
from fieldsim.errors import ContractViolation, SimulationError
from fieldsim.orchestrator import (
    Connection,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    run_cosim,
    validate_config,
)
from fieldsim.safety import harvester_config, read_safety_suite
from fieldsim.simunit import (
    PortDescriptor,
    PortDirection,
    PortKind,
    SimulationUnit,
    UnitDescription,
    UnitRegistry,
)
from fieldsim.traces import TimedTrace
from fieldsim.units import (
    ReplayUnit,
    default_registry,
    pure_pursuit_factory,
    read_grid_map,
    replay_factory,
    sensor_factory,
)

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT


def checked_run(config: MultiModelConfig, registry: UnitRegistry) -> tuple[list, list]:
    """Reference master: one Jacobi step at a time through the public protocol."""
    units = {
        name: registry.instantiate(spec.unit_type, spec.parameters)
        for name, spec in config.instances.items()
    }
    h = float(config.step_size)
    n_steps = math.ceil(Fraction(config.duration) / Fraction(h))

    def record():
        return [float(units[ref.instance].get_output(ref.port)) for ref in config.outputs]

    times, rows = [0.0], [record()]
    for k in range(1, n_steps + 1):
        for conn in config.connections:
            value = units[conn.source.instance].get_output(conn.source.port)
            units[conn.sink.instance].set_input(conn.sink.port, value)
        for unit in units.values():
            unit.do_step(h)
        times.append(k * h)
        rows.append(record())
    return times, rows


def assert_same_as_checked(config, make_registry):
    trace = run_cosim(config, make_registry())
    times, rows = checked_run(config, make_registry())
    assert trace.times == times
    assert trace.values == rows


# --- equality with the checked loop -----------------------------------------


def replay_vehicle_config(step_size, duration):
    return MultiModelConfig(
        instances={"src": InstanceSpec("replay"), "veh": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("src", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("src", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[
            PortRef("veh", "x"), PortRef("veh", "y"), PortRef("veh", "theta"),
            PortRef("src", "velocity"),
        ],
        step_size=step_size,
        duration=duration,
    )


@st.composite
def command_traces(draw):
    """Replay traces with random sample times, the first one possibly after 0."""
    first = draw(st.one_of(st.just(0.0), st.floats(0.001, 1.0)))
    gaps = draw(st.lists(st.floats(0.001, 1.0), min_size=0, max_size=12))
    times = [first]
    for gap in gaps:
        times.append(times[-1] + gap)
    rows = [
        [draw(st.floats(0.0, 4.0)), draw(st.floats(-0.5, 0.5))]
        for _ in times
    ]
    return TimedTrace(channels=["velocity", "delta_f"], times=times, values=rows)


@settings(max_examples=60, deadline=None)
@given(
    commands=command_traces(),
    step_size=st.floats(0.005, 0.5),
    duration=st.floats(0.0, 4.0),
)
def test_plan_equals_checked_loop_on_replayed_commands(commands, step_size, duration):
    def make_registry():
        registry = default_registry()
        registry.register("replay", replay_factory(commands))
        return registry

    assert_same_as_checked(replay_vehicle_config(step_size, duration), make_registry)


def test_plan_equals_checked_loop_on_the_sample_closed_loop():
    # the sample suite's four-unit loop: controller, sensor, supervisor, vehicle
    for run in read_safety_suite(SAMPLES / "safety_suite.json").runs[:2]:
        grid_map = read_grid_map(run.map_path)

        def make_registry():
            registry = default_registry()
            registry.register("pure_pursuit", pure_pursuit_factory(run.path))
            registry.register("sensor", sensor_factory(grid_map))
            return registry

        assert_same_as_checked(harvester_config(run), make_registry)


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=15, unique=True).map(sorted),
    segments=st.lists(
        st.tuples(st.floats(0.001, 2.0), st.integers(1, 25)), min_size=1, max_size=6
    ),
)
def test_replay_cursor_picks_the_row_bisect_picks(times, segments):
    # velocity i marks row i, so the output says which row was picked
    trace = TimedTrace(
        channels=["velocity", "delta_f"],
        times=times,
        values=[[float(i), 0.0] for i in range(len(times))],
    )
    unit = ReplayUnit(trace)

    def bisect_row():
        return float(max(bisect_right(times, unit.current_time) - 1, 0))

    assert unit.get_output("velocity") == bisect_row()
    for h, count in segments:  # each segment changes the step size
        for _ in range(count):
            unit.do_step(h)
            assert unit.get_output("velocity") == bisect_row()


def test_run_cosim_bypasses_the_checked_protocol(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the step loop called the checked protocol")

    commands = TimedTrace(["velocity", "delta_f"], [0.0, 1.0], [[1.0, 0.1], [2.0, -0.1]])
    registry = default_registry()
    registry.register("replay", replay_factory(commands))
    for name in ("do_step", "set_input", "get_output"):
        monkeypatch.setattr(SimulationUnit, name, forbidden)
    trace = run_cosim(replay_vehicle_config(0.1, 2.0), registry)
    assert len(trace.times) == 21


# --- exact failure texts ----------------------------------------------------


class Source(SimulationUnit):
    """Outputs ``value`` from its first step on, on a port of the given kind."""

    def __init__(self, value, kind, parameters=None):
        super().__init__(UnitDescription("source", (PortDescriptor("y", _OUT, kind),)), parameters)
        self._value = value

    def _advance(self, h):
        self._outputs["y"] = self._value


class Sink(SimulationUnit):
    """Echoes its input of the given kind."""

    def __init__(self, kind, parameters=None):
        super().__init__(
            UnitDescription("sink", (PortDescriptor("u", _IN, kind), PortDescriptor("y", _OUT, kind))),
            parameters,
        )

    def _advance(self, h):
        self._outputs["y"] = self._inputs["u"]


class Failing(SimulationUnit):
    """Raises ``error`` on its second step."""

    DESC = UnitDescription("failing", (PortDescriptor("y", _OUT),))

    def __init__(self, error, parameters=None):
        super().__init__(self.DESC, parameters)
        self._error = error
        self._ticks = 0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == 2:
            raise self._error
        self._outputs["y"] = float(self._ticks)


def source_sink_run(value, kind=PortKind.REAL):
    registry = UnitRegistry()
    registry.register("source", partial(Source, value, kind))
    registry.register("sink", partial(Sink, kind))
    config = MultiModelConfig(
        instances={"s": InstanceSpec("source"), "e": InstanceSpec("sink")},
        connections=[Connection(PortRef("s", "y"), PortRef("e", "u"))],
        outputs=[PortRef("e", "y")],
        step_size=0.1,
        duration=0.5,
    )
    return run_cosim(config, registry)


def failing_run(error):
    registry = UnitRegistry()
    registry.register("failing", partial(Failing, error))
    registry.register("sink", partial(Sink, PortKind.REAL))
    config = MultiModelConfig(
        instances={"e": InstanceSpec("sink"), "x": InstanceSpec("failing")},
        connections=[Connection(PortRef("x", "y"), PortRef("e", "u"))],
        outputs=[PortRef("e", "y")],
        step_size=0.1,
        duration=0.5,
    )
    return run_cosim(config, registry)


def test_real_sink_fed_nan_names_the_connection():
    # the source's first step makes the NaN; the exchange before step 2 meets it
    with pytest.raises(
        SimulationError, match=r"^connection s\.y -> e\.u at t=0\.1: port 'u' given non-finite value nan$"
    ):
        source_sink_run(float("nan"))


def test_real_sink_fed_true_fails():
    with pytest.raises(
        SimulationError, match=r"^connection s\.y -> e\.u at t=0\.1: port 'u' expects a real value, got True$"
    ):
        source_sink_run(True)


def test_real_sink_fed_an_int_records_the_float():
    trace = source_sink_run(3)
    assert trace.column("e.y") == [0.0, 0.0, 3.0, 3.0, 3.0, 3.0]
    assert all(type(v) is float for v in trace.column("e.y"))


def test_boolean_sink_fed_two_names_the_connection():
    with pytest.raises(
        SimulationError, match=r"^connection s\.y -> e\.u at t=0\.1: port 'u' expects a boolean, got 2$"
    ):
        source_sink_run(2, PortKind.BOOLEAN)


def test_boolean_sink_takes_zero_and_one_as_booleans():
    assert source_sink_run(1.0, PortKind.BOOLEAN).column("e.y") == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]


def test_unit_raising_mid_run_names_the_instance():
    with pytest.raises(SimulationError, match=r"^instance 'x' failed at t=0\.1: stalled$"):
        failing_run(RuntimeError("stalled"))


def test_contract_violation_inside_a_step_names_the_instance():
    # a ContractViolation from _advance is the unit's failure, not a connection's
    with pytest.raises(SimulationError, match=r"^instance 'x' failed at t=0\.1: gear jammed$"):
        failing_run(ContractViolation("gear jammed"))


# --- recorded-value budget --------------------------------------------------


def test_recorded_value_budget(monkeypatch):
    # 0.5 s at 0.1 s is 6 rows of 4 channels: 24 values
    config = replay_vehicle_config(0.1, 0.5)
    registry = default_registry()
    registry.register("replay", replay_factory(TimedTrace(["velocity", "delta_f"], [0.0], [[1.0, 0.0]])))
    monkeypatch.setattr(orchestrator, "MAX_RECORDED_VALUES", 24)
    assert validate_config(config, registry) == []
    monkeypatch.setattr(orchestrator, "MAX_RECORDED_VALUES", 23)
    assert validate_config(config, registry) == [
        "run of 0.5s at 0.1s would record 24 values (6 rows of 4), over the budget of 23"
    ]
