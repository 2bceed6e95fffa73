"""Unit contract tests: ports, parameters, step size and timing, registry."""

import math
import random

import pytest

from fieldsim.errors import ContractViolation, UnknownUnitError
from fieldsim.simunit import (
    PortDescriptor,
    PortDirection,
    PortKind,
    SimulationUnit,
    UnitDescription,
    UnitRegistry,
)
from fieldsim.traces import TimedTrace
from fieldsim.units import ReplayUnit

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT

PROBE_DESCRIPTION = UnitDescription(
    unit_type="probe",
    ports=(
        PortDescriptor("u", _IN),
        PortDescriptor("flag", _IN, PortKind.BOOLEAN),
        PortDescriptor("y", _OUT),
        PortDescriptor("seen", _OUT, PortKind.BOOLEAN),
    ),
    default_parameters={"gain": 2.0},
)


class ProbeUnit(SimulationUnit):
    """Multiplies its input by `gain` each step and mirrors the flag."""

    def __init__(self, parameters=None):
        super().__init__(PROBE_DESCRIPTION, parameters)

    def _advance(self, h):
        self._outputs["y"] = self.parameters["gain"] * self._inputs["u"]
        self._outputs["seen"] = self._inputs["flag"]


# --- description validation -------------------------------------------------


def test_duplicate_port_rejected():
    with pytest.raises(ContractViolation, match="duplicate port 'a'"):
        UnitDescription("bad", (PortDescriptor("a", _IN), PortDescriptor("a", _OUT)))
    with pytest.raises(ContractViolation, match="duplicate port 'a'"):
        UnitDescription("bad", (PortDescriptor("a", _IN),), {"a": 1.0})  # a parameter named like an input


@pytest.mark.parametrize("name", ["", "a.b", "a,b"])
def test_bad_port_name_rejected(name):
    with pytest.raises(ContractViolation, match="bad port name"):
        UnitDescription("bad", (PortDescriptor(name, _IN),))
    with pytest.raises(ContractViolation, match="bad port name"):
        UnitDescription("bad", (PortDescriptor("u", _IN),), {name: 1.0})


def test_port_lookup():
    assert PROBE_DESCRIPTION.port("y").direction is _OUT
    with pytest.raises(ContractViolation, match="no port"):
        PROBE_DESCRIPTION.port("nope")


# --- parameters and ports ---------------------------------------------------


def test_parameter_override_applies():
    unit = ProbeUnit({"gain": 3.0})
    unit.set_input("u", 2.0)
    unit.do_step(0.1)
    assert unit.get_output("y") == 6.0


def test_unknown_parameter_rejected():
    with pytest.raises(ContractViolation, match="unknown parameter 'mass'"):
        ProbeUnit({"mass": 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "3", None])
def test_bad_parameter_value_rejected(value):
    with pytest.raises(ContractViolation):
        ProbeUnit({"gain": value})


def test_inputs_default_to_zero_and_false():
    unit = ProbeUnit()
    unit.do_step(0.1)
    assert unit.get_output("y") == 0.0
    assert unit.get_output("seen") is False


def test_set_input_checks_port_and_kind():
    unit = ProbeUnit()
    with pytest.raises(ContractViolation, match="no input port"):
        unit.set_input("y", 1.0)  # outputs are not settable
    with pytest.raises(ContractViolation, match="non-finite"):
        unit.set_input("u", float("nan"))
    with pytest.raises(ContractViolation, match="expects a real"):
        unit.set_input("u", True)
    with pytest.raises(ContractViolation, match="expects a boolean"):
        unit.set_input("flag", 0.5)


def test_boolean_input_accepts_zero_one():
    unit = ProbeUnit()
    unit.set_input("flag", 1)
    unit.do_step(0.1)
    assert unit.get_output("seen") is True
    unit.set_input("flag", 0)
    unit.do_step(0.1)
    assert unit.get_output("seen") is False


def test_get_output_checks_port():
    unit = ProbeUnit()
    with pytest.raises(ContractViolation, match="no output port"):
        unit.get_output("u")


def test_zero_order_hold_between_steps():
    unit = ProbeUnit()
    unit.set_input("u", 5.0)
    unit.do_step(0.1)
    unit.do_step(0.1)  # input latched, not reset
    assert unit.get_output("y") == 10.0


# --- step size --------------------------------------------------------------


@pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf"), True, "x"])
def test_bad_step_size_rejected(h):
    unit = ProbeUnit()
    with pytest.raises(ContractViolation):
        unit.do_step(h)


# --- step timing ------------------------------------------------------------
# The base unit keeps no clock; the replay is the unit that needs the time, so
# these read it through which of its rows the replay emits.


def row_trace(times):
    """A command trace whose velocity is the index of its row."""
    return TimedTrace(["velocity", "delta_f"], times, [[float(i), 0.0] for i in range(len(times))])


def test_two_steps_give_exact_time():
    unit = ReplayUnit(row_trace([0.0, 0.02, math.nextafter(0.02, math.inf)]))
    unit.do_step(0.01)
    assert unit.get_output("velocity") == 0.0
    unit.do_step(0.01)  # t = 0.02 exactly, not the float after it
    assert unit.get_output("velocity") == 1.0


def test_long_run_time_is_multiplicative_not_additive():
    # 1e5 additions of 0.01 fall short of 1000.0 (999.9999999992); the replay's
    # time is 1e5 * 0.01, exactly 1000.0, and so not the float after it
    unit = ReplayUnit(row_trace([0.0, 1000.0, math.nextafter(1000.0, math.inf)]))
    for _ in range(99_999):
        unit.do_step(0.01)
    assert unit.get_output("velocity") == 0.0
    unit.do_step(0.01)
    assert unit.get_output("velocity") == 1.0


def test_time_base_folds_on_step_change():
    times = [0.0, 1.25, math.nextafter(1.25, math.inf), 1.5, math.nextafter(1.5, math.inf)]
    unit = ReplayUnit(row_trace(times))
    for _ in range(10):
        unit.do_step(0.1)
    assert unit.get_output("velocity") == 0.0
    unit.do_step(0.25)  # t = 1.25 exactly
    assert unit.get_output("velocity") == 1.0
    unit.do_step(0.25)  # t = 1.5 exactly
    assert unit.get_output("velocity") == 3.0


def test_determinism_same_inputs_same_outputs():
    rng = random.Random(42)
    inputs = [rng.uniform(-10, 10) for _ in range(200)]

    def run():
        unit = ProbeUnit({"gain": 1.5})
        out = []
        for u in inputs:
            unit.set_input("u", u)
            unit.do_step(0.05)
            out.append(unit.get_output("y"))
        return out

    assert run() == run()


# --- registry ---------------------------------------------------------------


def test_registry_roundtrip():
    reg = UnitRegistry()
    reg.register("probe", ProbeUnit)
    unit = reg.instantiate("probe", {"gain": 7.0})
    assert unit.parameters["gain"] == 7.0


def test_registry_rejects_duplicates_and_empty_names():
    reg = UnitRegistry()
    reg.register("probe", ProbeUnit)
    with pytest.raises(ContractViolation, match="already registered"):
        reg.register("probe", ProbeUnit)
    with pytest.raises(ContractViolation, match="non-empty"):
        reg.register("", ProbeUnit)


def test_registry_unknown_type_lists_known():
    reg = UnitRegistry()
    reg.register("b", ProbeUnit)
    reg.register("a", ProbeUnit)
    with pytest.raises(UnknownUnitError, match=r"unknown unit type 'c'; known: a, b"):
        reg.instantiate("c")
    assert reg.known_types() == ["a", "b"]


def test_registry_instances_are_independent():
    reg = UnitRegistry()
    reg.register("probe", ProbeUnit)
    first = reg.instantiate("probe")
    second = reg.instantiate("probe")
    first.set_input("u", 1.0)
    first.do_step(0.1)
    second.do_step(0.1)
    assert first.get_output("y") == 2.0
    assert second.get_output("y") == 0.0
