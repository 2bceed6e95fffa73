"""In-process simulation unit contract and unit-type registry.

A simulation unit is a stateful block with named, typed, directed
ports.  Every unit offers the same four-call protocol: construct it,
latch input values with :meth:`SimulationUnit.set_input`, advance it with
:meth:`SimulationUnit.do_step`, and read results with
:meth:`SimulationUnit.get_output`; each call checks its arguments.
Inputs are held constant over a step (zero-order hold); outputs must
stay consistent with the state reached by the most recent step.

Units are plain Python objects registered under a string type name, so
models, controllers and test probes all plug in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from operator import setitem
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import ContractViolation, UnknownUnitError


class PortDirection(Enum):
    INPUT = "input"
    OUTPUT = "output"
    PARAMETER = "parameter"


class PortKind(Enum):
    REAL = "real"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class PortDescriptor:
    """Name, direction and value kind of one port."""

    name: str
    direction: PortDirection
    kind: PortKind = PortKind.REAL


@dataclass(frozen=True)
class UnitDescription:
    """Static description of a unit type: its ports and parameter defaults."""

    unit_type: str
    ports: tuple[PortDescriptor, ...]
    default_parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for port in self.ports:
            if not port.name or "." in port.name or "," in port.name:
                raise ContractViolation(
                    f"unit {self.unit_type!r}: bad port name {port.name!r}"
                )
            if port.name in seen:
                raise ContractViolation(
                    f"unit {self.unit_type!r}: duplicate port {port.name!r}"
                )
            seen.add(port.name)
        params = {
            p.name for p in self.ports if p.direction is PortDirection.PARAMETER
        }
        for name in self.default_parameters:
            if name not in params:
                raise ContractViolation(
                    f"unit {self.unit_type!r}: default for non-parameter port {name!r}"
                )
        missing = params - set(self.default_parameters)
        if missing:
            raise ContractViolation(
                f"unit {self.unit_type!r}: parameters without defaults: "
                + ", ".join(sorted(missing))
            )

    def port(self, name: str) -> PortDescriptor:
        for p in self.ports:
            if p.name == name:
                return p
        raise ContractViolation(f"unit {self.unit_type!r}: no port {name!r}")


def _check_real(port: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractViolation(f"port {port!r} expects a real value, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ContractViolation(f"port {port!r} given non-finite value {value!r}")
    return value


def _check_boolean(port: str, value) -> bool:
    if value is True or value is False:
        return value
    if value == 0 or value == 1:
        return bool(value)
    raise ContractViolation(f"port {port!r} expects a boolean, got {value!r}")


class SimulationUnit:
    """Base class implementing the port protocol and time bookkeeping.

    Subclasses define a :class:`UnitDescription`, keep their outputs in
    ``self._outputs``, and implement :meth:`_advance` to move their state
    forward by one step.  Current time is derived from the step count
    (``n`` steps of size ``h`` give exactly ``n * h``), not from repeated
    addition, so long runs do not drift.

    The orchestrator steps units through ``_step`` and the accessors
    from ``_output_reader``/``_input_writer``, so a subclass changes what
    a run does only through ``_advance``, not by overriding the protocol.

    Instances are not thread safe; the orchestrator drives each unit
    from a single thread.
    """

    def __init__(self, description: UnitDescription, parameters: Mapping[str, float] | None = None):
        self.description = description
        params = dict(description.default_parameters)
        if parameters:
            for name, value in parameters.items():
                if name not in params:
                    raise ContractViolation(
                        f"unit {description.unit_type!r}: unknown parameter {name!r}"
                    )
                params[name] = _check_real(name, value)
        # read-only: units derive their constants from it at construction
        self.parameters: Mapping[str, float] = MappingProxyType(params)

        self._input_kinds: dict[str, PortKind] = {}
        self._inputs: dict[str, float | bool] = {}
        self._outputs: dict[str, float | bool] = {}
        for port in description.ports:
            if port.direction is PortDirection.INPUT:
                self._input_kinds[port.name] = port.kind
                self._inputs[port.name] = False if port.kind is PortKind.BOOLEAN else 0.0
            elif port.direction is PortDirection.OUTPUT:
                self._outputs[port.name] = False if port.kind is PortKind.BOOLEAN else 0.0

        # time = _time_base + _step_count * _step_size; the base only moves
        # when the step size changes, keeping constant-step runs exact
        self._time_base = 0.0
        self._step_count = 0
        self._step_size = 0.0

    @property
    def current_time(self) -> float:
        return self._time_base + self._step_count * self._step_size

    def set_input(self, port: str, value) -> None:
        kind = self._input_kinds.get(port)
        if kind is None:
            raise ContractViolation(
                f"unit {self.description.unit_type!r}: no input port {port!r}"
            )
        if kind is PortKind.REAL:
            self._inputs[port] = _check_real(port, value)
        else:
            self._inputs[port] = _check_boolean(port, value)

    def get_output(self, port: str):
        try:
            return self._outputs[port]
        except KeyError:
            raise ContractViolation(
                f"unit {self.description.unit_type!r}: no output port {port!r}"
            ) from None

    def do_step(self, h: float) -> None:
        if not (isinstance(h, (int, float)) and not isinstance(h, bool)):
            raise ContractViolation(f"step size must be a real number, got {h!r}")
        if not math.isfinite(h) or h <= 0.0:
            raise ContractViolation(f"step size must be positive and finite, got {h!r}")
        self._step(float(h))

    # --- unchecked access, for a master that validated ports and h --------

    def _output_reader(self, port: str) -> Callable[[], float | bool]:
        """Return a no-argument callable giving the current value of ``port``."""
        return partial(self._outputs.__getitem__, port)

    def _input_writer(self, port: str) -> Callable[[float | bool], None]:
        """Return a callable latching an already-checked value onto ``port``."""
        # operator.setitem takes a fast call; a bound __setitem__ is a slot
        # wrapper that costs twice as much per value
        return partial(setitem, self._inputs, port)

    def _step(self, h: float) -> None:
        """``do_step`` without its checks: ``h`` is a positive finite float."""
        if h != self._step_size:
            self._time_base = self.current_time
            self._step_size = h
            self._step_count = 1
        else:
            self._step_count += 1
        self._advance(h)

    def _advance(self, h: float) -> None:
        raise NotImplementedError


UnitFactory = Callable[[Mapping[str, float]], SimulationUnit]


class UnitRegistry:
    """Maps unit type names to factories producing fresh instances.

    Factories take the parameter overrides for one instance and return a
    new unit.  Units that need structural data (a recorded trace, a grid
    map, a waypoint path) are registered as partials binding that data.
    """

    def __init__(self):
        self._factories: dict[str, UnitFactory] = {}

    def register(self, unit_type: str, factory: UnitFactory) -> None:
        if not unit_type:
            raise ContractViolation("unit type name must be non-empty")
        if unit_type in self._factories:
            raise ContractViolation(f"unit type {unit_type!r} already registered")
        self._factories[unit_type] = factory

    def known_types(self) -> list[str]:
        return sorted(self._factories)

    def instantiate(self, unit_type: str, parameters: Mapping[str, float] | None = None) -> SimulationUnit:
        try:
            factory = self._factories[unit_type]
        except KeyError:
            raise UnknownUnitError(
                f"unknown unit type {unit_type!r}; known: {', '.join(self.known_types()) or '(none)'}"
            ) from None
        return factory(dict(parameters or {}))
