"""In-process simulation unit contract and unit-type registry.

A simulation unit is a stateful block with named, typed, directed ports
and named real parameters, each declared once by its default and fixed at
construction.  Every unit offers the same four-call protocol: construct it,
latch input values with :meth:`SimulationUnit.set_input`, advance it with
:meth:`SimulationUnit.do_step`, and read results with
:meth:`SimulationUnit.get_output`; each call checks its arguments.
Inputs are held constant over a step (zero-order hold); outputs must
stay consistent with the state reached by the most recent step.

Units are plain Python objects registered under a string type name, so
models, controllers and test probes all plug in the same way.  A master
that checked the ports itself reads ``_outputs``, writes ``_inputs`` and
calls ``_advance`` of a unit, or of the group of its copies that
``SimulationUnit._group`` offers for lock-step runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from struct import Struct
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import ContractViolation, UnknownUnitError


class PortDirection(Enum):
    INPUT = "input"
    OUTPUT = "output"


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
    """A unit type's input and output ports and its parameters' defaults; no two share a name."""

    unit_type: str
    ports: tuple[PortDescriptor, ...]
    default_parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for name in [p.name for p in self.ports] + list(self.default_parameters):
            if not name or "." in name or "," in name:
                raise ContractViolation(f"unit {self.unit_type!r}: bad port name {name!r}")
            if name in seen:
                raise ContractViolation(f"unit {self.unit_type!r}: duplicate port {name!r}")
            seen.add(name)

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


def bits_key(count: int) -> Callable[..., bytes]:
    """A packer of ``count`` reals whose results are equal exactly when each real has the same bits.

    For finite reals that means the same value with the same sign of zero,
    which ``==`` does not tell apart.
    """
    return Struct(f"{count}d").pack


def input_memo(inputs: Mapping[str, float]) -> Callable[[], bool]:
    """A test of whether ``inputs`` hold, by :func:`bits_key`, what they held when it last said False.

    A unit whose outputs depend only on its real inputs and on constants
    fixed at construction returns early from a step that passes the test.
    """
    pack = bits_key(len(inputs))
    last = None

    def repeats() -> bool:
        nonlocal last
        key = pack(*inputs.values())
        if key == last:
            return True
        last = key
        return False

    return repeats


def _check_parameters(checks: Mapping[str, bool]) -> None:
    """Raise one violation listing, joined by ``; ``, each message whose check is true."""
    failed = [message for message, bad in checks.items() if bad]
    if failed:
        raise ContractViolation("; ".join(failed))


class SimulationUnit:
    """Base class implementing the checked port protocol.

    Subclasses define a :class:`UnitDescription`, derive their constants
    from ``self.parameters``, keep their outputs in ``self._outputs``, read
    their inputs from ``self._inputs``, and implement :meth:`_advance` to
    move their state forward by one step of ``h`` seconds.
    A unit keeps no clock; one that needs the time counts its own steps.

    The orchestrator reads ``_outputs``, writes ``_inputs`` and calls
    ``_advance`` directly, so a subclass changes what a run does only
    through ``_advance``, not by overriding the checked calls.  A unit
    type whose copies step faster together sets ``_group`` to a callable
    that takes the copies and returns a group offering the same three: an
    output holds one value per copy, an input one value for all.

    Instances are not thread safe; the orchestrator drives each unit
    from a single thread.
    """

    _group = None  # a unit type whose copies do not step faster together has no group

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
            else:
                self._outputs[port.name] = False if port.kind is PortKind.BOOLEAN else 0.0

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
        self._advance(float(h))

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
