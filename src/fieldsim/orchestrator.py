"""Fixed-step co-simulation master with Jacobi data exchange.

Each macro step reads every connected source output as left by the
previous step, latches the values onto the sink inputs, then steps all
units.  Coupling signals therefore arrive with exactly one step of
delay, which keeps the exchange order-independent and the whole run
deterministic.

A run over ``duration`` at ``step_size`` produces ``N + 1`` rows with
``N = ceil(duration / step_size)``: one initial row at t = 0 before any
stepping, then one per macro step.  Row times are ``k * step_size``
computed from the step index, never by accumulation.

There is one stepping loop, :func:`lockstep_cosim`: it steps configs that
differ only in instance parameters side by side, one flat row per step,
and :func:`run_cosim` is that loop over one config.  A recorded value that
is not finite is reported after the last row, so a connection or instance
failure it leads to is the one reported.  An error names the connection,
instance or recorded output and the time, never a config: a sweep finds
its failing point by running each point of the slice alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from sys import float_info
from typing import Callable, Iterator, Mapping

from ._shared import check_kind, check_object, read_json
from .errors import ConfigError, ContractViolation, SimulationError, UnknownUnitError
from .simunit import PortDescriptor, PortDirection, PortKind, SimulationUnit, UnitRegistry, bits_key
from .simunit import _check_boolean, _check_real
from .traces import TimedTrace, write_trace_csv

DEFAULT_STEP_SIZE = 0.01
MAX_STEPS = 100_000_000
# Every recorded value stays in memory until the run returns: about 67 bytes
# each in a 3-channel run (float, list slot, row list, row time), so about 0.7 GB.
MAX_RECORDED_VALUES = 10_000_000


@dataclass(frozen=True)
class PortRef:
    """Reference to one port of one instance, rendered ``instance.port``."""

    instance: str
    port: str

    @staticmethod
    def parse(text: str) -> "PortRef":
        """Split a dotted reference; the port is the last segment.

        Instance names may themselves contain dots (a three-segment
        reference keeps its first two segments as the instance name).
        """
        if not isinstance(text, str) or "." not in text:
            raise ConfigError(f"port reference {text!r} must look like 'instance.port'")
        instance, _, port = text.rpartition(".")
        if not instance or not port:
            raise ConfigError(f"port reference {text!r} has an empty segment")
        return PortRef(instance, port)

    def render(self) -> str:
        return f"{self.instance}.{self.port}"


@dataclass(frozen=True)
class Connection:
    source: PortRef
    sink: PortRef


@dataclass(frozen=True)
class InstanceSpec:
    unit_type: str
    parameters: Mapping[str, float] = field(default_factory=dict)


@dataclass
class MultiModelConfig:
    """Instances, couplings and recording plan for one co-simulation."""

    instances: dict[str, InstanceSpec]
    connections: list[Connection]
    outputs: list[PortRef]
    step_size: float = DEFAULT_STEP_SIZE
    duration: float = 0.0


def load_multimodel(source: str | Path | Mapping) -> MultiModelConfig:
    """Build a config from a JSON file path, which a shape error names, or an already-parsed mapping."""
    where = str(source) if isinstance(source, (str, Path)) else "multi-model document"
    doc = check_object(where, read_json(source), ("instances", "outputs", "duration"),
                       ("connections", "step_size"))

    instances: dict[str, InstanceSpec] = {}
    for name, spec in check_kind(where, "instances", doc["instances"], dict).items():
        at = f"{where}: instance {name!r}"
        spec = check_object(at, spec, ("unit_type",), ("parameters",))
        unit_type = check_kind(at, "unit_type", spec["unit_type"], str)
        parameters = check_kind(at, "parameters", spec.get("parameters", {}), dict)
        instances[name] = InstanceSpec(unit_type, dict(parameters))

    items = [check_object(f"{where}: connection", item, ("source", "sink"))
             for item in check_kind(where, "connections", doc.get("connections", []), list)]
    outputs = check_kind(where, "outputs", doc["outputs"], list)
    try:
        connections = [Connection(PortRef.parse(item["source"]), PortRef.parse(item["sink"])) for item in items]
        outputs = [PortRef.parse(text) for text in outputs]
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None

    return MultiModelConfig(
        instances=instances,
        connections=connections,
        outputs=outputs,
        step_size=doc.get("step_size", DEFAULT_STEP_SIZE),
        duration=doc["duration"],
    )


def validate_config(config: MultiModelConfig, registry: UnitRegistry) -> list[str]:
    """Collect every problem with a config; an empty list means runnable."""
    return _build(config, registry)[2]


def _build(
    config: MultiModelConfig, registry: UnitRegistry
) -> tuple[dict[str, SimulationUnit], int, list[str]]:
    """Build every instance of one config and check the config.

    Returns the units, the step count and every diagnostic; the units and
    the step count are only usable when there is no diagnostic.
    """
    diagnostics: list[str] = []
    n_steps = 0

    # a bound on the value, not isfinite, which overflows on an integer past the floats
    step_ok = (isinstance(config.step_size, (int, float)) and not isinstance(config.step_size, bool)
               and 0 < config.step_size <= float_info.max)
    if not step_ok:
        diagnostics.append(f"step_size must be positive and finite, got {config.step_size!r}")
    duration_ok = (isinstance(config.duration, (int, float)) and not isinstance(config.duration, bool)
                   and 0 <= config.duration <= float_info.max)
    if not duration_ok:
        diagnostics.append(f"duration must be non-negative and finite, got {config.duration!r}")
    if step_ok and duration_ok:
        n_steps = math.ceil(Fraction(config.duration) / Fraction(float(config.step_size)))
        values = (n_steps + 1) * len(config.outputs)
        if config.duration / config.step_size > MAX_STEPS:
            diagnostics.append(
                f"run of {config.duration}s at {config.step_size}s exceeds {MAX_STEPS} steps"
            )
        elif values > MAX_RECORDED_VALUES:
            diagnostics.append(
                f"run of {config.duration}s at {config.step_size}s would record {values} values "
                f"({n_steps + 1} rows of {len(config.outputs)}), over the budget of "
                f"{MAX_RECORDED_VALUES}"
            )

    if not config.instances:
        diagnostics.append("no instances declared")
    for name in config.instances:
        if not name or "," in name:
            diagnostics.append(f"bad instance name {name!r}")

    units: dict[str, SimulationUnit] = {}
    for name, spec in config.instances.items():
        try:
            units[name] = registry.instantiate(spec.unit_type, spec.parameters)
        except (UnknownUnitError, ContractViolation) as exc:
            diagnostics.append(f"instance {name!r}: {exc}")

    def check_endpoint(ref: PortRef, wanted: PortDirection, role: str) -> PortDescriptor | None:
        unit = units.get(ref.instance)
        if unit is None:
            if ref.instance not in config.instances:
                diagnostics.append(f"{role} {ref.render()!r}: no instance {ref.instance!r}")
            return None  # instance failed to build; already reported
        if ref.port in unit.parameters:  # a real value, set only at construction
            diagnostics.append(f"{role} {ref.render()!r}: port is parameter, expected {wanted.value}")
            return PortDescriptor(ref.port, wanted)
        try:
            port = unit.description.port(ref.port)
        except ContractViolation:
            diagnostics.append(f"{role} {ref.render()!r}: no such port")
            return None
        if port.direction is not wanted:
            diagnostics.append(
                f"{role} {ref.render()!r}: port is {port.direction.value}, expected {wanted.value}"
            )
        return port

    bound_sinks: set[PortRef] = set()
    for conn in config.connections:
        source = check_endpoint(conn.source, PortDirection.OUTPUT, "connection source")
        sink = check_endpoint(conn.sink, PortDirection.INPUT, "connection sink")
        if source and sink and source.kind is not sink.kind:
            diagnostics.append(
                f"connection {conn.source.render()} -> {conn.sink.render()}: "
                f"source is {source.kind.value}, sink expects {sink.kind.value}"
            )
        if conn.source.instance == conn.sink.instance:
            diagnostics.append(
                f"connection {conn.source.render()} -> {conn.sink.render()}: "
                "source and sink must be distinct instances"
            )
        if conn.sink in bound_sinks:
            diagnostics.append(f"input {conn.sink.render()!r} has more than one incoming connection")
        bound_sinks.add(conn.sink)

    recorded: set[PortRef] = set()
    for ref in config.outputs:
        check_endpoint(ref, PortDirection.OUTPUT, "recorded output")
        if ref in recorded:
            diagnostics.append(f"recorded output {ref.render()!r} is listed more than once")
        recorded.add(ref)

    return units, n_steps, diagnostics


def run_cosim(config: MultiModelConfig, registry: UnitRegistry) -> TimedTrace:
    """Run one co-simulation and return the recorded trace.

    Raises :class:`ConfigError` with all diagnostics when the config is
    invalid, and :class:`SimulationError` naming the failing instance
    and simulation time when a unit breaks down mid-run or a recorded
    output is not a finite number.
    """
    channels, times, rows = lockstep_cosim([config], registry)
    return TimedTrace(channels, times, list(rows))


def lockstep_cosim(
    configs: list[MultiModelConfig], registry: UnitRegistry
) -> tuple[list[str], list[float], Iterator[list[float]]]:
    """Run configs that differ only in instance parameters side by side.

    The first config is built and checked in full.  The configs share
    their layout, so the others build only their copies of the instances
    whose spec varies; the rest are built and stepped once.  The configs
    may vary only instances of a unit type that groups its copies
    (``SimulationUnit._group``), and such an instance may feed no other:
    then every instance sees the same inputs in every config, and the
    copies of a varying one step as one group.  Any other set of configs
    raises :class:`ConfigError` before a second copy is built; run each
    config on its own instead.  With one config nothing varies, which is
    :func:`run_cosim`.  The loop reads ``_outputs``, writes ``_inputs``
    and calls ``_advance`` of units and groups alike.  One config whose
    units all declare their state (``SimulationUnit._step_state``) is at
    rest once two steps in a row leave every output and declared state
    with the same bits: each later step would repeat the last, so the
    loop yields that row object for the remaining steps and stops stepping.

    Returns the channels, the row times (``k * step_size``) and an
    iterator over the rows.  Each row is flat, ordered by channel and
    then by config: config ``p`` of ``n`` recorded ``row[p::n]``.  Raises
    :class:`ConfigError` with every diagnostic of the first invalid config.
    The iterator raises :class:`SimulationError` naming the connection,
    instance or recorded output that failed and the time.  A recorded
    value that is not finite fails the run only after the last row,
    naming the first such value, so that a failure it causes later (in a
    connection it feeds, say) is the one reported.
    """
    def layout(c: MultiModelConfig) -> tuple:
        types = [(name, spec.unit_type) for name, spec in c.instances.items()]
        return types, c.connections, c.outputs, c.step_size, c.duration

    first = configs[0]
    if any(layout(config) != layout(first) for config in configs):
        raise ConfigError("lock-stepped configs may differ only in instance parameters")
    varying = [
        name for name, spec in first.instances.items()
        if any(config.instances[name] != spec for config in configs)
    ]

    units, n_steps, diagnostics = _build(first, registry)
    if diagnostics:
        raise ConfigError("invalid multi-model configuration", diagnostics)
    for name in varying:
        if units[name]._group is None:
            raise ConfigError(f"instance {name!r} varies, but its copies do not step as one group")
        if any(c.source.instance == name for c in first.connections):
            raise ConfigError(f"instance {name!r} varies and feeds another instance")
    copies = {name: [units[name]] for name in varying}
    for config in configs[1:]:
        for name in varying:
            spec = config.instances[name]
            try:
                copies[name].append(registry.instantiate(spec.unit_type, spec.parameters))
            except ContractViolation as exc:
                diagnostics.append(f"instance {name!r}: {exc}")
        if diagnostics:
            raise ConfigError("invalid multi-model configuration", diagnostics)

    n, h = len(configs), float(first.step_size)
    # a shared instance is its own endpoint; the copies of a varying one step
    # as one group, whose outputs hold one value per config
    endpoints = {
        name: unit._group(copies[name]) if name in copies else unit for name, unit in units.items()
    }
    # (source outputs, source port, sink inputs, sink port, real sink,
    # connection): every source is shared, so its value is read and checked
    # once, and a group takes it for all its copies; the loop moves it by
    # subscription, which makes no call
    exchange = [
        (endpoints[c.source.instance]._outputs, c.source.port,
         endpoints[c.sink.instance]._inputs, c.sink.port,
         units[c.sink.instance].description.port(c.sink.port).kind is PortKind.REAL, c)
        for c in first.connections
    ]
    # shared instances step first, then the groups, each in config order
    steppers = [(name, endpoints[name]._advance) for name in sorted(endpoints, key=lambda name: name in varying)]
    recorders = [partial(endpoints[ref.instance]._outputs.__getitem__, ref.port) for ref in first.outputs]
    if n > 1:  # each gives a channel's n values, which are ``row[j * n:(j + 1) * n]``
        recorders = [
            read if ref.instance in varying else partial(_repeated, read, n)
            for ref, read in zip(first.outputs, recorders)
        ]
    channels = [ref.render() for ref in first.outputs]
    declared = [(unit, unit._step_state) for unit in units.values()]
    rests = n == 1 and all(names is not None for _, names in declared)  # else the loop never rests

    def rows() -> Iterator[list[float]]:
        isfinite = math.isfinite
        bad = None  # (row, index, value) of the first non-finite recorded value
        phase, k = "record", 0
        last = last_key = None  # the row before, and its key if it was taken
        try:
            for k in range(n_steps + 1):
                if k:  # row 0 is the state before the first step
                    phase = "exchange"
                    for src, out, dst, port, real, conn in exchange:
                        v = src[out]
                        if real:
                            if v.__class__ is not float or not isfinite(v):
                                v = _check_real(port, v)
                        elif v is not True and v is not False:
                            v = _check_boolean(port, v)
                        dst[port] = v
                    phase = "step"
                    for name, step in steppers:
                        step(h)
                    phase = "record"
                if n == 1:
                    row = [float(read()) for read in recorders]
                else:
                    row = []
                    for read in recorders:
                        row += read()
                # finite unless some value is not (or finite values overflow it)
                if bad is None and not isfinite(sum(row)):
                    bad = next(((k, j, v) for j, v in enumerate(row) if not isfinite(v)), None)
                yield row
                key = None
                if rests and row == last:
                    values = [v for unit, names in declared
                              for v in (*unit._outputs.values(), *[getattr(unit, a) for a in names])]
                    try:
                        key = bits_key(len(values))(*values)
                    except struct.error:  # a value that does not pack is never at rest
                        pass
                    if key is not None and key == last_key:
                        break  # at rest: every later step repeats this one
                last, last_key = row, key
        except Exception as exc:
            if phase == "exchange":
                raise SimulationError(
                    f"connection {conn.source.render()} -> {conn.sink.render()} "
                    f"at t={(k - 1) * h:.6g}: {exc}"
                ) from exc
            if phase == "step":
                raise SimulationError(f"instance {name!r} failed at t={(k - 1) * h:.6g}: {exc}") from exc
            for j, read in enumerate(recorders):  # the first that does not convert to float
                try:
                    float(read()) if n == 1 else read()
                except Exception as error:
                    raise SimulationError(
                        f"recorded output {channels[j]} at t={k * h:.6g}: {error}"
                    ) from exc
            raise
        for _ in range(k, n_steps):
            yield row
        if bad is not None:
            k, j, v = bad
            raise SimulationError(f"recorded output {channels[j // n]} is {v!r} at t={k * h:.6g}")

    return channels, [k * h for k in range(n_steps + 1)], rows()


def _repeated(read: Callable[[], object], n: int) -> list[float]:
    return [float(read())] * n


def write_results_csv(trace: TimedTrace, path: str | Path) -> None:
    """Write a recorded trace as CSV.

    Header is ``time,<instance>.<port>,...``; reals carry 17 significant
    digits so a read back reproduces them exactly; lines end with LF.
    """
    write_trace_csv(trace, path)
