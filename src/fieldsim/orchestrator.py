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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping

from ._shared import read_json
from .errors import ConfigError, ContractViolation, SimulationError, UnknownUnitError
from .simunit import PortDescriptor, PortDirection, PortKind, SimulationUnit, UnitRegistry
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
    """Build a config from a JSON file path or an already-parsed mapping."""
    doc = read_json(source)
    if not isinstance(doc, dict):
        raise ConfigError("multi-model document must be a JSON object")

    known = {"instances", "connections", "outputs", "step_size", "duration"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown multi-model keys: {', '.join(sorted(unknown))}")
    for key in ("instances", "outputs", "duration"):
        if key not in doc:
            raise ConfigError(f"multi-model document missing key {key!r}")

    instances: dict[str, InstanceSpec] = {}
    if not isinstance(doc["instances"], dict):
        raise ConfigError("'instances' must be an object")
    for name, spec in doc["instances"].items():
        if not isinstance(spec, dict) or "unit_type" not in spec:
            raise ConfigError(f"instance {name!r} needs a 'unit_type'")
        if not isinstance(spec["unit_type"], str):
            raise ConfigError(
                f"instance {name!r}: 'unit_type' must be a string, got {spec['unit_type']!r}"
            )
        params = spec.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError(f"instance {name!r}: 'parameters' must be an object")
        extra = set(spec) - {"unit_type", "parameters"}
        if extra:
            raise ConfigError(f"instance {name!r}: unknown keys {', '.join(sorted(extra))}")
        instances[name] = InstanceSpec(spec["unit_type"], dict(params))

    for key in ("connections", "outputs"):
        if not isinstance(doc.get(key, []), list):
            raise ConfigError(f"{key!r} must be a list")

    connections: list[Connection] = []
    for item in doc.get("connections", []):
        if not isinstance(item, dict) or set(item) != {"source", "sink"}:
            raise ConfigError(f"connection {item!r} must have exactly 'source' and 'sink'")
        connections.append(Connection(PortRef.parse(item["source"]), PortRef.parse(item["sink"])))

    outputs = [PortRef.parse(text) for text in doc["outputs"]]
    step_size = doc.get("step_size", DEFAULT_STEP_SIZE)
    return MultiModelConfig(
        instances=instances,
        connections=connections,
        outputs=outputs,
        step_size=step_size,
        duration=doc["duration"],
    )


def validate_config(config: MultiModelConfig, registry: UnitRegistry) -> list[str]:
    """Collect every problem with a config; an empty list means runnable."""
    return _build(config, registry)[1]


@dataclass(frozen=True)
class _Plan:
    """A validated run compiled once: validation proved the ports, kinds and
    step size, so the loop re-checks only the values units emit."""

    step_size: float
    n_steps: int
    channels: list[str]
    # (read source, write sink, sink is real, connection), in config order
    exchange: list[tuple[Callable[[], object], Callable[[object], None], bool, Connection]]
    recorders: list[Callable[[], object]]
    steppers: list[tuple[str, Callable[[float], None]]]


def _build(config: MultiModelConfig, registry: UnitRegistry) -> tuple[_Plan | None, list[str]]:
    """Build every instance and check the config; the plan is None if any diagnostic."""
    diagnostics: list[str] = []

    step_ok = (isinstance(config.step_size, (int, float)) and not isinstance(config.step_size, bool)
               and math.isfinite(config.step_size) and config.step_size > 0)
    if not step_ok:
        diagnostics.append(f"step_size must be positive and finite, got {config.step_size!r}")
    duration_ok = (isinstance(config.duration, (int, float)) and not isinstance(config.duration, bool)
                   and math.isfinite(config.duration) and config.duration >= 0)
    if not duration_ok:
        diagnostics.append(f"duration must be non-negative and finite, got {config.duration!r}")
    if step_ok and duration_ok:
        if config.duration / config.step_size > MAX_STEPS:
            diagnostics.append(
                f"run of {config.duration}s at {config.step_size}s exceeds {MAX_STEPS} steps"
            )
        n_steps = math.ceil(Fraction(config.duration) / Fraction(float(config.step_size)))
        values = (n_steps + 1) * len(config.outputs)
        if values > MAX_RECORDED_VALUES:
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

    for ref in config.outputs:
        check_endpoint(ref, PortDirection.OUTPUT, "recorded output")

    if diagnostics:
        return None, diagnostics
    plan = _Plan(
        step_size=float(config.step_size),
        n_steps=n_steps,
        channels=[ref.render() for ref in config.outputs],
        exchange=[
            (
                units[c.source.instance]._output_reader(c.source.port),
                units[c.sink.instance]._input_writer(c.sink.port),
                units[c.sink.instance].description.port(c.sink.port).kind is PortKind.REAL,
                c,
            )
            for c in config.connections
        ],
        recorders=[units[ref.instance]._output_reader(ref.port) for ref in config.outputs],
        steppers=[(name, unit._step) for name, unit in units.items()],
    )
    return plan, diagnostics


def run_cosim(config: MultiModelConfig, registry: UnitRegistry) -> TimedTrace:
    """Run one co-simulation and return the recorded trace.

    Raises :class:`ConfigError` with all diagnostics when the config is
    invalid, and :class:`SimulationError` naming the failing instance
    and simulation time when a unit breaks down mid-run or a recorded
    output becomes non-finite.
    """
    plan, diagnostics = _build(config, registry)
    if diagnostics:
        raise ConfigError("invalid multi-model configuration", diagnostics)

    h = plan.step_size
    exchange, recorders, steppers = plan.exchange, plan.recorders, plan.steppers
    isfinite = math.isfinite
    times = [0.0]
    rows = [[float(read()) for read in recorders]]

    # One try for the whole loop: ``phase`` and the loop variables say
    # which connection or instance was at work when something raised.
    phase = None
    try:
        for k in range(1, plan.n_steps + 1):
            phase = "exchange"
            for read, write, real, conn in exchange:
                v = read()
                if real:
                    if v.__class__ is not float or not isfinite(v):
                        v = _check_real(conn.sink.port, v)
                elif v is not True and v is not False:
                    v = _check_boolean(conn.sink.port, v)
                write(v)
            phase = "step"
            for name, step in steppers:
                step(h)
            phase = "record"
            times.append(k * h)
            rows.append([float(read()) for read in recorders])
    except Exception as exc:
        if phase == "exchange":
            raise SimulationError(
                f"connection {conn.source.render()} -> {conn.sink.render()} "
                f"at t={(k - 1) * h:.6g}: {exc}"
            ) from exc
        if phase == "step":
            raise SimulationError(f"instance {name!r} failed at t={(k - 1) * h:.6g}: {exc}") from exc
        raise

    # scanned after the loop, so that a connected output that goes
    # non-finite still fails as the connection error above; the sum is
    # finite unless some value is not (or finite values overflow it)
    if not math.isfinite(sum(chain.from_iterable(rows))):
        for t, row in zip(times, rows):
            for channel, value in zip(plan.channels, row):
                if not math.isfinite(value):
                    raise SimulationError(f"recorded output {channel} is {value!r} at t={t:.6g}")
    return TimedTrace(channels=plan.channels, times=times, values=rows)


def write_results_csv(trace: TimedTrace, path: str | Path) -> None:
    """Write a recorded trace as CSV.

    Header is ``time,<instance>.<port>,...``; reals carry 17 significant
    digits so a read back reproduces them exactly; lines end with LF.
    """
    write_trace_csv(trace, path)
