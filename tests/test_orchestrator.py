"""Master algorithm tests: stepping, coupling delay, validation, recording."""

import math
import random
from fractions import Fraction

import pytest

from fieldsim.errors import ConfigError, SimulationError
from fieldsim.orchestrator import (
    Connection,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    load_multimodel,
    run_cosim,
    validate_config,
    write_results_csv,
)
from fieldsim.simunit import (
    PortDescriptor,
    PortDirection,
    SimulationUnit,
    UnitDescription,
    UnitRegistry,
)
from fieldsim.traces import TimedTrace, generate_scenario, ScenarioSpec, read_trace_csv
from fieldsim.units import VehicleUnit, default_registry, replay_factory

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT


class CounterUnit(SimulationUnit):
    """Output equals the number of steps taken so far."""

    DESC = UnitDescription("counter", (PortDescriptor("n", _OUT),))

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)

    def _advance(self, h):
        self._outputs["n"] += 1.0


class EchoUnit(SimulationUnit):
    DESC = UnitDescription(
        "echo", (PortDescriptor("u", _IN), PortDescriptor("y", _OUT))
    )

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)

    def _advance(self, h):
        self._outputs["y"] = self._inputs["u"]


class BombUnit(SimulationUnit):
    """Blows up on its third step; exercises mid-run failure reporting."""

    DESC = UnitDescription("bomb", (PortDescriptor("y", _OUT),))

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == 3:
            raise ValueError("fuse burnt")
        self._outputs["y"] = float(self._ticks)


def probe_registry():
    reg = UnitRegistry()
    reg.register("counter", CounterUnit)
    reg.register("echo", EchoUnit)
    reg.register("bomb", BombUnit)
    return reg


def counter_config(duration, step):
    return MultiModelConfig(
        instances={"c": InstanceSpec("counter"), "e": InstanceSpec("echo")},
        connections=[Connection(PortRef("c", "n"), PortRef("e", "u"))],
        outputs=[PortRef("c", "n"), PortRef("e", "y")],
        step_size=step,
        duration=duration,
    )


# --- port references --------------------------------------------------------


def test_port_ref_parse():
    assert PortRef.parse("veh.x") == PortRef("veh", "x")
    # instance names may be dotted; the port is always the last segment
    assert PortRef.parse("plant.axle.speed") == PortRef("plant.axle", "speed")
    assert PortRef("a", "b").render() == "a.b"


@pytest.mark.parametrize("text", ["nodot", ".x", "a.", 7])
def test_port_ref_parse_rejects_malformed(text):
    with pytest.raises(ConfigError):
        PortRef.parse(text)


# --- config loading ---------------------------------------------------------


def test_load_multimodel_from_mapping():
    config = load_multimodel(
        {
            "instances": {"c": {"unit_type": "counter"}},
            "connections": [],
            "outputs": ["c.n"],
            "step_size": 0.2,
            "duration": 1.0,
        }
    )
    assert config.instances["c"].unit_type == "counter"
    assert config.step_size == 0.2


def test_load_multimodel_from_file(tmp_path):
    doc = tmp_path / "mm.json"
    doc.write_text(
        '{"instances": {"c": {"unit_type": "counter"}}, "outputs": ["c.n"], "duration": 1}'
    )
    config = load_multimodel(doc)
    assert config.duration == 1
    assert config.connections == []


def test_load_multimodel_rejects_bad_json(tmp_path):
    doc = tmp_path / "mm.json"
    doc.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_multimodel(doc)


@pytest.mark.parametrize(
    "doc,text",
    [
        (
            {"instances": {}, "outputs": []},
            "multi-model document needs 'instances', 'outputs' and 'duration'",
        ),
        (
            {"instances": {}, "outputs": [], "duration": 1, "extra": 1},
            "multi-model document: unknown keys extra",
        ),
        (
            {"instances": {"a": {}}, "outputs": [], "duration": 1},
            "multi-model document: instance 'a' needs a 'unit_type'",
        ),
        (
            {
                "instances": {"a": {"unit_type": "counter", "typo": 1}},
                "outputs": [],
                "duration": 1,
            },
            "multi-model document: instance 'a': unknown keys typo",
        ),
        (
            {
                "instances": {},
                "connections": [{"source": "a.b"}],
                "outputs": [],
                "duration": 1,
            },
            "multi-model document: connection needs 'source' and 'sink'",
        ),
        ([], "multi-model document needs 'instances', 'outputs' and 'duration'"),
        (
            {"instances": [], "outputs": [], "duration": 1},
            "multi-model document: 'instances' must be an object, got []",
        ),
        (
            {"instances": {"a": {"unit_type": "counter", "parameters": [1]}}, "outputs": [], "duration": 1},
            "multi-model document: instance 'a': 'parameters' must be an object, got [1]",
        ),
    ],
)
def test_load_multimodel_rejects_malformed(doc, text):
    with pytest.raises(ConfigError) as caught:
        load_multimodel(doc)
    assert str(caught.value) == text


# --- validation -------------------------------------------------------------


def test_validate_clean_config_has_no_diagnostics():
    assert validate_config(counter_config(1.0, 0.1), probe_registry()) == []


def test_validate_reports_every_problem_at_once():
    config = MultiModelConfig(
        instances={"c": InstanceSpec("counter"), "e": InstanceSpec("echo"),
                   "a": InstanceSpec("vehicle"), "b": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("c", "zz"), PortRef("e", "u")),
            Connection(PortRef("c", "n"), PortRef("e", "u")),
            Connection(PortRef("c", "n"), PortRef("e", "u")),
            Connection(PortRef("ghost", "n"), PortRef("e", "y")),
            Connection(PortRef("a", "x"), PortRef("b", "mu")),
            Connection(PortRef("a", "mu"), PortRef("b", "velocity")),
        ],
        outputs=[PortRef("e", "u"), PortRef("a", "mu")],
        step_size=-1.0,
        duration=1.0,
    )
    registry = probe_registry()
    registry.register("vehicle", VehicleUnit)
    diags = validate_config(config, registry)
    joined = "\n".join(diags)
    assert "step_size must be positive" in joined
    assert "connection source 'c.zz': no such port" in joined
    assert "input 'e.u' has more than one incoming connection" in joined
    assert "no instance 'ghost'" in joined
    # e.y is an output, so wiring it as a sink is also flagged
    assert "port is output, expected input" in joined
    assert "recorded output 'e.u': port is input, expected output" in joined
    # a parameter is neither an input nor an output
    assert "connection sink 'b.mu': port is parameter, expected input" in joined
    assert "connection source 'a.mu': port is parameter, expected output" in joined
    assert "recorded output 'a.mu': port is parameter, expected output" in joined
    assert len(diags) >= 9


def test_validate_config_lists_every_bad_parameter_of_an_instance():
    config = MultiModelConfig(
        instances={"veh": InstanceSpec("vehicle", {"mu": 5, "I_z": -1})}, connections=[],
        outputs=[PortRef("veh", "x")], duration=1.0,
    )
    assert validate_config(config, default_registry()) == [
        "instance 'veh': vehicle parameter I_z must be positive, got -1.0; "
        "vehicle parameter mu must be in (0, 2], got 5.0"
    ]


@pytest.mark.parametrize(
    "names,diagnostic",
    [((), "no instances declared"), (("",), "bad instance name ''"), (("a,b",), "bad instance name 'a,b'")],
    ids=["none", "empty", "comma"],
)
def test_validate_rejects_missing_and_bad_instance_names(names, diagnostic):
    config = MultiModelConfig(
        instances={name: InstanceSpec("counter") for name in names}, connections=[], outputs=[], duration=1.0
    )
    assert validate_config(config, probe_registry()) == [diagnostic]


def test_validate_rejects_self_coupling():
    config = MultiModelConfig(
        instances={"e": InstanceSpec("echo")},
        connections=[Connection(PortRef("e", "y"), PortRef("e", "u"))],
        outputs=[PortRef("e", "y")],
        duration=1.0,
    )
    diags = validate_config(config, probe_registry())
    assert any("distinct instances" in d for d in diags)


def test_validate_reports_a_recorded_output_listed_twice():
    config = counter_config(1.0, 0.1)
    config.outputs.append(PortRef("c", "n"))
    assert validate_config(config, probe_registry()) == [
        "recorded output 'c.n' is listed more than once"
    ]


def test_validate_rejects_oversized_run():
    config = counter_config(20_000.0, 1e-4)
    diags = validate_config(config, probe_registry())
    assert any("exceeds 100000000 steps" in d for d in diags)


def test_validate_reports_unknown_unit_type():
    config = MultiModelConfig(
        instances={"x": InstanceSpec("warp_drive")},
        connections=[],
        outputs=[],
        duration=1.0,
    )
    diags = validate_config(config, probe_registry())
    assert any("warp_drive" in d for d in diags)


def test_run_cosim_raises_config_error_with_diagnostics():
    config = counter_config(1.0, -0.1)
    with pytest.raises(ConfigError) as err:
        run_cosim(config, probe_registry())
    assert any("step_size" in d for d in err.value.diagnostics)


def test_run_cosim_builds_each_instance_once():
    built = []
    reg = UnitRegistry()
    for name, cls in (("counter", CounterUnit), ("echo", EchoUnit)):
        def factory(parameters, cls=cls, name=name):
            built.append(name)
            return cls(parameters)
        reg.register(name, factory)
    trace = run_cosim(counter_config(0.3, 0.1), reg)
    assert sorted(built) == ["counter", "echo"]
    assert trace.column("e.y") == [0.0, 0.0, 1.0, 2.0]


# --- stepping and recording -------------------------------------------------


def test_row_count_example():
    # 1.0 s at 0.1 s steps: the initial row plus ten stepped rows.
    trace = run_cosim(counter_config(1.0, 0.1), probe_registry())
    assert len(trace.times) == 11
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_row_count_matches_exact_arithmetic():
    # Row count must follow ceil(duration/step) computed without float
    # division error, e.g. 0.3/0.1 is 2.9999... in floats but 3 exactly.
    rng = random.Random(7)
    for _ in range(30):
        duration = rng.choice([0.3, 0.7, 1.0, 2.5, 0.05, 1.9])
        step = rng.choice([0.1, 0.05, 0.02, 0.3, 0.7])
        n = int(math.ceil(Fraction(duration) / Fraction(step)))
        trace = run_cosim(counter_config(duration, step), probe_registry())
        assert len(trace.times) == n + 1, (duration, step)
        assert trace.times == [k * step for k in range(n + 1)]


def test_zero_duration_records_initial_row_only():
    trace = run_cosim(counter_config(0.0, 0.1), probe_registry())
    assert trace.times == [0.0]
    assert trace.values == [[0.0, 0.0]]


def test_coupling_is_delayed_by_one_step():
    # Sinks see the source output computed on the previous step, so the
    # echo of a step counter lags it by exactly one sample.
    trace = run_cosim(counter_config(0.5, 0.1), probe_registry())
    counter = trace.column("c.n")
    echo = trace.column("e.y")
    assert counter == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert echo == [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]


def test_channels_follow_output_order():
    trace = run_cosim(counter_config(0.2, 0.1), probe_registry())
    assert trace.channels == ["c.n", "e.y"]


def test_failing_unit_names_instance_and_time():
    config = MultiModelConfig(
        instances={"b": InstanceSpec("bomb")},
        connections=[],
        outputs=[PortRef("b", "y")],
        step_size=0.1,
        duration=1.0,
    )
    with pytest.raises(SimulationError, match=r"instance 'b' failed at t=0\.2: fuse burnt"):
        run_cosim(config, probe_registry())


def test_bad_exchange_names_connection_and_time():
    class NanSource(SimulationUnit):
        DESC = UnitDescription("nansource", (PortDescriptor("y", _OUT),))

        def __init__(self, parameters=None):
            super().__init__(self.DESC, parameters)

        def _advance(self, h):
            self._outputs["y"] = float("nan")

    reg = probe_registry()
    reg.register("nansource", NanSource)
    config = MultiModelConfig(
        instances={"s": InstanceSpec("nansource"), "e": InstanceSpec("echo")},
        connections=[Connection(PortRef("s", "y"), PortRef("e", "u"))],
        outputs=[PortRef("e", "y")],
        step_size=0.1,
        duration=1.0,
    )
    # step 1 produces the NaN; the exchange before step 2 trips over it
    with pytest.raises(SimulationError, match=r"connection s\.y -> e\.u at t=0\.1"):
        run_cosim(config, reg)


def test_rerun_is_deterministic(tmp_path):
    config = counter_config(2.0, 0.05)

    def run_once(name):
        trace = run_cosim(config, probe_registry())
        path = tmp_path / name
        write_results_csv(trace, path)
        return path.read_bytes()

    assert run_once("a.csv") == run_once("b.csv")


# --- closed loop with built-in units ----------------------------------------


def replay_registry(trace):
    reg = default_registry()
    reg.register("replay", replay_factory(trace))
    return reg


def test_replayed_commands_drive_vehicle_straight():
    commands = TimedTrace(
        channels=["velocity", "delta_f"],
        times=[0.0, 10.0],
        values=[[0.5, 0.0], [0.5, 0.0]],
    )
    config = MultiModelConfig(
        instances={"src": InstanceSpec("replay"), "veh": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("src", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("src", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[PortRef("veh", "x"), PortRef("veh", "y")],
        step_size=0.01,
        duration=10.0,
    )
    trace = run_cosim(config, replay_registry(commands))
    assert trace.column("veh.x")[-1] == pytest.approx(5.0, abs=1e-6)
    assert trace.column("veh.y")[-1] == 0.0


def test_results_csv_roundtrip(tmp_path):
    spec = ScenarioSpec(name="sin1", kind="sin", duration=4.0, base_speed=2.0, amplitude=0.3)
    commands = generate_scenario(spec)
    config = MultiModelConfig(
        instances={"src": InstanceSpec("replay"), "veh": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("src", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("src", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[PortRef("veh", "x"), PortRef("veh", "y"), PortRef("veh", "theta")],
        step_size=0.01,
        duration=4.0,
    )
    trace = run_cosim(config, replay_registry(commands))
    path = tmp_path / "results.csv"
    write_results_csv(trace, path)
    back = read_trace_csv(path)
    assert back.channels == trace.channels
    assert back.times == trace.times
    assert back.values == trace.values


class HugeUnit(SimulationUnit):
    """Outputs 1e308, a finite value near the float limit, then ``scale`` times it from step 3."""

    DESC = UnitDescription(
        "huge",
        (PortDescriptor("y", _OUT),),
        {"scale": 1.0},
    )

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._outputs["y"] = 1e308
        self._ticks = 0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == 3:
            self._outputs["y"] = self.parameters["scale"] * 1e308


def test_recorded_outputs_must_stay_finite():
    reg = UnitRegistry()
    reg.register("huge", HugeUnit)

    def config(scale):
        return MultiModelConfig(
            instances={"a": InstanceSpec("huge"), "b": InstanceSpec("huge", {"scale": scale})},
            connections=[],
            outputs=[PortRef("a", "y"), PortRef("b", "y")],
            step_size=0.1,
            duration=0.5,
        )

    # finite values whose sum overflows are fine
    assert run_cosim(config(1.0), reg).values[-1] == [1e308, 1e308]
    with pytest.raises(SimulationError, match=r"^recorded output b\.y is inf at t=0\.3$"):
        run_cosim(config(2.0), reg)
