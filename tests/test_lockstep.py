"""Lock-stepped runs and sweeps, which failure a run reports, and unrecordable outputs.

``run_cosim`` is ``lockstep_cosim`` of one config, so comparing the two
checks what sharing instances and the flat row layout do to each
config's values; ``tests/test_plan.py`` checks the loop itself against a
master written on the public unit protocol.  Lock-step varies only
vehicles that feed no other instance and declines any other set of
configs.  A recorded value that is not finite is reported after the last
row, so a connection or instance failure it leads to is the one a run
reports; an error never names a config.  ``run_sweep`` runs each
scenario's grid slice in lock-step when it can, scores it online and
writes each point's artifacts from the shared rows.  Every score, every
artifact file and every failure must be what running each point on its
own through ``run_cosim``, ``align`` and ``cross_track_error`` gives.
"""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim import _shared, dse
from fieldsim.cli import main
from fieldsim.dse import (
    DseConfig,
    _apply_assignment,
    cross_track_error,
    expand_grid,
    run_sweep,
    write_dse_results,
    write_objectives_json,
)
from fieldsim.errors import ConfigError, SimulationError
from fieldsim.orchestrator import (
    Connection,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    load_multimodel,
    lockstep_cosim,
    run_cosim,
    write_results_csv,
)
from fieldsim.safety import harvester_config, read_safety_suite
from fieldsim.simunit import (
    PortDescriptor,
    PortDirection,
    SimulationUnit,
    UnitDescription,
    UnitRegistry,
)
from fieldsim.traces import (
    ScenarioSpec,
    TimedTrace,
    align,
    generate_scenario,
    read_trace_csv,
    write_trace_csv,
)
from fieldsim.units import (
    default_registry,
    pure_pursuit_factory,
    read_grid_map,
    replay_factory,
    sensor_factory,
    ReplayUnit,
    VehicleUnit,
)
from fieldsim.units.vehicle import VEHICLE_DESCRIPTION, VehicleGroup

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT


class TalkerUnit(SimulationUnit):
    """Outputs the string "fast" on its real output from step ``at`` on (0: from the start)."""

    DESC = UnitDescription("talker", (PortDescriptor("v", _OUT),), {"at": 0.0})

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0
        self._outputs["v"] = "fast" if self.parameters["at"] == 0 else 1.0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks >= self.parameters["at"]:
            self._outputs["v"] = "fast"


class FuseUnit(SimulationUnit):
    """Raises on its step number ``at``."""

    DESC = UnitDescription("fuse", (PortDescriptor("y", _OUT),), {"at": 1.0})

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == self.parameters["at"]:
            raise RuntimeError(f"blown at step {self._ticks}")


class HugeUnit(SimulationUnit):
    """Outputs 1e308 on x, y and z: finite values whose sums overflow.

    z turns inf on step ``inf_at`` (0: never).
    """

    DESC = UnitDescription(
        "huge",
        (PortDescriptor("x", _OUT), PortDescriptor("y", _OUT), PortDescriptor("z", _OUT)),
        {"inf_at": 0.0},
    )

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0
        for port in ("x", "y", "z"):
            self._outputs[port] = 1e308

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == self.parameters["inf_at"]:
            self._outputs["z"] = 1e308 * 10


class SpikeUnit(SimulationUnit):
    """Outputs 0.0 on y, and nan from its step number ``at`` on (0: never)."""

    DESC = UnitDescription("spike", (PortDescriptor("y", _OUT),), {"at": 0.0})

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0

    def _advance(self, h):
        self._ticks += 1
        if self._ticks == self.parameters["at"]:
            self._outputs["y"] = math.nan


class EchoUnit(SimulationUnit):
    """Outputs on y what its input u held before the step."""

    DESC = UnitDescription("echo", (PortDescriptor("u", _IN), PortDescriptor("y", _OUT)))

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)

    def _advance(self, h):
        self._outputs["y"] = self._inputs["u"]


def extended_registry() -> UnitRegistry:
    registry = default_registry()
    for name, cls in (("talker", TalkerUnit), ("fuse", FuseUnit), ("huge", HugeUnit),
                      ("spike", SpikeUnit), ("echo", EchoUnit)):
        registry.register(name, cls)
    return registry


@pytest.fixture
def test_units(monkeypatch):
    """Make the test units known to sweeps and to the CLI.

    Worker processes see the patch because the pool forks them from this one.
    """
    monkeypatch.setattr(dse, "default_registry", extended_registry)
    monkeypatch.setattr("fieldsim.cli.default_registry", extended_registry)


def replay_vehicle(*extra, outputs=("veh.x", "veh.y"), step_size=0.01, duration=1.0):
    """Replayed commands into a vehicle, plus ``extra`` (name, unit type) instances."""
    instances = {"cmd": InstanceSpec("replay"), "veh": InstanceSpec("vehicle")}
    instances.update({name: InstanceSpec(unit_type) for name, unit_type in extra})
    return MultiModelConfig(
        instances=instances,
        connections=[
            Connection(PortRef("cmd", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("cmd", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[PortRef.parse(text) for text in outputs],
        step_size=step_size,
        duration=duration,
    )


def sweep_config(directory, mm, parameters, reference=None, scenarios=("s1", "s2")) -> DseConfig:
    """A sweep over ``mm`` whose scenarios share one command trace and one reference."""
    directory = Path(directory)
    commands = generate_scenario(ScenarioSpec("s", "sin", 2.0, 1.5, 0.3))
    write_trace_csv(commands, directory / "inputs.csv")
    if reference is None:
        registry = default_registry()
        registry.register("replay", replay_factory(commands))
        reference = run_cosim(replay_vehicle(), registry)
    write_trace_csv(reference, directory / "reference.csv")
    files = (directory / "inputs.csv", directory / "reference.csv")
    return DseConfig(
        algorithm="exhaustive",
        parameters=parameters,
        scenarios=list(scenarios),
        multi_model=mm,
        scenario_files={name: files for name in scenarios},
    )


def per_point_scores(config: DseConfig, artifacts_dir=None) -> list[tuple[float, float]]:
    """Each point on its own: run_cosim, align, cross_track_error.

    With ``artifacts_dir``, each point's files go where a sweep writes them.
    """
    scores = []
    for scenario in config.scenarios:
        inputs, reference = config.scenario_files[scenario]
        registry = extended_registry()
        registry.register("replay", replay_factory(read_trace_csv(inputs, ["velocity", "delta_f"])))
        for gi, assignment in enumerate(expand_grid(config.parameters)):
            simulated = run_cosim(_apply_assignment(config.multi_model, assignment), registry)
            scores.append(cross_track_error(align(read_trace_csv(reference), simulated)))
            if artifacts_dir is not None:
                run_dir = Path(artifacts_dir) / scenario / f"run_{gi:04d}"
                run_dir.mkdir(parents=True)
                write_results_csv(simulated, run_dir / "results.csv")
                write_objectives_json(run_dir / "objectives.json", *scores[-1])
    return scores


def tree_bytes(directory) -> dict[str, bytes]:
    """Every file under ``directory``, by its relative path."""
    directory = Path(directory)
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()}


# --- lockstep_cosim against run_cosim ---------------------------------------


def assert_lockstep_equals_run_cosim(configs, make_registry):
    channels, times, rows = lockstep_cosim(configs, make_registry())
    rows = list(rows)
    for p, config in enumerate(configs):
        trace = run_cosim(config, make_registry())
        assert channels == trace.channels
        assert times == trace.times
        assert [row[p::len(configs)] for row in rows] == trace.values


def counting_instantiate(monkeypatch) -> list[str]:
    """The unit types the registries build from now on, in order."""
    built = []
    instantiate = UnitRegistry.instantiate
    monkeypatch.setattr(
        UnitRegistry, "instantiate",
        lambda self, unit_type, parameters=None: built.append(unit_type)
        or instantiate(self, unit_type, parameters),
    )
    return built


def test_lockstep_shares_only_what_sees_the_same_inputs(monkeypatch):
    # cmd and fix are shared and veh varies; sup, which veh feeds, would see
    # different inputs per config, so the configs are declined after the first
    commands = generate_scenario(ScenarioSpec("s", "turn_ramp", 2.0, 2.0, 0.4))
    base = replay_vehicle(("fix", "vehicle"), outputs=("veh.x", "veh.y", "fix.theta", "cmd.velocity"))
    base.connections += [
        Connection(PortRef("cmd", "velocity"), PortRef("fix", "velocity")),
        Connection(PortRef("cmd", "delta_f"), PortRef("fix", "delta_f")),
    ]
    looped = replace(base, instances={**base.instances, "sup": InstanceSpec("supervisor")}, connections=[
        *base.connections,
        Connection(PortRef("cmd", "velocity"), PortRef("sup", "velocity_cmd")),
        Connection(PortRef("veh", "x"), PortRef("sup", "obstacle_distance")),
    ])

    def make_registry():
        registry = default_registry()
        registry.register("replay", replay_factory(commands))
        return registry

    built = counting_instantiate(monkeypatch)
    with pytest.raises(ConfigError, match="^instance 'veh' varies and feeds another instance$"):
        lockstep_cosim([_apply_assignment(looped, {"veh.mu": mu}) for mu in (0.2, 0.5, 0.9)], make_registry())
    assert built == ["replay", "vehicle", "vehicle", "supervisor"]

    configs = [_apply_assignment(base, {"veh.mu": mu}) for mu in (0.2, 0.5, 0.9)]
    built.clear()
    lockstep_cosim(configs, make_registry())
    assert sorted(built) == ["replay", "vehicle", "vehicle", "vehicle", "vehicle"]
    assert_lockstep_equals_run_cosim(configs, make_registry)


def test_lockstep_declines_a_varying_unit_that_does_not_group_its_copies(monkeypatch):
    # the varying supervisor is fed by the shared replay and feeds the vehicle
    base = replay_vehicle(("sup", "supervisor"))
    base.connections = [
        Connection(PortRef("cmd", "velocity"), PortRef("sup", "velocity_cmd")),
        Connection(PortRef("sup", "velocity"), PortRef("veh", "velocity")),
        Connection(PortRef("cmd", "delta_f"), PortRef("veh", "delta_f")),
    ]
    built = counting_instantiate(monkeypatch)
    for grid in ({"sup.decel": [1.0, 3.0]}, {"sup.decel": [1.0, 3.0], "veh.mu": [0.3, 0.5]}):
        built.clear()
        with pytest.raises(ConfigError, match="^instance 'sup' varies, but its copies do not step as one group$"):
            lockstep_cosim([_apply_assignment(base, a) for a in expand_grid(grid)], sin_registry())
        assert sorted(built) == ["replay", "supervisor", "vehicle"]


TURN_S = 6.0  # long enough for the slowest turn drawn below to pass pi


def vehicle_regimes(parameters, commands, step_size, duration):
    """Whether a vehicle on ``commands`` decays its lateral state below
    0.1 m/s, has an axle force at its friction cap and wraps its heading."""
    veh, cmd = VehicleUnit(parameters), ReplayUnit(commands)
    decay = clamp = wrap = False
    for _ in range(math.ceil(duration / step_size)):
        velocity, delta_f = cmd.get_output("velocity"), cmd.get_output("delta_f")
        veh.set_input("velocity", velocity)
        veh.set_input("delta_f", delta_f)
        if velocity >= 0.1:  # the axle forces before the friction cap
            v_y, r = veh.v_y, veh.r
            _, cf, cr, lf, lr, _, lim = veh._constants
            f_f = -cf * (math.atan((v_y + lf * r) / velocity) - delta_f)
            f_r = -cr * math.atan((v_y - lr * r) / velocity)
            clamp |= abs(f_f) >= lim or abs(f_r) >= lim
        before = veh.theta
        veh.do_step(step_size)
        cmd.do_step(step_size)
        decay |= velocity < 0.1 and (veh.v_y, veh.r) != (0.0, 0.0)
        wrap |= abs(veh.theta - before) > math.pi
    return decay, clamp, wrap


@st.composite
def vehicle_regime_cases(draw):
    """1-5 vehicles on commands that turn hard, nearly stop, then drive on.

    The first turn step asks for at least 20000 * 0.6 N of front force
    against a cap of at most 1.0 * 1200 * 9.81 / 2 N, and the turn is long
    enough to wrap the heading; the stop then decays a lateral state that
    is not zero.
    """
    value = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    sign = draw(st.sampled_from([-1.0, 1.0]))
    commands = TimedTrace(
        ["velocity", "delta_f"], [0.0, TURN_S, TURN_S + 0.3],
        [[value(1.0, 1.5), sign * value(0.6, 0.9)], [value(0.0, 0.099), value(-0.9, 0.9)],
         [value(1.0, 1.5), value(-0.9, 0.9)]],
    )
    parameters = [
        {"mu": value(0.3, 1.0), "cAlphaF": value(20000.0, 40000.0), "m_robot": value(800.0, 1200.0),
         "l_f": value(0.3, 0.6), "l_r": value(0.3, 0.6)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    return commands, draw(st.sampled_from([0.005, 0.01])), parameters


@settings(max_examples=20, deadline=None)
@given(vehicle_regime_cases())
def test_vehicle_group_steps_each_config_as_the_scalar_vehicle(case):
    commands, step_size, parameters = case
    duration = TURN_S + 0.6
    base = replay_vehicle(outputs=("veh.x", "veh.y", "veh.theta"), step_size=step_size, duration=duration)
    configs = [
        _apply_assignment(base, {f"veh.{name}": v for name, v in p.items()}) for p in parameters
    ]

    def make_registry():
        registry = default_registry()
        registry.register("replay", replay_factory(commands))
        return registry

    _, _, rows = lockstep_cosim(configs, make_registry())
    rows = list(rows)
    for p, config in enumerate(configs):
        trace = run_cosim(config, make_registry())
        assert [[v.hex() for v in row[p::len(configs)]] for row in rows] == [
            [v.hex() for v in row] for row in trace.values
        ]
        assert vehicle_regimes(parameters[p], commands, step_size, duration) == (True, True, True)


def test_vehicle_group_wraps_a_clockwise_step_of_more_than_one_turn():
    # a yaw inertia this small swings the yaw rate by about 1700 rad/s a step,
    # so at h = 0.01 a step turns clockwise by more than one turn
    commands = TimedTrace(["velocity", "delta_f"], [0.0, 1.0], [[1.5, -0.5], [1.5, -0.5]])
    base = replay_vehicle(outputs=("veh.x", "veh.y", "veh.theta"), duration=0.2)
    configs = [_apply_assignment(base, {"veh.I_z": iz}) for iz in (0.005, 0.004)]

    def make_registry():
        registry = default_registry()
        registry.register("replay", replay_factory(commands))
        return registry

    for config in configs:
        veh = VehicleUnit(config.instances["veh"].parameters)
        past_one_turn = False
        for _ in range(20):
            veh.set_input("velocity", 1.5)
            veh.set_input("delta_f", -0.5)
            past_one_turn |= veh.theta + 0.01 * veh.r <= -3.0 * math.pi
            veh.do_step(0.01)
        assert past_one_turn
    _, _, rows = lockstep_cosim(configs, make_registry())
    rows = list(rows)
    for p, config in enumerate(configs):
        trace = run_cosim(config, make_registry())
        assert [[v.hex() for v in row[p::2]] for row in rows] == [
            [v.hex() for v in row] for row in trace.values
        ]


# --- classes of bit-identical vehicle copies -------------------------------


class SteerUnit(SimulationUnit):
    """Steers ``sign * 0.0`` before step ``at``, then ramps to ``angle`` over 8 steps."""

    DESC = UnitDescription(
        "steer",
        (PortDescriptor("delta_f", _OUT),),
        {"sign": 1.0, "at": 0.0, "angle": 0.0},
    )

    def __init__(self, parameters=None):
        super().__init__(self.DESC, parameters)
        self._ticks = 0
        self._advance(0.0)

    def _advance(self, h):
        p = self.parameters
        ramp = (self._ticks - p["at"] + 1) / 8.0
        self._outputs["delta_f"] = p["sign"] * 0.0 if ramp <= 0.0 else p["angle"] * min(ramp, 1.0)
        self._ticks += 1


def steered_vehicle(step_size=0.01, duration=1.5):
    """Replayed speed into a vehicle steered by a ``SteerUnit``."""
    return MultiModelConfig(
        instances={"cmd": InstanceSpec("replay"), "steer": InstanceSpec("steer"), "veh": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("cmd", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("steer", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[PortRef.parse(text) for text in ("veh.x", "veh.y", "veh.theta")],
        step_size=step_size,
        duration=duration,
    )


def steer_registry():
    # creeps below 0.1 m/s for 0.2 s, then drives on at 1.5 m/s
    registry = default_registry()
    registry.register("replay", replay_factory(
        TimedTrace(["velocity", "delta_f"], [0.0, 0.2], [[0.05, 0.0], [1.5, 0.0]])
    ))
    registry.register("steer", SteerUnit)
    return registry


@pytest.fixture
def vehicle_groups(monkeypatch):
    """The vehicle groups that lock-stepped runs form, in the order they form."""
    groups = []
    monkeypatch.setattr(
        VehicleUnit, "_group",
        classmethod(lambda cls, copies: groups.append(VehicleGroup(copies)) or groups[-1]),
    )
    return groups


def assert_slices_are_run_cosim_bits(configs, make_registry):
    _, _, rows = lockstep_cosim(configs, make_registry())
    rows = list(rows)
    for p, config in enumerate(configs):
        trace = run_cosim(config, make_registry())
        assert [[v.hex() for v in row[p::len(configs)]] for row in rows] == [
            [v.hex() for v in row] for row in trace.values
        ]


@st.composite
def class_split_cases(draw):
    """2-8 vehicles, often alike, on one steer: they creep, drive straight, then turn.

    Until the turn no step reads a constant, so alike copies share one class;
    the turn splits copies that differ in ``cAlphaF`` or ``m_robot``.  A turn of
    0.05 rad reaches the cap of some ``mu`` values and not of others, a few
    steps into its ramp, after copies that differ in ``mu`` alone have stepped
    as one class.  The shared steer holds a zero of either sign until it turns.
    """
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    steer = {"steer.sign": pick([-1.0, 1.0]), "steer.at": pick([0.0, 40.0]), "steer.angle": pick([0.05, -0.3])}
    assignments = [
        {"veh.cAlphaF": pick([20000.0, 38000.0]), "veh.m_robot": pick([800.0, 2000.0]),
         "veh.mu": pick([0.05, 0.3, 1.0]), **steer}
        for _ in range(draw(st.integers(2, 8)))
    ]
    return pick([0.01, 0.02]), assignments


@settings(max_examples=25, deadline=None)
@given(class_split_cases())
def test_each_config_of_a_classed_vehicle_group_is_its_run_cosim_bits(case):
    step_size, assignments = case
    base = steered_vehicle(step_size)
    configs = [_apply_assignment(base, a) for a in assignments]
    assert_slices_are_run_cosim_bits(configs, steer_registry)


def test_copies_split_only_when_a_step_gives_them_different_bits(vehicle_groups):
    base = steered_vehicle()
    grid = expand_grid({"veh.mu": [0.05, 0.3, 1.0], "veh.cAlphaF": [20000.0, 38000.0]})
    configs = [_apply_assignment(base, {"steer.at": 40.0, "steer.angle": 0.05, **a}) for a in grid]
    _, _, rows = lockstep_cosim(configs, steer_registry())
    group = vehicle_groups[-1]
    for _ in range(41):  # row 0, the creep and the straight stretch: one class
        next(rows)
        assert group._members == [list(range(6))]
    list(rows)
    # mu = 0.3 and 1.0 never reach the cap, so they share a class per cAlphaF
    assert group._members == [[0], [1], [2, 4], [3, 5]]
    assert_slices_are_run_cosim_bits(configs, steer_registry)

    # the turn's first step splits the class twice: by cAlphaF, and then, going
    # on at the class it split, by the cap of mu = 0.02 (98 N), which that
    # step's front force (about 240 N) passes
    configs = [
        _apply_assignment(base, {"steer.sign": -1.0, "steer.at": 40.0, "steer.angle": 0.05, **a})
        for a in ({"veh.cAlphaF": 20000.0}, {"veh.mu": 0.02}, {}, {})
    ]
    _, _, rows = lockstep_cosim(configs, steer_registry())
    group = vehicle_groups[-1]
    classes = [group._members for _ in rows]
    assert classes[:41] == [[[0, 1, 2, 3]]] * 41
    assert classes[41:] == [[[0], [1], [2, 3]]] * (len(classes) - 41)
    assert_slices_are_run_cosim_bits(configs, steer_registry)


def test_a_rear_force_past_the_least_cap_splits_a_class():
    # v_y = -l_f * r: the front slip is zero and the rear slip is not, so only
    # the rear force (about 900 N) can pass a cap, and only mu = 0.05's (245 N)
    copies, lone = ([VehicleUnit({"mu": mu}) for mu in (0.05, 0.3, 1.0)] for _ in range(2))
    for unit in copies + lone:
        unit.r, unit.v_y = 0.03, -0.6 * 0.03
    group = VehicleGroup(copies)
    for _ in range(3):
        group._inputs["velocity"], group._inputs["delta_f"] = 1.5, 0.0
        group._advance(0.01)
        for unit in lone:
            unit.set_input("velocity", 1.5)
            unit.set_input("delta_f", 0.0)
            unit.do_step(0.01)
        assert group._members == [[0], [1, 2]]
        for port in ("x", "y", "theta"):
            assert [v.hex() for v in group._outputs[port]] == [u.get_output(port).hex() for u in lone]


def test_a_classed_group_fails_at_the_first_failing_copy():
    # copies 0 and 2 differ only in mu; the turn's first step splits off copy 1,
    # then copy 2 by the cap that clamps copy 0's front force, which leaves copy
    # 2's class before copy 1's until the classes are sorted.  A step later
    # copy 1's yaw angle goes to -inf and copy 2's to inf
    base = steered_vehicle()
    turn = {"steer.at": 40.0, "steer.angle": 0.3, "veh.l_f": 1e-310}
    configs = [
        _apply_assignment(base, {**turn, **a})
        for a in ({"veh.I_z": 1e-306, "veh.mu": 0.01}, {"veh.l_r": 0.01, "veh.I_z": 1e-310, "veh.mu": 0.01},
                  {"veh.I_z": 1e-306, "veh.mu": 0.3})
    ]
    run_cosim(configs[0], steer_registry())
    with pytest.raises(SimulationError, match=r"t=0\.42: yaw angle is -inf$") as own:
        run_cosim(configs[1], steer_registry())
    with pytest.raises(SimulationError, match=r"t=0\.42: yaw angle is inf$"):
        run_cosim(configs[2], steer_registry())
    with pytest.raises(SimulationError) as lockstep:
        list(lockstep_cosim(configs, steer_registry())[2])
    assert str(lockstep.value) == str(own.value)

    # copy 1's heading goes to inf in the step whose cap test splits copies 0
    # and 2, after which the step goes on at copy 0
    configs = [
        _apply_assignment(base, {"steer.at": 40.0, "steer.angle": 0.3, **a})
        for a in ({"veh.mu": 1.0}, {"veh.I_z": 1e-310}, {"veh.mu": 0.4})
    ]
    with pytest.raises(SimulationError, match=r"t=0\.41: yaw angle is inf$") as own:
        run_cosim(configs[1], steer_registry())
    with pytest.raises(SimulationError) as lockstep:
        list(lockstep_cosim(configs, steer_registry())[2])
    assert str(lockstep.value) == str(own.value)


def test_lockstep_rejects_configs_that_differ_in_more_than_parameters():
    registry = default_registry()
    with pytest.raises(ConfigError, match="may differ only in instance parameters"):
        lockstep_cosim([replay_vehicle(), replay_vehicle(duration=2.0)], registry)


class VehicleTwin(SimulationUnit):
    """Another unit type with the vehicle's ports; it never moves."""

    def __init__(self, parameters=None):
        super().__init__(VEHICLE_DESCRIPTION, parameters)

    def _advance(self, h):
        pass


def test_lockstep_rejects_configs_whose_instances_differ_in_unit_type():
    registry = default_registry()
    registry.register("replay", replay_factory(generate_scenario(ScenarioSpec("s", "sin", 1.0, 1.5, 0.2))))
    registry.register("vehicle_twin", VehicleTwin)
    twin = replay_vehicle()
    twin.instances["veh"] = InstanceSpec("vehicle_twin")
    for configs in ([replay_vehicle(), twin], [twin, replay_vehicle()]):
        with pytest.raises(ConfigError, match="may differ only in instance parameters"):
            lockstep_cosim(configs, registry)


# --- which failure a run reports --------------------------------------------


def spike_config(at):
    """s.y is recorded and feeds e.u; it turns nan on s's step ``at``."""
    return MultiModelConfig(
        instances={"s": InstanceSpec("spike", {"at": at}), "e": InstanceSpec("echo")},
        connections=[Connection(PortRef("s", "y"), PortRef("e", "u"))],
        outputs=[PortRef("s", "y"), PortRef("e", "y")],
        step_size=0.1,
        duration=0.5,
    )


def inf_then_fuse_config(inf_at, fuse_at):
    """big.z is recorded and turns inf on step ``inf_at``; f raises on step ``fuse_at``."""
    return MultiModelConfig(
        instances={"big": InstanceSpec("huge", {"inf_at": inf_at}),
                   "f": InstanceSpec("fuse", {"at": fuse_at})},
        connections=[],
        outputs=[PortRef("big", "z")],
        step_size=0.1,
        duration=0.5,
    )


def beside_a_varying_vehicle(config, mus=(0.3, 0.5)):
    """``config`` plus a replayed vehicle, recorded first, in one config per ``mu``."""
    vehicle = replay_vehicle(outputs=("veh.x",))
    merged = replace(config, instances={**vehicle.instances, **config.instances},
                     connections=vehicle.connections + config.connections,
                     outputs=vehicle.outputs + config.outputs)
    return [_apply_assignment(merged, {"veh.mu": mu}) for mu in mus]


def lockstep_rows(configs):
    return list(lockstep_cosim(configs, sin_registry())[2])


def test_recorded_nan_that_feeds_a_connection_fails_as_the_connection():
    # row 1 records the nan; the exchange before step 2 then meets it
    with pytest.raises(
        SimulationError, match=r"^connection s\.y -> e\.u at t=0\.1: port 'u' given non-finite value nan$"
    ):
        run_cosim(spike_config(1.0), extended_registry())


def test_lockstep_recorded_nan_that_feeds_a_connection_fails_as_the_connection():
    with pytest.raises(
        SimulationError,
        match=r"^connection s\.y -> e\.u at t=0\.1: port 'u' given non-finite value nan$",
    ):
        lockstep_rows(beside_a_varying_vehicle(spike_config(1.0)))


def test_instance_failure_after_a_recorded_inf_is_the_one_reported():
    with pytest.raises(SimulationError, match=r"^instance 'f' failed at t=0\.3: blown at step 4$"):
        run_cosim(inf_then_fuse_config(2.0, 4.0), extended_registry())


def test_lockstep_instance_failure_after_a_recorded_inf_is_the_one_reported():
    with pytest.raises(
        SimulationError, match=r"^instance 'f' failed at t=0\.3: blown at step 4$"
    ):
        lockstep_rows(beside_a_varying_vehicle(inf_then_fuse_config(2.0, 4.0)))


def test_lockstep_reports_a_recorded_inf_after_the_last_row():
    # the shared big.z turns inf at step 2, recorded after the vehicle's two
    # copies of veh.x: every row still comes out
    configs = beside_a_varying_vehicle(inf_then_fuse_config(2.0, 1000.0))
    _, times, rows = lockstep_cosim(configs, sin_registry())
    seen = []
    with pytest.raises(SimulationError, match=r"^recorded output big\.z is inf at t=0\.2$"):
        for row in rows:
            seen.append(row)
    assert len(seen) == len(times) == 6


def sin_registry():
    registry = extended_registry()
    registry.register("replay", replay_factory(generate_scenario(ScenarioSpec("s", "sin", 2.0, 1.5, 0.3))))
    return registry


def test_lockstep_names_the_vehicle_that_fails():
    # I_z = 1e-310 makes the yaw rate inf at t=0.1 and the heading inf a step later
    configs = [_apply_assignment(replay_vehicle(), {"veh.I_z": i_z}) for i_z in (360.0, 1e-310)]
    with pytest.raises(
        SimulationError, match=r"^instance 'veh' failed at t=0\.11: yaw angle is inf$"
    ):
        list(lockstep_cosim(configs, sin_registry())[2])


def test_a_bad_vehicle_copy_fails_as_its_own_config(tmp_path):
    # the first config is built in full, the others only as the vehicle's copies;
    # the first config with a bad copy raises that copy's diagnostic alone
    bad_mu = "instance 'veh': vehicle parameter mu must be in (0, 2], got 5.0"
    configs = [_apply_assignment(replay_vehicle(), {"veh.mu": mu}) for mu in (0.3, 0.4, 5.0)]
    with pytest.raises(ConfigError) as lockstep:
        lockstep_cosim(configs, sin_registry())
    assert str(lockstep.value) == "invalid multi-model configuration"
    assert lockstep.value.diagnostics == [bad_mu]
    config = sweep_config(tmp_path, replay_vehicle(), {"veh.mu": [0.3, 5.0]})
    for workers in (1, 2):
        with pytest.raises(ConfigError) as sweep:
            run_sweep(config, workers=workers)
        assert (str(sweep.value), sweep.value.diagnostics) == (str(lockstep.value), [bad_mu])


def test_sweep_raises_the_failing_vehicle_points_own_error(tmp_path, monkeypatch):
    # one scenario on one worker: one slice of eight points, which fails in
    # lock-step; then its first halves of 4 and 2 points fail in lock-step too,
    # and of the last two halves point 0 runs through and point 1 fails on its own
    i_z = [360.0, 1e-310, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]
    config = sweep_config(tmp_path, replay_vehicle(), {"veh.I_z": i_z}, scenarios=("s1",))
    errors = []
    lockstep_scores = dse._lockstep_scores

    def recording(mm, registry, reference, assignments, run_dirs=None):
        try:
            return lockstep_scores(mm, registry, reference, assignments, run_dirs)
        except SimulationError as exc:
            errors.append((len(assignments), str(exc)))
            raise

    monkeypatch.setattr(dse, "_lockstep_scores", recording)
    with pytest.raises(SimulationError, match=r"^instance 'veh' failed at t=0\.11: yaw angle is inf$"):
        run_sweep(config)
    assert errors == [(n, "instance 'veh' failed at t=0.11: yaw angle is inf") for n in (8, 4, 2, 1)]


# --- run_sweep against the per-point path -----------------------------------


@st.composite
def sweep_cases(draw):
    """Small grids over one or two vehicles, and references off the ``k * h`` grid."""
    step_size = draw(st.sampled_from([0.01, 0.02, 0.05]))
    duration = draw(st.sampled_from([0.5, 1.0, 1.5]))
    mm = replay_vehicle(("fix", "vehicle"), outputs=("veh.x", "veh.y", "fix.theta"),
                        step_size=step_size, duration=duration)
    mm.connections += [
        Connection(PortRef("cmd", "velocity"), PortRef("fix", "velocity")),
        Connection(PortRef("cmd", "delta_f"), PortRef("fix", "delta_f")),
    ]
    choices = {
        "veh.cAlphaF": [20000.0, 30000.0, 38000.0],
        "veh.mu": [0.2, 0.5, 0.9],
        "veh.m_robot": [800.0, 2000.0],
        "fix.mu": [0.3, 0.6],
    }
    names = draw(st.lists(st.sampled_from(sorted(choices)), min_size=1, max_size=3, unique=True))
    parameters = {
        name: draw(st.lists(st.sampled_from(choices[name]), min_size=1, unique=True))
        for name in names
    }
    on_grid = st.integers(0, round(duration / step_size)).map(lambda k: k * step_size)
    anywhere = st.floats(-0.2, duration + 0.2)
    times = sorted(set(draw(st.lists(st.one_of(anywhere, on_grid), min_size=1, max_size=40))))
    coord = st.floats(-3.0, 3.0)
    reference = TimedTrace(["x", "y"], times, [[draw(coord), draw(coord)] for _ in times])
    return mm, parameters, reference


@settings(max_examples=12, deadline=None)
@given(sweep_cases())
def test_sweep_scores_are_the_per_point_scores(case):
    mm, parameters, reference = case
    with tempfile.TemporaryDirectory() as directory:
        config = sweep_config(directory, mm, parameters, reference)
        expected = per_point_scores(config)
        for workers in (1, 2):
            rows = run_sweep(config, workers=workers)
            assert [(r.mean_error, r.max_error) for r in rows] == expected


def test_a01_shaped_sweep_runs_in_lockstep(tmp_path, monkeypatch):
    config = sweep_config(tmp_path, replay_vehicle(), {
        "veh.cAlphaF": [20000.0, 38000.0], "veh.mu": [0.3, 0.5], "veh.m_robot": [1000.0, 2000.0],
    })
    expected = per_point_scores(config)
    built = []
    instantiate = UnitRegistry.instantiate
    monkeypatch.setattr(
        UnitRegistry, "instantiate",
        lambda self, unit_type, parameters=None: built.append(unit_type)
        or instantiate(self, unit_type, parameters),
    )
    rows = run_sweep(config)
    assert [(r.mean_error, r.max_error) for r in rows] == expected
    # 2 scenarios x 8 points; one worker gets 2 tasks: each scenario in 1 slice,
    # and a point run alone would build a replay of its own
    assert built.count("vehicle") == 16
    assert built.count("replay") == 2


def two_kinds_config(directory, parameters) -> DseConfig:
    """The sample sin_cal scenario beside a straight speed step, against the nominal vehicle."""
    directory = Path(directory)
    mm = load_multimodel(SAMPLES / "vehicle_replay.json")
    commands = generate_scenario(ScenarioSpec("step", "speed_step", 4.0, 2.0))
    write_trace_csv(commands, directory / "step_inputs.csv")
    registry = default_registry()
    registry.register("replay", replay_factory(commands))
    write_trace_csv(run_cosim(mm, registry), directory / "step_reference.csv")
    return DseConfig(
        algorithm="exhaustive",
        parameters=parameters,
        scenarios=["sin_cal", "step"],
        multi_model=mm,
        scenario_files={
            "sin_cal": (SAMPLES / "sin_cal_inputs.csv", SAMPLES / "sin_cal_reference.csv"),
            "step": (directory / "step_inputs.csv", directory / "step_reference.csv"),
        },
    )


# sin_cal's six points end in four classes, as only some of its turns reach a
# cap; the step's six points share one trajectory
TWO_KINDS = {"veh.mu": [0.5, 0.6, 0.7], "veh.cAlphaF": [20000.0, 30000.0]}


def recording_lockstep_sizes(monkeypatch) -> list[int]:
    """The number of configs of each ``lockstep_cosim`` call a sweep makes from now on."""
    sizes = []
    lockstep = dse.lockstep_cosim
    monkeypatch.setattr(
        dse, "lockstep_cosim", lambda configs, registry: sizes.append(len(configs)) or lockstep(configs, registry)
    )
    return sizes


@pytest.mark.parametrize("workers", [1, 2])
def test_a_lockstepped_slice_writes_each_points_own_artifacts(tmp_path, monkeypatch, workers):
    config = two_kinds_config(tmp_path, TWO_KINDS)
    expected = per_point_scores(config, tmp_path / "per_point")
    sizes = recording_lockstep_sizes(monkeypatch)
    rows = run_sweep(config, workers=workers, artifacts_dir=tmp_path / "art")
    assert [(r.mean_error, r.max_error) for r in rows] == expected
    tree = tree_bytes(tmp_path / "art")
    assert tree == tree_bytes(tmp_path / "per_point")
    assert len({tree[f"sin_cal/run_{gi:04d}/results.csv"] for gi in range(6)}) == 4
    if workers == 1:  # each scenario in one slice; the pool's workers record in their own processes
        assert sizes == [6, 6]


@pytest.mark.parametrize("workers", [1, 2])
def test_an_artifact_slice_over_the_budget_runs_its_points_alone(tmp_path, monkeypatch, workers):
    config = two_kinds_config(tmp_path, TWO_KINDS)
    per_point_scores(config, tmp_path / "per_point")
    # a run records 401 rows of 3 values, within the budget; a slice of two or more is over it
    monkeypatch.setattr(dse, "MAX_RECORDED_VALUES", 401 * 3)
    sizes = recording_lockstep_sizes(monkeypatch)
    run_sweep(config, workers=workers, artifacts_dir=tmp_path / "art")
    assert tree_bytes(tmp_path / "art") == tree_bytes(tmp_path / "per_point")
    if workers == 1:
        # each scenario's slice of 6 is over, and so is each half of 3; each
        # half of 3 runs its first point alone and its last two as a half of 2,
        # which is over too and runs as two points alone
        assert sizes == ([6] + [3, 1, 2, 1, 1] * 2) * 2
        sizes.clear()
        run_sweep(config)  # without artifacts no row is kept, so no budget applies
        assert sizes == [6, 6]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_artifact_slice_leaves_the_files_of_the_points_before_the_failing_one(
    tmp_path, monkeypatch, workers
):
    # I_z varies slowest, so points 2 and 3 fail at t=0.11.  Serially the one
    # slice fails and writes nothing, and so does its first half, points 0 to
    # 3; that half's first half, points 0 and 1, runs through in lock-step and
    # writes their files, and point 2 fails on its own.  On two workers the
    # first slice, points 0 to 3, goes the same way, and the second writes
    # points 4 to 7.  Two CPUs, so that two workers cut two slices on a host
    # of one CPU too.
    monkeypatch.setattr(_shared.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def config(bad_i_z):
        return sweep_config(tmp_path, replay_vehicle(), {
            "veh.I_z": [360.0, bad_i_z, 300.0, 400.0], "veh.mu": [0.3, 0.4],
        }, scenarios=("s1",))

    with pytest.raises(SimulationError, match=r"^instance 'veh' failed at t=0\.11: yaw angle is inf$"):
        run_sweep(config(1e-310), workers=workers, artifacts_dir=tmp_path / "art")
    per_point_scores(config(350.0), tmp_path / "per_point")
    written = {f"run_{gi:04d}" for gi in ([0, 1] if workers == 1 else [0, 1, 4, 5, 6, 7])}
    assert tree_bytes(tmp_path / "art") == {
        path: data for path, data in tree_bytes(tmp_path / "per_point").items()
        if path.split("/")[1] in written
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_an_artifact_slice_over_a_budget_of_two_runs_runs_in_halves_that_fit(tmp_path, monkeypatch, workers):
    config = two_kinds_config(tmp_path, TWO_KINDS)
    per_point_scores(config, tmp_path / "per_point")
    monkeypatch.setattr(dse, "MAX_RECORDED_VALUES", 401 * 3 * 2)
    sizes = recording_lockstep_sizes(monkeypatch)
    run_sweep(config, workers=workers, artifacts_dir=tmp_path / "art")
    assert tree_bytes(tmp_path / "art") == tree_bytes(tmp_path / "per_point")
    if workers == 1:  # a half of 3 is over, so it runs as a point alone and a half of 2
        assert sizes == [6, 3, 1, 2, 3, 1, 2] * 2


def test_sweep_interpolates_between_steps_as_align_does(tmp_path):
    # reference rows every 0.01 s fall a third and two thirds into the 0.03 s steps
    config = sweep_config(tmp_path, replay_vehicle(step_size=0.03), {
        "veh.cAlphaF": [20000.0, 38000.0], "veh.mu": [0.05, 0.3],
    })
    assert [(r.mean_error, r.max_error) for r in run_sweep(config)] == per_point_scores(config)


def supervised_vehicle():
    """Replayed commands into a vehicle, its speed passed through a supervisor."""
    mm = replay_vehicle(("sup", "supervisor"))
    mm.connections = [
        Connection(PortRef("cmd", "velocity"), PortRef("sup", "velocity_cmd")),
        Connection(PortRef("sup", "velocity"), PortRef("veh", "velocity")),
        Connection(PortRef("cmd", "delta_f"), PortRef("veh", "delta_f")),
    ]
    return mm


def watched_vehicle():
    """Replayed commands into a vehicle whose x is a supervisor's obstacle distance."""
    mm = replay_vehicle(("sup", "supervisor"))
    mm.connections += [
        Connection(PortRef("cmd", "velocity"), PortRef("sup", "velocity_cmd")),
        Connection(PortRef("veh", "x"), PortRef("sup", "obstacle_distance")),
    ]
    return mm


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model, parameters, declined", [
    # sup.decel varies fastest, so each slice of two points on one worker varies sup
    pytest.param(supervised_vehicle, {"veh.mu": [0.3, 0.5], "sup.decel": [1.0, 3.0]},
                 "instance 'sup' varies, but its copies do not step as one group", id="varying-supervisor"),
    pytest.param(watched_vehicle, {"veh.mu": [0.3, 0.5, 0.9]},
                 "instance 'veh' varies and feeds another instance", id="vehicle-feeding-another"),
])
def test_a_declined_sweep_gives_the_per_point_table(tmp_path, monkeypatch, model, parameters, declined, workers):
    config = sweep_config(tmp_path, model(), parameters)
    errors = []
    lockstep = dse.lockstep_cosim

    def recording(*args):
        try:
            return lockstep(*args)
        except ConfigError as exc:
            errors.append(str(exc))
            raise

    monkeypatch.setattr(dse, "lockstep_cosim", recording)
    rows = run_sweep(config, workers=workers)
    assert [(r.mean_error, r.max_error) for r in rows] == per_point_scores(config)
    if workers == 1:  # the pool's workers record in their own processes
        assert errors and set(errors) == {declined}


def outcome(run):
    """What ``run()`` returns, or the type, text and diagnostics of the error it raises."""
    try:
        return run()
    except ConfigError as exc:
        return ConfigError, str(exc), exc.diagnostics
    except SimulationError as exc:
        return SimulationError, str(exc)


@st.composite
def halving_cases(draw):
    """A vehicle's grid over I_z values of which 1e-310 fails, and the same grid beside a varying supervisor.

    Any parameter may vary slowest.  Lock-step declines a part of the
    supervised grid in which the supervisor varies, so declined and
    failing parts mix there.
    """
    space = {"veh.I_z": draw(st.lists(st.sampled_from([360.0, 300.0, 400.0, 1e-310]), min_size=1, unique=True))}
    if draw(st.booleans()):
        space["veh.mu"] = draw(st.lists(st.sampled_from([0.3, 0.5, 0.9]), min_size=1, max_size=2, unique=True))
    space["sup.decel"] = draw(st.permutations([1.0, 3.0]))
    order = draw(st.permutations(list(space)))
    plain = {name: space[name] for name in order if name != "sup.decel"}
    return [(replay_vehicle(), plain), (supervised_vehicle(), {name: space[name] for name in order})]


@settings(max_examples=15, deadline=None)
@given(halving_cases())
def test_a_sweep_that_halves_its_slice_fails_and_writes_as_its_points_run_alone(cases):
    for mm, parameters in cases:
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            config = sweep_config(directory, mm, parameters, scenarios=("s1",))
            expected = outcome(lambda: per_point_scores(config, directory / "per_point"))
            rows = outcome(lambda: run_sweep(config, artifacts_dir=directory / "art"))
            if isinstance(rows, list):
                rows = [(r.mean_error, r.max_error) for r in rows]
            assert rows == expected
            assert tree_bytes(directory / "art") == tree_bytes(directory / "per_point")
            if not isinstance(expected, list):
                assert outcome(lambda: run_sweep(config, workers=2)) == expected


def test_sweep_against_an_empty_reference_fails_as_the_per_point_path(tmp_path):
    config = sweep_config(tmp_path, replay_vehicle(), {"veh.mu": [0.3, 0.5]},
                          TimedTrace(["x", "y"], [], []))
    with pytest.raises(ConfigError, match="^cannot compute cross-track error of an empty alignment$"):
        run_sweep(config)


FAILING_POINTS = {
    # point 3 fails at step 20, before point 2 does at step 30; both share a
    # slice, of four points on one worker and of two on two
    "fuse_steps": (
        ("cmd", "veh", "fuse"), {"fuse.at": [1000.0, 999.0, 30.0, 20.0, 998.0, 997.0, 996.0, 995.0]},
        r"^instance 'fuse' failed at t=0\.29: blown at step 30$",
    ),
    # on step 12 (t=0.11) the fuse blows in point 1 and I_z = 1e-310 makes the
    # heading inf in point 2; they share a slice on one worker and on two,
    # and the vehicle steps first
    "fuse_point_first": (
        ("cmd", "veh", "fuse"), {"veh.I_z": [360.0, 1e-310, 300.0], "fuse.at": [1000.0, 12.0]},
        r"^instance 'fuse' failed at t=0\.11: blown at step 12$",
    ),
    # the same, with the vehicle failing in point 1 and the fuse stepping first
    "vehicle_point_first": (
        ("fuse", "cmd", "veh"), {"fuse.at": [1000.0, 12.0, 999.0], "veh.I_z": [360.0, 1e-310]},
        r"^instance 'veh' failed at t=0\.11: yaw angle is inf$",
    ),
}


@pytest.mark.parametrize("order, parameters, expected, workers", [
    # the fuse_steps cases are named by their worker count alone, as before the others joined them
    pytest.param(*case, workers, id=str(workers) if name == "fuse_steps" else f"{name}-{workers}")
    for name, case in FAILING_POINTS.items() for workers in (1, 2)
])
def test_sweep_raises_the_first_failing_point_in_grid_order(
    tmp_path, test_units, order, parameters, expected, workers
):
    mm = replay_vehicle(("fuse", "fuse"))
    mm.instances = {name: mm.instances[name] for name in order}
    config = sweep_config(tmp_path, mm, parameters)
    with pytest.raises(SimulationError, match=expected):
        run_sweep(config, workers=workers)


@pytest.mark.parametrize("outputs", [("veh.x", "veh.y", "big.z"), ("big.x", "big.y")])
@pytest.mark.parametrize("parameters", [{"veh.mu": [0.3, 0.5]}, {"big.inf_at": [0.0, 500.0, 600.0]}])
def test_overflowing_column_sums_give_the_per_point_table(tmp_path, test_units, outputs, parameters):
    # each recorded value is finite, but a column of them sums to inf;
    # scored on big.x and big.y, every distance overflows too
    config = sweep_config(tmp_path, replay_vehicle(("big", "huge"), outputs=outputs), parameters)
    rows = run_sweep(config)
    assert [(r.mean_error, r.max_error) for r in rows] == per_point_scores(config)
    write_dse_results(rows, tmp_path / "table.csv", list(config.parameters))
    assert (b",inf," in (tmp_path / "table.csv").read_bytes()) == (outputs == ("big.x", "big.y"))


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_output_that_is_not_scored_fails_the_sweep(tmp_path, test_units, workers):
    config = sweep_config(
        tmp_path, replay_vehicle(("big", "huge"), outputs=("veh.x", "veh.y", "big.z")),
        {"big.inf_at": [0.0, 7.0]},
    )
    with pytest.raises(SimulationError, match=r"^recorded output big\.z is inf at t=0\.07$"):
        run_sweep(config, workers=workers)


# --- recorded outputs that are not numbers ----------------------------------


def talker_config(at):
    return MultiModelConfig(
        instances={"a": InstanceSpec("fuse", {"at": 1000.0}), "b": InstanceSpec("talker", {"at": at})},
        connections=[],
        outputs=[PortRef("a", "y"), PortRef("b", "v")],
        step_size=0.1,
        duration=0.5,
    )


def test_recorded_output_that_is_not_a_number_fails_at_t0():
    with pytest.raises(
        SimulationError, match=r"^recorded output b\.v at t=0: could not convert string to float: 'fast'$"
    ):
        run_cosim(talker_config(0.0), extended_registry())


def test_recorded_output_that_is_not_a_number_fails_mid_run():
    with pytest.raises(
        SimulationError, match=r"^recorded output b\.v at t=0\.2: could not convert string to float: 'fast'$"
    ):
        run_cosim(talker_config(2.0), extended_registry())


def test_cosim_with_an_output_that_is_not_a_number_exits_3(tmp_path, capsys, test_units):
    path = tmp_path / "mm.json"
    path.write_text(json.dumps({
        "instances": {"b": {"unit_type": "talker", "parameters": {"at": 3}}},
        "outputs": ["b.v"], "step_size": 0.1, "duration": 0.5,
    }))
    out = tmp_path / "o.csv"
    assert main(["cosim", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "simulation error: recorded output b.v at t=0.3: could not convert string to float: 'fast'\n"
    )
    assert not out.exists()


def test_sweep_with_an_output_that_is_not_a_number_raises_the_first_points_error(tmp_path, test_units):
    # points 1 and 2 share a slice; point 2 fails first in time, point 1 first in grid order
    config = sweep_config(
        tmp_path, replay_vehicle(("tlk", "talker"), outputs=("veh.x", "veh.y", "tlk.v")),
        {"tlk.at": [1000.0, 5.0, 3.0, 999.0, 998.0, 997.0]},
    )
    with pytest.raises(
        SimulationError,
        match=r"^recorded output tlk\.v at t=0\.05: could not convert string to float: 'fast'$",
    ):
        run_sweep(config)
