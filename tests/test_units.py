"""Built-in unit tests: replay, pure pursuit, supervisory brake, sensor, maps."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldsim.errors import ConfigError, ContractViolation
from fieldsim.orchestrator import (
    Connection,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    run_cosim,
)
from fieldsim.traces import TimedTrace
from fieldsim.units import (
    GridMap,
    PurePursuitUnit,
    ReplayUnit,
    SensorUnit,
    SupervisoryBrake,
    VehicleUnit,
    braking_distance,
    default_registry,
    pure_pursuit_factory,
    read_grid_map,
    write_grid_map,
)
from fieldsim.units.sensing import MAX_RAYS


# --- replay source ----------------------------------------------------------


def command_trace():
    return TimedTrace(
        channels=["velocity", "delta_f"],
        times=[0.0, 1.0, 2.0],
        values=[[1.0, 0.1], [2.0, 0.2], [3.0, 0.3]],
    )


def test_replay_emits_first_row_before_stepping():
    unit = ReplayUnit(command_trace())
    assert unit.get_output("velocity") == 1.0
    assert unit.get_output("delta_f") == 0.1


def test_replay_holds_rows_between_samples():
    unit = ReplayUnit(command_trace())
    unit.do_step(0.5)  # t = 0.5, still the first row
    assert unit.get_output("velocity") == 1.0
    unit.do_step(0.5)  # t = 1.0, boundary belongs to the new row
    assert unit.get_output("velocity") == 2.0
    unit.do_step(0.5)
    assert unit.get_output("velocity") == 2.0
    unit.do_step(0.5)  # t = 2.0
    assert unit.get_output("velocity") == 3.0


def test_replay_holds_last_row_past_the_end():
    unit = ReplayUnit(command_trace())
    for _ in range(100):
        unit.do_step(0.5)
    assert unit.get_output("velocity") == 3.0
    assert unit.get_output("delta_f") == 0.3


def test_replay_rejects_wrong_channels():
    bad = TimedTrace(channels=["speed", "delta_f"], times=[0.0], values=[[1.0, 0.0]])
    with pytest.raises(ContractViolation, match="channels"):
        ReplayUnit(bad)


def test_replay_rejects_empty_trace():
    empty = TimedTrace(channels=["velocity", "delta_f"], times=[], values=[])
    with pytest.raises(ContractViolation, match="at least one row"):
        ReplayUnit(empty)


def test_replay_rejects_unsorted_times():
    bad = TimedTrace(
        channels=["velocity", "delta_f"],
        times=[0.0, 2.0, 1.0],
        values=[[1.0, 0.0]] * 3,
    )
    with pytest.raises(ConfigError):
        ReplayUnit(bad)


# --- pure pursuit -----------------------------------------------------------

STRAIGHT = [(0.0, 0.0), (20.0, 0.0)]


def steer(unit, x, y, theta):
    unit.set_input("x", x)
    unit.set_input("y", y)
    unit.set_input("theta", theta)
    unit.do_step(0.01)
    return unit.get_output("velocity"), unit.get_output("delta_f")


def test_on_path_steering_is_zero():
    v, delta = steer(PurePursuitUnit(STRAIGHT), 5.0, 0.0, 0.0)
    assert delta == 0.0
    assert v == 1.0


def test_offset_left_of_path_steers_right():
    # path runs along +x, so +y is to its left; the correction must
    # point back toward the path
    _, delta = steer(PurePursuitUnit(STRAIGHT), 5.0, 0.5, 0.0)
    assert delta < 0.0


def test_offset_steering_is_mirror_symmetric():
    _, left = steer(PurePursuitUnit(STRAIGHT), 5.0, 0.5, 0.0)
    _, right = steer(PurePursuitUnit(STRAIGHT), 5.0, -0.5, 0.0)
    assert right == -left
    assert right > 0.0


def test_longer_wheelbase_needs_more_steering():
    _, short = steer(PurePursuitUnit(STRAIGHT, {"wheelbase": 1.2}), 5.0, 0.5, 0.0)
    _, long_ = steer(PurePursuitUnit(STRAIGHT, {"wheelbase": 2.4}), 5.0, 0.5, 0.0)
    assert abs(long_) > abs(short)


def test_stops_within_lookahead_of_goal():
    unit = PurePursuitUnit(STRAIGHT, {"lookahead": 2.0, "cruise_speed": 1.5})
    v, _ = steer(unit, 10.0, 0.0, 0.0)
    assert v == 1.5
    v, _ = steer(unit, 19.0, 0.0, 0.0)
    assert v == 0.0


@pytest.mark.parametrize(
    "path,x,y,goal",
    [
        # behind the first waypoint: the projection stops at station 0
        (STRAIGHT, -5.0, 1.0, (2.0, 0.0)),
        # past the last waypoint: the goal is the last waypoint
        (STRAIGHT, 25.0, 1.0, (20.0, 0.0)),
        # past the end of the first segment, nearer its end than the second
        # segment's start: the projection stops at the corner, station 10
        ([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 12.0, -3.0, (10.0, 2.0)),
        # a zero-length segment at the corner projects onto its one point
        ([(0.0, 0.0), (5.0, 0.0), (5.0, 0.0), (5.0, 10.0)], 7.0, -2.0, (5.0, 2.0)),
    ],
    ids=["behind-first", "past-last", "past-a-corner", "zero-length-segment"],
)
def test_goal_point_is_one_lookahead_past_the_nearest_projection(path, x, y, goal):
    # at heading 0 the goal's body frame is the world frame shifted to the pose
    _, delta = steer(PurePursuitUnit(path, {"lookahead": 2.0}), x, y, 0.0)
    x_b, y_b = goal[0] - x, goal[1] - y
    assert delta == math.atan(2.0 * y_b / (x_b * x_b + y_b * y_b) * 1.2)


def test_path_validation():
    with pytest.raises(ContractViolation, match="two waypoints"):
        PurePursuitUnit([(0.0, 0.0)])
    with pytest.raises(ContractViolation, match="degenerate"):
        PurePursuitUnit([(1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ContractViolation, match="lookahead"):
        PurePursuitUnit(STRAIGHT, {"lookahead": 0.0})
    with pytest.raises(ContractViolation, match="cruise_speed"):
        PurePursuitUnit(STRAIGHT, {"cruise_speed": -1.0})
    with pytest.raises(ContractViolation, match="wheelbase must be positive, got 0.0"):
        PurePursuitUnit(STRAIGHT, {"wheelbase": 0.0})


def test_a_path_shorter_than_a_metre_is_not_degenerate():
    # on a 0.5 m path at x = 0.1 the goal is 0.2 m ahead, on the path, and the end 0.4 m off
    v, delta = steer(PurePursuitUnit([(0.0, 0.0), (0.5, 0.0)], {"lookahead": 0.2}), 0.1, 0.0, 0.0)
    assert (v, delta) == (1.0, 0.0)


def test_closed_loop_converges_to_offset_path():
    # vehicle starts 1 m off a straight path; cross-track error must be
    # millimetric once the transient has died out
    reg = default_registry()
    reg.register("pure_pursuit", pure_pursuit_factory([(0.0, 1.0), (20.0, 1.0)]))
    config = MultiModelConfig(
        instances={
            "ctl": InstanceSpec("pure_pursuit", {"cruise_speed": 1.0}),
            "veh": InstanceSpec("vehicle"),
        },
        connections=[
            Connection(PortRef("ctl", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("ctl", "delta_f"), PortRef("veh", "delta_f")),
            Connection(PortRef("veh", "x"), PortRef("ctl", "x")),
            Connection(PortRef("veh", "y"), PortRef("ctl", "y")),
            Connection(PortRef("veh", "theta"), PortRef("ctl", "theta")),
        ],
        outputs=[PortRef("veh", "x"), PortRef("veh", "y")],
        step_size=0.01,
        duration=25.0,
    )
    trace = run_cosim(config, reg)
    xs, ys = trace.column("veh.x"), trace.column("veh.y")
    settled = [abs(y - 1.0) for x, y in zip(xs, ys) if 13.0 <= x <= 18.0]
    assert len(settled) > 100
    assert max(settled) < 0.05
    # controller commands a stop one lookahead short of the last waypoint
    assert xs[-1] == pytest.approx(18.0, abs=0.1)


# --- supervisory brake ------------------------------------------------------


def test_braking_distance():
    assert braking_distance(2.0, 2.0) == 1.0
    assert braking_distance(0.0, 3.0) == 0.0
    assert braking_distance(3.0, 3.0) == 1.5


def brake(decel=2.0, margin=0.2):
    return SupervisoryBrake({"decel": decel, "margin": margin})


def feed(unit, cmd, detected, distance, h=0.1):
    unit.set_input("velocity_cmd", cmd)
    unit.set_input("obstacle_detected", detected)
    unit.set_input("obstacle_distance", distance)
    unit.do_step(h)
    return unit.get_output("velocity"), unit.get_output("stop_engaged")


def test_passthrough_without_detection():
    unit = brake()
    assert feed(unit, 2.0, False, -1.0) == (2.0, False)
    assert feed(unit, 1.5, False, -1.0) == (1.5, False)


def test_detection_outside_envelope_is_ignored():
    # threat envelope at cmd 2, decel 2, margin 0.2 is 1.2 m
    unit = brake()
    assert feed(unit, 2.0, True, 1.3) == (2.0, False)


def test_detection_on_envelope_boundary_latches():
    unit = brake()
    feed(unit, 2.0, False, -1.0)
    v, engaged = feed(unit, 2.0, True, 1.2)
    assert engaged is True
    assert v == pytest.approx(1.8)


def test_ramp_is_monotone_and_holds_through_lost_detection():
    unit = brake()
    feed(unit, 2.0, False, -1.0)
    v, engaged = feed(unit, 2.0, True, 1.0)
    assert engaged is True
    speeds = [v]
    for k in range(12):
        detected = k < 3  # detection disappears mid-ramp; latch must hold
        v, engaged = feed(unit, 2.0, detected, 1.0 if detected else -1.0)
        speeds.append(v)
        if v == 0.0:
            break
        assert engaged is True
    assert speeds[-1] == 0.0
    assert all(b < a for a, b in zip(speeds, speeds[1:]))


def test_release_needs_standstill_and_clear_range():
    unit = brake()
    feed(unit, 2.0, False, -1.0)
    feed(unit, 2.0, True, 0.5)
    # hold the threat: ramp reaches zero but the latch stays on
    for _ in range(20):
        v, engaged = feed(unit, 2.0, True, 0.5)
    assert (v, engaged) == (0.0, True)
    # threat clears at standstill: latch drops, output still zero
    v, engaged = feed(unit, 2.0, False, -1.0)
    assert (v, engaged) == (0.0, False)
    # passthrough resumes one step later
    assert feed(unit, 2.0, False, -1.0) == (2.0, False)


def test_zero_command_never_engages_without_threat():
    unit = brake()
    for _ in range(5):
        v, engaged = feed(unit, 0.0, False, -1.0)
    assert (v, engaged) == (0.0, False)


def test_brake_parameter_validation():
    with pytest.raises(ContractViolation, match="decel"):
        SupervisoryBrake({"decel": 0.0})
    with pytest.raises(ContractViolation, match="margin"):
        SupervisoryBrake({"margin": -0.1})


# --- grid maps --------------------------------------------------------------


def test_grid_map_cell_membership_uses_half_open_cells():
    grid = GridMap(1, 1, 0.5, 1.5, -0.25, (1,))
    assert grid.occupied_at(1.5, 0.0)
    assert grid.occupied_at(1.99, 0.24)
    assert not grid.occupied_at(2.0, 0.0)  # upper edge belongs to the next cell
    assert not grid.occupied_at(1.49, 0.0)
    assert not grid.occupied_at(1.7, 0.3)


def test_grid_map_clearance():
    grid = GridMap(1, 1, 0.25, 1.0, 0.0, (1,))
    assert grid.clearance(1.1, 0.1) == 0.0
    assert grid.clearance(0.0, 0.0) == 1.0
    assert grid.clearance(2.25, 0.25) == 1.0
    assert grid.clearance(0.0, 1.0) == pytest.approx(math.hypot(1.0, 0.75))
    empty = GridMap(2, 2, 0.25, 0.0, 0.0, (0, 0, 0, 0))
    assert empty.clearance(0.0, 0.0) == math.inf


def test_grid_map_validation():
    with pytest.raises(ConfigError, match="cells"):
        GridMap(2, 2, 0.5, 0.0, 0.0, (1, 0))
    with pytest.raises(ConfigError, match="0 or 1"):
        GridMap(1, 1, 0.5, 0.0, 0.0, (2,))
    with pytest.raises(ConfigError, match="resolution"):
        GridMap(1, 1, -0.5, 0.0, 0.0, (1,))
    with pytest.raises(ConfigError, match="at least 1x1, got 0x0"):
        GridMap(0, 0, 0.5, 0.0, 0.0, ())
    with pytest.raises(ConfigError, match="origin must be finite"):
        GridMap(1, 1, 0.5, 0.0, math.inf, (1,))


def test_grid_map_file_roundtrip(tmp_path):
    rng = random.Random(3)
    cells = tuple(rng.randint(0, 1) for _ in range(5 * 4))
    grid = GridMap(5, 4, 0.125, -1.75, 2.5, cells)
    path = tmp_path / "grid.map"
    write_grid_map(grid, path)
    assert read_grid_map(path) == grid


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("NOPE\n1 1 0.5 0 0\n1\n", "magic"),
        ("GRIDMAP 1\n", "missing dimension"),
        ("GRIDMAP 1\n1 1 0.5 0\n1\n", "width height"),
        ("GRIDMAP 1\n1 2 0.5 0 0\n1\n", "expected 2 cell rows"),
        ("GRIDMAP 1\n2 1 0.5 0 0\n1\n", "row has 1 cells"),
        ("GRIDMAP 1\n1 1 0.5 0 0\nx\n", "bad cell character"),
        ("GRIDMAP 1\n1 1 0.5 0 y\n1\n", "malformed dimension line"),
        ("GRIDMAP 1\n0 0 0.5 0 0\n", "at least 1x1"),
        ("GRIDMAP 1\n1 1 0.5 nan 0\n1\n", "origin must be finite"),
    ],
)
def test_grid_map_read_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.map"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        read_grid_map(path)


# --- ray-cast sensor --------------------------------------------------------


def scan(grid, params, x=0.0, y=0.0, theta=0.0):
    unit = SensorUnit(grid, params)
    unit.set_input("x", x)
    unit.set_input("y", y)
    unit.set_input("theta", theta)
    unit.do_step(0.1)
    return unit.get_output("obstacle_detected"), unit.get_output("obstacle_distance")


def test_sensor_sees_cell_dead_ahead():
    grid = GridMap(1, 1, 0.5, 1.5, -0.25, (1,))  # front face at x = 1.5
    detected, distance = scan(grid, {"min_range": 0.5, "max_range": 10.0})
    assert detected is True
    assert abs(distance - 1.5) <= 0.5  # within one map resolution


def test_sensor_blind_zone_hides_near_obstacle():
    grid = GridMap(1, 1, 0.25, 0.7, -0.125, (1,))  # entirely within 0.96 m
    detected, distance = scan(grid, {"min_range": 1.0, "max_range": 2.0})
    assert detected is False
    assert distance == -1.0


def test_sensor_ignores_obstacles_beyond_max_range():
    grid = GridMap(1, 1, 0.5, 5.0, -0.25, (1,))
    detected, distance = scan(grid, {"min_range": 0.5, "max_range": 2.0})
    assert (detected, distance) == (False, -1.0)


def test_sensor_field_of_view_is_centred_on_heading():
    grid = GridMap(1, 1, 0.5, 1.5, -0.25, (1,))
    params = {"min_range": 0.5, "max_range": 10.0}
    ahead, _ = scan(grid, params, theta=0.0)
    behind, _ = scan(grid, params, theta=math.pi)
    assert ahead is True
    assert behind is False


def test_sensor_empty_map_reports_nothing():
    grid = GridMap(4, 4, 0.5, 0.0, 0.0, (0,) * 16)
    assert scan(grid, {}) == (False, -1.0)


def test_sensor_detections_stay_inside_range_band():
    rng = random.Random(19)
    for _ in range(25):
        cells = tuple(rng.randint(0, 1) for _ in range(8 * 8))
        grid = GridMap(8, 8, 0.5, -2.0, -2.0, cells)
        min_range = rng.uniform(0.1, 0.8)
        max_range = min_range + rng.uniform(0.5, 3.0)
        detected, distance = scan(
            grid,
            {"min_range": min_range, "max_range": max_range},
            x=rng.uniform(-2.0, 2.0),
            y=rng.uniform(-2.0, 2.0),
            theta=rng.uniform(-math.pi, math.pi),
        )
        if detected:
            assert min_range <= distance <= max_range
        else:
            assert distance == -1.0


def test_sensor_parameter_validation():
    grid = GridMap(1, 1, 0.5, 0.0, 0.0, (1,))
    with pytest.raises(ContractViolation, match="min_range"):
        SensorUnit(grid, {"min_range": -0.5})
    with pytest.raises(ContractViolation, match="max_range"):
        SensorUnit(grid, {"min_range": 2.0, "max_range": 1.0})
    with pytest.raises(ContractViolation, match="max_range must lie within"):
        SensorUnit(grid, {"max_range": 1e308})
    with pytest.raises(ContractViolation, match="fov"):
        SensorUnit(grid, {"fov": 7.0})
    with pytest.raises(ContractViolation, match="ray_count"):
        SensorUnit(grid, {"ray_count": 2.5})
    empty = GridMap(1, 1, 0.5, 0.0, 0.0, (0,))  # nothing in reach, so construction marches no ray
    assert SensorUnit(empty, {"ray_count": float(MAX_RAYS)})._rays == MAX_RAYS
    with pytest.raises(ContractViolation, match=rf"^ray_count must be at most {MAX_RAYS}, got 10001\.0$"):
        SensorUnit(empty, {"ray_count": MAX_RAYS + 1.0})


@pytest.mark.parametrize("make, message", [
    (lambda: VehicleUnit({"mu": 5, "I_z": -1}),
     "vehicle parameter I_z must be positive, got -1.0; vehicle parameter mu must be in (0, 2], got 5.0"),
    (lambda: PurePursuitUnit(STRAIGHT, {"lookahead": 0.0, "wheelbase": -1.0, "cruise_speed": -2.0}),
     "lookahead must be positive, got 0.0; wheelbase must be positive, got -1.0; "
     "cruise_speed must be non-negative, got -2.0"),
    (lambda: SupervisoryBrake({"decel": 0.0, "margin": -0.1}),
     "decel must be positive, got 0.0; margin must be non-negative, got -0.1"),
    (lambda: SensorUnit(GridMap(1, 1, 0.5, 0.0, 0.0, (1,)), {"min_range": -0.5, "fov": 7.0, "ray_count": 0.0}),
     "min_range must be non-negative, got -0.5; fov must be in (0, 2*pi], got 7.0; "
     "ray_count must be a positive integer, got 0.0"),
    (lambda: SensorUnit(GridMap(1, 1, 0.5, 0.0, 0.0, (0,)), {"fov": 7.0, "ray_count": 1e9}),
     "fov must be in (0, 2*pi], got 7.0; ray_count must be at most 10000, got 1000000000.0"),
])
def test_a_unit_reports_every_bad_parameter_at_once(make, message):
    with pytest.raises(ContractViolation) as exc:
        make()
    assert str(exc.value) == message


# --- sensor against the full march -----------------------------------------


def march_every_ray(unit, grid, x, y, theta):
    """Reference sensor: every ray marched over every point, no early-outs."""
    p = unit.parameters
    rays, fov = int(p["ray_count"]), p["fov"]
    min_range, max_range = p["min_range"], p["max_range"]
    march = grid.resolution * 0.5
    best = -1.0
    for i in range(rays):
        phi = theta - 0.5 * fov + i * (fov / (rays - 1)) if rays > 1 else theta
        cos_p, sin_p = math.cos(phi), math.sin(phi)
        for k in range(int(math.floor((max_range - min_range) / march)) + 1):
            s = min_range + k * march
            if s > max_range or (best >= 0.0 and s >= best):
                break
            if grid.occupied_at(x + s * cos_p, y + s * sin_p):
                best = s
                break
    return best


def rescan_clearance(grid, x, y):
    """Reference clearance: every grid cell visited."""
    res = grid.resolution
    best = math.inf
    for j in range(grid.height):
        for i in range(grid.width):
            if grid.cells[j * grid.width + i]:
                cx, cy = grid.x0 + i * res, grid.y0 + j * res
                dx = max(cx - x, 0.0, x - (cx + res))
                dy = max(cy - y, 0.0, y - (cy + res))
                best = min(best, math.hypot(dx, dy))
    return best


def assert_matches_march(grid, params, x, y, theta):
    unit = SensorUnit(grid, params)
    detected, distance = scan(grid, params, x, y, theta)
    expected = march_every_ray(unit, grid, x, y, theta)
    assert distance == expected
    assert detected is (expected >= 0.0)
    return distance


# 8 x 8 map of 0.5 m cells at (6, 6) with a 2 x 2 block: occupied box
# [7.5, 8.5]^2, marched in 0.25 m steps.  Away from the origin a ray 1e-16
# off an edge still rounds onto it.
BLOCK = GridMap(8, 8, 0.5, 6.0, 6.0, tuple(
    1 if i in (3, 4) and j in (3, 4) else 0 for j in range(8) for i in range(8)
))
FULL_CIRCLE = {"min_range": 0.5, "max_range": 3.0, "fov": 2 * math.pi, "ray_count": 5.0}
ONE_RAY = {"min_range": 0.5, "max_range": 3.0, "ray_count": 1.0}


@pytest.mark.parametrize(
    "params,x,y,theta,expected",
    [
        # a ray running along a box edge, 1e-16 outside it: every march point
        # rounds onto the edge, so the march hits a cell the exact ray misses
        (FULL_CIRCLE, 9.5, 7.5, -math.pi / 2, 1.25),
        (FULL_CIRCLE, 7.5, 9.5, math.pi, 1.25),
        (FULL_CIRCLE, 9.5, 7.5, 0.0, 1.25),
        (ONE_RAY, 9.5, 7.5, -math.pi, 1.25),
        (ONE_RAY, 7.5, 9.5, 1.5 * math.pi, 1.25),
        (ONE_RAY, 7.5, 5.5, math.pi / 2, 2.0),
        # a cell from the occupied box, where the wedge picks the rays and the
        # window starts at the clearance: a ray along a side passes the box
        # by, and one facing it hits
        (ONE_RAY, 7.0, 9.5, -math.pi / 2, -1.0),
        (ONE_RAY, 9.5, 7.0, math.pi, -1.0),
        (FULL_CIRCLE, 9.0, 8.0, math.pi, 0.75),
    ],
)
def test_sensor_edge_poses_match_full_march(params, x, y, theta, expected):
    assert assert_matches_march(BLOCK, params, x, y, theta) == expected


def test_sensor_full_circle_wraps_around():
    params = {"min_range": 0.1, "max_range": 3.0, "fov": 2 * math.pi, "ray_count": 17.0}
    # at -3pi/4 the first and the last ray both point at the block
    for theta in (-3 * math.pi / 4, 0.0, math.pi / 2, math.pi, -math.pi / 2, 2.9, -3.1):
        distance = assert_matches_march(BLOCK, params, 6.25, 6.25, theta)
        assert distance > 0.0


# rays aimed at the box: from (5, 8) BLOCK's centre lies at bearing 0 and
# from (10.5, 8) at bearing pi, both over a cell from the occupied box, so
# the wedge picks the rays
SEAMS = [
    # the box straddles the first ray of the fan, then its last
    (5.0, 8.0, math.pi / 4, math.pi / 2),
    (5.0, 8.0, -math.pi / 4, math.pi / 2),
    # the same at bearing +-pi, where atan2 turns
    (10.5, 8.0, math.pi / 2, math.pi),
    (10.5, 8.0, -math.pi / 2, math.pi),
    # a full circle facing away: the box straddles the seam of its first and last rays
    (5.0, 8.0, math.pi, 2 * math.pi),
    (10.5, 8.0, 0.0, 2 * math.pi),
    (10.5, 8.0, -0.0, 2 * math.pi),
]


@pytest.mark.parametrize("ray_count", [2.0, 3.0, 9.0, 16.0, 17.0, 64.0])
@pytest.mark.parametrize("x, y, theta, fov", SEAMS)
def test_sensor_sees_a_box_across_the_seam_of_its_fan(x, y, theta, fov, ray_count):
    params = {"min_range": 0.5, "max_range": 4.0, "fov": fov, "ray_count": ray_count}
    assert assert_matches_march(BLOCK, params, x, y, theta) > 0.0


def test_sensor_with_two_rays_sees_through_either():
    params = {"min_range": 0.5, "max_range": 4.0, "fov": math.pi / 2, "ray_count": 2.0}
    # the first ray, then the last, points at the box's centre
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, math.pi / 4) == 2.5
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, -math.pi / 4) == 2.5
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, math.pi) == -1.0
    # at a full circle both rays point behind the heading
    params["fov"] = 2 * math.pi
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, math.pi) == 2.5
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, 0.0) == -1.0


@pytest.mark.parametrize("fov", [1e-310, 5e-324, 1e-15])
@pytest.mark.parametrize("ray_count", [2.0, 3.0, 64.0])
def test_sensor_with_a_vanishing_field_of_view_matches_full_march(fov, ray_count):
    # a ray spacing that underflows, or rounds to 0, still picks its rays
    params = {"min_range": 0.5, "max_range": 4.0, "fov": fov, "ray_count": ray_count}
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, 0.0) == 2.5
    assert assert_matches_march(BLOCK, params, 5.0, 8.0, math.pi) == -1.0
    # along the box's lower edge
    assert assert_matches_march(BLOCK, params, 5.0, 7.5, 0.0) == 2.5


def test_sensor_at_a_heading_of_many_turns_matches_full_march():
    # at 1e17 rad headings round to 16 rad, far past any ray spacing
    rng = random.Random(3)
    for _ in range(300):
        theta = rng.choice([1e17, -1e17, 1e10, 7.0]) + rng.uniform(0.0, 7.0)
        params = {"min_range": 0.5, "max_range": 4.0, "fov": rng.choice([0.5, math.pi, 2 * math.pi]),
                  "ray_count": float(rng.choice([2, 16, 64]))}
        assert_matches_march(BLOCK, params, rng.uniform(4.0, 12.0), rng.uniform(4.0, 12.0), theta)


@pytest.mark.parametrize("x, y", [
    # a cell from the occupied box's sides and corners, where the wedge casts
    # only the rays toward the box and the window starts at the clearance
    (7.0, 8.0), (9.0, 7.6), (8.2, 7.0), (7.9, 9.0), (7.0, 7.0), (9.0, 9.0),
    # one ulp farther out
    (math.nextafter(7.0, -math.inf), 8.0), (math.nextafter(9.0, math.inf), 7.6),
    (8.2, math.nextafter(7.0, -math.inf)), (7.9, math.nextafter(9.0, math.inf)),
    (math.nextafter(7.0, -math.inf), math.nextafter(7.0, -math.inf)),
])
def test_sensor_a_cell_and_an_ulp_more_from_the_occupied_box_matches_full_march(x, y):
    for params in (FULL_CIRCLE, ONE_RAY, {"min_range": 0.0, "max_range": 3.0, "ray_count": 2.0},
                   {"min_range": 0.1, "max_range": 3.0, "fov": 1.0, "ray_count": 64.0}):
        for theta in [k * math.pi / 8 for k in range(-8, 9)]:
            assert_matches_march(BLOCK, params, x, y, theta)


# BLOCK moved 64 m from the origin, where coordinates round to 1.4e-14 m:
# occupied box [65.5, 66.5] x [-68.5, -67.5]
FAR_BLOCK = GridMap(8, 8, 0.5, 64.0, -70.0, BLOCK.cells)


@pytest.mark.parametrize("x, y", [
    (63.0, -68.0), (66.0, -65.5), (68.5, -69.5), (64.0, -70.0),
    (65.0, -68.0), (math.nextafter(65.0, -math.inf), -68.0), (66.2, math.nextafter(-67.0, math.inf)),
])
def test_sensor_64_m_from_the_origin_matches_full_march(x, y):
    seen = 0
    for params in (FULL_CIRCLE, {"min_range": 0.1, "max_range": 4.0, "fov": math.pi, "ray_count": 33.0}):
        for theta in [k * math.pi / 12 for k in range(-12, 13)]:
            seen += assert_matches_march(FAR_BLOCK, params, x, y, theta) >= 0.0
    assert seen > 0


# one 0.5 m cell at [4, 4.5] x [0, 0.5] on a map from x = -1: floor puts the
# point one ulp left of it, 3.9999999999999996, in the cell, since
# (3.9999999999999996 + 1) / 0.5 rounds to 10
EDGE_CELL = GridMap(12, 1, 0.5, -1.0, 0.0, tuple(int(i == 10) for i in range(12)))


@st.composite
def near_the_occupied_box(draw):
    """A map, a sensor with min_range 0 and a pose outside the occupied box, within one cell of it."""
    grid = draw(grid_maps())
    assume(any(grid.cells))
    x_lo, y_lo, x_hi, y_hi = grid._occupied_box
    res = grid.resolution

    def coord(lo, hi):
        edge = draw(st.sampled_from([lo, hi]))
        outward = math.inf if edge == hi else -math.inf
        for _ in range(draw(st.integers(0, 3))):  # a few ulps outward
            edge = math.nextafter(edge, outward)
        return draw(st.just(edge) | st.floats(lo - res, hi + res))

    x, y = coord(x_lo, x_hi), coord(y_lo, y_hi)
    assume(not (x_lo <= x <= x_hi and y_lo <= y <= y_hi) and grid.box_distance(x, y) <= res)
    params = {"min_range": 0.0, "max_range": draw(st.floats(0.05, 5.0)),
              "fov": draw(st.sampled_from([1.0, math.pi, 2 * math.pi]) | st.floats(1e-3, 2 * math.pi)),
              "ray_count": float(draw(st.integers(1, 64)))}
    return grid, params, x, y, draw(headings)


# the march point at the pose lies in the cell, so every ray hits at 0; the
# fan faces away from the cell, so no ray is aimed at it
@example(case=(EDGE_CELL, {"min_range": 0.0, "max_range": 2.0, "fov": 1.0, "ray_count": 3.0},
               3.9999999999999996, 0.25, -math.pi))
@settings(max_examples=300, deadline=None)
@given(case=near_the_occupied_box())
def test_sensor_within_a_cell_of_the_occupied_box_matches_full_march(case):
    assert_matches_march(*case)


@st.composite
def aimed_at_a_corner(draw):
    """A map, a sensor and a pose one of whose rays is aimed at an occupied cell's
    corner, with a march point on the corner to rounding."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    res = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]) | st.floats(0.05, 1.0))
    x0, y0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.0, 0.1, 0.5]))
    n = draw(st.integers(0, width * height - 1))
    cells = tuple(int(m == n or rng.random() < density) for m in range(width * height))
    grid = GridMap(width, height, res, x0, y0, cells)
    # a corner of cell n, as GridMap works out its bounds
    cx = x0 + (n % width) * res + draw(st.sampled_from([0.0, res]))
    cy = y0 + (n // width) * res + draw(st.sampled_from([0.0, res]))
    dist, phi = draw(st.floats(0.2, 6.0)), draw(st.floats(-math.pi, math.pi))
    x, y = cx - dist * math.cos(phi), cy - dist * math.sin(phi)
    march = 0.5 * res
    k = draw(st.integers(0, min(8, int(dist / march))))  # the march point on the corner
    rays = draw(st.sampled_from([1, 2, 3, 16, 64]))
    fov = draw(st.sampled_from([1.0, math.pi, 2 * math.pi]) | st.floats(1e-3, 2 * math.pi))
    i = draw(st.integers(0, rays - 1))  # the ray aimed at the corner
    theta = phi + 0.5 * fov - i * (fov / (rays - 1)) if rays > 1 else phi
    min_range = dist - k * march
    params = {"min_range": min_range, "max_range": min_range + k * march + draw(st.floats(0.05, 3.0)),
              "fov": fov, "ray_count": float(rays)}
    return grid, params, x, y, theta


# the ray's first march point is the occupied box's farthest corner, which
# lies in the cell; no earlier point of the ray can hit first
@example(case=(EDGE_CELL, {"min_range": 2.0, "max_range": 3.0, "ray_count": 1.0},
               4.765366864730179, 1.8477590650225735, -5 * math.pi / 8))
@settings(max_examples=300, deadline=None)
@given(case=aimed_at_a_corner())
def test_sensor_ray_aimed_at_a_cell_corner_matches_full_march(case):
    assert_matches_march(*case)


def test_sensor_full_circle_sees_a_corner_through_its_last_ray():
    # a full circle's first and last rays share a bearing but round apart:
    # the last, aimed at the cell's corner 3 m away, hits at min_range, and
    # the first misses
    cell = GridMap(1, 1, 0.25, -1.0, 0.0, (1,))
    params = {"min_range": 3.0, "max_range": 4.0, "fov": 2 * math.pi, "ray_count": 5.0}
    x, y, theta = -2.1480502970952697, 2.77163859753386, 5 * math.pi / 8
    assert assert_matches_march(cell, params, x, y, theta) == 3.0
    first = SensorUnit(cell, {**params, "ray_count": 1.0})
    assert march_every_ray(first, cell, x, y, theta - math.pi) == -1.0


def test_sensor_inside_the_occupied_box_casts_every_ray():
    # cells at two corners of a 4.5 m box and one in the middle of its left
    # edge; from the box's centre that cell lies at bearing pi, outside the
    # corners' bearings, and is nearer than either corner cell
    grid = GridMap(9, 9, 0.5, 0.0, 0.0, tuple(int(n in (0, 36, 80)) for n in range(81)))
    params = {"min_range": 0.5, "max_range": 3.0, "fov": 2 * math.pi, "ray_count": 17.0}
    assert assert_matches_march(grid, params, 2.25, 2.25, 0.0) == 2.0


def test_sensor_single_ray():
    assert assert_matches_march(BLOCK, ONE_RAY, 6.5, 8.0, 0.0) == 1.0
    assert assert_matches_march(BLOCK, ONE_RAY, 6.5, 8.0, math.pi) == -1.0


def test_sensor_turned_in_place_matches_full_march():
    # one unit, one position: each step turns it to a heading that sees another distance
    unit = SensorUnit(BLOCK, ONE_RAY)
    unit.set_input("x", 6.5)
    unit.set_input("y", 8.0)
    for theta in (0.0, math.pi, 0.0, math.pi / 4, -math.pi / 2):
        unit.set_input("theta", theta)
        unit.do_step(0.1)
        assert unit.get_output("obstacle_distance") == march_every_ray(unit, BLOCK, 6.5, 8.0, theta)
    assert unit.get_output("obstacle_distance") == -1.0


def test_sensor_pose_inside_occupied_box():
    params = {"min_range": 0.0, "max_range": 2.0}
    assert assert_matches_march(BLOCK, params, 8.1, 7.8, 0.3) == 0.0
    assert assert_matches_march(BLOCK, {"min_range": 1.2, "max_range": 2.0}, 8.1, 7.8, 0.3) == -1.0


def test_sensor_last_march_point_rounding_past_max_range_is_dropped():
    # 0.1 + 624 * 0.025 == 15.700000000000001 > 15.7, inside the cell at 15.7
    cell = GridMap(1, 1, 0.05, 15.7, -0.025, (1,))
    params = {"min_range": 0.1, "max_range": 15.7, "ray_count": 1.0}
    assert assert_matches_march(cell, params, 0.0, 0.0, 0.0) == -1.0
    params["max_range"] = 15.71
    assert assert_matches_march(cell, params, 0.0, 0.0, 0.0) == 0.1 + 624 * 0.025


def test_sensor_keeps_a_hit_that_rounds_into_a_cell_just_beyond_max_range():
    # the cell's face is 1.2000000000000002 m ahead, past max_range, yet the
    # last march point, 6.1 + 1.2, rounds onto it
    cell = GridMap(1, 1, 0.25, 7.3, -0.125, (1,))
    params = {"min_range": 0.2, "max_range": 1.2, "ray_count": 1.0}
    assert cell.clearance(6.1, 0.0) > 1.2
    assert assert_matches_march(cell, params, 6.1, 0.0, 0.0) == 1.2


def test_sensor_empty_map_matches_full_march():
    empty = GridMap(3, 3, 0.5, 0.0, 0.0, (0,) * 9)
    for theta in (0.0, math.pi):
        assert assert_matches_march(empty, {"fov": 2 * math.pi}, 0.75, 0.75, theta) == -1.0


def test_clearance_matches_rescan_on_cell_edges():
    rng = random.Random(5)
    cells = tuple(int(rng.random() < 0.2) for _ in range(7 * 5))
    grid = GridMap(7, 5, 0.25, -0.5, 1.0, cells)
    for i in range(-2, 10):
        for j in range(-2, 8):
            x, y = -0.5 + i * 0.25, 1.0 + j * 0.25
            assert grid.clearance(x, y) == rescan_clearance(grid, x, y)


@st.composite
def grid_maps(draw):
    width, height = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    res = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]) | st.floats(0.05, 1.0))
    # origins away from zero, where 1e-16 offsets round away, matter most
    x0 = draw(st.sampled_from([0.0, -1.0, 6.0, -8.0, 64.0]) | st.floats(-8.0, 8.0))
    y0 = draw(st.sampled_from([0.0, -1.125, 6.0, -8.0, 64.0]) | st.floats(-8.0, 8.0))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    cells = tuple(int(rng.random() < density) for _ in range(width * height))
    return GridMap(width, height, res, x0, y0, cells)


@st.composite
def poses(draw, grid, reach):
    def coord(origin, cells):
        on_edge = origin + draw(st.integers(-4, cells + 4)) * grid.resolution
        anywhere = st.floats(origin - reach, origin + cells * grid.resolution + reach)
        return draw(st.just(on_edge) | anywhere)

    return coord(grid.x0, grid.width), coord(grid.y0, grid.height)


headings = st.sampled_from(
    [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1.5 * math.pi]
) | st.floats(
    -2 * math.pi, 2 * math.pi
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), grid=grid_maps(), theta=headings,
       fov=st.sampled_from([math.pi, 2 * math.pi]) | st.floats(1e-3, 2 * math.pi),
       ray_count=st.integers(1, 64), min_range=st.floats(0.0, 2.0),
       span=st.floats(0.05, 5.0))
def test_sensor_matches_full_march(data, grid, theta, fov, ray_count, min_range, span):
    params = {"min_range": min_range, "max_range": min_range + span,
              "fov": fov, "ray_count": float(ray_count)}
    x, y = data.draw(poses(grid, min_range + span + 1.0))
    assert_matches_march(grid, params, x, y, theta)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), grid=grid_maps())
def test_clearance_matches_rescan(data, grid):
    x, y = data.draw(poses(grid, 3.0))
    assert grid.clearance(x, y) == rescan_clearance(grid, x, y)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grid_maps(),
       fov=st.sampled_from([math.pi, 2 * math.pi]) | st.floats(1e-3, 2 * math.pi),
       ray_count=st.sampled_from([1, 2]) | st.integers(1, 64),
       min_range=st.floats(0.0, 2.0), span=st.floats(0.05, 5.0))
def test_one_sensor_stepped_through_poses_matches_full_march(
    data, grid, fov, ray_count, min_range, span
):
    params = {"min_range": min_range, "max_range": min_range + span,
              "fov": fov, "ray_count": float(ray_count)}
    reach = min_range + span + 1.0
    a = data.draw(poses(grid, reach)) + (data.draw(headings),)
    b = data.draw(poses(grid, reach)) + (data.draw(headings),)
    x, y, theta = a
    walk = [
        a, a, b, a,  # a repeat, then back to an earlier pose after another one
        (0.0, y, theta), (-0.0, y, theta), (0.0, y, theta),
        (x, 0.0, theta), (x, -0.0, theta), (x, 0.0, theta),
        (x, y, 0.0), (x, y, -0.0), (x, y, 0.0),
        (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0),
    ]
    walk += data.draw(st.lists(st.sampled_from(walk), max_size=10))
    unit = SensorUnit(grid, params)
    for x, y, theta in walk:
        unit.set_input("x", x)
        unit.set_input("y", y)
        unit.set_input("theta", theta)
        unit.do_step(0.1)
        expected = march_every_ray(unit, grid, x, y, theta)
        assert unit.get_output("obstacle_distance") == expected, (x, y, theta)
        assert unit.get_output("obstacle_detected") is (expected >= 0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grid_maps(),
       fov=st.sampled_from([math.pi, 2 * math.pi]) | st.floats(1e-3, 2 * math.pi),
       ray_count=st.sampled_from([1, 2]) | st.integers(1, 64),
       min_range=st.floats(0.0, 2.0), span=st.floats(0.05, 5.0))
def test_sensor_keeps_its_ray_directions_while_the_heading_holds(
    data, grid, fov, ray_count, min_range, span
):
    # the walk moves under one heading, turns, turns back, and swaps the sign
    # of a zero heading, so the rays' directions are kept and rebuilt in turn
    params = {"min_range": min_range, "max_range": min_range + span,
              "fov": fov, "ray_count": float(ray_count)}
    places = [data.draw(poses(grid, min_range + span + 1.0)) for _ in range(3)]
    first, second = data.draw(headings), data.draw(headings)
    walk = [(x, y, first) for x, y in places]
    walk += [(x, y, second) for x, y in places[:2]]
    walk += [(x, y, first) for x, y in reversed(places)]
    walk += [(x, y, theta) for (x, y), theta in zip(places * 2, (0.0, -0.0, 0.0, 0.0, -0.0, -0.0))]
    unit = SensorUnit(grid, params)
    for x, y, theta in walk:
        unit.set_input("x", x)
        unit.set_input("y", y)
        unit.set_input("theta", theta)
        unit.do_step(0.1)
        expected = march_every_ray(unit, grid, x, y, theta)
        assert unit.get_output("obstacle_distance") == expected, (x, y, theta)
        assert unit.get_output("obstacle_detected") is (expected >= 0.0)


def test_sensor_within_reach_of_the_occupied_box_but_of_no_cell_reads_nothing():
    # two cells at opposite corners of a 20.5 m square; their box holds poses
    # more than 3.5 m, max_range plus one cell, from either cell
    grid = GridMap(41, 41, 0.5, 0.0, 0.0, tuple(int(n in (0, 41 * 41 - 1)) for n in range(41 * 41)))
    params = {"min_range": 0.5, "max_range": 3.0, "fov": 2 * math.pi, "ray_count": 16.0}
    for x, y in [(10.25, 10.25), (-3.4, 10.25), (10.25, 23.9)]:
        assert grid.clearance(x, y) > 3.5
        for theta in (0.0, -0.0, math.pi / 4, -3 * math.pi / 4):
            assert assert_matches_march(grid, params, x, y, theta) == -1.0
    # near a corner the same sensor sees its cell; at heading pi its first ray points along +x
    assert assert_matches_march(grid, params, -2.0, 0.25, math.pi) == 2.0


def test_pure_pursuit_tells_a_zero_from_a_negative_zero():
    # one lookahead from the end of a path that ends at y = -0.0, delta_f takes
    # the sign of a zero in y or theta, so no step may repeat the one before it
    unit = PurePursuitUnit([(0.0, -0.0), (4.0, -0.0)])
    for pose, delta_f in [((3.0, 0.0, 0.0), "-0x0.0p+0"), ((3.0, -0.0, 0.0), "0x0.0p+0"),
                          ((3.0, 0.0, 0.0), "-0x0.0p+0"), ((3.0, 0.0, -0.0), "0x0.0p+0")]:
        assert steer(unit, *pose)[1].hex() == delta_f, pose


# paths whose points sit on -0.0 as well as 0.0, so that the sign of a zero in
# the pose reaches delta_f, and a path shorter than the lookahead
PURSUIT_PATHS = [
    STRAIGHT,
    [(0.0, -0.0), (4.0, -0.0)],
    [(-0.0, 0.0), (-0.0, 4.0)],
    [(0.0, 0.0), (3.0, -0.0), (3.0, 3.0)],
    [(0.0, 0.0), (0.5, 0.0)],
]
pursuit_coordinates = st.sampled_from([0.0, -0.0, 1.0, 3.0, 3.5, -2.0, 19.0]) | st.floats(-25.0, 25.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), path=st.sampled_from(PURSUIT_PATHS), lookahead=st.sampled_from([2.0, 0.3]))
def test_one_pure_pursuit_stepped_through_poses_matches_a_fresh_unit(data, path, lookahead):
    params = {"lookahead": lookahead}

    def pose():
        return data.draw(pursuit_coordinates), data.draw(pursuit_coordinates), data.draw(headings)

    a, b = pose(), pose()
    x, y, theta = a
    walk = [
        a, a, b, a,  # a repeat, then back to an earlier pose after another one
        (0.0, y, theta), (-0.0, y, theta), (0.0, y, theta),
        (x, 0.0, theta), (x, -0.0, theta), (x, 0.0, theta),
        (x, y, 0.0), (x, y, -0.0), (x, y, 0.0),
        (x, 0.0, 0.0), (x, -0.0, 0.0), (x, 0.0, -0.0), (x, -0.0, -0.0),
        (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0),
    ]
    walk += data.draw(st.lists(st.sampled_from(walk), max_size=10))
    unit = PurePursuitUnit(path, params)
    for step in walk:
        got = steer(unit, *step)
        expected = steer(PurePursuitUnit(path, params), *step)
        assert [v.hex() for v in got] == [v.hex() for v in expected], step


class PerStepPurePursuit(PurePursuitUnit):
    """Pure pursuit that works out each segment's offsets and stations at every step."""

    def _nearest_station(self, x, y):
        best_d2 = None
        best_s = 0.0
        pts = self._pts
        stations = self._stations
        for i in range(len(pts) - 1):
            x0, y0 = pts[i]
            x1, y1 = pts[i + 1]
            dx, dy = x1 - x0, y1 - y0
            seg2 = dx * dx + dy * dy
            if seg2 > 0.0:
                w = ((x - x0) * dx + (y - y0) * dy) / seg2
                if w < 0.0:
                    w = 0.0
                elif w > 1.0:
                    w = 1.0
            else:
                w = 0.0
            px, py = x0 + w * dx, y0 + w * dy
            d2 = (x - px) ** 2 + (y - py) ** 2
            if best_d2 is None or d2 < best_d2:
                best_d2 = d2
                best_s = stations[i] + w * (stations[i + 1] - stations[i])
        return best_s


@st.composite
def pursuit_paths(draw):
    """Paths of 2 to 6 waypoints, each new or a repeat of the one before it."""
    waypoints = st.tuples(pursuit_coordinates, pursuit_coordinates)
    path = [draw(waypoints)]
    for _ in range(draw(st.integers(1, 5))):
        path.append(path[-1] if draw(st.booleans()) else draw(waypoints))
    assume(any(point != path[0] for point in path))  # not all at one point
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data(), path=pursuit_paths(), lookahead=st.sampled_from([2.0, 0.3]))
def test_pure_pursuit_segment_table_matches_the_per_step_arithmetic(data, path, lookahead):
    params = {"lookahead": lookahead}
    unit, reference = PurePursuitUnit(path, params), PerStepPurePursuit(path, params)
    for _ in range(4):
        x, y, theta = data.draw(pursuit_coordinates), data.draw(pursuit_coordinates), data.draw(headings)
        assert unit._nearest_station(x, y).hex() == reference._nearest_station(x, y).hex()
        got, expected = steer(unit, x, y, theta), steer(reference, x, y, theta)
        assert [v.hex() for v in got] == [v.hex() for v in expected], (x, y, theta)


def test_unit_parameters_are_read_only():
    # units derive constants from their parameters once, at construction
    unit = SensorUnit(GridMap(1, 1, 0.5, 0.0, 0.0, (1,)), {"max_range": 4.0})
    with pytest.raises(TypeError):
        unit.parameters["max_range"] = 10.0
    assert unit.parameters["max_range"] == 4.0
    vehicle = default_registry().instantiate("vehicle", {"cAlphaF": 21000.0})
    with pytest.raises(TypeError):
        vehicle.parameters["cAlphaR"] = 1.0
    assert vehicle.parameters["cAlphaR"] == 21000.0
