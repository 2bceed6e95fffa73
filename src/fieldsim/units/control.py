"""Command sources and supervisory braking.

Three units live here: a replay source that feeds a recorded command
trace back into a co-simulation with zero-order hold, a pure pursuit
path follower, and a supervisory brake that overrides the commanded
speed when an obstacle gets inside braking distance.
"""

from __future__ import annotations

from bisect import bisect_right
from math import atan, cos, hypot, inf, sin
from typing import Mapping, Sequence

from ..errors import ContractViolation
from ..simunit import (
    PortDescriptor,
    PortDirection,
    PortKind,
    SimulationUnit,
    UnitDescription,
    _check_parameters,
    input_memo,
)
from ..traces import COMMAND_CHANNELS, TimedTrace

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT

REPLAY_DESCRIPTION = UnitDescription(
    unit_type="replay",
    ports=(
        PortDescriptor("velocity", _OUT),
        PortDescriptor("delta_f", _OUT),
    ),
)


class ReplayUnit(SimulationUnit):
    """Replays a recorded (velocity, delta_f) trace with zero-order hold.

    At time t the outputs are the row with the greatest time <= t; before
    the first row the first row is used, after the last the last.  Time is
    t0 + k * h after k steps of h, t0 moving only when h changes: it does not
    drift and never decreases, so a row cursor only ever moves forward.
    """

    def __init__(self, trace: TimedTrace, parameters: Mapping[str, float] | None = None):
        trace.validate()
        if trace.channels != list(COMMAND_CHANNELS):
            raise ContractViolation(
                f"replay trace must have channels {list(COMMAND_CHANNELS)}, got {trace.channels}"
            )
        if not trace.times:
            raise ContractViolation("replay trace must have at least one row")
        super().__init__(REPLAY_DESCRIPTION, parameters)
        self._times = list(trace.times)
        self._velocity = trace.column("velocity")
        self._delta_f = trace.column("delta_f")
        self._row = 0
        self._next_time = -inf  # the outputs hold until unit time reaches it
        self._t0, self._k, self._h = 0.0, 0, 0.0
        self._advance(0.0)

    def _advance(self, h: float) -> None:
        if h != self._h:  # fold the time so far into t0
            self._t0, self._h, self._k = self._t0 + self._k * self._h, h, 0
        self._k += 1
        t = self._t0 + self._k * h
        if t < self._next_time:
            return
        times = self._times
        i = self._row
        last = len(times) - 1
        while i < last and times[i + 1] <= t:
            i += 1
        self._row = i
        self._next_time = times[i + 1] if i < last else inf
        out = self._outputs
        out["velocity"] = self._velocity[i]
        out["delta_f"] = self._delta_f[i]


PURE_PURSUIT_DESCRIPTION = UnitDescription(
    unit_type="pure_pursuit",
    ports=(
        PortDescriptor("x", _IN),
        PortDescriptor("y", _IN),
        PortDescriptor("theta", _IN),
        PortDescriptor("velocity", _OUT),
        PortDescriptor("delta_f", _OUT),
    ),
    default_parameters={"lookahead": 2.0, "cruise_speed": 1.0, "wheelbase": 1.2},
)


class PurePursuitUnit(SimulationUnit):
    """Follows a waypoint path by steering at a goal point one lookahead ahead.

    The goal point sits at arc distance ``lookahead`` beyond the nearest
    point of the path; with the goal at (x_b, y_b) in the body frame the
    commanded curvature is ``kappa = 2 * y_b / (x_b**2 + y_b**2)`` and
    ``delta_f = atan(kappa * wheelbase)``, so the sign of delta_f equals
    the sign of y_b.  Speed is ``cruise_speed`` until the vehicle is
    within one lookahead of the final waypoint, then 0.  A step whose pose
    has the bits of the last computed step's repeats that step's result.
    Each segment's offsets, squared length and stations are taken once,
    when the unit is built.
    """

    def __init__(self, path: Sequence[Sequence[float]], parameters: Mapping[str, float] | None = None):
        if len(path) < 2:
            raise ContractViolation("pure pursuit path needs at least two waypoints")
        pts = [(float(p[0]), float(p[1])) for p in path]
        # cumulative arc length; zero-length segments are tolerated but the
        # path as a whole must have extent
        stations = [0.0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            stations.append(stations[-1] + hypot(x1 - x0, y1 - y0))
        if stations[-1] <= 0.0:
            raise ContractViolation("pure pursuit path is degenerate: all waypoints coincide")
        super().__init__(PURE_PURSUIT_DESCRIPTION, parameters)
        p = self.parameters
        _check_parameters({
            f"lookahead must be positive, got {p['lookahead']}": p["lookahead"] <= 0.0,
            f"wheelbase must be positive, got {p['wheelbase']}": p["wheelbase"] <= 0.0,
            f"cruise_speed must be non-negative, got {p['cruise_speed']}": p["cruise_speed"] < 0.0,
        })
        self._pts = pts
        self._stations = stations
        # (x0, y0, dx, dy, squared length, start station, station span) of each segment
        segments = []
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(pts, pts[1:])):
            dx, dy = x1 - x0, y1 - y0
            segments.append((x0, y0, dx, dy, dx * dx + dy * dy, stations[i], stations[i + 1] - stations[i]))
        self._segments = segments
        self._repeats = input_memo(self._inputs)
        self._advance(0.0)

    def _nearest_station(self, x: float, y: float) -> float:
        best_d2 = None
        best_s = 0.0
        for x0, y0, dx, dy, seg2, s0, ds in self._segments:
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
                best_s = s0 + w * ds
        return best_s

    def _point_at_station(self, s: float) -> tuple[float, float]:
        """The path point at arc length ``s``, which is positive: a station plus the lookahead."""
        stations = self._stations
        if s >= stations[-1]:
            return self._pts[-1]
        # bisect_right skips repeated stations, so stations[i] <= s < stations[i + 1]
        i = bisect_right(stations, s) - 1
        w = (s - stations[i]) / (stations[i + 1] - stations[i])
        x0, y0 = self._pts[i]
        x1, y1 = self._pts[i + 1]
        return x0 + w * (x1 - x0), y0 + w * (y1 - y0)

    def _advance(self, h: float) -> None:
        # the result depends on the pose alone, and on the sign of a zero in y or theta
        if self._repeats():
            return
        inputs = self._inputs
        x, y, theta = inputs["x"], inputs["y"], inputs["theta"]
        p = self.parameters
        gx, gy = self._point_at_station(self._nearest_station(x, y) + p["lookahead"])
        dx, dy = gx - x, gy - y
        cos_t, sin_t = cos(theta), sin(theta)
        x_b = cos_t * dx + sin_t * dy
        y_b = -sin_t * dx + cos_t * dy
        d2 = x_b * x_b + y_b * y_b
        kappa = 2.0 * y_b / d2 if d2 > 0.0 else 0.0
        ex, ey = self._pts[-1]
        arrived = hypot(ex - x, ey - y) <= p["lookahead"]
        out = self._outputs
        out["velocity"] = 0.0 if arrived else p["cruise_speed"]
        out["delta_f"] = atan(kappa * p["wheelbase"])


def braking_distance(v: float, decel: float) -> float:
    """Distance covered decelerating from speed v to rest at a constant rate."""
    return v * v / (2.0 * decel)


SUPERVISOR_DESCRIPTION = UnitDescription(
    unit_type="supervisor",
    ports=(
        PortDescriptor("velocity_cmd", _IN),
        PortDescriptor("obstacle_detected", _IN, PortKind.BOOLEAN),
        PortDescriptor("obstacle_distance", _IN),
        PortDescriptor("velocity", _OUT),
        PortDescriptor("stop_engaged", _OUT, PortKind.BOOLEAN),
    ),
    default_parameters={"decel": 3.0, "margin": 0.2},
)


class SupervisoryBrake(SimulationUnit):
    """Passes the commanded speed through unless an obstacle is too close.

    A detection at or inside ``braking_distance(velocity_cmd, decel) +
    margin`` latches the stop: the output speed ramps down by ``decel * h``
    per step until it reaches 0 and never increases while latched.  The
    latch releases only at standstill with no detection left in range;
    passthrough resumes on the following step.
    """

    def __init__(self, parameters: Mapping[str, float] | None = None):
        super().__init__(SUPERVISOR_DESCRIPTION, parameters)
        p = self.parameters
        _check_parameters({
            f"decel must be positive, got {p['decel']}": p["decel"] <= 0.0,
            f"margin must be non-negative, got {p['margin']}": p["margin"] < 0.0,
        })
        self._latched = False

    def _advance(self, h: float) -> None:
        inputs = self._inputs
        cmd = inputs["velocity_cmd"]
        p = self.parameters
        threat = (
            inputs["obstacle_detected"]
            and inputs["obstacle_distance"] <= braking_distance(cmd, p["decel"]) + p["margin"]
        )
        out = self._outputs
        if not self._latched and threat:
            self._latched = True
        if self._latched:
            v = out["velocity"] - p["decel"] * h
            if v <= 0.0:
                v = 0.0
                if not threat:
                    self._latched = False  # passthrough resumes next step
        else:
            v = cmd
        out["velocity"] = v
        out["stop_engaged"] = self._latched
