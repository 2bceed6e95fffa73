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
)
from ..traces import TimedTrace

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT
_PAR = PortDirection.PARAMETER

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
    the first row the first row is used, after the last the last.  Unit
    time never decreases, so a row cursor only ever moves forward.
    """

    def __init__(self, trace: TimedTrace, parameters: Mapping[str, float] | None = None):
        trace.validate()
        if trace.channels != ["velocity", "delta_f"]:
            raise ContractViolation(
                f"replay trace must have channels ['velocity', 'delta_f'], got {trace.channels}"
            )
        if not trace.times:
            raise ContractViolation("replay trace must have at least one row")
        super().__init__(REPLAY_DESCRIPTION, parameters)
        self._times = list(trace.times)
        self._velocity = trace.column("velocity")
        self._delta_f = trace.column("delta_f")
        self._row = 0
        self._next_time = -inf  # the outputs hold until unit time reaches it
        self._advance(0.0)

    def _advance(self, h: float) -> None:
        t = self.current_time
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
        PortDescriptor("lookahead", _PAR),
        PortDescriptor("cruise_speed", _PAR),
        PortDescriptor("wheelbase", _PAR),
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
    within one lookahead of the final waypoint, then 0.
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
        if p["lookahead"] <= 0.0:
            raise ContractViolation(f"lookahead must be positive, got {p['lookahead']}")
        if p["wheelbase"] <= 0.0:
            raise ContractViolation(f"wheelbase must be positive, got {p['wheelbase']}")
        if p["cruise_speed"] < 0.0:
            raise ContractViolation(f"cruise_speed must be non-negative, got {p['cruise_speed']}")
        self._pts = pts
        self._stations = stations
        self._advance(0.0)

    def _nearest_station(self, x: float, y: float) -> float:
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

    def _point_at_station(self, s: float) -> tuple[float, float]:
        stations = self._stations
        if s <= 0.0:
            return self._pts[0]
        if s >= stations[-1]:
            return self._pts[-1]
        i = bisect_right(stations, s) - 1
        span = stations[i + 1] - stations[i]
        w = (s - stations[i]) / span if span > 0.0 else 0.0
        x0, y0 = self._pts[i]
        x1, y1 = self._pts[i + 1]
        return x0 + w * (x1 - x0), y0 + w * (y1 - y0)

    def _advance(self, h: float) -> None:
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
        PortDescriptor("decel", _PAR),
        PortDescriptor("margin", _PAR),
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
        if p["decel"] <= 0.0:
            raise ContractViolation(f"decel must be positive, got {p['decel']}")
        if p["margin"] < 0.0:
            raise ContractViolation(f"margin must be non-negative, got {p['margin']}")
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
