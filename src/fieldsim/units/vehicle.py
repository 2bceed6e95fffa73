"""Planar single-track vehicle with linear tyres and friction-capped axle forces.

The model tracks position ``(x, y)``, heading ``theta``, lateral body
velocity ``v_y`` and yaw rate ``r``.  Commanded forward speed
``velocity`` and front steering angle ``delta_f`` arrive as inputs; the
forward speed is followed directly (no longitudinal dynamics).

Slip angles (with ``v_x = max(velocity, 0.1)`` guarding the division):

    alpha_f = atan((v_y + l_f * r) / v_x) - delta_f
    alpha_r = atan((v_y - l_r * r) / v_x)

Each axle produces a linear tyre force clamped by the friction budget of
half the vehicle weight:

    F_i = clamp(-cAlpha_i * alpha_i, +-mu * m_robot * g / 2)

Body and world dynamics, integrated by one explicit Euler step per
``do_step``:

    dv_y/dt = (F_f + F_r) / m_robot - velocity * r
    dr/dt   = (l_f * F_f - l_r * F_r) / I_z
    dx/dt     = velocity * cos(theta) - v_y * sin(theta)
    dy/dt     = velocity * sin(theta) + v_y * cos(theta)
    dtheta/dt = r

Below 0.1 m/s the tyre model is meaningless, so ``v_y`` and ``r``
instead decay to zero with a 0.2 s time constant; a vehicle commanded
to stand still stays exactly put.  Positive ``delta_f`` yields a
positive yaw rate, i.e. a counter-clockwise (left) turn.
"""

from __future__ import annotations

from math import atan, cos, isfinite, remainder, sin, pi
from types import MappingProxyType
from typing import Mapping

from ..errors import ContractViolation
from ..simunit import PortDescriptor, PortDirection, SimulationUnit, UnitDescription, UnitGroup

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT
_PAR = PortDirection.PARAMETER

# nominal parameters of the reference machine; cAlphaR and I_z are
# recomputed from the others unless explicitly overridden
VEHICLE_DESCRIPTION = UnitDescription(
    unit_type="vehicle",
    ports=(
        PortDescriptor("velocity", _IN),
        PortDescriptor("delta_f", _IN),
        PortDescriptor("x", _OUT),
        PortDescriptor("y", _OUT),
        PortDescriptor("theta", _OUT),
        PortDescriptor("m_robot", _PAR),
        PortDescriptor("cAlphaF", _PAR),
        PortDescriptor("cAlphaR", _PAR),
        PortDescriptor("mu", _PAR),
        PortDescriptor("l_f", _PAR),
        PortDescriptor("l_r", _PAR),
        PortDescriptor("I_z", _PAR),
        PortDescriptor("g", _PAR),
    ),
    default_parameters={
        "m_robot": 1000.0,
        "cAlphaF": 38000.0,
        "cAlphaR": 38000.0,
        "mu": 0.3,
        "l_f": 0.6,
        "l_r": 0.6,
        "I_z": 360.0,
        "g": 9.81,
    },
)

_SLOW_SPEED = 0.1  # m/s, below this the tyre model is bypassed
_DECAY_TAU = 0.2  # s, lateral state decay time constant at low speed


def _wrap(theta: float) -> float:
    """Bring any finite angle into (-pi, pi]; raise if it is not finite."""
    if not isfinite(theta):
        raise OverflowError(f"yaw angle is {theta!r}")
    theta = remainder(theta, 2.0 * pi)
    return theta + 2.0 * pi if theta <= -pi else theta


class VehicleUnit(SimulationUnit):
    """Single-track vehicle model; see the module docstring for the equations."""

    def __init__(self, parameters: Mapping[str, float] | None = None):
        explicit = set(parameters) if parameters else set()
        super().__init__(VEHICLE_DESCRIPTION, parameters)
        p = dict(self.parameters)
        if "cAlphaR" not in explicit:
            p["cAlphaR"] = p["cAlphaF"]
        if "I_z" not in explicit:
            p["I_z"] = p["m_robot"] * p["l_f"] * p["l_r"]
        self.parameters = MappingProxyType(p)
        for name in ("m_robot", "cAlphaF", "cAlphaR", "l_f", "l_r", "I_z", "g"):
            if p[name] <= 0.0:
                raise ContractViolation(f"vehicle parameter {name} must be positive, got {p[name]}")
        if not 0.0 < p["mu"] <= 2.0:
            raise ContractViolation(f"vehicle parameter mu must be in (0, 2], got {p['mu']}")

        m = p["m_robot"]
        f_lim = p["mu"] * m * p["g"] * 0.5  # per-axle friction cap
        self._constants = (m, p["cAlphaF"], p["cAlphaR"], p["l_f"], p["l_r"], p["I_z"], f_lim)

        self.x = 0.0
        self.y = 0.0
        self.theta = 0.0
        self.v_y = 0.0
        self.r = 0.0

    def _advance(self, h: float) -> None:
        inputs = self._inputs
        v = inputs["velocity"]
        delta_f = inputs["delta_f"]
        v_y = self.v_y
        r = self.r

        if v < _SLOW_SPEED:
            dv_y = -v_y / _DECAY_TAU
            dr = -r / _DECAY_TAU
        else:
            m, cf, cr, lf, lr, iz, lim = self._constants
            f_f = -cf * (atan((v_y + lf * r) / v) - delta_f)
            if f_f < -lim:
                f_f = -lim
            elif f_f > lim:
                f_f = lim
            f_r = -cr * atan((v_y - lr * r) / v)
            if f_r < -lim:
                f_r = -lim
            elif f_r > lim:
                f_r = lim
            dv_y = (f_f + f_r) / m - v * r
            dr = (lf * f_f - lr * f_r) / iz

        theta = self.theta
        cos_t = cos(theta)
        sin_t = sin(theta)
        self.x += h * (v * cos_t - v_y * sin_t)
        self.y += h * (v * sin_t + v_y * cos_t)
        theta += h * r
        # remainder() is exact: within one turn it equals theta -+ 2 pi (Sterbenz); NaN skips _wrap
        if theta > pi or theta <= -pi:
            theta = _wrap(theta)
        self.theta = theta
        self.v_y = v_y + h * dv_y
        self.r = r + h * dr

        out = self._outputs
        out["x"] = self.x
        out["y"] = self.y
        out["theta"] = self.theta

    @classmethod
    def _group(cls, copies: list["VehicleUnit"]) -> "VehicleGroup":
        return VehicleGroup(copies)


class VehicleGroup(UnitGroup):
    """Copies of a vehicle advanced in one loop with ``_advance``'s arithmetic.

    The state and the constants of every copy sit in lists, so a step does
    no attribute or dict traffic per copy.  A step builds new state lists:
    ``x``, ``y`` and ``theta`` are also the output lists it hands out,
    which are never changed in place.
    """

    def __init__(self, copies: list[VehicleUnit]):
        super().__init__(copies)
        self._state = tuple([getattr(u, name) for u in copies] for name in ("x", "y", "theta", "v_y", "r"))
        self._constants = [u._constants for u in copies]

    def _recorder(self, port: str):
        return self._output_reader(port)  # every output is a float already

    def _step(self, h: float) -> None:
        xs, ys, thetas, v_ys, rs = self._state
        state = new_x, new_y, new_theta, new_v_y, new_r = [], [], [], [], []
        put_x, put_y, put_theta = new_x.append, new_y.append, new_theta.append
        put_v_y, put_r = new_v_y.append, new_r.append
        inputs = self.inputs
        for x, y, theta, v_y, r, v, delta_f, (m, cf, cr, lf, lr, iz, lim) in zip(
            xs, ys, thetas, v_ys, rs, inputs["velocity"], inputs["delta_f"], self._constants
        ):
            if v < _SLOW_SPEED:
                dv_y = -v_y / _DECAY_TAU
                dr = -r / _DECAY_TAU
            else:
                f_f = -cf * (atan((v_y + lf * r) / v) - delta_f)
                if f_f < -lim:
                    f_f = -lim
                elif f_f > lim:
                    f_f = lim
                f_r = -cr * atan((v_y - lr * r) / v)
                if f_r < -lim:
                    f_r = -lim
                elif f_r > lim:
                    f_r = lim
                dv_y = (f_f + f_r) / m - v * r
                dr = (lf * f_f - lr * f_r) / iz

            cos_t = cos(theta)
            sin_t = sin(theta)
            put_x(x + h * (v * cos_t - v_y * sin_t))
            put_y(y + h * (v * sin_t + v_y * cos_t))
            theta += h * r
            if theta > pi or theta <= -pi:
                theta = _wrap(theta)
            put_theta(theta)
            put_v_y(v_y + h * dv_y)
            put_r(r + h * dr)
        self._state = state
        out = self.outputs
        out["x"], out["y"], out["theta"] = new_x, new_y, new_theta

