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
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from ..simunit import PortDescriptor, PortDirection, SimulationUnit, UnitDescription, _check_parameters

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT

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

    _step_state = ("x", "y", "theta", "v_y", "r")

    def __init__(self, parameters: Mapping[str, float] | None = None):
        explicit = set(parameters) if parameters else set()
        super().__init__(VEHICLE_DESCRIPTION, parameters)
        p = dict(self.parameters)
        if "cAlphaR" not in explicit:
            p["cAlphaR"] = p["cAlphaF"]
        if "I_z" not in explicit:
            p["I_z"] = p["m_robot"] * p["l_f"] * p["l_r"]
        self.parameters = MappingProxyType(p)
        _check_parameters({
            **{f"vehicle parameter {name} must be positive, got {p[name]}": p[name] <= 0.0
               for name in ("m_robot", "cAlphaF", "cAlphaR", "l_f", "l_r", "I_z", "g")},
            f"vehicle parameter mu must be in (0, 2], got {p['mu']}": not 0.0 < p["mu"] <= 2.0,
        })

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


class VehicleGroup:
    """Copies of a vehicle advanced with ``_advance``'s arithmetic, each class of equal copies once.

    Like a unit, it has ``_inputs``, ``_outputs`` and ``_advance``; an input
    holds one value for all its copies, an output one per copy.  Copies whose
    state is equal bit for bit form a class, which steps once and splits when
    its copies would get different bits: in the step that would read constants
    its copies differ in, right after the class's unclamped forces.  It splits
    by the six constants other than the friction cap when they differ, else,
    when a force passes the class's least cap, by the cap of each copy that
    clamps; then the step goes on at that class.  A step reads no constant
    below 0.1 m/s or when ``v_y``, ``r`` and ``delta_f`` are all zero: a zero
    keeps its sign through every product with a positive constant.

    The state and the constants of every class sit in lists, ordered by
    each class's first copy, so a step fails at the same copy first as
    stepping each copy would.  A step builds new state lists, which go out
    as ``x``, ``y`` and ``theta`` while every class is one copy, else as
    tuples with each copy's value.  Neither is changed in place.
    """

    def __init__(self, copies: list[VehicleUnit]):
        self._inputs = dict(copies[0]._inputs)
        self._outputs = {port: [u._outputs[port] for u in copies] for port in copies[0]._outputs}
        self._constants = [u._constants for u in copies]
        state = [(u.x, u.y, u.theta, u.v_y, u.r) for u in copies]
        self._state = tuple(map(list, zip(*state)))
        self._regroup([
            (members, members[0])
            for members in _partition(range(len(copies)), lambda p: tuple(map(float.hex, state[p])))
        ])

    def _regroup(self, parts: list[tuple[list[int], int]]) -> None:
        """Make each ``(members, c)`` of ``parts`` a class from class ``c``."""
        parts.sort(key=lambda part: part[0][0])
        constants = self._constants
        self._members = [members for members, _ in parts]
        self._state = tuple([column[c] for _, c in parts] for column in self._state)
        # each class's six constants, its least cap, and whether its copies'
        # constants differ: None if not, else whether the six differ
        self._class_constants = []
        for members in self._members:
            first = constants[members[0]]
            mixed = None
            if any(constants[p] != first for p in members):
                mixed = any(constants[p][:6] != first[:6] for p in members)
            self._class_constants.append(first[:6] + (min(constants[p][6] for p in members), mixed))
        owner = [0] * len(constants)
        for c, members in enumerate(self._members):
            for p in members:
                owner[p] = c
        self._getter = itemgetter(*owner) if len(parts) < len(owner) else None

    def _split(self, c: int, f_f: float, f_r: float) -> None:
        """Split class ``c`` so that its copies get the same bits.

        That is by its six constants if they differ, else by each cap that clamps its unclamped forces.
        """
        constants, six_differ = self._constants, self._class_constants[c][7]

        def key(p: int):
            if six_differ:
                return constants[p][:6]
            cap = constants[p][6]
            return cap if abs(f_f) > cap or abs(f_r) > cap else None

        parts = [
            (sub, k) for k, members in enumerate(self._members)
            for sub in (_partition(members, key) if k == c else [members])
        ]
        assert len(parts) > len(self._members), "the step would split this class again and again"
        self._regroup(parts)

    def _advance(self, h: float) -> None:
        v, delta_f = self._inputs["velocity"], self._inputs["delta_f"]
        state = new_x, new_y, new_theta, new_v_y, new_r = [], [], [], [], []
        put_x, put_y, put_theta = new_x.append, new_y.append, new_theta.append
        put_v_y, put_r = new_v_y.append, new_r.append
        columns = (*self._state, self._class_constants)
        while True:
            for x, y, theta, v_y, r, (m, cf, cr, lf, lr, iz, lim, mixed) in zip(*columns):
                if v < _SLOW_SPEED:
                    dv_y = -v_y / _DECAY_TAU
                    dr = -r / _DECAY_TAU
                else:
                    f_f = -cf * (atan((v_y + lf * r) / v) - delta_f)
                    f_r = -cr * atan((v_y - lr * r) / v)
                    # with v_y, r and delta_f zero the step reads no constant: a zero
                    # keeps its sign through every product with a positive constant
                    if mixed is not None and (v_y or r or delta_f) and (
                        mixed or abs(f_f) > lim or abs(f_r) > lim
                    ):
                        break  # this class's copies would get different bits
                    if f_f < -lim:
                        f_f = -lim
                    elif f_f > lim:
                        f_f = lim
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
            else:
                break
            # the classes before this one keep their new state; step on from this one
            c = len(new_x)
            self._split(c, f_f, f_r)
            columns = [column[c:] for column in (*self._state, self._class_constants)]
        self._state = state
        out, getter = self._outputs, self._getter
        if getter is None:
            out["x"], out["y"], out["theta"] = new_x, new_y, new_theta
        else:
            out["x"], out["y"], out["theta"] = getter(new_x), getter(new_y), getter(new_theta)


VehicleUnit._group = VehicleGroup


def _partition(members, key) -> list[list[int]]:
    """``members`` grouped by ``key``, each group and the groups in the order of ``members``."""
    groups: dict = {}
    for p in members:
        groups.setdefault(key(p), []).append(p)
    return list(groups.values())
