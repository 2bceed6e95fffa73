"""Vehicle model tests: kinematics, tyre saturation, symmetry, parameters."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldsim.errors import ContractViolation
from fieldsim.units import VehicleUnit


def drive(unit, velocity, delta_f, steps, h=0.01):
    unit.set_input("velocity", velocity)
    unit.set_input("delta_f", delta_f)
    for _ in range(steps):
        unit.do_step(h)
    return unit.get_output("x"), unit.get_output("y"), unit.get_output("theta")


# --- straight running -------------------------------------------------------


def test_straight_run_integrates_exactly():
    x, y, theta = drive(VehicleUnit(), 1.0, 0.0, 1000, h=0.01)
    assert abs(x - 10.0) < 1e-9
    assert y == 0.0
    assert theta == 0.0


def test_straight_run_ignores_parameters_bitwise():
    # With zero steering and zero lateral state the tyre forces vanish,
    # so the trajectory cannot depend on mass, stiffness or friction.
    grid = [
        {"cAlphaF": cf, "mu": mu, "m_robot": m}
        for cf in (20000.0, 29000.0, 38000.0)
        for mu in (0.3, 0.5, 0.7)
        for m in (1000.0, 2000.0, 3000.0)
    ]
    results = {drive(VehicleUnit(params), 1.5, 0.0, 500) for params in grid}
    assert len(results) == 1


def test_standstill_is_exact():
    x, y, theta = drive(VehicleUnit(), 0.0, 0.3, 200)
    assert (x, y, theta) == (0.0, 0.0, 0.0)


# --- turning ----------------------------------------------------------------


def test_positive_steering_turns_left():
    x, y, theta = drive(VehicleUnit(), 1.0, 0.1, 200)
    assert y > 0.0
    assert theta > 0.0
    assert x > 0.0


def test_mirror_symmetry_is_bitwise():
    def record(delta):
        unit = VehicleUnit()
        unit.set_input("velocity", 1.0)
        unit.set_input("delta_f", delta)
        rows = []
        for _ in range(3000):
            unit.do_step(0.01)
            rows.append(
                (unit.get_output("x"), unit.get_output("y"), unit.get_output("theta"))
            )
        return rows

    left = record(0.15)
    right = record(-0.15)
    for (xl, yl, tl), (xr, yr, tr) in zip(left, right):
        assert xl == xr
        assert yl == -yr
        assert tl == -tr


def test_constant_steer_settles_on_circle():
    # Once transients die out the path is a circle; halving the step
    # repeatedly must not move its radius, so compare against a run at
    # an eight times finer step.
    def radius(h):
        unit = VehicleUnit()
        unit.set_input("velocity", 1.0)
        unit.set_input("delta_f", 0.2)
        n = int(round(30.0 / h))
        skip = int(round(10.0 / h))
        pts = []
        for k in range(n):
            unit.do_step(h)
            if k >= skip:
                pts.append((unit.get_output("x"), unit.get_output("y")))
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        return sum(math.hypot(px - cx, py - cy) for px, py in pts) / len(pts)

    coarse = radius(0.01)
    fine = radius(0.01 / 8)
    assert abs(coarse - fine) / fine < 0.10


def test_heading_stays_wrapped():
    unit = VehicleUnit()
    unit.set_input("velocity", 1.0)
    unit.set_input("delta_f", 0.3)
    for _ in range(60_000):  # many full revolutions
        unit.do_step(0.01)
        assert -math.pi < unit.get_output("theta") <= math.pi


def loop_wrap(theta):
    """The heading wrap by repeated turns, which cannot move a theta above about 1e17."""
    while theta > math.pi:
        theta -= 2.0 * math.pi
    while theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


def heading_after_one_step(theta, r=0.0):
    # standing still, theta only integrates r
    unit = VehicleUnit()
    unit.theta, unit.r = theta, r
    unit.do_step(0.01)
    return unit.get_output("theta")


@given(st.floats(-3.0 * math.pi, 3.0 * math.pi))
def test_heading_within_one_turn_wraps_as_the_loop_did(theta):
    # theta + h * 0.0 turns -0.0 into 0.0
    assert heading_after_one_step(theta).hex() == loop_wrap(theta + 0.0).hex()


@pytest.mark.parametrize("theta", [4.0 * math.pi + 0.5, -7.5, 1e17, -3e18, 1e300, -1.7e308])
def test_heading_beyond_one_turn_wraps_at_once(theta):
    wrapped = heading_after_one_step(theta)
    assert -math.pi < wrapped <= math.pi
    if abs(theta) < 100.0:
        assert wrapped == pytest.approx(loop_wrap(theta), abs=1e-12)


@pytest.mark.parametrize("r", [math.inf, -math.inf])
def test_infinite_heading_raises(r):
    with pytest.raises(OverflowError, match="^yaw angle is -?inf$"):
        heading_after_one_step(0.0, r)


# --- tyre forces ------------------------------------------------------------


def state_after_one_step(unit, f_f, f_r, h):
    """``(v_y, r)`` after one step from rest under axle forces ``f_f`` and
    ``f_r``, in the model's order of operations."""
    p = unit.parameters
    return h * ((f_f + f_r) / p["m_robot"]), h * ((p["l_f"] * f_f - p["l_r"] * f_r) / p["I_z"])


def test_front_force_saturates_at_friction_budget():
    unit = VehicleUnit()  # mu 0.3, m 1000, g 9.81 -> 1471.5 N per axle
    unit.set_input("velocity", 1.0)
    unit.set_input("delta_f", 0.5)
    unit.do_step(0.01)
    assert (unit.v_y, unit.r) == state_after_one_step(unit, 1471.5, 0.0, 0.01)


def test_friction_cap_scales_with_mu_and_mass():
    unit = VehicleUnit({"mu": 0.6, "m_robot": 2000.0})
    unit.set_input("velocity", 1.0)
    unit.set_input("delta_f", -0.8)
    unit.do_step(0.01)
    assert (unit.v_y, unit.r) == state_after_one_step(unit, -0.6 * 2000.0 * 9.81 / 2, 0.0, 0.01)


def test_small_slip_force_is_linear():
    unit = VehicleUnit({"cAlphaF": 10000.0})
    unit.set_input("velocity", 2.0)
    unit.set_input("delta_f", 0.01)
    unit.do_step(0.001)
    # alpha_f = atan(0) - 0.01 on the first step
    v_y, r = state_after_one_step(unit, 10000.0 * 0.01, 0.0, 0.001)
    # abs=0: the state is ~1e-4, so approx's default 1e-12 abs would loosen rel
    assert unit.v_y == pytest.approx(v_y, rel=1e-12, abs=0)
    assert unit.r == pytest.approx(r, rel=1e-12, abs=0)


def test_stiffer_front_axle_turns_harder():
    _, y_soft, _ = drive(VehicleUnit({"cAlphaF": 20000.0, "mu": 2.0}), 2.0, 0.05, 300)
    _, y_stiff, _ = drive(VehicleUnit({"cAlphaF": 38000.0, "mu": 2.0}), 2.0, 0.05, 300)
    assert y_stiff > y_soft > 0.0


# --- low speed behaviour ----------------------------------------------------


def test_lateral_state_decays_below_threshold():
    unit = VehicleUnit()
    unit.set_input("velocity", 1.0)
    unit.set_input("delta_f", 0.2)
    for _ in range(100):
        unit.do_step(0.01)
    v_y0, r0 = unit.v_y, unit.r
    assert v_y0 != 0.0 and r0 != 0.0

    unit.set_input("velocity", 0.05)  # below the 0.1 m/s cutoff
    for _ in range(20):
        unit.do_step(0.01)
    # one Euler step multiplies by (1 - h / 0.2) = 0.95
    assert unit.v_y == pytest.approx(v_y0 * 0.95**20, rel=1e-12)
    assert unit.r == pytest.approx(r0 * 0.95**20, rel=1e-12)


# --- parameters -------------------------------------------------------------


def test_rear_stiffness_tracks_front_by_default():
    assert VehicleUnit({"cAlphaF": 21000.0}).parameters["cAlphaR"] == 21000.0
    unit = VehicleUnit({"cAlphaF": 21000.0, "cAlphaR": 5000.0})
    assert unit.parameters["cAlphaR"] == 5000.0


def test_yaw_inertia_tracks_mass_by_default():
    assert VehicleUnit({"m_robot": 2000.0}).parameters["I_z"] == 2000.0 * 0.6 * 0.6
    assert VehicleUnit({"m_robot": 2000.0, "I_z": 100.0}).parameters["I_z"] == 100.0


def test_default_parameters():
    p = VehicleUnit().parameters
    assert p["m_robot"] == 1000.0
    assert p["cAlphaF"] == 38000.0
    assert p["mu"] == 0.3
    assert p["l_f"] == p["l_r"] == 0.6
    assert p["g"] == 9.81


@pytest.mark.parametrize(
    "params",
    [
        {"mu": 0.0},
        {"mu": 2.5},
        {"mu": -0.1},
        {"m_robot": -5.0},
        {"cAlphaF": 0.0},
        {"l_f": -1.0},
        {"I_z": 0.0},
    ],
)
def test_out_of_range_parameters_rejected(params):
    with pytest.raises(ContractViolation):
        VehicleUnit(params)


def test_mu_upper_bound_inclusive():
    assert VehicleUnit({"mu": 2.0}).parameters["mu"] == 2.0


def test_same_commands_same_trajectory():
    rng = random.Random(11)
    commands = [(rng.uniform(0.5, 3.0), rng.uniform(-0.3, 0.3)) for _ in range(400)]

    def run():
        unit = VehicleUnit()
        out = []
        for v, d in commands:
            unit.set_input("velocity", v)
            unit.set_input("delta_f", d)
            unit.do_step(0.02)
            out.append((unit.get_output("x"), unit.get_output("y"), unit.get_output("theta")))
        return out

    assert run() == run()
