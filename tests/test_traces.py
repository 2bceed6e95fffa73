"""Trace IO, scenario generation and trajectory alignment tests."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim.errors import ConfigError
from fieldsim.traces import (
    AlignedPair,
    ScenarioSpec,
    TimedTrace,
    align,
    format_real,
    generate_scenario,
    position_channels,
    read_trace_csv,
    write_trace_csv,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# --- formatting and CSV -----------------------------------------------------


@given(finite)
def test_format_real_roundtrips_every_float(x):
    assert float(format_real(x)) == x


def test_format_real_is_compact_for_integers():
    assert format_real(0.0) == "0"
    assert format_real(2.0) == "2"
    assert format_real(0.5) == "0.5"


def test_csv_single_row_golden(tmp_path):
    trace = TimedTrace(channels=["a.x", "b.y"], times=[0.0], values=[[1.0, 2.0]])
    path = tmp_path / "one.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == b"time,a.x,b.y\n0,1,2\n"


def test_csv_empty_trace_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace_csv(TimedTrace(channels=["a.x"], times=[], values=[]), path)
    assert path.read_bytes() == b"time,a.x\n"
    back = read_trace_csv(path)
    assert back.channels == ["a.x"]
    assert back.times == []


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_csv_roundtrip_is_exact(data):
    n_channels = data.draw(st.integers(1, 4))
    raw_times = data.draw(st.lists(finite, min_size=0, max_size=20))
    times = sorted(set(raw_times))
    rows = [
        data.draw(st.lists(finite, min_size=n_channels, max_size=n_channels))
        for _ in times
    ]
    trace = TimedTrace(
        channels=[f"c{i}.x" for i in range(n_channels)], times=times, values=rows
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
    assert back.times == trace.times
    assert back.values == trace.values


def test_read_checks_expected_channels(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,a\n0,1\n")
    read_trace_csv(path, expected_channels=["a"])
    with pytest.raises(ConfigError, match="expected channels"):
        read_trace_csv(path, expected_channels=["b"])


@pytest.mark.parametrize(
    "body,lineno,fragment",
    [
        ("time,a\n0,1,2\n", 2, "expected 2 fields"),
        ("time,a\n0,1\nx,2\n", 3, "malformed number"),
        ("time,a\n0,1\n0,2\n", 3, "time 0.0 not after"),
        ("time,a\n0,inf\n", 2, "non-finite"),
    ],
)
def test_read_diagnostics_carry_line_numbers(tmp_path, body, lineno, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigError, match=f"{lineno}: {fragment}"):
        read_trace_csv(path)


def test_read_rejects_missing_time_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n")
    with pytest.raises(ConfigError, match="header must start with 'time'"):
        read_trace_csv(path)


def test_validate_catches_structural_problems():
    with pytest.raises(ConfigError, match="duplicate channel"):
        TimedTrace(["a", "a"], [0.0], [[1.0, 2.0]]).validate()
    with pytest.raises(ConfigError, match="strictly increasing"):
        TimedTrace(["a"], [0.0, 0.0], [[1.0], [1.0]]).validate()
    with pytest.raises(ConfigError, match="2 values, expected 1"):
        TimedTrace(["a"], [0.0], [[1.0, 2.0]]).validate()
    with pytest.raises(ConfigError, match="no channel"):
        TimedTrace(["a"], [], []).column("b")


# --- scenario generation ----------------------------------------------------


def test_speed_step_plateaus():
    spec = ScenarioSpec(
        name="s", kind="speed_step", duration=8.0, base_speed=2.0, sample_period=1.0
    )
    trace = generate_scenario(spec)
    assert trace.channels == ["velocity", "delta_f"]
    assert trace.column("velocity") == [0.5, 0.5, 1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 2.0]
    assert trace.column("delta_f") == [0.0] * 9


def test_sin_steering_peaks_at_amplitude():
    spec = ScenarioSpec(
        name="s", kind="sin", duration=12.0, base_speed=2.0, amplitude=0.35
    )
    trace = generate_scenario(spec)
    delta = trace.column("delta_f")
    assert delta[0] == 0.0
    # period is duration/3 = 4 s, so the t = 1 s sample sits exactly on a crest
    assert abs(max(delta) - 0.35) < 1e-12
    assert abs(min(delta) + 0.35) < 1e-12
    assert all(v == 2.0 for v in trace.column("velocity"))


def test_turn_ramp_is_linear():
    # 0.25 s divides 10 s exactly, so the last sample lands on t = duration
    spec = ScenarioSpec(
        name="s", kind="turn_ramp", duration=10.0, base_speed=1.0,
        amplitude=0.4, sample_period=0.25,
    )
    trace = generate_scenario(spec)
    delta = trace.column("delta_f")
    assert len(delta) == 41
    assert delta[0] == 0.0
    assert delta[-1] == 0.4
    assert delta[20] == pytest.approx(0.2, rel=1e-12)  # t = 5 s


def test_speed_ramp_reaches_base_speed():
    spec = ScenarioSpec(
        name="s", kind="speed_ramp", duration=5.0, base_speed=3.0, sample_period=0.25
    )
    trace = generate_scenario(spec)
    v = trace.column("velocity")
    assert v[0] == 0.0
    assert v[-1] == 3.0
    assert all(b >= a for a, b in zip(v, v[1:]))
    assert trace.column("delta_f") == [0.0] * len(v)


def test_scenario_samples_stay_within_duration():
    # the binary float 0.1 slightly exceeds one decimal tenth, so ten of
    # them overshoot 1.0; the grid must stop at k = 9, not round up
    spec = ScenarioSpec(
        name="s", kind="speed_ramp", duration=1.0, base_speed=1.0, sample_period=0.1
    )
    trace = generate_scenario(spec)
    assert trace.times == [k * 0.1 for k in range(10)]
    # a period that divides the duration exactly does reach the endpoint
    spec = ScenarioSpec(
        name="s", kind="speed_ramp", duration=2.0, base_speed=1.0, sample_period=0.25
    )
    assert generate_scenario(spec).times[-1] == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "zigzag"},
        {"duration": 0.0},
        {"duration": -2.0},
        {"sample_period": 0.0},
        {"base_speed": -1.0},
        {"amplitude": float("inf")},
    ],
)
def test_scenario_validation(kwargs):
    base = dict(name="s", kind="sin", duration=10.0, base_speed=1.0, amplitude=0.1)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        generate_scenario(ScenarioSpec(**base))


def test_scenario_sample_count_is_capped(monkeypatch):
    from fieldsim import traces

    # 1.0 s at 0.25 s is 5 samples
    spec = ScenarioSpec(name="s", kind="sin", duration=1.0, base_speed=1.0, sample_period=0.25)
    monkeypatch.setattr(traces, "MAX_SCENARIO_SAMPLES", 5)
    assert len(generate_scenario(spec).times) == 5
    monkeypatch.setattr(traces, "MAX_SCENARIO_SAMPLES", 4)
    with pytest.raises(
        ConfigError, match=r"^scenario of 1\.0s at a 0\.25s sample period has 5 samples, over the cap of 4$"
    ):
        generate_scenario(spec)


# --- alignment --------------------------------------------------------------


def pos_trace(times, points, channels=("x", "y")):
    return TimedTrace(
        channels=list(channels),
        times=list(times),
        values=[[p[0], p[1]] for p in points],
    )


def test_align_interpolates_between_samples():
    reference = pos_trace([1.0], [(5.0, 5.0)])
    simulated = pos_trace([0.0, 2.0], [(0.0, 0.0), (2.0, 0.0)])
    out = align(reference, simulated)
    assert out.pairs == [(5.0, 5.0, 1.0, 0.0)]
    assert out.clamped == 0


def test_align_exact_times_take_exact_samples():
    simulated = pos_trace([0.0, 0.5, 1.0, 1.5], [(0, 0), (1, 2), (2, 4), (3, 6)])
    reference = pos_trace([0.5, 1.5], [(9.0, 9.0), (8.0, 8.0)])
    out = align(reference, simulated)
    assert out.pairs[0][2:] == (1.0, 2.0)
    assert out.pairs[1][2:] == (3.0, 6.0)
    assert out.clamped == 0


def test_align_clamps_and_counts_out_of_span_times():
    simulated = pos_trace([1.0, 2.0], [(10.0, 0.0), (20.0, 0.0)])
    reference = pos_trace([0.0, 1.5, 3.0, 4.0], [(0, 0)] * 4)
    out = align(reference, simulated)
    assert out.clamped == 3
    assert out.pairs[0][2:] == (10.0, 0.0)
    assert out.pairs[2][2:] == (20.0, 0.0)
    assert out.pairs[3][2:] == (20.0, 0.0)


def test_align_emits_one_pair_per_reference_row():
    simulated = pos_trace(
        [k * 0.01 for k in range(1001)], [(k * 0.01, 0.0) for k in range(1001)]
    )
    reference = pos_trace([0.0, 2.5, 7.5, 10.0], [(0, 0)] * 4)
    out = align(reference, simulated)
    assert len(out.pairs) == 4
    assert out.clamped == 0


def test_align_requires_simulated_rows():
    with pytest.raises(ConfigError, match="empty simulated"):
        align(pos_trace([0.0], [(0, 0)]), pos_trace([], []))


def test_align_empty_reference_gives_no_pairs():
    out = align(pos_trace([], []), pos_trace([0.0], [(1.0, 1.0)]))
    assert out == AlignedPair(pairs=[], clamped=0)


def test_align_matches_prefixed_channels():
    simulated = pos_trace([0.0, 1.0], [(0, 0), (1, 1)], channels=("veh.x", "veh.y"))
    reference = pos_trace([1.0], [(1.0, 1.0)])
    out = align(reference, simulated)
    assert out.pairs == [(1.0, 1.0, 1.0, 1.0)]


def test_position_channel_detection():
    assert position_channels(pos_trace([], [], channels=("x", "y"))) == ("x", "y")
    assert position_channels(pos_trace([], [], channels=("veh.x", "veh.y"))) == (
        "veh.x",
        "veh.y",
    )
    with pytest.raises(ConfigError, match="cannot identify position channels"):
        position_channels(
            TimedTrace(channels=["a.x", "b.x", "a.y"], times=[], values=[])
        )
    with pytest.raises(ConfigError, match="cannot identify position channels"):
        position_channels(TimedTrace(channels=["theta"], times=[], values=[]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_align_interpolation_stays_inside_segment_box(data):
    # interpolated positions never leave the bounding box of the two
    # samples around each reference time
    n = data.draw(st.integers(2, 8))
    sim_times = [float(k) for k in range(n)]
    coord = st.floats(-100, 100)
    sim_pts = [(data.draw(coord), data.draw(coord)) for _ in range(n)]
    t = data.draw(st.floats(0, n - 1))
    out = align(pos_trace([t], [(0.0, 0.0)]), pos_trace(sim_times, sim_pts))
    (_, _, xs, ys) = out.pairs[0]
    j = min(int(t), n - 2)
    lo_x, hi_x = sorted((sim_pts[j][0], sim_pts[j + 1][0]))
    lo_y, hi_y = sorted((sim_pts[j][1], sim_pts[j + 1][1]))
    assert lo_x - 1e-9 <= xs <= hi_x + 1e-9
    assert lo_y - 1e-9 <= ys <= hi_y + 1e-9
