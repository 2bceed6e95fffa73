"""Trace IO, scenario generation and trajectory alignment tests."""

import math
import tempfile
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim.errors import ConfigError
from fieldsim.traces import (
    WRITE_CHUNK_ROWS,
    AlignedPair,
    ScenarioSpec,
    TimedTrace,
    align,
    align_slots,
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


def format_real_join(trace):
    """A trace's CSV bytes as one ``format_real`` call per value gives them."""
    lines = [",".join(["time"] + trace.channels)]
    for t, row in zip(trace.times, trace.values):
        lines.append(",".join([format_real(t)] + [format_real(v) for v in row]))
    return ("\n".join(lines) + "\n").encode()


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, -0.1, 3, -7, 0, 2**60, -(2**60), 1.0, 123456.789e-300]


@pytest.mark.parametrize("channels", [["a.x", "b.y", "c"], []])
@pytest.mark.parametrize("n_rows", [
    0, 1, 2, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1, 2 * WRITE_CHUNK_ROWS + 3,
])
def test_csv_bytes_are_the_per_value_format_real_join(tmp_path, channels, n_rows):
    # every row differs from its neighbours, so a chunk boundary that drops or
    # repeats a row changes the bytes; times mix ints and floats, up to 2**60
    times = [k if k % 2 else k + 0.25 for k in range(n_rows - 1)] + [2**60] * (n_rows > 0)
    values = [
        [EDGE_VALUES[(k + 5 * j) % len(EDGE_VALUES)] for j in range(len(channels))]
        for k in range(n_rows)
    ]
    trace = TimedTrace(channels=channels, times=times, values=values)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == format_real_join(trace)


@pytest.mark.parametrize("channels", [["a.x", "b.y", "c"], []])
@pytest.mark.parametrize("n_rows,shared_from", [
    (1, 0), (2, 0), (2, 1), (7, 3), (WRITE_CHUNK_ROWS + 2, 0), (WRITE_CHUNK_ROWS + 2, 2),
    (2 * WRITE_CHUNK_ROWS + 3, WRITE_CHUNK_ROWS - 1), (3 * WRITE_CHUNK_ROWS, 2 * WRITE_CHUNK_ROWS + 1),
])
def test_csv_bytes_of_a_shared_tail_row_are_the_per_value_format_real_join(
    tmp_path, channels, n_rows, shared_from
):
    # a loop at rest records one row object from some row on; a row before
    # it that is equal to it but is another object, and a row object shared
    # before the tail, are formatted as any other row
    times = [k if k % 2 else k + 0.25 for k in range(n_rows)]
    values = [
        [EDGE_VALUES[(k + 5 * j) % len(EDGE_VALUES)] for j in range(len(channels))]
        for k in range(n_rows)
    ]
    tail = [EDGE_VALUES[j % len(EDGE_VALUES)] for j in range(len(channels))]  # -0.0, 0.0, ...
    values[shared_from:] = [tail] * (n_rows - shared_from)
    if shared_from >= 2:
        values[shared_from - 1] = [-v if v == 0 else v for v in tail]  # == tail, other bytes
        values[0] = values[1]
    trace = TimedTrace(channels=channels, times=times, values=values)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == format_real_join(trace)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(finite, min_size=2, max_size=2), max_size=40))
def test_csv_bytes_of_any_reals_are_the_per_value_format_real_join(rows):
    trace = TimedTrace(channels=["a", "b"], times=list(range(len(rows))), values=rows)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == format_real_join(trace)


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
        # each header column needs its own name; the header is reported before a bad line
        ("time,a,a\n0,x\n", 1, "header names column 'a' more than once"),
        ("time,time\n0,x\n", 1, "header names column 'time' more than once"),
        ("time,a,\n0,x\n", 1, "header has an empty column name"),
        ("time,,a\n0,x\n", 1, "header has an empty column name"),
    ],
)
def test_read_diagnostics_carry_line_numbers(tmp_path, body, lineno, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigError, match=f"{lineno}: {fragment}"):
        read_trace_csv(path)


def test_read_rejects_an_empty_file_and_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match=r"t\.csv: empty file, expected a header line"):
        read_trace_csv(path)
    path.write_text("time,a\n0,1\n\n  \n1,2\n")
    trace = read_trace_csv(path)
    assert (trace.times, trace.values) == ([0.0, 1.0], [[1.0], [2.0]])


def test_read_rejects_missing_time_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n")
    with pytest.raises(ConfigError, match="header must start with 'time'"):
        read_trace_csv(path)


def test_a_channel_named_time_is_not_written(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError, match="bad channel name 'time'"):
        write_trace_csv(TimedTrace(["time"], [0.0], [[1.0]]), path)
    assert not path.exists()


def test_validate_catches_structural_problems():
    with pytest.raises(ConfigError, match="duplicate channel"):
        TimedTrace(["a", "a"], [0.0], [[1.0, 2.0]]).validate()
    with pytest.raises(ConfigError, match="strictly increasing"):
        TimedTrace(["a"], [0.0, 0.0], [[1.0], [1.0]]).validate()
    with pytest.raises(ConfigError, match="2 values, expected 1"):
        TimedTrace(["a"], [0.0], [[1.0, 2.0]]).validate()
    with pytest.raises(ConfigError, match="times and values differ in length"):
        TimedTrace(["a"], [0.0, 1.0], [[1.0]]).validate()
    with pytest.raises(ConfigError, match="non-finite time nan"):
        TimedTrace(["a"], [0.0, math.nan], [[1.0], [1.0]]).validate()
    with pytest.raises(ConfigError, match="non-finite value at t=1.0"):
        TimedTrace(["a"], [0.0, 1.0], [[1.0], [-math.inf]]).validate()
    with pytest.raises(ConfigError, match="no channel"):
        TimedTrace(["a"], [], []).column("b")


def test_validate_checks_a_shared_row_and_every_time():
    row = [1.0]
    TimedTrace(["a"], [0.0, 1.0, 2.0], [[0.0], row, row]).validate()
    with pytest.raises(ConfigError, match="non-finite value at t=1.0"):
        TimedTrace(["a"], [0.0, 1.0, 2.0], [[0.0]] + [[math.inf]] * 2).validate()
    with pytest.raises(ConfigError, match="row at t=0.0 has 2 values, expected 1"):
        TimedTrace(["a"], [0.0, 1.0], [[1.0, 2.0]] * 2).validate()
    with pytest.raises(ConfigError, match="strictly increasing at t=1.0"):
        TimedTrace(["a"], [0.0, 1.0, 1.0], [row] * 3).validate()
    with pytest.raises(ConfigError, match="non-finite time inf"):
        TimedTrace(["a"], [0.0, math.inf], [row] * 2).validate()


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


def bisect_align(reference: TimedTrace, simulated: TimedTrace) -> AlignedPair:
    """``align`` as it was before its slots were split out: the oracle below."""
    if not simulated.times:
        raise ConfigError("cannot align against an empty simulated trace")
    rx, ry = position_channels(reference)
    sx, sy = position_channels(simulated)
    ref_x = reference.column(rx)
    ref_y = reference.column(ry)
    sim_x = simulated.column(sx)
    sim_y = simulated.column(sy)
    sim_t = simulated.times

    pairs: list[tuple[float, float, float, float]] = []
    clamped = 0
    last = len(sim_t) - 1
    for i, t in enumerate(reference.times):
        if t <= sim_t[0]:
            if t < sim_t[0]:
                clamped += 1
            xs, ys = sim_x[0], sim_y[0]
        elif t >= sim_t[last]:
            if t > sim_t[last]:
                clamped += 1
            xs, ys = sim_x[last], sim_y[last]
        else:
            j = bisect_right(sim_t, t) - 1
            t0, t1 = sim_t[j], sim_t[j + 1]
            if t == t0:
                xs, ys = sim_x[j], sim_y[j]
            else:
                w = (t - t0) / (t1 - t0)
                xs = sim_x[j] + w * (sim_x[j + 1] - sim_x[j])
                ys = sim_y[j] + w * (sim_y[j + 1] - sim_y[j])
        pairs.append((ref_x[i], ref_y[i], xs, ys))
    return AlignedPair(pairs=pairs, clamped=clamped)


@st.composite
def alignment_case(draw):
    """Simulated rows on a ``k * h`` or an irregular grid, and reference times
    before it, after it, on its rows and between them."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        h = draw(st.sampled_from([0.01, 0.02, 0.1, 0.25, 1.0 / 3.0]))
        sim_t = [k * h for k in range(n)]
    else:
        gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
        sim_t = [draw(st.floats(-5.0, 5.0))]
        for gap in gaps:
            sim_t.append(sim_t[-1] + gap)
        sim_t = sorted(set(sim_t))
    span = sim_t[-1] - sim_t[0] + 1.0
    kinds = st.one_of(
        st.floats(sim_t[0] - span, sim_t[0]),
        st.floats(sim_t[-1], sim_t[-1] + span),
        st.sampled_from(sim_t),
        st.tuples(st.integers(0, len(sim_t) - 1), st.floats(0.0, 1.0)).map(
            lambda c: sim_t[c[0]] + c[1] * (sim_t[min(c[0] + 1, len(sim_t) - 1)] - sim_t[c[0]])
        ),
    )
    ref_t = sorted(set(draw(st.lists(kinds, max_size=25))))
    coord = st.floats(-1e3, 1e3)
    sim = pos_trace(sim_t, [(draw(coord), draw(coord)) for _ in sim_t], ("veh.x", "veh.y"))
    ref = pos_trace(ref_t, [(draw(coord), draw(coord)) for _ in ref_t])
    return ref, sim


@settings(max_examples=300, deadline=None)
@given(alignment_case())
def test_align_and_its_slots_match_the_bisect_oracle(case):
    reference, simulated = case
    expected = bisect_align(reference, simulated)
    assert align(reference, simulated) == expected

    slots, clamped = align_slots(reference.times, simulated.times)
    assert clamped == expected.clamped
    x, y = simulated.column("veh.x"), simulated.column("veh.y")
    at = [
        (x[j], y[j]) if w is None else (x[j] + w * (x[j + 1] - x[j]), y[j] + w * (y[j + 1] - y[j]))
        for j, w in slots
    ]
    assert at == [pair[2:] for pair in expected.pairs]
