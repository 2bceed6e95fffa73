"""Timed multi-channel traces: CSV I/O, scenario generation, alignment.

A :class:`TimedTrace` is the common currency between the orchestrator,
the recorded-drive ingestion path and the sweep objective: a list of
channel names plus rows of (time, values).  CSV files round-trip
exactly because reals are printed with 17 significant digits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError


def format_real(x: float) -> str:
    """Render a real for CSV output; 17 significant digits round-trip."""
    return f"{x:.17g}"


@dataclass
class TimedTrace:
    """Channel names plus parallel time/value rows.

    ``values[i]`` holds one float per channel at ``times[i]``.  Times are
    strictly increasing and every value is finite.
    """

    channels: list[str]
    times: list[float]
    values: list[list[float]]

    def validate(self) -> None:
        seen = set()
        for name in self.channels:
            if not name or "," in name:
                raise ConfigError(f"bad channel name {name!r}")
            if name in seen:
                raise ConfigError(f"duplicate channel name {name!r}")
            seen.add(name)
        if len(self.times) != len(self.values):
            raise ConfigError("times and values differ in length")
        arity = len(self.channels)
        prev = None
        for t, row in zip(self.times, self.values):
            if not math.isfinite(t):
                raise ConfigError(f"non-finite time {t!r}")
            if prev is not None and t <= prev:
                raise ConfigError(f"times not strictly increasing at t={t!r}")
            prev = t
            if len(row) != arity:
                raise ConfigError(f"row at t={t!r} has {len(row)} values, expected {arity}")
            for v in row:
                if not math.isfinite(v):
                    raise ConfigError(f"non-finite value at t={t!r}")

    def column(self, channel: str) -> list[float]:
        try:
            i = self.channels.index(channel)
        except ValueError:
            raise ConfigError(f"no channel {channel!r}; have {self.channels}") from None
        return [row[i] for row in self.values]


def write_trace_csv(trace: TimedTrace, path: str | Path) -> None:
    """Write a trace as CSV: header ``time,<ch>,...``, LF line endings."""
    trace.validate()
    lines = [",".join(["time"] + trace.channels)]
    for t, row in zip(trace.times, trace.values):
        lines.append(",".join([format_real(t)] + [format_real(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_trace_csv(path: str | Path, expected_channels: list[str] | None = None) -> TimedTrace:
    """Read a trace CSV written by :func:`write_trace_csv` or a recorder.

    If ``expected_channels`` is given the header must match it exactly,
    order included.  Diagnostics carry the offending line number.
    """
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    if header[:1] != ["time"]:
        raise ConfigError(f"{path}:1: header must start with 'time', got {lines[0]!r}")
    channels = header[1:]
    if expected_channels is not None and channels != list(expected_channels):
        raise ConfigError(
            f"{path}:1: expected channels {list(expected_channels)}, got {channels}"
        )
    times: list[float] = []
    values: list[list[float]] = []
    arity = len(channels)
    prev = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != arity + 1:
            raise ConfigError(
                f"{path}:{lineno}: expected {arity + 1} fields, got {len(parts)}"
            )
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed number in {line!r}") from None
        t, row = nums[0], nums[1:]
        if not all(math.isfinite(v) for v in nums):
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        if prev is not None and t <= prev:
            raise ConfigError(f"{path}:{lineno}: time {t!r} not after {prev!r}")
        prev = t
        times.append(t)
        values.append(row)
    return TimedTrace(channels=channels, times=times, values=values)


# --- scenario generation ----------------------------------------------------

SCENARIO_KINDS = ("sin", "turn_ramp", "speed_ramp", "speed_step")
# A generated sample costs about 136 bytes in memory, so this is about 136 MB.
MAX_SCENARIO_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic manoeuvre: kind, duration and shape parameters."""

    name: str
    kind: str
    duration: float
    base_speed: float
    amplitude: float = 0.0
    sample_period: float = 0.1


def generate_scenario(spec: ScenarioSpec) -> TimedTrace:
    """Produce a (velocity, delta_f) command trace for one manoeuvre.

    Kinds:

    * ``sin``: constant speed, steering ``amplitude * sin(2*pi*t/period)``
      with three full cycles over the run (period = duration / 3).
    * ``turn_ramp``: constant speed, steering ramps 0 -> amplitude.
    * ``speed_ramp``: straight, speed ramps 0 -> base_speed.
    * ``speed_step``: straight, speed steps through four equal plateaus
      0.25*base_speed .. base_speed.

    Samples lie on the grid k * sample_period within [0, duration].
    """
    if spec.kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"unknown scenario kind {spec.kind!r}; known: {', '.join(SCENARIO_KINDS)}"
        )
    if not (math.isfinite(spec.duration) and spec.duration > 0):
        raise ConfigError(f"scenario duration must be positive, got {spec.duration!r}")
    if not (math.isfinite(spec.sample_period) and spec.sample_period > 0):
        raise ConfigError(f"sample period must be positive, got {spec.sample_period!r}")
    if not (math.isfinite(spec.base_speed) and spec.base_speed >= 0):
        raise ConfigError(f"base speed must be non-negative, got {spec.base_speed!r}")
    if not math.isfinite(spec.amplitude):
        raise ConfigError("amplitude must be finite")

    # exact count of sample instants inside [0, duration]
    n = int(Fraction(spec.duration) / Fraction(spec.sample_period))
    if n + 1 > MAX_SCENARIO_SAMPLES:
        raise ConfigError(
            f"scenario of {spec.duration}s at a {spec.sample_period}s sample period has "
            f"{n + 1} samples, over the cap of {MAX_SCENARIO_SAMPLES}"
        )
    times = [k * spec.sample_period for k in range(n + 1)]

    period = spec.duration / 3.0
    rows: list[list[float]] = []
    for t in times:
        if spec.kind == "sin":
            v = spec.base_speed
            d = spec.amplitude * math.sin(2.0 * math.pi * t / period)
        elif spec.kind == "turn_ramp":
            v = spec.base_speed
            d = spec.amplitude * (t / spec.duration)
        elif spec.kind == "speed_ramp":
            v = spec.base_speed * (t / spec.duration)
            d = 0.0
        else:  # speed_step
            plateau = min(3, int(4.0 * t / spec.duration))
            v = 0.25 * spec.base_speed * (plateau + 1)
            d = 0.0
        rows.append([v, d])
    return TimedTrace(channels=["velocity", "delta_f"], times=times, values=rows)


# --- alignment ---------------------------------------------------------------


@dataclass
class AlignedPair:
    """Reference positions paired with simulated positions at the same times.

    ``pairs`` holds (x_ref, y_ref, x_sim, y_sim) per reference row;
    ``clamped`` counts reference times outside the simulated time span,
    where the nearest simulated endpoint was used instead.
    """

    pairs: list[tuple[float, float, float, float]]
    clamped: int


def position_channels(trace: TimedTrace) -> tuple[str, str]:
    """Find the x/y position channels: exact names first, then suffixes."""
    if "x" in trace.channels and "y" in trace.channels:
        return "x", "y"
    xs = [c for c in trace.channels if c.endswith(".x")]
    ys = [c for c in trace.channels if c.endswith(".y")]
    if len(xs) == 1 and len(ys) == 1:
        return xs[0], ys[0]
    raise ConfigError(
        f"cannot identify position channels among {trace.channels}; "
        "need 'x'/'y' or a unique '<name>.x'/'<name>.y' pair"
    )


def align(reference: TimedTrace, simulated: TimedTrace) -> AlignedPair:
    """Pair every reference row with the simulated position at its time.

    Simulated positions are linearly interpolated at each reference time;
    times before the first or after the last simulated row clamp to the
    nearest endpoint and are counted in ``clamped``.  The result always
    has one pair per reference row, regardless of simulated density.
    """
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
