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
from itertools import chain
from pathlib import Path
from typing import Sequence

from ._shared import read_csv_table
from .errors import ConfigError


def format_real(x: float) -> str:
    """Render a real for CSV output; 17 significant digits round-trip."""
    return f"{x:.17g}"


# rows that write_trace_csv formats with one % operation; it holds one such
# chunk's text at a time, not the table's
WRITE_CHUNK_ROWS = 1024


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
            if name in ("", "time") or "," in name:
                raise ConfigError(f"bad channel name {name!r}")
            if name in seen:
                raise ConfigError(f"duplicate channel name {name!r}")
            seen.add(name)
        if len(self.times) != len(self.values):
            raise ConfigError("times and values differ in length")
        arity = len(self.channels)
        prev = checked = None
        for t, row in zip(self.times, self.values):
            if not math.isfinite(t):
                raise ConfigError(f"non-finite time {t!r}")
            if prev is not None and t <= prev:
                raise ConfigError(f"times not strictly increasing at t={t!r}")
            prev = t
            if row is checked:  # a row object shared by consecutive times is checked once
                continue
            checked = row
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
    row = ",%.17g" * len(trace.channels) + "\n"  # format_real's digits
    line = "%.17g" + row
    times, values = trace.times, trace.values
    rest = max(len(values) - 1, 0)  # the rows from here on are all the last row object
    while rest and values[rest - 1] is values[-1]:
        rest -= 1
    with open(path, "w", newline="\n") as out:
        out.write(",".join(["time"] + trace.channels) + "\n")
        for lo in range(0, rest, WRITE_CHUNK_ROWS):
            hi = min(lo + WRITE_CHUNK_ROWS, rest)
            chunk = times[lo:hi]
            rows = zip(chunk, *zip(*values[lo:hi]))
            out.write(line * len(chunk) % tuple(chain.from_iterable(rows)))
        for lo in range(rest, len(times), WRITE_CHUNK_ROWS):  # a loop at rest records them: format it once
            chunk = times[lo:lo + WRITE_CHUNK_ROWS]
            out.write(("%.17g" + row % tuple(values[-1])) * len(chunk) % tuple(chunk))


def read_trace_csv(path: str | Path, expected_channels: Sequence[str] | None = None) -> TimedTrace:
    """Read a trace CSV written by :func:`write_trace_csv` or a recorder.

    If ``expected_channels`` is given the header must match it exactly,
    order included.  Diagnostics carry the offending line number.
    """
    path = Path(path)
    header, lines = read_csv_table(path)
    if header[0] != "time":
        raise ConfigError(f"{path}:1: header must start with 'time', got {','.join(header)!r}")
    channels = header[1:]
    if expected_channels is not None and channels != list(expected_channels):
        raise ConfigError(
            f"{path}:1: expected channels {list(expected_channels)}, got {channels}"
        )
    times: list[float] = []
    values: list[list[float]] = []
    for lineno, (t, *row) in lines:
        if times and t <= times[-1]:
            raise ConfigError(f"{path}:{lineno}: time {t!r} not after {times[-1]!r}")
        times.append(t)
        values.append(row)
    return TimedTrace(channels=channels, times=times, values=values)


# --- scenario generation ----------------------------------------------------

SCENARIO_KINDS = ("sin", "turn_ramp", "speed_ramp", "speed_step")
COMMAND_CHANNELS = ("velocity", "delta_f")  # a command trace's channels, in order
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
    return TimedTrace(channels=list(COMMAND_CHANNELS), times=times, values=rows)


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


def align_slots(
    ref_times: list[float], sim_times: list[float]
) -> tuple[list[tuple[int, float | None]], int]:
    """Where each reference time falls among increasing simulated times.

    A slot ``(j, None)`` takes simulated row ``j`` as it is; ``(j, w)``
    interpolates ``x[j] + w * (x[j + 1] - x[j])``.  Times before the first
    or after the last simulated time take that endpoint; the second
    result counts them.  ``sim_times`` must not be empty.
    """
    slots: list[tuple[int, float | None]] = []
    clamped = 0
    first, last = sim_times[0], len(sim_times) - 1
    for t in ref_times:
        if t <= first:
            if t < first:
                clamped += 1
            slots.append((0, None))
        elif t >= sim_times[last]:
            if t > sim_times[last]:
                clamped += 1
            slots.append((last, None))
        else:
            j = bisect_right(sim_times, t) - 1
            t0 = sim_times[j]
            slots.append((j, None) if t == t0 else (j, (t - t0) / (sim_times[j + 1] - t0)))
    return slots, clamped


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
    sim_x = simulated.column(sx)
    sim_y = simulated.column(sy)
    slots, clamped = align_slots(reference.times, simulated.times)

    pairs: list[tuple[float, float, float, float]] = []
    for (j, w), x, y in zip(slots, reference.column(rx), reference.column(ry)):
        if w is None:
            pairs.append((x, y, sim_x[j], sim_y[j]))
        else:
            pairs.append((
                x, y,
                sim_x[j] + w * (sim_x[j + 1] - sim_x[j]),
                sim_y[j] + w * (sim_y[j + 1] - sim_y[j]),
            ))
    return AlignedPair(pairs=pairs, clamped=clamped)
