"""Design-space exploration: exhaustive parameter sweeps over recorded drives.

A sweep config names a multi-model, a list of manoeuvre scenarios (each
a command trace to replay plus a reference position trace), and one or
more parameter grids.  Every grid assignment is simulated against every
scenario; the objective per run is the cross-track error between the
reference positions and the simulated path, and the calibration result
is the assignment minimising the error summed over scenarios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain, product
from operator import add
from pathlib import Path
from sys import float_info
from typing import Iterable, Mapping

from ._shared import check_kind, check_object, fan_out, is_plain_name, read_csv_table, read_json, worker_count
from .errors import ConfigError, SimulationError
from .orchestrator import (
    MAX_RECORDED_VALUES,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    load_multimodel,
    lockstep_cosim,
    run_cosim,  # unused here, as is align: perfbench's tracer wraps dse.run_cosim and dse.align
    write_results_csv,
)
from .simunit import UnitRegistry
from .traces import (
    COMMAND_CHANNELS,
    AlignedPair,
    TimedTrace,
    align,
    align_slots,
    format_real,
    position_channels,
    read_trace_csv,
)
from .units import default_registry, replay_factory

ParameterSpace = dict[str, list[float]]
ParameterAssignment = dict[str, float]


def cross_track_error(pair: AlignedPair) -> tuple[float, float]:
    """Mean and maximum point distance between paired positions.

    The mean is the plain average of the Euclidean distances
    sqrt((x2-x1)**2 + (y2-y1)**2) over all pairs.
    """
    if not pair.pairs:
        raise ConfigError("cannot compute cross-track error of an empty alignment")
    total = 0.0
    worst = 0.0
    for x1, y1, x2, y2 in pair.pairs:
        dx = x2 - x1
        dy = y2 - y1
        d = math.sqrt(dx * dx + dy * dy)
        total += d
        if d > worst:
            worst = d
    return total / len(pair.pairs), worst


def expand_grid(space: ParameterSpace) -> list[ParameterAssignment]:
    """Cartesian product of the value lists, lexicographic in key order.

    The first key varies slowest; within one key, values keep list order
    and must be distinct.
    """
    names = list(space)
    for name, values in space.items():
        if not values:
            raise ConfigError(f"parameter {name!r} has an empty value list")
        seen: set[float] = set()
        for v in values:
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)):
                raise ConfigError(f"parameter {name!r}: bad value {v!r}")
            if v in seen:
                raise ConfigError(f"parameter {name!r}: value {v!r} appears more than once")
            seen.add(v)
    return [dict(zip(names, combo)) for combo in product(*space.values())]


# a sweep holds one row per run: 72 bytes with slots, 112 without, plus 48 for
# scores that it shares with no other row (see _lockstep_scores), and one grid
# assignment per point: 192 bytes with three parameters, so 0.6 GB at the budget
MAX_SWEEP_RUNS = 2_000_000


@dataclass(slots=True)
class SweepRow:
    """Objective of one (scenario, assignment) run."""

    scenario: str
    assignment: ParameterAssignment
    mean_error: float
    max_error: float


@dataclass
class DseConfig:
    """Parsed sweep configuration.

    ``parameters`` keys are rendered port references (``instance.port``);
    ``scenario_files`` maps each scenario name to its command-input and
    reference-trace CSV paths.  ``warnings`` records tolerated legacy
    keys that were parsed and ignored.
    """

    algorithm: str
    parameters: ParameterSpace
    scenarios: list[str]
    multi_model: MultiModelConfig | None = None
    scenario_files: dict[str, tuple[Path, Path]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _parse_grid_value(name: str, value) -> float:
    """Accept plain numbers or strings with a 'k' (x1000) suffix."""
    if isinstance(value, bool):
        raise ConfigError(f"parameter {name!r}: bad value {value!r}")
    if isinstance(value, (int, float)):
        out = float(value) if abs(value) <= float_info.max else math.inf  # float() overflows past it
    elif isinstance(value, str):
        text = value.strip()
        scale = 1.0
        if text.endswith(("k", "K")):
            text = text[:-1]
            scale = 1000.0
        try:
            out = float(text) * scale
        except ValueError:
            raise ConfigError(f"parameter {name!r}: cannot parse value {value!r}") from None
    else:
        raise ConfigError(f"parameter {name!r}: bad value {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"parameter {name!r}: non-finite value {value!r}")
    return out


def _parse_scenarios(raw) -> list[str]:
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        raise ConfigError("'scenarios' must be a list of names")
    names: list[str] = []
    for item in raw:
        if not isinstance(item, str):
            raise ConfigError(f"scenario name {item!r} is not a string")
        # a single comma-joined string is accepted as a list of names
        names.extend(part.strip() for part in item.split(",") if part.strip())
    for name in names:  # each names its artifacts directory and a table field
        if not is_plain_name(name):
            raise ConfigError(f"bad scenario name {name!r}")
    if not names:
        raise ConfigError("no scenarios named")
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    return names


def read_dse_config(path: str | Path) -> DseConfig:
    """Parse a sweep configuration document.

    Only the exhaustive algorithm is supported.  The keys
    ``objectiveDefinitions``, ``externalScripts`` and
    ``parameterConstraints`` are tolerated for compatibility with older
    project files but ignored (a warning is recorded on the returned
    config).  Relative file paths resolve against the config file's
    directory.
    """
    path = Path(path)
    tolerated = ("objectiveDefinitions", "externalScripts", "parameterConstraints")
    doc = check_object(str(path), read_json(path), ("algorithm", "parameters", "scenarios"),
                       ("multiModel", "scenarioFiles", *tolerated))

    algorithm = doc["algorithm"]
    if isinstance(algorithm, dict):
        algorithm = algorithm.get("type")
    if not isinstance(algorithm, str):
        raise ConfigError(f"{path}: 'algorithm' must name the search type")
    if algorithm != "exhaustive":
        raise ConfigError(f"{path}: unsupported algorithm {algorithm!r}; only 'exhaustive'")

    if not isinstance(doc["parameters"], dict) or not doc["parameters"]:
        raise ConfigError(f"{path}: 'parameters' must be a non-empty object")
    parameters: ParameterSpace = {}
    try:
        for ref_text, values in doc["parameters"].items():
            ref = PortRef.parse(ref_text)  # normalises multi-segment references
            if not isinstance(values, list) or not values:
                raise ConfigError(f"parameter {ref_text!r} needs a non-empty value list")
            parameters[ref.render()] = [_parse_grid_value(ref_text, v) for v in values]
        scenarios = _parse_scenarios(doc["scenarios"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    warnings = [f"key {key!r} is not interpreted; ignoring it" for key in sorted(doc.keys() & tolerated)]

    def file_at(value, key: str) -> Path:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: {key} must be a file path string, got {value!r}")
        return path.parent / value

    multi_model = load_multimodel(file_at(doc["multiModel"], "'multiModel'")) if "multiModel" in doc else None

    scenario_files: dict[str, tuple[Path, Path]] = {}
    for name, entry in check_kind(str(path), "scenarioFiles", doc.get("scenarioFiles", {}), dict).items():
        entry = check_object(f"{path}: scenarioFiles[{name!r}]", entry, ("inputs", "reference"))
        scenario_files[name] = (
            file_at(entry["inputs"], f"scenarioFiles[{name!r}].inputs"),
            file_at(entry["reference"], f"scenarioFiles[{name!r}].reference"),
        )

    return DseConfig(
        algorithm=algorithm,
        parameters=parameters,
        scenarios=scenarios,
        multi_model=multi_model,
        scenario_files=scenario_files,
        warnings=warnings,
    )


# --- sweep execution ---------------------------------------------------------


def _apply_assignment(mm: MultiModelConfig, assignment: ParameterAssignment) -> MultiModelConfig:
    instances = dict(mm.instances)
    for ref_text, value in assignment.items():
        ref = PortRef.parse(ref_text)
        spec = instances[ref.instance]
        instances[ref.instance] = InstanceSpec(
            spec.unit_type, {**dict(spec.parameters), ref.port: value}
        )
    return replace(mm, instances=instances)


def _lockstep_scores(
    mm: MultiModelConfig,
    registry: UnitRegistry,
    reference: TimedTrace,
    assignments: list[ParameterAssignment],
    run_dirs: list[Path] | None = None,
) -> list[tuple[float, float]]:
    """``cross_track_error(align(reference, ...))`` of each point, run in lock-step.

    Each reference row is scored as soon as the simulated rows it needs
    exist, in reference order and with the arithmetic of :func:`align` and
    :func:`cross_track_error`, so the scores are theirs exactly.  With
    ``run_dirs`` the slice keeps its rows (over ``MAX_RECORDED_VALUES``
    values, :class:`ConfigError` before the first step) and after the last
    one writes point ``p``'s files to ``run_dirs[p]``; without, it keeps
    only the last two rows of each point.
    """
    if not reference.times:
        raise ConfigError("cannot compute cross-track error of an empty alignment")
    channels, times, rows = lockstep_cosim(
        [_apply_assignment(mm, a) for a in assignments], registry
    )
    n = len(assignments)
    if run_dirs is not None:
        if len(times) * len(channels) * n > MAX_RECORDED_VALUES:
            raise ConfigError(f"a slice of {n} runs would record over {MAX_RECORDED_VALUES} values")
        rows = list(rows)
    sx, sy = position_channels(TimedTrace(channels, [], []))
    ix, iy = channels.index(sx), channels.index(sy)
    rx, ry = position_channels(reference)
    # due[k]: the reference rows scored once row k exists
    due: list[list[tuple[float, float, float | None]]] = [[] for _ in times]
    slots, _ = align_slots(reference.times, times)
    for (j, w), x, y in zip(slots, reference.column(rx), reference.column(ry)):
        due[j if w is None else j + 1].append((x, y, w))

    totals = [0.0] * n
    worst = [0.0] * n
    sqrt = math.sqrt
    for k, row in enumerate(rows):
        xs, ys = row[ix * n:ix * n + n], row[iy * n:iy * n + n]
        for x_ref, y_ref, w in due[k]:
            if w is None:
                at_x, at_y = xs, ys
            else:
                at_x = [a + w * (b - a) for a, b in zip(last_x, xs)]
                at_y = [a + w * (b - a) for a, b in zip(last_y, ys)]
            ds = [
                sqrt((x - x_ref) * (x - x_ref) + (y - y_ref) * (y - y_ref))
                for x, y in zip(at_x, at_y)
            ]
            totals = list(map(add, totals, ds))
            worst = [d if d > m else m for m, d in zip(worst, ds)]
        last_x, last_y = xs, ys
    count = len(reference.times)
    scores = [(total / count, m) for total, m in zip(totals, worst)]
    # equal scores share one tuple, which pickle sends once; no score is -0.0
    # (a distance is the sqrt of a sum of squares), so value keys merge no bits
    same: dict[tuple[float, float], tuple[float, float]] = {}
    scores = [same.setdefault(s, s) for s in scores]
    for p, run_dir in enumerate(run_dirs or ()):
        run_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(TimedTrace(channels, times, [row[p::n] for row in rows]), run_dir / "results.csv")
        write_objectives_json(run_dir / "objectives.json", *scores[p])
    return scores


def _check_positions(what: str | Path, trace: TimedTrace) -> None:
    """Fail before any run unless ``trace`` has position channels; name it ``what``."""
    try:
        position_channels(trace)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _run_task(task) -> list[tuple[float, float]]:
    """Score one scenario's grid slice and write its artifacts; used by worker processes too.

    The slice runs in lock-step, or it runs in halves, first half first,
    until each fits: when lock-step declines a part, its rows would exceed
    the artifact budget or it fails, that part runs as its two halves in
    grid order and through the same function.  Each copy runs as it would
    alone, so a part fails exactly when one of its points does: the first
    failing point raises its own error when it runs alone, the points
    before it have written their files and no point after it runs.
    """
    mm, inputs_path, reference_path, assignments, run_dirs = task
    inputs_trace = read_trace_csv(inputs_path, COMMAND_CHANNELS)
    reference = read_trace_csv(reference_path)
    _check_positions(reference_path, reference)
    registry = default_registry()
    registry.register("replay", replay_factory(inputs_trace))

    def scores(lo: int, hi: int) -> list[tuple[float, float]]:
        try:
            return _lockstep_scores(mm, registry, reference, assignments[lo:hi], run_dirs and run_dirs[lo:hi])
        except (ConfigError, SimulationError):
            if hi - lo == 1:
                raise
        mid = (lo + hi) // 2
        return scores(lo, mid) + scores(mid, hi)

    return scores(0, len(assignments))


def run_sweep(
    config: DseConfig,
    workers: int = 1,
    artifacts_dir: str | Path | None = None,
) -> list[SweepRow]:
    """Simulate every scenario under every grid assignment.

    Rows come back scenario-major in config order, assignments in
    :func:`expand_grid` order within each scenario, independent of the
    worker count, so repeated sweeps are reproducible byte for byte.
    Each scenario's grid is cut into contiguous slices, enough for every
    worker to get one; a slice is one task.  There are no more workers than
    CPUs this process may run on.
    """
    if config.multi_model is None:
        raise ConfigError("sweep config names no multi-model")
    missing = [s for s in config.scenarios if s not in config.scenario_files]
    if missing:
        raise ConfigError(f"no trace files for scenarios: {', '.join(missing)}")

    outputs = [ref.render() for ref in config.multi_model.outputs]
    _check_positions("multi-model outputs", TimedTrace(outputs, [], []))

    runs = math.prod(map(len, config.parameters.values())) * len(config.scenarios)
    if runs > MAX_SWEEP_RUNS:
        raise ConfigError(f"sweep of {runs} runs exceeds the budget of {MAX_SWEEP_RUNS} runs")
    grid = expand_grid(config.parameters)
    for ref_text in config.parameters:
        ref = PortRef.parse(ref_text)
        if ref.instance not in config.multi_model.instances:
            raise ConfigError(f"parameter {ref_text!r}: no instance {ref.instance!r} in multi-model")

    workers = worker_count(workers)
    slices = max(1, min(len(grid), math.ceil(workers / max(1, len(config.scenarios)))))
    bounds = [len(grid) * i // slices for i in range(slices + 1)]
    tasks = []
    for scenario in config.scenarios:
        inputs_path, reference_path = config.scenario_files[scenario]
        if not Path(inputs_path).is_file():
            raise ConfigError(f"scenario {scenario!r}: missing inputs file {inputs_path}")
        if not Path(reference_path).is_file():
            raise ConfigError(f"scenario {scenario!r}: missing reference file {reference_path}")
        if artifacts_dir is not None:  # runs write as they go, so check every file first
            read_trace_csv(inputs_path, COMMAND_CHANNELS)
            _check_positions(reference_path, read_trace_csv(reference_path))
        for lo, hi in zip(bounds, bounds[1:]):
            run_dirs = None
            if artifacts_dir is not None:
                run_dirs = [Path(artifacts_dir) / scenario / f"run_{gi:04d}" for gi in range(lo, hi)]
            tasks.append(
                (config.multi_model, str(inputs_path), str(reference_path), grid[lo:hi], run_dirs)
            )

    outcomes = chain.from_iterable(fan_out(_run_task, tasks, workers))
    return [
        SweepRow(scenario, assignment, mean_error, max_error)
        for (scenario, assignment), (mean_error, max_error)
        in zip(product(config.scenarios, grid), outcomes)
    ]


# --- calibration and ranking -------------------------------------------------


def _assignment_key(assignment: ParameterAssignment, names: list[str]) -> tuple[float, ...]:
    try:
        return tuple(assignment[n] for n in names)
    except KeyError as exc:
        raise ConfigError(f"row is missing parameter {exc.args[0]!r}") from None


def optimize(
    rows: Iterable[SweepRow], space: ParameterSpace | None = None
) -> tuple[ParameterAssignment, float]:
    """Pick the assignment with the smallest error summed over scenarios.

    The table must be a complete grid: every assignment present for every
    scenario.  Ties keep the assignment that enumerates first (strictly
    smaller sums win); enumeration order is the grid order of ``space``
    when given, otherwise the assignment order of the first scenario
    block in the table.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("cannot optimize an empty result table")
    names = list(space) if space is not None else list(rows[0].assignment)

    per_scenario: dict[str, dict[tuple[float, ...], float]] = {}
    for row in rows:
        key = _assignment_key(row.assignment, names)
        if len(row.assignment) != len(names):
            raise ConfigError(f"row has parameters {list(row.assignment)}, expected {names}")
        block = per_scenario.setdefault(row.scenario, {})
        if key in block:
            raise ConfigError(f"duplicate row for scenario {row.scenario!r}, assignment {key}")
        block[key] = row.mean_error

    if space is not None:
        order = [_assignment_key(a, names) for a in expand_grid(space)]
    else:
        first = rows[0].scenario
        order = list(per_scenario[first])
    expected = set(order)
    for scenario, block in per_scenario.items():
        if set(block) != expected:
            raise ConfigError(f"scenario {scenario!r} does not cover the same grid as the others")

    # block by block, not sum(): from Python 3.12 on sum() rounds float sums differently
    totals = [0.0] * len(order)
    for block in per_scenario.values():
        totals = list(map(add, totals, map(block.__getitem__, order)))
    best = min(
        (i for i, total in enumerate(totals) if total < math.inf), key=totals.__getitem__, default=None
    )
    if best is None:
        raise ConfigError("no assignment has a finite summed error")
    return dict(zip(names, order[best])), totals[best]


def pareto_rank(rows: Iterable[SweepRow]) -> list[SweepRow]:
    """Rows not strictly dominated on (mean_error, max_error), both minimised.

    A row dominates another when both objectives are <= and at least one
    is <.  Duplicates of a non-dominated point all survive.  The front
    comes back sorted by mean error ascending (stable for ties).
    """
    front: list[SweepRow] = []
    for row in sorted(rows, key=lambda row: (row.mean_error, row.max_error)):
        point = (row.mean_error, row.max_error)
        # no row dominates the first, even at (inf, inf); last is the last row kept
        if not front or point[1] < last[1] or point == last:
            front.append(row)
            last = point
    return front


# --- result files ------------------------------------------------------------

_MEAN_COLUMN = "mean_cross_track_error"
_MAX_COLUMN = "max_cross_track_error"


def write_dse_results(rows: list[SweepRow], path: str | Path, param_names: list[str]) -> None:
    """Write sweep rows as CSV; parameter columns keep grid key order."""
    lines = [",".join(["scenario"] + param_names + [_MEAN_COLUMN, _MAX_COLUMN])]
    for row in rows:
        if "," in row.scenario:
            raise ConfigError(f"scenario name {row.scenario!r} cannot contain a comma")
        key = _assignment_key(row.assignment, param_names)
        lines.append(
            ",".join(
                [row.scenario]
                + [format_real(v) for v in key]
                + [format_real(row.mean_error), format_real(row.max_error)]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_dse_results(path: str | Path) -> tuple[list[str], list[SweepRow]]:
    """Read a sweep result table; returns (parameter names, rows)."""
    path = Path(path)
    header, lines = read_csv_table(path, text_columns=1)
    if len(header) < 3 or header[0] != "scenario" or header[-2:] != [_MEAN_COLUMN, _MAX_COLUMN]:
        raise ConfigError(
            f"{path}:1: header must be 'scenario,<params...>,{_MEAN_COLUMN},{_MAX_COLUMN}'"
        )
    param_names = header[1:-2]
    return param_names, [
        SweepRow(scenario, dict(zip(param_names, params)), mean_error, max_error)
        for _, (scenario, *params, mean_error, max_error) in lines
    ]


def write_objectives_json(path: str | Path, mean_error: float, max_error: float) -> None:
    """Write the per-run objective file."""
    Path(path).write_text(
        json.dumps({"cross_track_mean": mean_error, "cross_track_max": max_error}, indent=2)
        + "\n"
    )
