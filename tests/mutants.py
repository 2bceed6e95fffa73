"""Mutation check: each named mutant of an exact fast path must fail a test.

The mutants change the vehicle group's class rules, the rule that decides
what may vary in lock-step, how lock-step builds the copies of a varying
instance, the interpolation of lock-step scoring, the artifacts a
lock-stepped slice writes, its memory budget, and the halves a slice that
does not run through splits into, their order and the files they leave,
the replay's clock, the heading wrap, the sensor's reach, its window of
march indices, its table of ray directions and the wedge of rays it aims
at the occupied box, pure pursuit's table of segments, the input memo of the
sensor and pure pursuit, the positions ``assess_run`` measures, the
master's exchange, the chunks the trace writer formats, the name check
of a unit's parameters, and the document checks' rules for keys, flags and
numbers.

A mutant is a file under ``src/``, an exact old text, the new text that
replaces it and a selection of tests.  For each mutant the script copies
``src/`` to a temporary directory, replaces the old text, which must occur
exactly once, and runs the selected tests against the copy; at least one of
them must fail.  Before any mutant, the union of the selections must pass
on an unmutated copy, so a mutant cannot count as caught by a test that
fails anyway.  Every pytest run starts in its own empty working directory,
so hypothesis keeps the examples it finds there and no run replays an
example that an earlier run found.

Run it from anywhere (pytest and hypothesis must be installed)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py keep-greatest-cap interpolation-weight

It exits 0 when every mutant is caught and 1 otherwise.  pytest does not
collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
VEHICLE = "fieldsim/units/vehicle.py"
ORCHESTRATOR = "fieldsim/orchestrator.py"
DSE = "fieldsim/dse.py"
CONTROL = "fieldsim/units/control.py"
SENSING = "fieldsim/units/sensing.py"
SIMUNIT = "fieldsim/simunit.py"
SAFETY = "fieldsim/safety.py"
TRACES = "fieldsim/traces.py"
SHARED = "fieldsim/_shared.py"
LOCKSTEP = "tests/test_lockstep.py"
SPLITS = f"{LOCKSTEP}::test_copies_split_only_when_a_step_gives_them_different_bits"
REAR = f"{LOCKSTEP}::test_a_rear_force_past_the_least_cap_splits_a_class"
FIRST_FAILING = f"{LOCKSTEP}::test_a_classed_group_fails_at_the_first_failing_copy"
SHARES = f"{LOCKSTEP}::test_lockstep_shares_only_what_sees_the_same_inputs"
NAMES_VEHICLE = f"{LOCKSTEP}::test_lockstep_names_the_vehicle_that_fails"
BAD_COPY = f"{LOCKSTEP}::test_a_bad_vehicle_copy_fails_as_its_own_config"
INTERPOLATES = f"{LOCKSTEP}::test_sweep_interpolates_between_steps_as_align_does"
ARTIFACTS = f"{LOCKSTEP}::test_a_lockstepped_slice_writes_each_points_own_artifacts"
OVER_BUDGET = f"{LOCKSTEP}::test_an_artifact_slice_over_the_budget_runs_its_points_alone"
FAILING_SLICE = f"{LOCKSTEP}::test_a_failing_artifact_slice_leaves_the_files_of_the_points_before_the_failing_one"
CENTRED = "tests/test_units.py::test_sensor_field_of_view_is_centred_on_heading"
BEYOND_MAX_RANGE = "tests/test_units.py::test_sensor_keeps_a_hit_that_rounds_into_a_cell_just_beyond_max_range"
HEADING_WALK = "tests/test_units.py::test_sensor_keeps_its_ray_directions_while_the_heading_holds"
SEGMENT_TABLE = "tests/test_units.py::test_pure_pursuit_segment_table_matches_the_per_step_arithmetic"
REPLAY_FOLDS = "tests/test_simunit.py::test_time_base_folds_on_step_change"
REPLAY_CURSOR = "tests/test_plan.py::test_replay_cursor_picks_the_row_bisect_picks"
WRAPS = "tests/test_vehicle.py::test_heading_within_one_turn_wraps_as_the_loop_did"
EDGE_POSES = "tests/test_units.py::test_sensor_edge_poses_match_full_march"
WRAPS_AROUND = "tests/test_units.py::test_sensor_full_circle_wraps_around"
NEAR_BOX = "tests/test_units.py::test_sensor_within_a_cell_of_the_occupied_box_matches_full_march"
AT_A_CORNER = "tests/test_units.py::test_sensor_ray_aimed_at_a_cell_corner_matches_full_march"
LAST_RAY = "tests/test_units.py::test_sensor_full_circle_sees_a_corner_through_its_last_ray"
TURNED = "tests/test_units.py::test_sensor_turned_in_place_matches_full_march"
NAME_CLASH = "tests/test_simunit.py::test_duplicate_port_rejected"
STOPS = "tests/test_units.py::test_stops_within_lookahead_of_goal"
ZERO_SIGN = "tests/test_units.py::test_pure_pursuit_tells_a_zero_from_a_negative_zero"
ONCE = "tests/test_safety.py::test_assess_run_measures_each_run_of_one_position_once"
ALONG_Y = "tests/test_safety.py::test_assess_run_measures_each_nearer_position_of_a_walk_along_y"
SEAMS = "tests/test_units.py::test_sensor_sees_a_box_across_the_seam_of_its_fan"
INSIDE_BOX = "tests/test_units.py::test_sensor_inside_the_occupied_box_casts_every_ray"
MANY_TURNS = "tests/test_units.py::test_sensor_at_a_heading_of_many_turns_matches_full_march"
DELAYED = "tests/test_orchestrator.py::test_coupling_is_delayed_by_one_step"
CSV_BYTES = "tests/test_traces.py::test_csv_bytes_are_the_per_value_format_real_join"
SAMPLES_READ = "tests/test_shared.py::test_every_json_sample_passes_its_reader"
CHECK_TEXTS = "tests/test_shared.py::test_a_check_rejects_with_one_text"
INFINITE_SPEED = "tests/test_shared.py::test_a_suite_run_at_an_infinite_speed_is_rejected"


class Mutant(NamedTuple):
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    # split classes keep their place, so a step fails at the wrong copy first
    "unsorted-classes": Mutant(
        VEHICLE,
        "parts.sort(key=lambda part: part[0][0])",
        "parts",
        (FIRST_FAILING,),
    ),
    "keep-greatest-cap": Mutant(
        VEHICLE,
        "min(constants[p][6] for p in members)",
        "max(constants[p][6] for p in members)",
        (SPLITS,),
    ),
    "no-cap-split": Mutant(
        VEHICLE,
        "mixed or abs(f_f) > lim or abs(f_r) > lim",
        "mixed",
        (SPLITS,),
    ),
    # the front force alone decides whether a cap clamps
    "cap-test-ignores-rear-force": Mutant(
        VEHICLE,
        "mixed or abs(f_f) > lim or abs(f_r) > lim",
        "mixed or abs(f_f) > lim",
        (REAR,),
    ),
    "cap-key-ignores-rear-force": Mutant(
        VEHICLE,
        "return cap if abs(f_f) > cap or abs(f_r) > cap else None",
        "return cap if abs(f_f) > cap else None",
        (REAR,),
    ),
    # copies that differ in the six constants split only when a force passes a cap
    "no-six-constant-split": Mutant(
        VEHICLE,
        "mixed = any(constants[p][:6] != first[:6] for p in members)",
        "mixed = False",
        (SPLITS,),
    ),
    # every step at speed reads the constants, so alike classes split early
    "no-reads-no-constant-shortcut": Mutant(
        VEHICLE,
        "if mixed is not None and (v_y or r or delta_f) and (",
        "if mixed is not None and (",
        (SPLITS,),
    ),
    # after a split the step goes on past the class it split, which never steps
    "resume-past-the-split-class": Mutant(
        VEHICLE,
        "columns = [column[c:] for column in",
        "columns = [column[c + 1:] for column in",
        (SPLITS,),
    ),
    # a varying vehicle feeds another instance, which then gets a list per step
    "no-feeds-another-check": Mutant(
        ORCHESTRATOR,
        "if any(c.source.instance == name for c in first.connections):",
        "if False:",
        (SHARES,),
    ),
    # every config's copy of a varying vehicle is built from the first config's spec
    "copies-from-the-first-spec": Mutant(
        ORCHESTRATOR,
        "spec = config.instances[name]",
        "spec = first.instances[name]",
        (NAMES_VEHICLE,),
    ),
    # a copy that fails to build is left out, and the slice runs without it
    "copy-diagnostic-dropped": Mutant(
        ORCHESTRATOR,
        'except ContractViolation as exc:\n                diagnostics.append(f"instance {name!r}: {exc}")',
        "except ContractViolation:\n                pass",
        (BAD_COPY,),
    ),
    # a reference row between two steps weighs them the wrong way round
    "interpolation-weight": Mutant(
        DSE,
        "at_x = [a + w * (b - a) for a, b in zip(last_x, xs)]",
        "at_x = [a + (1 - w) * (b - a) for a, b in zip(last_x, xs)]",
        (INTERPOLATES,),
    ),
    # every point of an artifact slice gets the first point's trajectory
    "artifacts-of-point-0": Mutant(
        DSE,
        "[row[p::n] for row in rows]",
        "[row[0::n] for row in rows]",
        (ARTIFACTS,),
    ),
    # every point of an artifact slice gets the last point's objectives
    "objectives-of-the-last-point": Mutant(
        DSE,
        'write_objectives_json(run_dir / "objectives.json", *scores[p])',
        'write_objectives_json(run_dir / "objectives.json", *scores[-1])',
        (ARTIFACTS,),
    ),
    # an artifact slice keeps its rows however many values they hold
    "artifact-budget-unchecked": Mutant(
        DSE,
        "if len(times) * len(channels) * n > MAX_RECORDED_VALUES:",
        "if False:",
        (OVER_BUDGET,),
    ),
    # the points before a failing slice's first failing point write no files
    "failing-slice-prefix-unwritten": Mutant(
        DSE,
        "run_dirs and run_dirs[lo:hi])",
        "run_dirs if hi - lo == len(assignments) else None)",
        (FAILING_SLICE,),
    ),
    # a slice that does not run through runs its right half before its left
    "halves-right-first": Mutant(
        DSE,
        "return scores(lo, mid) + scores(mid, hi)",
        "return (lambda right: scores(lo, mid) + right)(scores(mid, hi))",
        (FAILING_SLICE,),
    ),
    # a failing point run alone is halved again instead of raising its error
    "lone-failure-halved": Mutant(
        DSE,
        "if hi - lo == 1:",
        "if hi - lo == 0:",
        (FAILING_SLICE,),
    ),
    # a new step size restarts the replay's time at 0, not at the time so far
    "replay-time-not-folded": Mutant(
        CONTROL,
        "self._t0 + self._k * self._h, h, 0",
        "self._t0, h, 0",
        (REPLAY_FOLDS, REPLAY_CURSOR),
    ),
    # fmod keeps the sign of theta, so a heading just past pi stays past it
    "wrap-by-fmod": Mutant(
        VEHICLE,
        "theta = remainder(theta, 2.0 * pi)",
        'theta = __import__("math").fmod(theta, 2.0 * pi)',
        (WRAPS,),
    ),
    # the window ends one index past the clearance, short of hits farther out
    "window-ends-at-the-near-distance": Mutant(
        SENSING,
        "far = hypot(max(x - ox0, ox1 - x), max(y - oy0, oy1 - y))",
        "far = gap",
        (WRAPS_AROUND,),
    ),
    # the window starts one index past the clearance, beyond a hit at the clearance
    "window-starts-a-step-late": Mutant(
        SENSING,
        "k_in = max(0, floor((gap - min_range) / march))",
        "k_in = max(0, floor((gap - min_range) / march) + 1)",
        (EDGE_POSES,),
    ),
    # no spare index: a ray whose first march point is the box's far corner,
    # which rounds to a little past far, is never marched
    "window-without-a-spare-index": Mutant(
        SENSING,
        "floor((far - min_range) / march) + 1)",
        "floor((far - min_range) / march))",
        (AT_A_CORNER,),
    ),
    # no slack for rounding: a pose whose clearance just exceeds max_range marches no ray
    "reach-without-slack": Mutant(
        SENSING,
        'self._reach = p["max_range"] + grid_map.resolution',
        'self._reach = p["max_range"]',
        (BEYOND_MAX_RANGE,),
    ),
    # the rays keep the directions of the first heading they were cast at
    "heading-table-never-refreshed": Mutant(
        SENSING,
        "if key != self._heading:",
        "if self._heading is None:",
        (CENTRED, HEADING_WALK),
    ),
    # each segment's station span is the span of the segment before it
    "segment-span-of-the-previous-segment": Mutant(
        CONTROL,
        "stations[i], stations[i + 1] - stations[i]))",
        "stations[i], stations[i] - stations[i - 1]))",
        (SEGMENT_TABLE,),
    ),
    # a box past the end of the fan is not wrapped round to its first rays
    "wedge-without-wrap": Mutant(
        SENSING,
        "wrapped = min(first, bisect_right(offsets, u - tau + span + step))",
        "wrapped = 0",
        (SEAMS,),
    ),
    # the wedge's offset is measured from the last ray, not the first
    "wedge-from-the-last-ray": Mutant(
        SENSING,
        "u = (mid + low - (theta - 0.5 * fov)) % tau",
        "u = (mid + low - (theta + 0.5 * fov)) % tau",
        (SEAMS,),
    ),
    # a pose inside the occupied box casts only the rays toward its corners
    "wedge-inside-the-occupied-box": Mutant(
        SENSING,
        "if rays > 1 and abs(theta) <= tau and gap >= march and outside:",
        "if rays > 1 and abs(theta) <= tau and gap >= march:",
        (INSIDE_BOX,),
    ),
    # a pose just outside the occupied box that rounds into an edge cell casts
    # only the rays toward the box, though every ray hits at the pose
    "wedge-within-a-march-step": Mutant(
        SENSING,
        "abs(theta) <= tau and gap >= march and outside:",
        "abs(theta) <= tau and outside:",
        (NEAR_BOX,),
    ),
    # a heading of many turns, rounded by more than a ray spacing, still picks rays by its offsets
    "wedge-at-any-heading": Mutant(
        SENSING,
        "if rays > 1 and abs(theta) <= tau and gap",
        "if rays > 1 and gap",
        (MANY_TURNS,),
    ),
    # the spare ray before the fan's first does not wrap round to its last
    "wedge-wraps-past-the-end-only": Mutant(
        SENSING,
        "\n                          + directions[max(last, bisect_left(offsets, u + tau - step)):])",
        ")",
        (LAST_RAY,),
    ),
    # a step that only turns the sensor repeats the last result (theta is the last input)
    "pose-memo-ignores-heading": Mutant(
        SIMUNIT,
        "key = pack(*inputs.values())",
        "key = pack(*list(inputs.values())[:-1], 0.0)",
        (TURNED,),
    ),
    # a step that only moves along x repeats the last result (x is the first input)
    "input-memo-ignores-x": Mutant(
        SIMUNIT,
        "key = pack(*inputs.values())",
        "key = pack(0.0, *list(inputs.values())[1:])",
        (STOPS,),
    ),
    # the memo compares values, so a pose that differs only in the sign of a zero repeats
    "input-memo-ignores-zero-sign": Mutant(
        SIMUNIT,
        "key = pack(*inputs.values())",
        "key = tuple(inputs.values())",
        (ZERO_SIGN,),
    ),
    # a row that moves only along y shares the clearance of the row before it
    "assess-run-compares-x-only": Mutant(
        SAFETY,
        "position = key(x, y)",
        "position = key(x, 0.0)",
        (ALONG_Y,),
    ),
    # a position is measured only when its box distance is no less than the least gap
    "assess-run-bound-inverted": Mutant(
        SAFETY,
        "if box_distance(x, y) < min_gap:",
        "if box_distance(x, y) >= min_gap:",
        (ONCE,),
    ),
    # the exchange writes each value back into its source's outputs
    "exchange-into-the-source": Mutant(
        ORCHESTRATOR,
        "dst[port] = v",
        "src[port] = v",
        (DELAYED,),
    ),
    # each chunk after the first starts one row late
    "chunk-boundary-drops-a-row": Mutant(
        TRACES,
        "for lo in range(0, len(times), WRITE_CHUNK_ROWS):",
        "for lo in range(0, len(times), WRITE_CHUNK_ROWS + 1):",
        (CSV_BYTES,),
    ),
    # each chunk but the last ends with the next chunk's first row
    "chunk-boundary-repeats-a-row": Mutant(
        TRACES,
        "hi = lo + WRITE_CHUNK_ROWS",
        "hi = lo + WRITE_CHUNK_ROWS + 1",
        (CSV_BYTES,),
    ),
    # a parameter may share a port's name
    "parameter-names-unchecked": Mutant(
        SIMUNIT,
        "for name in [p.name for p in self.ports] + list(self.default_parameters):",
        "for name in [p.name for p in self.ports]:",
        (NAME_CLASH,),
    ),
    # a key outside the required ones is unknown even when it is optional
    "check-object-ignores-optional": Mutant(
        SHARED,
        "elif key not in optional:",
        "else:",
        (SAMPLES_READ,),
    ),
    # an object that lacks a required key passes
    "check-object-skips-required": Mutant(
        SHARED,
        "if found == len(required):",
        "if found >= 0:",
        (CHECK_TEXTS,),
    ),
    # an infinity passes where a finite number is asked for
    "check-number-lets-infinity-through": Mutant(
        SHARED,
        "if not math.isfinite(number) and (finite or math.isnan(number)):",
        "if math.isnan(number):",
        (INFINITE_SPEED,),
    ),
    # 0 and 1 pass as flags, since they compare equal to false and true
    "check-flag-takes-equal-numbers": Mutant(
        SHARED,
        "if value is not True and value is not False:",
        "if value not in (True, False):",
        (CHECK_TEXTS,),
    ),
}


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code on ``tests`` against ``src``, and the first test that failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)  # hypothesis then stores under the working directory
    ids = [os.path.join(ROOT, test) for test in tests]
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:  # a hung step hangs the suite too
        return 1, "a run of more than 120 s"
    # pytest names a failed test relative to the working directory
    failed = [os.path.relpath(os.path.join(cwd, line.split()[1]), ROOT)
              for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else ""


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 1
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    with tempfile.TemporaryDirectory() as scratch:
        selection = tuple(dict.fromkeys(t for mutant in chosen.values() for t in mutant.tests))
        if _run_tests(_copy_src(Path(scratch) / "unmutated"), selection)[0] != 0:
            print("the selected tests fail on the unmutated source")
            return 1
        survived = []
        for name, mutant in chosen.items():
            src = _copy_src(Path(scratch) / name)
            target = src / mutant.path
            text = target.read_text()
            count = text.count(mutant.old)
            if count != 1:
                print(f"{name}: the old text occurs {count} times in {mutant.path}, not once")
                survived.append(name)
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code, failed = _run_tests(src, mutant.tests)
            verdict = {0: "SURVIVED", 1: f"caught by {failed}"}.get(code, f"pytest exit {code}")
            print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if code != 1:
                survived.append(name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
