"""Mutation check: each named mutant of an exact fast path must fail a test.

The mutants change the vehicle group's class rules, the rule that decides
what may vary in lock-step, how lock-step builds the copies of a varying
instance, the interpolation of lock-step scoring, the artifacts a
lock-stepped slice writes and its memory budget, the replay's clock, the
heading wrap, the sensor's clipping box and pose memo, and the name check
of a unit's parameters.

A mutant is a file under ``src/``, an exact old text, the new text that
replaces it and a selection of tests.  For each mutant the script copies
``src/`` to a temporary directory, replaces the old text, which must occur
exactly once, and runs the selected tests against the copy; at least one of
them must fail.  Before any mutant, the union of the selections must pass
on an unmutated copy, so a mutant cannot count as caught by a test that
fails anyway.

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
REPLAY_FOLDS = "tests/test_simunit.py::test_time_base_folds_on_step_change"
REPLAY_CURSOR = "tests/test_plan.py::test_replay_cursor_picks_the_row_bisect_picks"
WRAPS = "tests/test_vehicle.py::test_heading_within_one_turn_wraps_as_the_loop_did"
EDGE_POSES = "tests/test_units.py::test_sensor_edge_poses_match_full_march"
TURNED = "tests/test_units.py::test_sensor_turned_in_place_matches_full_march"
NAME_CLASH = "tests/test_simunit.py::test_duplicate_port_rejected"


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
    # rays are clipped to the occupied box itself, so a point that rounds into
    # an edge cell from outside the box is never marched
    "box-not-grown": Mutant(
        SENSING,
        "box = (box[0] - res, box[1] - res, box[2] + res, box[3] + res)",
        "box = box",
        (EDGE_POSES,),
    ),
    # a step that only turns the sensor repeats the last result
    "pose-memo-ignores-heading": Mutant(
        SENSING,
        "if pose == self._pose:",
        "if self._pose and pose[:2] == self._pose[:2]:",
        (TURNED,),
    ),
    # a parameter may share a port's name
    "parameter-names-unchecked": Mutant(
        SIMUNIT,
        "for name in [p.name for p in self.ports] + list(self.default_parameters):",
        "for name in [p.name for p in self.ports]:",
        (NAME_CLASH,),
    ),
}


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code on ``tests`` against ``src``, and the first test that failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:  # a hung step hangs the suite too
        return 1, "a run of more than 120 s"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
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
