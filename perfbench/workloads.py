"""The benchmark workloads: set-up, one timed repetition, output checks.

Every workload is a closed-loop batch job driven through fieldsim's public
API.  ``setup`` makes all inputs from the seed and parses the configs;
``run`` is one repetition, from its start until the last result file is
written and the optimiser or goal-structure answer is returned, timed in
consecutive parts; ``check`` verifies that repetition's outputs and returns
a list of failures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from fieldsim import dse, orchestrator, safety, traces, units

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# --- calibration sweeps -------------------------------------------------------

# The twelve A01 manoeuvres: (name, kind, base speed, amplitude), 20 s each.
SCENARIOS = [
    ("sin1", "sin", 2.0, 0.35),
    ("sin2", "sin", 2.5, 0.45),
    ("sin3", "sin", 3.0, 0.5),
    ("turn_ramp1", "turn_ramp", 2.0, 0.4),
    ("turn_ramp2", "turn_ramp", 2.5, 0.45),
    ("turn_ramp3", "turn_ramp", 3.0, 0.5),
    ("speed_ramp1", "speed_ramp", 1.0, 0.0),
    ("speed_ramp2", "speed_ramp", 2.0, 0.0),
    ("speed_ramp3", "speed_ramp", 3.0, 0.0),
    ("speed_step1", "speed_step", 1.0, 0.0),
    ("speed_step2", "speed_step", 2.0, 0.0),
    ("speed_step3", "speed_step", 3.0, 0.0),
]
A01_TRUTH = {"veh.cAlphaF": 29000.0, "veh.mu": 0.5, "veh.m_robot": 2000.0}
A01_GRID = {
    "veh.cAlphaF": [20000.0, 24500.0, 29000.0, 33500.0, 38000.0],
    "veh.mu": [0.3, 0.4, 0.5, 0.6, 0.7],
    "veh.m_robot": [1000.0, 1500.0, 2000.0, 2500.0, 3000.0],
}
# Friction only caps the tyre forces of light or stiff settings at mu <= 0.4.
# Above that several settings drive identical paths, so the optimiser rightly
# returns the first of a tie; other seeds therefore draw mu from 0.3 and 0.4.
IDENTIFIABLE_MU = (0.3, 0.4)


def _multimodel_doc(vehicle_parameters=None) -> dict:
    veh = {"unit_type": "vehicle"}
    if vehicle_parameters:
        veh["parameters"] = dict(vehicle_parameters)
    return {
        "duration": 20.0,
        "step_size": 0.01,
        "instances": {"cmd": {"unit_type": "replay"}, "veh": veh},
        "connections": [
            {"source": "cmd.velocity", "sink": "veh.velocity"},
            {"source": "cmd.delta_f", "sink": "veh.delta_f"},
        ],
        "outputs": ["veh.x", "veh.y"],
    }


def draw_truth(grid: dict, seed: int) -> dict:
    """The hidden assignment the references are recorded with; seed 0 is A01's."""
    if seed == 0:
        return dict(A01_TRUTH)
    rng = random.Random(seed)
    return {
        name: rng.choice([v for v in values if name != "veh.mu" or v in IDENTIFIABLE_MU])
        for name, values in grid.items()
    }


@dataclass
class SweepInputs:
    config: dse.DseConfig
    truth: dict
    directory: Path


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed(parts: list, fn, *args, **kwargs):
    """Call ``fn`` and append its (wall seconds, CPU seconds) to ``parts``."""
    wall, cpu = perf_counter(), cpu_seconds()
    result = fn(*args, **kwargs)
    parts.append((perf_counter() - wall, cpu_seconds() - cpu))
    return result


@dataclass
class Rep:
    """One repetition, timed in consecutive parts of (wall s, CPU s).

    The first ``simulating`` parts are the simulate calls (``run_sweep`` or
    ``run_safety_suite``); the rest is the work after them.
    """

    runs: int
    parts: list
    simulating: int
    outputs: dict

    @property
    def simulate_s(self) -> float:
        return sum(wall for wall, _ in self.parts[: self.simulating])

    @property
    def total_s(self) -> float:
        return sum(wall for wall, _ in self.parts)


class SweepWorkload:
    name = "sweep"
    grid = A01_GRID
    workers = 2  # capped at nproc
    rows_per_run = 2001
    units_per_run = 2
    # SHA-256 of the output files at seed 0, so that speed-ups stay
    # byte-identical (acceptance criterion A10)
    pinned_sha256 = "3bb4aa61f05b95a3dcf9e204dfa1a67f5b28f47025bf900dc2ab796e473d22a9"

    def setup(self, seed: int, directory: Path) -> SweepInputs:
        truth = draw_truth(self.grid, seed)
        truth_params = {ref.split(".", 1)[1]: value for ref, value in truth.items()}
        (directory / "multimodel.json").write_text(json.dumps(_multimodel_doc()))
        files = {}
        for name, kind, speed, amplitude in SCENARIOS:
            commands = traces.generate_scenario(
                traces.ScenarioSpec(name, kind, 20.0, speed, amplitude)
            )
            traces.write_trace_csv(commands, directory / f"{name}_inputs.csv")
            registry = units.default_registry()
            registry.register("replay", units.replay_factory(commands))
            reference = orchestrator.run_cosim(
                orchestrator.load_multimodel(_multimodel_doc(truth_params)), registry
            )
            orchestrator.write_results_csv(reference, directory / f"{name}_reference.csv")
            files[name] = {"inputs": f"{name}_inputs.csv", "reference": f"{name}_reference.csv"}
        doc = {
            "algorithm": {"type": "exhaustive"},
            "parameters": self.grid,
            "scenarios": [s[0] for s in SCENARIOS],
            "multiModel": "multimodel.json",
            "scenarioFiles": files,
        }
        (directory / "sweep.json").write_text(json.dumps(doc))
        config = dse.read_dse_config(directory / "sweep.json")
        return SweepInputs(config, truth, directory)

    def attempts(self, inputs: SweepInputs) -> int:
        return len(inputs.config.scenarios) * math.prod(len(v) for v in self.grid.values())

    def run(self, inputs: SweepInputs, out: Path, workers: int) -> Rep:
        config = inputs.config
        parts = []
        rows = timed(parts, dse.run_sweep, config, workers=workers)

        def results():
            dse.write_dse_results(rows, out / "table.csv", param_names=list(config.parameters))
            return dse.optimize(rows, config.parameters), dse.pareto_rank(rows)

        (best, total), front = timed(parts, results)
        return Rep(
            len(rows), parts, 1, {"rows": rows, "best": best, "total": total, "front": front}
        )

    def check(self, inputs: SweepInputs, rep: Rep, out: Path) -> list[str]:
        failures = []
        rows, grid = rep.outputs["rows"], dse.expand_grid(inputs.config.parameters)
        for scenario in inputs.config.scenarios:
            got = [r.assignment for r in rows if r.scenario == scenario]
            if got != grid:
                failures.append(f"scenario {scenario}: {len(got)} of {len(grid)} grid rows")
        if rep.outputs["best"] != inputs.truth or not rep.outputs["total"] < 1e-6:
            failures.append(
                f"optimize returned {rep.outputs['best']} (sum {rep.outputs['total']:.3g}), "
                f"truth is {inputs.truth}"
            )
        if not rep.outputs["front"]:
            failures.append("empty Pareto front")
        return failures

    def output_files(self, out: Path) -> list[Path]:
        return [out / "table.csv"]


# --- safety suite -------------------------------------------------------------

# The README's fault-tree query, and the cut sets of samples/fault_tree.json.
FT_EVENTS = {
    "detection_late": True, "brake_weak": True,
    "sensor_blind": False, "obstacle_below_fov": False,
}
FT_CUT_SETS = [{"obstacle_below_fov"}, {"sensor_blind"}, {"brake_weak", "detection_late"}]
# Seeds other than 0 move the obstacle column by up to two cells (0.5 m) either
# way, which keeps each run's approach, and so its cost, nearly the same.
MAX_COLUMN_SHIFT = 2


@dataclass
class SafetyInputs:
    directory: Path
    suite: safety.SafetySuite
    gsn: safety.GsnGraph
    tree: safety.FaultTree
    grid_map: units.GridMap
    shift: int


def shifted_map(grid: units.GridMap, shift: int) -> units.GridMap:
    cells = [0] * len(grid.cells)
    for index, cell in enumerate(grid.cells):
        if cell:
            j, i = divmod(index, grid.width)
            if not 0 <= i + shift < grid.width:
                raise ValueError(f"shift {shift} moves column {i} off the map")
            cells[j * grid.width + i + shift] = 1
    return units.GridMap(grid.width, grid.height, grid.resolution, grid.x0, grid.y0, tuple(cells))


def case_evidence(out: Path, index: int) -> Path:
    """The evidence directory of the suite's case number ``index``."""
    return out / "evidence" / f"{index:02d}"


class SafetyWorkload:
    name = "safety_suite"
    workers = 1
    pinned_sha256 = "eb2474257046e6a335f071e56db573068d59a06f80f9b847b83c78aee7364d68"
    rows_per_run = 1501
    units_per_run = 4

    def setup(self, seed: int, directory: Path) -> SafetyInputs:
        shift = 0
        if seed != 0:
            shift = random.Random(seed).randint(-MAX_COLUMN_SHIFT, MAX_COLUMN_SHIFT)
        grid_map = shifted_map(units.read_grid_map(SAMPLES / "field.map"), shift)
        units.write_grid_map(grid_map, directory / "field.map")
        shutil.copyfile(SAMPLES / "safety_suite.json", directory / "safety_suite.json")
        return SafetyInputs(
            directory=directory,
            suite=safety.read_safety_suite(directory / "safety_suite.json"),
            gsn=safety.read_gsn(SAMPLES / "gsn_case.json"),
            tree=safety.read_fault_tree(SAMPLES / "fault_tree.json"),
            grid_map=grid_map,
            shift=shift,
        )

    def attempts(self, inputs: SafetyInputs) -> int:
        return len(inputs.suite.runs)

    def run(self, inputs: SafetyInputs, out: Path, workers: int) -> Rep:
        parts, verdicts = [], []
        # Each case runs, in suite order, as a one-case suite into its own
        # evidence directory, so that its wall and CPU time are measured on
        # their own and each call's evidence is complete in itself.
        for index, case in enumerate(inputs.suite.runs):
            verdicts += timed(
                parts, safety.run_safety_suite, dataclasses.replace(inputs.suite, runs=[case]),
                case_evidence(out, index), workers=workers,
            )

        def results():
            found = {}
            for index in range(len(inputs.suite.runs)):
                found |= safety.read_verdicts(case_evidence(out, index))
            annotated = safety.link_evidence(inputs.gsn, found)
            (out / "case.dot").write_text(safety.render_gsn_dot(annotated))
            cuts = safety.minimal_cut_sets(inputs.tree)
            return annotated, cuts, safety.evaluate_fault_tree(inputs.tree, FT_EVENTS)

        annotated, cuts, top = timed(parts, results)
        return Rep(
            len(verdicts), parts, len(verdicts),
            {"verdicts": verdicts, "root": annotated.root_status(), "cuts": cuts, "top": top},
        )

    def check(self, inputs: SafetyInputs, rep: Rep, out: Path) -> list[str]:
        failures = []
        verdicts = rep.outputs["verdicts"]
        if [v.run_id for v in verdicts] != [r.run_id for r in inputs.suite.runs]:
            failures.append("verdicts do not match the suite's runs")
        grid = inputs.grid_map
        occupied = [
            (grid.x0 + (k % grid.width) * grid.resolution,
             grid.y0 + (k // grid.width) * grid.resolution)
            for k, cell in enumerate(grid.cells)
            if cell
        ]
        for index, (run, verdict) in enumerate(zip(inputs.suite.runs, verdicts)):
            results = case_evidence(out, index) / run.run_id / "results.csv"
            if verdict.note or not results.is_file():
                failures.append(f"{run.run_id}: simulation failed: {verdict.note}")
                continue
            failures.extend(_check_verdict(run, verdict, results, occupied, grid.resolution))
        failed = {v.run_id for v in verdicts if not v.passed}
        expected_root = safety.Status.UNSUPPORTED if failed else safety.Status.SUPPORTED
        if rep.outputs["root"] is not expected_root:
            failures.append(f"root is {rep.outputs['root'].value}, expected {expected_root.value}")
        if inputs.shift == 0 and failed != {"degraded_v1"}:
            failures.append(f"shipped map: failing runs {sorted(failed)}, expected degraded_v1")
        if [set(c) for c in rep.outputs["cuts"]] != FT_CUT_SETS or rep.outputs["top"] is not True:
            failures.append("fault tree cut sets or top event differ from the sample's")
        return failures

    def output_files(self, out: Path) -> list[Path]:
        return sorted((out / "evidence").rglob("*.*")) + [out / "case.dot"]


def _check_verdict(run, verdict, results: Path, occupied, res: float) -> list[str]:
    """Recompute the run's verdict from its results.csv, independently of assess_run.

    ``occupied`` holds the lower-left corners of the occupied cells of side ``res``.
    """
    lines = results.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    col = {
        name: header.index(name)
        for name in ("veh.x", "veh.y", "sup.velocity", "sup.stop_engaged")
    }
    gap = math.inf
    for row in rows:
        x, y = row[col["veh.x"]], row[col["veh.y"]]
        for cx, cy in occupied:
            dx, dy = max(cx - x, 0.0, x - cx - res), max(cy - y, 0.0, y - cy - res)
            gap = min(gap, math.hypot(dx, dy))
    last = rows[-1]
    passed = gap > run.gap_threshold and (
        last[col["sup.stop_engaged"]] == 0.0 or last[col["sup.velocity"]] == 0.0
    )
    failures = []
    if len(rows) != round(run.duration / run.step_size) + 1:
        failures.append(f"{run.run_id}: results.csv has {len(rows)} rows")
    if abs(gap - verdict.measured) > 1e-9 or passed != verdict.passed:
        failures.append(
            f"{run.run_id}: verdict says gap {verdict.measured}, passed {verdict.passed}; "
            f"results.csv gives {gap}, {passed}"
        )
    return failures


# --- registry ----------------------------------------------------------------

WORKLOADS = {w.name: w for w in (SweepWorkload(), SafetyWorkload())}
