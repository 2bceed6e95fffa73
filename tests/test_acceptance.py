"""Acceptance gate: ten criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line
(without -s pytest shows them only for failing criteria).  The calibration
sweep behind criteria 1-3 and 10 runs 1500 co-simulations once per session.
"""

import itertools
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

from fieldsim.dse import (
    SweepRow,
    _apply_assignment,
    cross_track_error,
    expand_grid,
    optimize,
    pareto_rank,
    read_dse_config,
    read_dse_results,
    run_sweep,
    write_dse_results,
)
from fieldsim.orchestrator import load_multimodel, lockstep_cosim, run_cosim, write_results_csv
from fieldsim.safety import (
    EvidenceVerdict,
    FaultTree,
    FtEvent,
    GsnGraph,
    GsnNode,
    SafetyRun,
    SafetySuite,
    Status,
    evaluate_fault_tree,
    link_evidence,
    minimal_cut_sets,
    render_gsn_dot,
    run_safety_suite,
)
from fieldsim.traces import (
    COMMAND_CHANNELS,
    AlignedPair,
    ScenarioSpec,
    TimedTrace,
    generate_scenario,
    read_trace_csv,
    write_trace_csv,
)
from fieldsim.units import (
    VehicleUnit,
    default_registry,
    read_grid_map,
    replay_factory,
    write_grid_map,
)
from fieldsim.units.vehicle import VehicleGroup

from conftest import build_field_map


def report(number, ok, detail):
    print(f"A{number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- calibration sweep fixture ------------------------------------------------

TRUTH = {"veh.cAlphaF": 29000.0, "veh.mu": 0.5, "veh.m_robot": 2000.0}

CURVED = ["sin1", "sin2", "sin3", "turn_ramp1", "turn_ramp2", "turn_ramp3"]
STRAIGHT = ["speed_ramp1", "speed_ramp2", "speed_ramp3",
            "speed_step1", "speed_step2", "speed_step3"]

SCENARIOS = [
    ScenarioSpec("sin1", "sin", 20.0, 2.0, 0.35),
    ScenarioSpec("sin2", "sin", 20.0, 2.5, 0.45),
    ScenarioSpec("sin3", "sin", 20.0, 3.0, 0.5),
    ScenarioSpec("turn_ramp1", "turn_ramp", 20.0, 2.0, 0.4),
    ScenarioSpec("turn_ramp2", "turn_ramp", 20.0, 2.5, 0.45),
    ScenarioSpec("turn_ramp3", "turn_ramp", 20.0, 3.0, 0.5),
    ScenarioSpec("speed_ramp1", "speed_ramp", 20.0, 1.0),
    ScenarioSpec("speed_ramp2", "speed_ramp", 20.0, 2.0),
    ScenarioSpec("speed_ramp3", "speed_ramp", 20.0, 3.0),
    ScenarioSpec("speed_step1", "speed_step", 20.0, 1.0),
    ScenarioSpec("speed_step2", "speed_step", 20.0, 2.0),
    ScenarioSpec("speed_step3", "speed_step", 20.0, 3.0),
]


def multimodel_doc():
    return {
        "duration": 20.0,
        "step_size": 0.01,
        "instances": {
            "cmd": {"unit_type": "replay"},
            "veh": {"unit_type": "vehicle"},
        },
        "connections": [
            {"source": "cmd.velocity", "sink": "veh.velocity"},
            {"source": "cmd.delta_f", "sink": "veh.delta_f"},
        ],
        "outputs": ["veh.x", "veh.y"],
    }


@pytest.fixture(scope="session")
def sweep_outcome(tmp_path_factory):
    """Reference traces from a hidden truth assignment, then the full sweep."""
    workspace = tmp_path_factory.mktemp("acceptance")
    mm_path = workspace / "harvest.json"
    mm_path.write_text(json.dumps(multimodel_doc()))

    truth_params = {name.split(".", 1)[1]: value for name, value in TRUTH.items()}
    files = {}
    for spec in SCENARIOS:
        inputs = generate_scenario(spec)
        write_trace_csv(inputs, workspace / f"{spec.name}_inputs.csv")
        truth_doc = multimodel_doc()
        truth_doc["instances"]["veh"]["parameters"] = dict(truth_params)
        registry = default_registry()
        registry.register("replay", replay_factory(inputs))
        reference = run_cosim(load_multimodel(truth_doc), registry)
        write_results_csv(reference, workspace / f"{spec.name}_reference.csv")
        files[spec.name] = {
            "inputs": f"{spec.name}_inputs.csv",
            "reference": f"{spec.name}_reference.csv",
        }

    sweep_doc = {
        "algorithm": {"type": "exhaustive"},
        "parameters": {
            "veh.cAlphaF": ["20k", "24.5k", "29k", "33.5k", "38k"],
            "veh.mu": [0.3, 0.4, 0.5, 0.6, 0.7],
            "veh.m_robot": ["1k", "1.5k", "2k", "2.5k", "3k"],
        },
        "scenarios": [spec.name for spec in SCENARIOS],
        "multiModel": mm_path.name,
        "scenarioFiles": files,
    }
    config_path = workspace / "sweep.json"
    config_path.write_text(json.dumps(sweep_doc))
    config = read_dse_config(config_path)

    started = time.perf_counter()
    rows = run_sweep(config, workers=8)
    elapsed = time.perf_counter() - started
    table_path = workspace / "dse_results.csv"
    write_dse_results(rows, table_path, param_names=list(config.parameters))
    return SimpleNamespace(
        rows=rows, elapsed=elapsed, config=config, table_path=table_path
    )


def test_criterion_01_grid_cardinality_and_runtime(sweep_outcome):
    rows = sweep_outcome.rows
    counts = {name: 0 for name in CURVED + STRAIGHT}
    for row in rows:
        counts[row.scenario] += 1
    ok = (
        len(rows) == 1500
        and all(count == 125 for count in counts.values())
        and sweep_outcome.elapsed < 300.0
    )
    report(1, ok, (
        f"5x5x5 grid over 12 scenarios gave {len(rows)} rows "
        f"in {sweep_outcome.elapsed:.1f} s with 8 workers"
    ))


def test_criterion_02_straight_line_insensitivity(sweep_outcome):
    worst = 0.0
    complete = True
    for name in STRAIGHT:
        means = [r.mean_error for r in sweep_outcome.rows if r.scenario == name]
        complete = complete and len(means) == 125
        worst = max(worst, max(means) - min(means))
    ok = complete and worst <= 1e-9
    report(2, ok, (
        "speed_ramp/speed_step objectives identical across all 125 assignments "
        f"(worst spread {worst:.3g} m)"
    ))


def test_criterion_03_self_calibration(sweep_outcome):
    best, total = optimize(sweep_outcome.rows)
    ok = best == TRUTH and total < 1e-6
    label = ", ".join(f"{k}={v:g}" for k, v in best.items())
    report(3, ok, f"sweep+optimize recovered {label} (summed mean error {total:.3g} m)")


def test_each_a01_scenario_ends_with_one_vehicle_class_per_distinct_score(sweep_outcome, monkeypatch):
    # no class splits needlessly here: the classes left after a scenario's
    # run are exactly its distinct trajectories
    config = sweep_outcome.config
    groups = []
    monkeypatch.setattr(
        VehicleUnit, "_group",
        classmethod(lambda cls, copies: groups.append(VehicleGroup(copies)) or groups[-1]),
    )
    configs = [_apply_assignment(config.multi_model, a) for a in expand_grid(config.parameters)]
    classes, distinct = {}, {}
    for name in config.scenarios:
        inputs_path, _ = config.scenario_files[name]
        registry = default_registry()
        registry.register("replay", replay_factory(read_trace_csv(inputs_path, COMMAND_CHANNELS)))
        for _ in lockstep_cosim(configs, registry)[2]:
            pass
        classes[name] = len(groups[-1]._members)
        distinct[name] = len({(r.mean_error, r.max_error) for r in sweep_outcome.rows if r.scenario == name})
    assert classes == distinct
    assert [classes[name] for name in CURVED + STRAIGHT] == [25, 35, 71, 25, 25, 63] + [1] * 6


def test_criterion_04_objective_oracle():
    rng = random.Random(1234)
    worst_gap = 0.0
    for _ in range(100):
        pts = [
            (rng.uniform(-50, 50), rng.uniform(-50, 50),
             rng.uniform(-50, 50), rng.uniform(-50, 50))
            for _ in range(rng.randint(1, 40))
        ]
        mean, biggest = cross_track_error(AlignedPair(pairs=pts, clamped=0))
        dists = []
        for x_ref, y_ref, x_sim, y_sim in pts:
            dx = x_sim - x_ref
            dy = y_sim - y_ref
            dists.append(math.sqrt(dx * dx + dy * dy))
        worst_gap = max(worst_gap, abs(mean - sum(dists) / len(dists)))
        worst_gap = max(worst_gap, abs(biggest - max(dists)))
    identical = cross_track_error(
        AlignedPair(pairs=[(1.0, 2.0, 1.0, 2.0)] * 5, clamped=0)
    )
    triangle = cross_track_error(
        AlignedPair(pairs=[(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 4.0, 5.0)], clamped=0)
    )
    ok = worst_gap <= 1e-12 and identical == (0.0, 0.0) and triangle == (2.5, 5.0)
    report(4, ok, (
        f"objective matches a per-point loop on 100 random pair sets "
        f"(worst gap {worst_gap:.3g}; 3-4-5 example gives mean 2.5)"
    ))


def random_table(rng):
    """Complete sweep table with coarse values so ties actually happen."""
    pool = [0.0, 0.25, 0.5, 0.75, 1.0]
    names = [f"veh.p{i}" for i in range(rng.randint(1, 3))]
    space = {
        name: rng.sample([0.1, 0.2, 0.3, 0.4, 0.5], rng.randint(1, 3))
        for name in names
    }
    scenarios = [f"s{i}" for i in range(rng.randint(1, 3))]
    grid = expand_grid(space)
    rows = []
    for scenario in scenarios:
        for assignment in grid:
            rows.append(
                SweepRow(
                    scenario=scenario,
                    assignment=assignment,
                    mean_error=rng.choice(pool),
                    max_error=rng.choice(pool),
                )
            )
    return space, grid, rows


def test_criterion_05_optimizer_oracle():
    rng = random.Random(4321)
    agreements = 0
    for _ in range(200):
        space, grid, rows = random_table(rng)
        totals = {}
        for row in rows:
            key = tuple(row.assignment[name] for name in space)
            totals[key] = totals.get(key, 0.0) + row.mean_error
        best_key = None
        best_total = math.inf
        for assignment in grid:  # first hit in grid order wins ties
            key = tuple(assignment[name] for name in space)
            if totals[key] < best_total:
                best_total = totals[key]
                best_key = key
        expected = dict(zip(space, best_key))
        got_assignment, got_total = optimize(rows, space=space)
        if got_assignment == expected and got_total == best_total:
            agreements += 1
    report(5, agreements == 200,
           f"optimize agreed with the brute-force reference on {agreements}/200 tables")


def test_criterion_06_pareto_oracle():
    matches = 0
    for seed in range(10):
        rng = random.Random(1000 + seed)
        rows = [
            SweepRow(
                scenario="s",
                assignment={"veh.p": float(i)},
                mean_error=rng.choice([x / 4 for x in range(12)]),
                max_error=rng.choice([x / 4 for x in range(12)]),
            )
            for i in range(500)
        ]

        def dominates(a, b):
            return (
                a.mean_error <= b.mean_error
                and a.max_error <= b.max_error
                and (a.mean_error < b.mean_error or a.max_error < b.max_error)
            )

        expected = [
            row for row in rows if not any(dominates(other, row) for other in rows)
        ]
        expected.sort(key=lambda row: row.mean_error)  # stable: keeps input order
        if pareto_rank(rows) == expected:
            matches += 1
    report(6, matches == 10,
           f"pareto_rank equals the quadratic domination check on {matches}/10 seeds of 500 rows")


def test_criterion_07_safety_stop_behaviour(field_map_path, blind_map_path, tmp_path):
    runs = [
        SafetyRun(
            run_id=f"stop_v{v}", map_path=str(field_map_path), speed=float(v),
            sensor={"min_range": 0.1, "max_range": 2.0}, duration=15.0,
        )
        for v in (1, 2, 3)
    ]
    runs.append(
        SafetyRun(
            run_id="blind_zone", map_path=str(blind_map_path), speed=3.0,
            sensor={"min_range": 1.0, "max_range": 2.0}, duration=5.0,
        )
    )
    verdicts = {
        v.run_id: v for v in run_safety_suite(SafetySuite(runs=runs), tmp_path / "ev")
    }
    stops_ok = all(
        verdicts[f"stop_v{v}"].passed and verdicts[f"stop_v{v}"].measured > 0.0
        for v in (1, 2, 3)
    )
    blind = verdicts["blind_zone"]
    gaps = "/".join(f"{verdicts[f'stop_v{v}'].measured:.3f}" for v in (1, 2, 3))
    ok = stops_ok and not blind.passed
    report(7, ok, (
        f"supervised stops at 1/2/3 m/s keep gaps {gaps} m; "
        "the blind-zone run fails as expected"
    ))


EULER_PARAMS = {"m_robot": 2000.0, "cAlphaF": 10000.0, "mu": 0.7}


def final_position(h, steps):
    unit = VehicleUnit(dict(EULER_PARAMS))
    unit.set_input("velocity", 3.0)
    unit.set_input("delta_f", 0.05)
    for _ in range(steps):
        unit.do_step(h)
    return unit.get_output("x"), unit.get_output("y")


def test_criterion_08_euler_convergence():
    errors = []
    for h, steps in ((0.04, 250), (0.02, 500), (0.01, 1000)):
        x, y = final_position(h, steps)
        x_ref, y_ref = final_position(h / 64.0, steps * 64)
        errors.append(math.hypot(x - x_ref, y - y_ref))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(1.6 <= ratio <= 2.4 for ratio in ratios)
    report(8, ok, (
        "constant-turn final-position error halves per step halving "
        f"(ratios {ratios[0]:.3f}, {ratios[1]:.3f})"
    ))


# --- criterion 9 helpers ------------------------------------------------------


def reference_eval(tree, states, name):
    event = tree.events[name]
    if event.gate == "basic":
        return states[name]
    child_values = [reference_eval(tree, states, c) for c in event.children]
    return all(child_values) if event.gate == "and" else any(child_values)


def random_tree(rng):
    n_basic = rng.randint(4, 10)
    events = {f"b{i}": FtEvent(f"b{i}", "basic") for i in range(n_basic)}
    pool = list(events)
    for gi in range(rng.randint(2, 6)):
        children = tuple(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        name = f"g{gi}"
        events[name] = FtEvent(name, rng.choice(["and", "or"]), children)
        pool.append(name)
    events["top"] = FtEvent(
        "top", rng.choice(["and", "or"]),
        tuple(rng.sample(pool, rng.randint(2, min(4, len(pool))))),
    )
    return FaultTree(top="top", events=events)


def gsn_verdict(run_id, passed):
    return EvidenceVerdict(
        run_id=run_id, passed=passed, criterion="c", measured=1.0, threshold=0.0
    )


def random_gsn_case(rng):
    n_runs = rng.randint(2, 6)
    run_ids = [f"run{i}" for i in range(n_runs)]
    verdicts = {r: gsn_verdict(r, rng.random() < 0.4) for r in run_ids}
    nodes = []
    layer = []
    for i in range(rng.randint(2, 5)):
        refs = tuple(rng.sample(run_ids, rng.randint(0, n_runs)))
        nodes.append(GsnNode(f"E{i}", "solution", evidence_refs=refs))
        layer.append(f"E{i}")
    if rng.random() < 0.5:
        nodes.append(
            GsnNode("A0", "away_goal", module_ref="m", asserted=rng.random() < 0.5)
        )
        layer.append("A0")
    for i in range(rng.randint(1, 3)):
        children = tuple(rng.sample(layer, rng.randint(1, len(layer))))
        nodes.append(GsnNode(f"S{i}", "strategy", children=children))
        layer.append(f"S{i}")
    nodes.append(GsnNode("G_root", "goal", children=tuple(layer[-2:])))
    return GsnGraph(nodes), verdicts


def test_criterion_09_fault_tree_and_gsn():
    rng = random.Random(97)
    trees_ok = True
    for _ in range(10):
        tree = random_tree(rng)
        basics = tree.basic_events()

        def outcome(true_set):
            return evaluate_fault_tree(tree, {b: b in true_set for b in basics})

        for bits in itertools.product([False, True], repeat=len(basics)):
            states = dict(zip(basics, bits))
            if evaluate_fault_tree(tree, states) != reference_eval(tree, states, tree.top):
                trees_ok = False
        for cut in minimal_cut_sets(tree):
            if not outcome(cut):
                trees_ok = False
            if any(outcome(cut - {member}) for member in cut):
                trees_ok = False

    rank = {Status.UNSUPPORTED: 0, Status.UNDEVELOPED: 1, Status.SUPPORTED: 2}
    monotone = True
    flips = 0
    while flips < 1000:
        graph, verdicts = random_gsn_case(rng)
        failing = [r for r, v in verdicts.items() if not v.passed]
        if not failing:
            continue
        before = link_evidence(graph, verdicts).statuses
        fixed = dict(verdicts)
        chosen = rng.choice(failing)
        fixed[chosen] = gsn_verdict(chosen, True)
        after = link_evidence(graph, fixed).statuses
        if any(rank[after[n]] < rank[before[n]] for n in before):
            monotone = False
        flips += 1

    away = GsnGraph(
        [
            GsnNode("G1", "goal", children=("A1",)),
            GsnNode("A1", "away_goal", module_ref="other.case", asserted=False),
        ]
    )
    away_ok = link_evidence(away, {}).root_status() is not Status.SUPPORTED

    ok = trees_ok and monotone and away_ok
    report(9, ok, (
        "fault trees match truth tables, cut sets are sufficient and minimal, "
        "goal statuses stay monotone over 1000 verdict flips, "
        "unasserted away goals block support"
    ))


def test_criterion_10_determinism_and_formats(sweep_outcome, tmp_path):
    serial_rows = run_sweep(sweep_outcome.config, workers=1)
    serial_path = tmp_path / "serial.csv"
    write_dse_results(
        serial_rows, serial_path, param_names=list(sweep_outcome.config.parameters)
    )
    sweep_identical = serial_path.read_bytes() == sweep_outcome.table_path.read_bytes()

    names, rows_back = read_dse_results(sweep_outcome.table_path)
    table_roundtrip = rows_back == sweep_outcome.rows

    rng = random.Random(31)
    trace = TimedTrace(
        channels=["veh.x", "veh.y"],
        times=[0.1 * k for k in range(60)],
        values=[[rng.uniform(-1e6, 1e6), rng.uniform(-1e-6, 1e-6)] for _ in range(60)],
    )
    write_trace_csv(trace, tmp_path / "trace.csv")
    back = read_trace_csv(tmp_path / "trace.csv")
    trace_roundtrip = (
        back.channels == trace.channels
        and back.times == trace.times
        and back.values == trace.values
    )

    grid = build_field_map()
    write_grid_map(grid, tmp_path / "field.map")
    map_roundtrip = read_grid_map(tmp_path / "field.map") == grid

    chain = GsnGraph(
        [
            GsnNode("G1", "goal", text="Top goal", children=("S1",)),
            GsnNode("S1", "strategy", children=("E1",)),
            GsnNode("E1", "solution", evidence_refs=("run1",)),
        ]
    )
    dot = render_gsn_dot(link_evidence(chain, {"run1": gsn_verdict("run1", True)}))
    dot_golden = dot == (
        "digraph gsn {\n"
        "  rankdir=TB;\n"
        '  node [fontname="Helvetica"];\n'
        '  "G1" [shape=box, label="G1\\nTop goal"];\n'
        '  "S1" [shape=parallelogram, label="S1"];\n'
        '  "E1" [shape=circle, label="E1"];\n'
        '  "G1" -> "S1";\n'
        '  "S1" -> "E1";\n'
        "}\n"
    )

    ok = sweep_identical and table_roundtrip and trace_roundtrip and map_roundtrip and dot_golden
    report(10, ok, (
        "sweep output is byte-identical for 1 vs 8 workers; trace, result table, "
        "grid map and DOT writers round-trip or golden-match"
    ))
