"""Safety case tests: fault trees, evidence verdicts, goal structures, suites."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim.errors import ConfigError, SimulationError
from fieldsim.orchestrator import validate_config
from fieldsim.safety import (
    AnnotatedGsn,
    EvidenceVerdict,
    FaultTree,
    FtEvent,
    GsnGraph,
    GsnNode,
    SafetyRun,
    Status,
    assess_run,
    evaluate_fault_tree,
    harvester_config,
    link_evidence,
    minimal_cut_sets,
    read_fault_tree,
    read_gsn,
    read_safety_suite,
    read_verdicts,
    render_gsn_dot,
    run_safety_suite,
    write_verdict,
)
from fieldsim.traces import TimedTrace
from fieldsim.units import (
    GridMap,
    default_registry,
    pure_pursuit_factory,
    sensor_factory,
    write_grid_map,
)

from conftest import build_field_map


# --- fault trees: structure -------------------------------------------------


def simple_tree():
    # top fires when c fires, or when a and b fire together
    return FaultTree(
        top="top",
        events={
            "top": FtEvent("top", "or", ("both", "c")),
            "both": FtEvent("both", "and", ("a", "b")),
            "a": FtEvent("a", "basic"),
            "b": FtEvent("b", "basic"),
            "c": FtEvent("c", "basic"),
        },
    )


def test_read_fault_tree(tmp_path):
    doc = {
        "top": "top",
        "events": {
            "top": {"gate": "or", "children": ["both", "c"]},
            "both": {"gate": "and", "children": ["a", "b"], "label": "a with b"},
            "a": {"gate": "basic"},
            "b": {"gate": "basic"},
            "c": {"gate": "basic"},
        },
    }
    path = tmp_path / "ft.json"
    path.write_text(json.dumps(doc))
    tree = read_fault_tree(path)
    assert tree.top == "top"
    assert tree.events["both"].label == "a with b"
    assert sorted(tree.basic_events()) == ["a", "b", "c"]


@pytest.mark.parametrize(
    "events,fragment",
    [
        ({"top": FtEvent("t", "nand", ("a",)), "a": FtEvent("a", "basic")}, "unknown gate"),
        ({"top": FtEvent("t", "basic", ("a",)), "a": FtEvent("a", "basic")}, "cannot have children"),
        ({"top": FtEvent("t", "and")}, "at least one child"),
        ({"top": FtEvent("t", "or", ("ghost",))}, "unknown child"),
    ],
)
def test_fault_tree_validation(events, fragment):
    with pytest.raises(ConfigError, match=fragment):
        FaultTree(top="top", events=events).validate()


def test_fault_tree_rejects_undefined_top():
    with pytest.raises(ConfigError, match="top event 'zz'"):
        FaultTree(top="zz", events={"a": FtEvent("a", "basic")}).validate()


def test_fault_tree_rejects_cycles():
    events = {
        "top": FtEvent("top", "or", ("g",)),
        "g": FtEvent("g", "and", ("top", "a")),
        "a": FtEvent("a", "basic"),
    }
    with pytest.raises(ConfigError, match="cycle"):
        FaultTree(top="top", events=events).validate()


def test_read_fault_tree_document_shape(tmp_path):
    path = tmp_path / "ft.json"
    path.write_text(json.dumps({"top": "a"}))
    with pytest.raises(ConfigError, match="^fault tree document needs 'top' and 'events'$"):
        read_fault_tree(path)
    path.write_text(json.dumps({"top": "a", "events": {"a": {"gate": "basic", "x": 1}}}))
    with pytest.raises(ConfigError, match="unknown keys"):
        read_fault_tree(path)


# --- fault trees: evaluation ------------------------------------------------


def test_evaluate_examples():
    tree = simple_tree()
    assert evaluate_fault_tree(tree, {"a": False, "b": False, "c": True}) is True
    assert evaluate_fault_tree(tree, {"a": True, "b": True, "c": False}) is True
    assert evaluate_fault_tree(tree, {"a": True, "b": False, "c": False}) is False
    assert evaluate_fault_tree(tree, {"a": False, "b": False, "c": False}) is False


def test_evaluate_state_checking():
    tree = simple_tree()
    with pytest.raises(ConfigError, match="no state for basic events: b, c"):
        evaluate_fault_tree(tree, {"a": True})
    with pytest.raises(ConfigError, match="not a basic event"):
        evaluate_fault_tree(tree, {"a": True, "b": True, "c": True, "both": True})
    with pytest.raises(ConfigError, match="must be a boolean"):
        evaluate_fault_tree(tree, {"a": 1, "b": False, "c": False})


def reference_eval(tree, states, name):
    event = tree.events[name]
    if event.gate == "basic":
        return states[name]
    child_values = [reference_eval(tree, states, c) for c in event.children]
    return all(child_values) if event.gate == "and" else any(child_values)


def random_tree(rng):
    n_basic = rng.randint(1, 6)
    events = {f"b{i}": FtEvent(f"b{i}", "basic") for i in range(n_basic)}
    pool = list(events)
    for gi in range(rng.randint(1, 5)):
        children = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        name = f"g{gi}"
        events[name] = FtEvent(name, rng.choice(["and", "or"]), children)
        pool.append(name)
    top_children = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
    events["top"] = FtEvent("top", rng.choice(["and", "or"]), top_children)
    return FaultTree(top="top", events=events)


def test_evaluate_matches_reference_over_full_truth_tables():
    rng = random.Random(47)
    for _ in range(20):
        tree = random_tree(rng)
        basics = tree.basic_events()
        for bits in itertools.product([False, True], repeat=len(basics)):
            states = dict(zip(basics, bits))
            assert evaluate_fault_tree(tree, states) == reference_eval(
                tree, states, tree.top
            )


# --- fault trees: minimal cut sets ------------------------------------------


def test_cut_sets_textbook_example():
    assert minimal_cut_sets(simple_tree()) == [
        frozenset({"c"}),
        frozenset({"a", "b"}),
    ]


def test_cut_sets_absorb_supersets():
    # or(a, and(a, b)): the {a, b} branch is absorbed by {a}
    tree = FaultTree(
        top="top",
        events={
            "top": FtEvent("top", "or", ("a", "ab")),
            "ab": FtEvent("ab", "and", ("a", "b")),
            "a": FtEvent("a", "basic"),
            "b": FtEvent("b", "basic"),
        },
    )
    assert minimal_cut_sets(tree) == [frozenset({"a"})]


def test_cut_sets_are_sufficient_minimal_and_complete():
    rng = random.Random(53)
    for _ in range(15):
        tree = random_tree(rng)
        basics = tree.basic_events()
        cuts = minimal_cut_sets(tree)

        def outcome(true_set):
            return evaluate_fault_tree(tree, {b: b in true_set for b in basics})

        for cut in cuts:
            assert outcome(cut), "cut set must force the top event"
            for member in cut:
                assert not outcome(cut - {member}), "cut set must be minimal"

        # completeness: every firing assignment contains some cut set
        for bits in itertools.product([False, True], repeat=len(basics)):
            true_set = {b for b, bit in zip(basics, bits) if bit}
            if outcome(true_set):
                assert any(cut <= true_set for cut in cuts)


def test_cut_sets_limit_on_basic_events():
    events = {f"b{i}": FtEvent(f"b{i}", "basic") for i in range(21)}
    events["top"] = FtEvent("top", "or", tuple(f"b{i}" for i in range(21)))
    with pytest.raises(ConfigError, match="at most 20 basic events"):
        minimal_cut_sets(FaultTree(top="top", events=events))


# --- evidence verdicts ------------------------------------------------------


def test_verdict_roundtrip(tmp_path):
    verdict = EvidenceVerdict(
        run_id="run1", passed=True, criterion="min gap > 0 m", measured=0.7, threshold=0.0
    )
    out = write_verdict(verdict, tmp_path)
    assert out == tmp_path / "run1" / "verdict.json"
    assert read_verdicts(tmp_path) == {"run1": verdict}
    # the note key only appears when a note exists
    assert "note" not in json.loads(out.read_text())


def test_verdict_note_is_preserved(tmp_path):
    verdict = EvidenceVerdict(
        run_id="run2", passed=False, criterion="c", measured=-1.0,
        threshold=0.0, note="simulation failed: boom",
    )
    write_verdict(verdict, tmp_path)
    assert read_verdicts(tmp_path)["run2"].note == "simulation failed: boom"


def test_read_verdicts_of_missing_directory_is_empty(tmp_path):
    assert read_verdicts(tmp_path / "nowhere") == {}


def test_read_verdicts_rejects_mismatched_directory(tmp_path):
    run_dir = tmp_path / "alpha"
    run_dir.mkdir()
    (run_dir / "verdict.json").write_text(
        json.dumps({"run_id": "beta", "passed": True, "criterion": "c",
                    "measured": 1.0, "threshold": 0.0})
    )
    with pytest.raises(ConfigError, match="does not match its directory"):
        read_verdicts(tmp_path)


def test_read_verdicts_rejects_malformed_files(tmp_path):
    run_dir = tmp_path / "alpha"
    run_dir.mkdir()
    (run_dir / "verdict.json").write_text('{"run_id": "alpha"}')
    with pytest.raises(ConfigError, match="malformed verdict"):
        read_verdicts(tmp_path)


# --- goal structures --------------------------------------------------------


def chain_graph():
    return GsnGraph(
        [
            GsnNode("G1", "goal", text="Top goal", children=("S1",)),
            GsnNode("S1", "strategy", children=("E1",)),
            GsnNode("E1", "solution", evidence_refs=("run1",)),
        ]
    )


def verdict(run_id, passed):
    return EvidenceVerdict(
        run_id=run_id, passed=passed, criterion="c", measured=1.0, threshold=0.0
    )


def test_gsn_validation_errors():
    with pytest.raises(ConfigError, match="duplicate node id"):
        GsnGraph([GsnNode("a", "goal"), GsnNode("a", "goal")]).validate()
    with pytest.raises(ConfigError, match="unknown kind"):
        GsnGraph([GsnNode("a", "claim")]).validate()
    with pytest.raises(ConfigError, match="only goals and strategies have children"):
        GsnGraph(
            [GsnNode("a", "solution", children=("b",)), GsnNode("b", "goal")]
        ).validate()
    with pytest.raises(ConfigError, match="only solutions carry evidence_refs"):
        GsnGraph([GsnNode("a", "goal", evidence_refs=("r",))]).validate()
    with pytest.raises(ConfigError, match="needs a module_ref"):
        GsnGraph([GsnNode("a", "away_goal")]).validate()
    with pytest.raises(ConfigError, match="unknown child"):
        GsnGraph([GsnNode("a", "goal", children=("ghost",))]).validate()
    with pytest.raises(ConfigError, match="cycle"):
        GsnGraph(
            [
                GsnNode("a", "goal", children=("b",)),
                GsnNode("b", "strategy", children=("a",)),
            ]
        ).validate()


def test_read_gsn_document_shape(tmp_path):
    path = tmp_path / "gsn.json"
    path.write_text(json.dumps({"nodes": [{"id": "a"}]}))
    with pytest.raises(ConfigError, match="needs 'id' and 'kind'"):
        read_gsn(path)
    path.write_text(json.dumps({"nodes": [], "extra": 1}))
    with pytest.raises(ConfigError, match="^goal structure document: unknown keys extra$"):
        read_gsn(path)
    path.write_text(json.dumps({"nodes": [{"id": "a", "kind": "goal", "zz": 1}]}))
    with pytest.raises(ConfigError, match="unknown keys"):
        read_gsn(path)


def test_gsn_roots_exclude_contexts_and_referenced_nodes():
    graph = GsnGraph(
        [
            GsnNode("G1", "goal", children=("S1",)),
            GsnNode("S1", "strategy"),
            GsnNode("C1", "context"),
        ]
    )
    assert [n.node_id for n in graph.roots()] == ["G1"]


def test_link_evidence_supported_chain():
    annotated = link_evidence(chain_graph(), {"run1": verdict("run1", True)})
    assert annotated.statuses == {
        "G1": Status.SUPPORTED,
        "S1": Status.SUPPORTED,
        "E1": Status.SUPPORTED,
    }
    assert annotated.root_status() is Status.SUPPORTED


def test_link_evidence_failed_run_is_unsupported():
    annotated = link_evidence(chain_graph(), {"run1": verdict("run1", False)})
    assert annotated.statuses["E1"] is Status.UNSUPPORTED
    assert annotated.statuses["G1"] is Status.UNSUPPORTED


def test_solution_without_references_is_undeveloped():
    graph = GsnGraph([GsnNode("G1", "goal", children=("E1",)), GsnNode("E1", "solution")])
    annotated = link_evidence(graph, {})
    assert annotated.statuses["E1"] is Status.UNDEVELOPED
    assert annotated.statuses["G1"] is Status.UNDEVELOPED


def test_away_goal_needs_assertion():
    def graph(asserted):
        return GsnGraph(
            [
                GsnNode("G1", "goal", children=("A1", "E1")),
                GsnNode("A1", "away_goal", module_ref="braking.module", asserted=asserted),
                GsnNode("E1", "solution", evidence_refs=("run1",)),
            ]
        )

    verdicts = {"run1": verdict("run1", True)}
    pessimistic = link_evidence(graph(False), verdicts)
    assert pessimistic.statuses["A1"] is Status.UNDEVELOPED
    assert pessimistic.statuses["G1"] is Status.UNDEVELOPED

    optimistic = link_evidence(graph(True), verdicts)
    assert optimistic.statuses["A1"] is Status.SUPPORTED
    assert optimistic.statuses["G1"] is Status.SUPPORTED


def test_contexts_never_gate_their_parent():
    graph = GsnGraph(
        [
            GsnNode("G1", "goal", children=("C1", "E1")),
            GsnNode("C1", "context", text="operating area"),
            GsnNode("E1", "solution", evidence_refs=("run1",)),
        ]
    )
    annotated = link_evidence(graph, {"run1": verdict("run1", True)})
    assert annotated.statuses["G1"] is Status.SUPPORTED
    # a goal with only context children has nothing supporting it
    lonely = GsnGraph(
        [GsnNode("G1", "goal", children=("C1",)), GsnNode("C1", "context")]
    )
    assert link_evidence(lonely, {}).statuses["G1"] is Status.UNDEVELOPED


def test_goal_takes_worst_child_status():
    graph = GsnGraph(
        [
            GsnNode("G1", "goal", children=("E1", "E2", "E3")),
            GsnNode("E1", "solution", evidence_refs=("ok",)),
            GsnNode("E2", "solution"),
            GsnNode("E3", "solution", evidence_refs=("bad",)),
        ]
    )
    verdicts = {"ok": verdict("ok", True), "bad": verdict("bad", False)}
    assert link_evidence(graph, verdicts).statuses["G1"] is Status.UNSUPPORTED


def test_link_evidence_rejects_dangling_references():
    with pytest.raises(ConfigError, match="evidence refs without verdicts: run1"):
        link_evidence(chain_graph(), {})


def test_root_status_requires_a_root():
    lonely = GsnGraph([GsnNode("C1", "context")])
    annotated = link_evidence(lonely, {})
    with pytest.raises(ConfigError, match="no root node"):
        annotated.root_status()


def random_gsn_case(rng):
    n_runs = rng.randint(2, 6)
    run_ids = [f"run{i}" for i in range(n_runs)]
    verdicts = {r: verdict(r, rng.random() < 0.4) for r in run_ids}
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


def test_fixing_a_failed_run_never_downgrades_any_node():
    rank = {Status.UNSUPPORTED: 0, Status.UNDEVELOPED: 1, Status.SUPPORTED: 2}
    rng = random.Random(61)
    flips = 0
    while flips < 100:
        graph, verdicts = random_gsn_case(rng)
        failing = [r for r, v in verdicts.items() if not v.passed]
        if not failing:
            continue
        before = link_evidence(graph, verdicts).statuses
        fixed = dict(verdicts)
        chosen = rng.choice(failing)
        fixed[chosen] = verdict(chosen, True)
        after = link_evidence(graph, fixed).statuses
        for node_id in before:
            assert rank[after[node_id]] >= rank[before[node_id]]
        flips += 1


# --- DOT rendering ----------------------------------------------------------


def test_dot_golden_chain():
    annotated = link_evidence(chain_graph(), {"run1": verdict("run1", True)})
    expected = (
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
    assert render_gsn_dot(annotated) == expected


def test_dot_golden_empty_graph():
    annotated = AnnotatedGsn(graph=GsnGraph([]), statuses={})
    assert render_gsn_dot(annotated) == (
        "digraph gsn {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n}\n"
    )


def test_dot_styles_follow_status():
    graph = GsnGraph(
        [
            GsnNode("G1", "goal", children=("E1", "E2", "C1", "A1")),
            GsnNode("E1", "solution", evidence_refs=("bad",)),
            GsnNode("E2", "solution"),
            GsnNode("C1", "context"),
            GsnNode("A1", "away_goal", module_ref="brakes.case"),
        ]
    )
    dot = render_gsn_dot(link_evidence(graph, {"bad": verdict("bad", False)}))
    lines = dot.splitlines()
    e1 = next(l for l in lines if l.startswith('  "E1"'))
    assert 'style="dashed"' in e1
    e2 = next(l for l in lines if l.startswith('  "E2"'))
    assert "color=grey" in e2 and "fontcolor=grey" in e2
    c1 = next(l for l in lines if l.startswith('  "C1"'))
    assert 'style="rounded"' in c1 and "grey" not in c1
    a1 = next(l for l in lines if l.startswith('  "A1"'))
    assert "shape=tab" in a1 and "\\n[brakes.case]" in a1
    # all edges render after all node statements
    first_edge = next(i for i, l in enumerate(lines) if " -> " in l)
    assert all(" -> " in l for l in lines[first_edge:-1])


def test_dot_escapes_quotes_in_text():
    graph = GsnGraph([GsnNode("G1", "goal", text='the "safe" case')])
    dot = render_gsn_dot(link_evidence(graph, {}))
    assert '\\"safe\\"' in dot


def test_dot_is_deterministic():
    graph, verdicts = random_gsn_case(random.Random(7))
    a = render_gsn_dot(link_evidence(graph, verdicts))
    b = render_gsn_dot(link_evidence(graph, verdicts))
    assert a == b


# --- safety suite -----------------------------------------------------------


def write_suite(tmp_path, doc, name="suite.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_read_safety_suite_defaults_and_overrides(tmp_path):
    doc = {
        "map": "field.map",
        "runs": [
            {"id": "a", "speed": 1.0},
            {"id": "b", "speed": 2.0, "map": "other.map", "decel": 4.0,
             "sensor": {"min_range": 0.1}, "gap_threshold": 0.5},
        ],
    }
    suite = read_safety_suite(write_suite(tmp_path, doc))
    first, second = suite.runs
    assert first.map_path.endswith("field.map")
    assert first.decel == 3.0 and first.margin == 0.2
    assert first.duration == 20.0 and first.step_size == 0.01
    assert first.path == ((0.0, 0.0), (50.0, 0.0))
    assert second.map_path.endswith("other.map")
    assert second.sensor == {"min_range": 0.1}
    assert second.gap_threshold == 0.5


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"runs": [{"id": "a/b", "speed": 1.0}], "map": "m"}, "bad run id"),
        ({"runs": [{"id": "a", "speed": 1.0}, {"id": "a", "speed": 2.0}], "map": "m"}, "duplicate run id"),
        ({"runs": [{"id": "a"}], "map": "m"}, "needs 'id' and 'speed'"),
        ({"runs": [{"id": "a", "speed": -1.0}], "map": "m"}, "bad speed"),
        ({"runs": [{"id": "a", "speed": 1.0}]}, "names no map"),
        ({"runs": [{"id": "a", "speed": 1.0, "zz": 1}], "map": "m"}, "unknown keys"),
        ({"runs": [{"id": "a", "speed": 1.0, "multi_model": "combine"}], "map": "m"}, "unknown keys multi_model"),
        ({"runs": {}}, r"suite\.json: 'runs' must be a list, got \{\}$"),
        ({"runs": [], "map": "m", "maps": "m"}, r"suite\.json: unknown keys maps$"),
        ({"runs": [{"id": "a", "speed": 1.0, "map": 5}]}, r"suite\.json: run 'a': 'map' must be a string, got 5$"),
        # a run id names a directory inside the evidence directory and a CSV field
        *(({"runs": [{"id": run_id, "speed": 1.0}], "map": "m"}, "bad run id")
          for run_id in ("", ".", "..", "a\\b", "a,b", "a\nb", "a\rb", 5)),
    ],
)
def test_read_safety_suite_rejections(tmp_path, doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        read_safety_suite(write_suite(tmp_path, doc))


def test_harvester_topology_is_runnable():
    run = SafetyRun(run_id="r", map_path="unused", speed=2.0)
    registry = default_registry()
    registry.register("pure_pursuit", pure_pursuit_factory(run.path))
    registry.register("sensor", sensor_factory(build_field_map()))
    assert validate_config(harvester_config(run), registry) == []


def fake_trace(xs, stop_engaged, final_velocity):
    n = len(xs)
    return TimedTrace(
        channels=["veh.x", "veh.y", "veh.theta", "sup.velocity",
                  "sup.stop_engaged", "sns.obstacle_distance"],
        times=[0.1 * k for k in range(n)],
        values=[
            [x, 0.0, 0.0,
             final_velocity if k == n - 1 else 1.0,
             1.0 if stop_engaged else 0.0,
             -1.0]
            for k, x in enumerate(xs)
        ],
    )


def test_assess_run_judges_gap_and_standstill():
    grid = build_field_map()  # obstacle front face at x = 10
    stopped_short = fake_trace([0.0, 5.0, 9.0], stop_engaged=True, final_velocity=0.0)
    gap, passed = assess_run(stopped_short, grid, 0.0)
    assert gap == pytest.approx(1.0)
    assert passed is True

    still_rolling = fake_trace([0.0, 5.0, 9.0], stop_engaged=True, final_velocity=0.3)
    assert assess_run(still_rolling, grid, 0.0)[1] is False

    touched = fake_trace([0.0, 5.0, 10.1], stop_engaged=True, final_velocity=0.0)
    gap, passed = assess_run(touched, grid, 0.0)
    assert gap == 0.0
    assert passed is False

    cruised = fake_trace([0.0, 2.0, 4.0], stop_engaged=False, final_velocity=1.0)
    assert assess_run(cruised, grid, 0.0)[1] is True

    # a gap above zero but below a raised threshold still fails
    assert assess_run(stopped_short, grid, 1.5)[1] is False


def assess_every_row(trace, grid, gap_threshold):
    """``assess_run`` as a scan that measures the clearance of every row."""
    gaps = [grid.clearance(x, y) for x, y in zip(trace.column("veh.x"), trace.column("veh.y"))]
    min_gap = min(gaps, default=math.inf)
    stop_engaged = trace.column("sup.stop_engaged")[-1] != 0.0
    final_velocity = trace.column("sup.velocity")[-1]
    return min_gap, min_gap > gap_threshold and (not stop_engaged or final_velocity == 0.0)


def position_trace(positions, stop_engaged=True, final_velocity=0.0):
    n = len(positions)
    return TimedTrace(
        channels=["veh.x", "veh.y", "sup.velocity", "sup.stop_engaged"],
        times=[0.1 * k for k in range(n)],
        values=[[x, y, final_velocity if k == n - 1 else 1.0, float(stop_engaged)]
                for k, (x, y) in enumerate(positions)],
    )


# one occupied cell, [2, 3] x [2, 3]
ONE_CELL = GridMap(4, 4, 1.0, 0.0, 0.0, tuple(int(n == 10) for n in range(16)))


def test_assess_run_measures_each_run_of_one_position_once(monkeypatch):
    # at x = 2.5 the gap shrinks with y alone, and the zeros differ only in sign
    positions = [(0.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0),
                 (2.5, 0.0), (2.5, 0.0), (2.5, 1.0), (2.5, 1.5), (2.5, 1.5), (0.0, 0.0)]
    trace = position_trace(positions)
    expected = assess_every_row(trace, ONE_CELL, 0.25)
    measured = []
    clearance = GridMap.clearance
    monkeypatch.setattr(GridMap, "clearance", lambda grid, x, y: (
        measured.append((x.hex(), y.hex())), clearance(grid, x, y))[1])
    assert assess_run(trace, ONE_CELL, 0.25) == expected == (0.5, True)
    # last row first, and only a position whose distance to the cell's box is
    # below the least gap so far: (2.5, 1.5) is measured once, its run's other
    # row and every row before it are not
    assert measured == [((0.0).hex(), (0.0).hex()), ((2.5).hex(), (1.5).hex())]


positions_near_one_cell = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, 3.0, 4.5]) | st.floats(-1.0, 5.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), stop_engaged=st.booleans(), final_velocity=st.sampled_from([0.0, -0.0, 0.5]),
       gap_threshold=st.sampled_from([0.0, 0.5, 1.0]))
def test_assess_run_is_a_scan_of_every_row(data, stop_engaged, final_velocity, gap_threshold):
    points = data.draw(st.lists(st.tuples(positions_near_one_cell, positions_near_one_cell),
                                min_size=1, max_size=5))
    # each drawn position held for a few rows, and earlier ones revisited
    walk = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=30))
    positions = [p for p in walk for _ in range(data.draw(st.integers(1, 3)))]
    trace = position_trace(positions, stop_engaged, final_velocity)
    assert assess_run(trace, ONE_CELL, gap_threshold) == assess_every_row(trace, ONE_CELL, gap_threshold)


def test_assess_run_measures_each_nearer_position_of_a_walk_along_y(monkeypatch):
    # last first, each run of one position is nearer the cell than the one after it
    positions = [(2.5, 1.5), (2.5, 1.5), (2.5, 1.0), (2.5, 0.0), (2.5, 0.0)]
    trace = position_trace(positions)
    expected = assess_every_row(trace, ONE_CELL, 0.25)
    measured = []
    clearance = GridMap.clearance
    monkeypatch.setattr(GridMap, "clearance", lambda grid, x, y: (
        measured.append((x, y)), clearance(grid, x, y))[1])
    assert assess_run(trace, ONE_CELL, 0.25) == expected == (0.5, True)
    assert measured == [(2.5, 0.0), (2.5, 1.0), (2.5, 1.5)]


@st.composite
def occupied_maps(draw):
    """Maps of up to 10 x 10 cells, 1 to 40 of them occupied anywhere."""
    width, height = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    res = draw(st.sampled_from([0.1, 0.25, 1.0]) | st.floats(0.05, 1.0))
    x0 = draw(st.sampled_from([0.0, -1.0, 64.0]) | st.floats(-8.0, 8.0))
    y0 = draw(st.sampled_from([0.0, -1.125, 64.0]) | st.floats(-8.0, 8.0))
    occupied = draw(st.sets(st.integers(0, width * height - 1), min_size=1, max_size=40))
    return GridMap(width, height, res, x0, y0, tuple(int(n in occupied) for n in range(width * height)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=occupied_maps(), stop_engaged=st.booleans(),
       gap_threshold=st.sampled_from([0.0, 0.5, 1.0]))
def test_assess_run_is_a_scan_of_every_row_on_any_map(data, grid, stop_engaged, gap_threshold):
    def coord(origin, cells):
        on_edge = origin + data.draw(st.integers(-3, cells + 3)) * grid.resolution
        return data.draw(st.just(on_edge) | st.floats(origin - 2.0, origin + cells * grid.resolution + 2.0))

    points = [(coord(grid.x0, grid.width), coord(grid.y0, grid.height))
              for _ in range(data.draw(st.integers(1, 5)))]
    walk = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=30))
    trace = position_trace(walk, stop_engaged)
    assert assess_run(trace, grid, gap_threshold) == assess_every_row(trace, grid, gap_threshold)


def suite_workspace(tmp_path):
    from fieldsim.units import write_grid_map

    write_grid_map(build_field_map(), tmp_path / "field.map")
    doc = {
        "map": "field.map",
        "runs": [
            {"id": "stop_v2", "speed": 2.0, "duration": 15.0,
             "sensor": {"min_range": 0.1, "max_range": 2.0}},
            {"id": "standstill", "speed": 0.0, "duration": 5.0},
        ],
    }
    return read_safety_suite(write_suite(tmp_path, doc))


def test_run_safety_suite_end_to_end(tmp_path):
    suite = suite_workspace(tmp_path)
    evidence = tmp_path / "evidence"
    verdicts = run_safety_suite(suite, evidence)
    assert [v.run_id for v in verdicts] == ["stop_v2", "standstill"]

    supervised = verdicts[0]
    assert supervised.passed is True
    assert 0.0 < supervised.measured < 1.0  # stopped just short of the obstacle
    assert supervised.criterion == "min gap > 0 m; standstill while stop engaged"

    parked = verdicts[1]
    assert parked.passed is True
    assert parked.measured == pytest.approx(10.0)  # never moves off the origin

    for run_id in ("stop_v2", "standstill"):
        assert (evidence / run_id / "results.csv").is_file()
        assert (evidence / run_id / "verdict.json").is_file()

    assert read_verdicts(evidence) == {v.run_id: v for v in verdicts}


def test_run_safety_suite_is_repeatable(tmp_path):
    suite = suite_workspace(tmp_path)
    first = tmp_path / "e1"
    second = tmp_path / "e2"
    run_safety_suite(suite, first)
    run_safety_suite(suite, second)
    for run in suite.runs:
        a = (first / run.run_id / "verdict.json").read_bytes()
        b = (second / run.run_id / "verdict.json").read_bytes()
        assert a == b


def test_run_safety_suite_requires_map_files(tmp_path):
    doc = {"map": "ghost.map", "runs": [{"id": "a", "speed": 1.0}]}
    suite = read_safety_suite(write_suite(tmp_path, doc))
    with pytest.raises(ConfigError, match="missing map file"):
        run_safety_suite(suite, tmp_path / "evidence")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_malformed_later_map_fails_before_any_run(tmp_path, workers):
    write_grid_map(build_field_map(), tmp_path / "field.map")
    (tmp_path / "bad.map").write_text("GRIDMAP 1\n1 1 0.25 0 0\nx\n")
    doc = {
        "map": "field.map",
        "runs": [{"id": "a", "speed": 1.0, "duration": 0.1},
                 {"id": "b", "speed": 1.0, "duration": 0.1, "map": "bad.map"}],
    }
    suite = read_safety_suite(write_suite(tmp_path, doc))
    evidence = tmp_path / "evidence"
    with pytest.raises(ConfigError, match=r"bad\.map:3: bad cell character 'x'"):
        run_safety_suite(suite, evidence, workers=workers)
    assert not evidence.exists()


@pytest.mark.parametrize(
    "entry,fragment",
    [
        ({"id": "G", "kind": "goal", "children": "ab"}, "'children' must be a list of names"),
        ({"id": "G", "kind": "goal", "children": [1]}, "'children' must be a list of names"),
        ({"id": "E", "kind": "solution", "evidence_refs": "run1"},
         "'evidence_refs' must be a list of names"),
    ],
)
def test_read_gsn_rejects_malformed_name_lists(entry, fragment):
    with pytest.raises(ConfigError, match=fragment):
        read_gsn({"nodes": [entry]})


def test_read_fault_tree_rejects_malformed_events():
    with pytest.raises(ConfigError, match="'events' must be an object"):
        read_fault_tree({"top": "t", "events": []})
    with pytest.raises(ConfigError, match="'children' must be a list of names"):
        read_fault_tree({"top": "t", "events": {"t": {"gate": "or", "children": "ab"}}})
    with pytest.raises(ConfigError, match="^event 't' needs a 'gate'$"):
        read_fault_tree({"top": "t", "events": {"t": {"label": "top", "children": []}}})
    with pytest.raises(ConfigError, match="^event 't' needs a 'gate'$"):
        read_fault_tree({"top": "t", "events": {"t": "basic"}})


def test_failed_rerun_leaves_no_stale_results(tmp_path, monkeypatch):
    from fieldsim import safety
    from fieldsim.units import write_grid_map

    write_grid_map(build_field_map(), tmp_path / "field.map")
    evidence = tmp_path / "evidence"
    run = {"id": "a", "speed": 1.0, "duration": 2.0}
    suite = read_safety_suite(write_suite(tmp_path, {"map": "field.map", "runs": [run]}))
    run_safety_suite(suite, evidence)
    assert (evidence / "a" / "results.csv").is_file()

    def breaks(config, registry):
        raise SimulationError("instance 'veh' failed at t=0.5")

    monkeypatch.setattr(safety, "run_cosim", breaks)
    [verdict] = run_safety_suite(suite, evidence)
    assert verdict.passed is False
    assert verdict.measured == -1.0
    assert verdict.note == "simulation failed: instance 'veh' failed at t=0.5"
    assert not (evidence / "a" / "results.csv").exists()
    assert read_verdicts(evidence) == {"a": verdict}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "runs,diagnostics",
    [
        ([{"id": "a", "speed": 1.0, "duration": 2.0, "sensor": {"min_range": 3.0, "max_range": 2.0}}],
         ["run 'a': instance 'sns': max_range must exceed min_range, got 2.0 <= 3.0"]),
        ([{"id": "a", "speed": 2.0, "sensor": {"max_rnage": 2.0}}, {"id": "b", "speed": 2.0, "decel": 0.0}],
         ["run 'a': instance 'sns': unit 'sensor': unknown parameter 'max_rnage'",
          "run 'b': instance 'sup': decel must be positive, got 0.0"]),
        ([{"id": "a", "speed": 2.0}, {"id": "b", "speed": 2.0, "duration": 1e9}],
         ["run 'b': run of 1000000000.0s at 0.01s exceeds 100000000 steps"]),
    ],
    ids=["range", "two-runs", "oversized"],
)
def test_an_invalid_loop_fails_the_suite_before_any_run(tmp_path, runs, diagnostics, workers):
    write_grid_map(build_field_map(), tmp_path / "field.map")
    suite = read_safety_suite(write_suite(tmp_path, {"map": "field.map", "runs": runs}))
    evidence = tmp_path / "evidence"
    with pytest.raises(ConfigError, match="^invalid safety suite$") as caught:
        run_safety_suite(suite, evidence, workers=workers)
    assert caught.value.diagnostics == diagnostics
    assert not evidence.exists()


def test_graphs_are_validated_when_built():
    with pytest.raises(ConfigError, match="fault tree top event 'zz' is not defined"):
        FaultTree(top="zz", events={"a": FtEvent("a", "basic")})
    with pytest.raises(ConfigError, match="duplicate node id 'a'"):
        GsnGraph([GsnNode("a", "goal"), GsnNode("a", "goal")])


@pytest.mark.parametrize(
    "key,value,fragment",
    [
        ("passed", "false", "'passed' must be true or false, got 'false'"),
        ("passed", 0, "'passed' must be true or false, got 0"),
        ("measured", "0.5", "'measured' must be a number, got '0.5'"),
        ("threshold", True, "'threshold' must be a number, got True"),
    ],
)
def test_read_verdicts_requires_json_booleans_and_numbers(tmp_path, key, value, fragment):
    verdict_file = write_verdict(verdict("alpha", True), tmp_path)
    doc = json.loads(verdict_file.read_text())
    doc[key] = value
    verdict_file.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as caught:
        read_verdicts(tmp_path)
    assert str(caught.value) == f"{verdict_file}: {fragment}"


def test_read_verdicts_accepts_an_infinite_gap(tmp_path):
    # assess_run measures an infinite gap on a map with no occupied cell
    unbounded = EvidenceVerdict(
        run_id="open", passed=True, criterion="c", measured=math.inf, threshold=0.0
    )
    write_verdict(unbounded, tmp_path)
    assert read_verdicts(tmp_path) == {"open": unbounded}


def test_read_gsn_requires_a_json_boolean_for_asserted():
    node = {"id": "A1", "kind": "away_goal", "module_ref": "m", "asserted": "false"}
    with pytest.raises(ConfigError, match="node 'A1': 'asserted' must be true or false"):
        read_gsn({"nodes": [node]})
    node["asserted"] = False
    assert read_gsn({"nodes": [node]}).by_id["A1"].asserted is False
