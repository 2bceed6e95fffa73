"""Safety cases: fault trees, goal-structure graphs, and evidence from runs.

The flow mirrors how a safety argument is actually assembled: a fault
tree captures which basic failures can raise the hazard, a goal
structure (GSN) decomposes the safety claim, and a suite of supervised
co-simulation runs produces pass/fail verdicts that back the solution
nodes at the bottom of the goal structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from ._shared import check_flag, check_kind, check_names, check_number, check_object, fan_out
from ._shared import is_plain_name, postorder, read_json
from .errors import ConfigError, SimulationError
from .orchestrator import MultiModelConfig, load_multimodel, run_cosim, validate_config, write_results_csv
from .simunit import UnitRegistry, bits_key
from .traces import TimedTrace
from .units import (
    GridMap,
    default_registry,
    pure_pursuit_factory,
    read_grid_map,
    sensor_factory,
)

# --- fault trees -------------------------------------------------------------

GATE_KINDS = ("and", "or", "basic")
MAX_CUT_SET_BASICS = 20


@dataclass(frozen=True)
class FtEvent:
    label: str
    gate: str
    children: tuple[str, ...] = ()


@dataclass
class FaultTree:
    """Top event id plus the event map; gates combine child events; validated when built."""

    top: str
    events: dict[str, FtEvent]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.top not in self.events:
            raise ConfigError(f"fault tree top event {self.top!r} is not defined")
        for name, event in self.events.items():
            if event.gate not in GATE_KINDS:
                raise ConfigError(f"event {name!r}: unknown gate {event.gate!r}")
            if event.gate == "basic":
                if event.children:
                    raise ConfigError(f"basic event {name!r} cannot have children")
            elif not event.children:
                raise ConfigError(f"gate {name!r} needs at least one child")
            for child in event.children:
                if child not in self.events:
                    raise ConfigError(f"event {name!r} references unknown child {child!r}")
        postorder(lambda name: self.events[name].children, self.events, "fault tree")

    def basic_events(self) -> list[str]:
        return [name for name, e in self.events.items() if e.gate == "basic"]


def read_fault_tree(source: str | Path | Mapping) -> FaultTree:
    where = "fault tree document"
    doc = check_object(where, read_json(source), ("top", "events"))
    events: dict[str, FtEvent] = {}
    for name, entry in check_kind(where, "events", doc["events"], dict).items():
        at = f"event {name!r}"
        entry = check_object(at, entry, ("gate",), ("label", "children"))
        events[name] = FtEvent(
            label=entry.get("label", name),
            gate=entry["gate"],
            children=check_names(at, "children", entry.get("children", [])),
        )
    return FaultTree(top=check_kind(where, "top", doc["top"], str), events=events)


def evaluate_fault_tree(tree: FaultTree, states: Mapping[str, bool]) -> bool:
    """Evaluate the top event for one assignment of the basic events."""
    missing = [b for b in tree.basic_events() if b not in states]
    if missing:
        raise ConfigError(f"no state for basic events: {', '.join(sorted(missing))}")
    for name, value in states.items():
        if name not in tree.events or tree.events[name].gate != "basic":
            raise ConfigError(f"state given for {name!r}, which is not a basic event")
        if value is not True and value is not False:
            raise ConfigError(f"state for {name!r} must be a boolean, got {value!r}")

    values: dict[str, bool] = {}
    for name in postorder(lambda n: tree.events[n].children, [tree.top], "fault tree"):
        event = tree.events[name]
        if event.gate == "basic":
            values[name] = states[name]
        elif event.gate == "and":
            values[name] = all(values[c] for c in event.children)
        else:
            values[name] = any(values[c] for c in event.children)
    return values[tree.top]


def minimal_cut_sets(tree: FaultTree) -> list[frozenset[str]]:
    """All minimal sets of basic events whose joint truth forces the top.

    Works by bottom-up set expansion and absorption; limited to
    20 basic events to keep the blow-up in check.  The result is sorted
    by size, then by member names, so it is stable across runs.
    """
    basics = tree.basic_events()
    if len(basics) > MAX_CUT_SET_BASICS:
        raise ConfigError(
            f"cut set analysis supports at most {MAX_CUT_SET_BASICS} basic events, "
            f"got {len(basics)}"
        )

    def minimise(sets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
        unique = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        kept: list[frozenset[str]] = []
        for candidate in unique:
            if not any(have <= candidate for have in kept):
                kept.append(candidate)
        return kept

    cuts: dict[str, list[frozenset[str]]] = {}
    for name in postorder(lambda n: tree.events[n].children, [tree.top], "fault tree"):
        event = tree.events[name]
        if event.gate == "basic":
            out = [frozenset([name])]
        elif event.gate == "or":
            combined: list[frozenset[str]] = []
            for child in event.children:
                combined.extend(cuts[child])
            out = minimise(combined)
        else:  # and
            out = [frozenset()]
            for child in event.children:
                out = minimise(a | b for a in out for b in cuts[child])
        cuts[name] = out

    return sorted(cuts[tree.top], key=lambda s: (len(s), sorted(s)))


# --- evidence verdicts -------------------------------------------------------


@dataclass(frozen=True)
class EvidenceVerdict:
    """Outcome of one safety run, stored as evidence/<run_id>/verdict.json."""

    run_id: str
    passed: bool
    criterion: str
    measured: float
    threshold: float
    note: str = ""


def write_verdict(verdict: EvidenceVerdict, directory: str | Path) -> Path:
    run_dir = Path(directory) / verdict.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "verdict.json"
    doc = {
        "run_id": verdict.run_id,
        "passed": verdict.passed,
        "criterion": verdict.criterion,
        "measured": verdict.measured,
        "threshold": verdict.threshold,
    }
    if verdict.note:
        doc["note"] = verdict.note
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return out


def read_verdicts(evidence_dir: str | Path) -> dict[str, EvidenceVerdict]:
    """Load every evidence/<run_id>/verdict.json below a directory; other keys are ignored."""
    evidence_dir = Path(evidence_dir)
    verdicts: dict[str, EvidenceVerdict] = {}
    if not evidence_dir.is_dir():
        return verdicts
    for verdict_file in sorted(evidence_dir.glob("*/verdict.json")):
        where = str(verdict_file)
        try:
            doc = json.loads(verdict_file.read_text())
            verdict = EvidenceVerdict(
                run_id=doc["run_id"],
                passed=check_flag(where, "passed", doc["passed"]),
                criterion=doc["criterion"],
                # a map with no occupied cell measures an infinite gap
                measured=check_number(where, "measured", doc["measured"], finite=False),
                threshold=check_number(where, "threshold", doc["threshold"], finite=False),
                note=doc.get("note", ""),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{verdict_file}: malformed verdict: {exc}") from None
        if verdict.run_id != verdict_file.parent.name:
            raise ConfigError(
                f"{verdict_file}: run_id {verdict.run_id!r} does not match its directory"
            )
        verdicts[verdict.run_id] = verdict
    return verdicts


# --- goal structure ----------------------------------------------------------

GSN_KINDS = ("goal", "strategy", "solution", "context", "away_goal")


class Status(Enum):
    UNSUPPORTED = "unsupported"
    UNDEVELOPED = "undeveloped"
    SUPPORTED = "supported"


@dataclass(frozen=True)
class GsnNode:
    node_id: str
    kind: str
    text: str = ""
    children: tuple[str, ...] = ()
    evidence_refs: tuple[str, ...] = ()
    module_ref: str | None = None
    asserted: bool = False


@dataclass
class GsnGraph:
    """Goal-structure nodes in document order; validated when built."""

    nodes: list[GsnNode]

    def __post_init__(self):
        self.by_id = {n.node_id: n for n in self.nodes}
        self.validate()

    def validate(self) -> None:
        if len(self.by_id) != len(self.nodes):
            seen: set[str] = set()
            for n in self.nodes:
                if n.node_id in seen:
                    raise ConfigError(f"duplicate node id {n.node_id!r}")
                seen.add(n.node_id)
        for node in self.nodes:
            if node.kind not in GSN_KINDS:
                raise ConfigError(f"node {node.node_id!r}: unknown kind {node.kind!r}")
            if node.children and node.kind not in ("goal", "strategy"):
                raise ConfigError(
                    f"node {node.node_id!r}: only goals and strategies have children"
                )
            if node.evidence_refs and node.kind != "solution":
                raise ConfigError(
                    f"node {node.node_id!r}: only solutions carry evidence_refs"
                )
            if node.kind == "away_goal" and not node.module_ref:
                raise ConfigError(f"away goal {node.node_id!r} needs a module_ref")
            for child in node.children:
                if child not in self.by_id:
                    raise ConfigError(
                        f"node {node.node_id!r} references unknown child {child!r}"
                    )
        postorder(lambda node_id: self.by_id[node_id].children, self.by_id, "goal structure")

    def roots(self) -> list[GsnNode]:
        """Non-context nodes that no other node claims as a child."""
        referenced = {c for n in self.nodes for c in n.children}
        return [n for n in self.nodes if n.node_id not in referenced and n.kind != "context"]


def read_gsn(source: str | Path | Mapping) -> GsnGraph:
    where = "goal structure document"
    doc = check_object(where, read_json(source), ("nodes",))
    nodes: list[GsnNode] = []
    for entry in check_kind(where, "nodes", doc["nodes"], list):
        node_id = entry.get("id") if isinstance(entry, dict) else None
        at = f"node {node_id!r}" if isinstance(node_id, str) else "node"
        check_object(
            at, entry, ("id", "kind"), ("text", "children", "evidence_refs", "module_ref", "asserted")
        )
        nodes.append(
            GsnNode(
                node_id=check_kind(at, "id", node_id, str),
                kind=entry["kind"],
                text=entry.get("text", ""),
                children=check_names(at, "children", entry.get("children", [])),
                evidence_refs=check_names(at, "evidence_refs", entry.get("evidence_refs", [])),
                module_ref=entry.get("module_ref"),
                asserted=check_flag(at, "asserted", entry.get("asserted", False)),
            )
        )
    return GsnGraph(nodes)


@dataclass
class AnnotatedGsn:
    """A validated goal structure plus the status of every node."""

    graph: GsnGraph
    statuses: dict[str, Status]

    def root_status(self) -> Status:
        roots = self.graph.roots()
        if not roots:
            raise ConfigError("goal structure has no root node")
        return self.statuses[roots[0].node_id]


def link_evidence(graph: GsnGraph, verdicts: Mapping[str, EvidenceVerdict]) -> AnnotatedGsn:
    """Attach run verdicts to solutions and propagate support upward.

    A solution is supported iff it cites at least one verdict and all of
    them passed.  An away goal is supported only when explicitly
    asserted.  A goal or strategy takes the worst status of its
    non-context children (unsupported < undeveloped < supported); with
    no children it is undeveloped.  Flipping any verdict from fail to
    pass can therefore never downgrade a node.
    """
    dangling = [
        ref
        for node in graph.nodes
        if node.kind == "solution"
        for ref in node.evidence_refs
        if ref not in verdicts
    ]
    if dangling:
        raise ConfigError(f"evidence refs without verdicts: {', '.join(sorted(set(dangling)))}")

    statuses: dict[str, Status] = {}
    for node_id in postorder(lambda n: graph.by_id[n].children, graph.by_id, "goal structure"):
        node = graph.by_id[node_id]
        if node.kind == "solution":
            if not node.evidence_refs:
                out = Status.UNDEVELOPED
            elif all(verdicts[ref].passed for ref in node.evidence_refs):
                out = Status.SUPPORTED
            else:
                out = Status.UNSUPPORTED
        elif node.kind == "away_goal":
            out = Status.SUPPORTED if node.asserted else Status.UNDEVELOPED
        elif node.kind == "context":
            out = Status.SUPPORTED  # contexts never gate their parent
        else:
            child_statuses = [
                statuses[c] for c in node.children if graph.by_id[c].kind != "context"
            ]
            if not child_statuses:
                out = Status.UNDEVELOPED
            elif any(s is Status.UNSUPPORTED for s in child_statuses):
                out = Status.UNSUPPORTED
            elif any(s is Status.UNDEVELOPED for s in child_statuses):
                out = Status.UNDEVELOPED
            else:
                out = Status.SUPPORTED
        statuses[node_id] = out
    return AnnotatedGsn(graph=graph, statuses=statuses)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_DOT_SHAPES = {
    "goal": "box",
    "strategy": "parallelogram",
    "solution": "circle",
    "context": "box",
    "away_goal": "tab",
}


def render_gsn_dot(annotated: AnnotatedGsn) -> str:
    """Render the annotated goal structure as Graphviz DOT.

    Goals are boxes, strategies parallelograms, solutions circles,
    contexts rounded boxes, away goals tab-shaped with their module
    named in the label.  Unsupported nodes are dashed, undeveloped ones
    grey.  Output is deterministic: nodes and edges in input order.
    """
    graph = annotated.graph
    lines = ["digraph gsn {", "  rankdir=TB;", '  node [fontname="Helvetica"];']
    for node in graph.nodes:
        label = node.node_id if not node.text else f"{node.node_id}\n{node.text}"
        if node.kind == "away_goal":
            label += f"\n[{node.module_ref}]"
        attrs = [f"shape={_DOT_SHAPES[node.kind]}", f'label="{_dot_escape(label)}"']
        styles = []
        if node.kind == "context":
            styles.append("rounded")
        status = annotated.statuses.get(node.node_id)
        if node.kind != "context":
            if status is Status.UNSUPPORTED:
                styles.append("dashed")
            elif status is Status.UNDEVELOPED:
                attrs.append("color=grey")
                attrs.append("fontcolor=grey")
        if styles:
            attrs.append(f'style="{",".join(styles)}"')
        lines.append(f'  "{_dot_escape(node.node_id)}" [{", ".join(attrs)}];')
    for node in graph.nodes:
        for child in node.children:
            lines.append(f'  "{_dot_escape(node.node_id)}" -> "{_dot_escape(child)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- safety suite ------------------------------------------------------------


@dataclass(frozen=True)
class SafetyRun:
    """One supervised drive toward whatever the map holds."""

    run_id: str
    map_path: str
    speed: float
    sensor: Mapping[str, float] = field(default_factory=dict)
    decel: float = 3.0
    margin: float = 0.2
    path: tuple[tuple[float, float], ...] = ((0.0, 0.0), (50.0, 0.0))
    duration: float = 20.0
    step_size: float = 0.01
    gap_threshold: float = 0.0


@dataclass
class SafetySuite:
    runs: list[SafetyRun]


_REAL_FIELDS = ("speed", "decel", "margin", "duration", "step_size", "gap_threshold")


def read_safety_suite(path: str | Path) -> SafetySuite:
    """Parse a suite document; fields a run leaves out keep the SafetyRun defaults."""
    path = Path(path)
    doc = check_object(str(path), read_json(path), ("runs",), ("map",))
    runs: list[SafetyRun] = []
    seen: set[str] = set()
    for entry in check_kind(str(path), "runs", doc["runs"], list):
        run_id = entry.get("id") if isinstance(entry, dict) else None
        where = f"{path}: run {run_id!r}" if isinstance(run_id, str) else f"{path}: run"
        check_object(where, entry, ("id", "speed"), ("map", "sensor", "path", *_REAL_FIELDS))
        if not is_plain_name(run_id):
            raise ConfigError(f"{path}: bad run id {run_id!r}")
        if run_id in seen:
            raise ConfigError(f"{path}: duplicate run id {run_id!r}")
        seen.add(run_id)
        map_name = entry.get("map", doc.get("map"))
        if not map_name:
            raise ConfigError(f"{where} names no map")
        check_kind(where, "map", map_name, str)
        fields = {key: check_number(where, key, entry[key]) for key in _REAL_FIELDS if key in entry}
        if fields["speed"] < 0:
            raise ConfigError(f"{where}: bad speed {entry['speed']!r}")
        if "sensor" in entry:
            sensor = check_kind(where, "sensor", entry["sensor"], dict)
            fields["sensor"] = {k: check_number(where, f"sensor.{k}", v) for k, v in sensor.items()}
        if "path" in entry:
            waypoints = check_kind(where, "path", entry["path"], list)
            if not all(isinstance(point, list) and len(point) == 2 for point in waypoints):
                raise ConfigError(f"{where}: bad path {waypoints!r}")
            fields["path"] = tuple(
                tuple(check_number(where, "path coordinate", c) for c in point) for point in waypoints
            )
        runs.append(SafetyRun(run_id=run_id, map_path=str(path.parent / map_name), **fields))
    return SafetySuite(runs=runs)


def harvester_config(run: SafetyRun) -> MultiModelConfig:
    """One run's closed loop: path follower -> supervisor -> vehicle, the sensor watching the pose."""
    return load_multimodel({
        "instances": {
            "ctl": {"unit_type": "pure_pursuit", "parameters": {"cruise_speed": run.speed}},
            "sns": {"unit_type": "sensor", "parameters": dict(run.sensor)},
            "sup": {"unit_type": "supervisor", "parameters": {"decel": run.decel, "margin": run.margin}},
            "veh": {"unit_type": "vehicle"},
        },
        "connections": [{"source": source, "sink": sink} for source, sink in (
            ("ctl.velocity", "sup.velocity_cmd"),
            ("ctl.delta_f", "veh.delta_f"),
            ("sns.obstacle_detected", "sup.obstacle_detected"),
            ("sns.obstacle_distance", "sup.obstacle_distance"),
            ("sup.velocity", "veh.velocity"),
            ("veh.x", "ctl.x"),
            ("veh.y", "ctl.y"),
            ("veh.theta", "ctl.theta"),
            ("veh.x", "sns.x"),
            ("veh.y", "sns.y"),
            ("veh.theta", "sns.theta"),
        )],
        "outputs": ["veh.x", "veh.y", "veh.theta", "sup.velocity", "sup.stop_engaged",
                    "sns.obstacle_distance"],
        "step_size": run.step_size,
        "duration": run.duration,
    })


def assess_run(trace: TimedTrace, grid_map: GridMap, gap_threshold: float) -> tuple[float, bool]:
    """Measure the minimum vehicle-obstacle gap and judge the criterion.

    Passes when the gap stays strictly above the threshold for the whole
    run and the vehicle is at standstill whenever the stop latch is still
    engaged at the end.  Rows are walked last first, since a run that stops
    short of the obstacle ends nearest it.  A position's clearance is taken
    only when its distance to the occupied cells' bounding box, which is
    never more than its clearance, is below the least gap so far; and
    consecutive rows at one position, bit for bit, share one measurement.
    """
    key = bits_key(2)
    last = None
    min_gap = math.inf
    box_distance = grid_map.box_distance
    for x, y in zip(reversed(trace.column("veh.x")), reversed(trace.column("veh.y"))):
        position = key(x, y)
        if position == last:  # a vehicle at rest, as it is once stopped short of the obstacle
            continue
        last = position
        if box_distance(x, y) < min_gap:
            gap = grid_map.clearance(x, y)
            if gap < min_gap:
                min_gap = gap
    stop_engaged = trace.column("sup.stop_engaged")[-1] != 0.0
    final_velocity = trace.column("sup.velocity")[-1]
    passed = min_gap > gap_threshold and (not stop_engaged or final_velocity == 0.0)
    return min_gap, passed


def _registry(run: SafetyRun, grid_map: GridMap) -> UnitRegistry:
    registry = default_registry()
    registry.register("pure_pursuit", pure_pursuit_factory(run.path))
    registry.register("sensor", sensor_factory(grid_map))
    return registry


def _run_safety_case(args) -> EvidenceVerdict:
    run, grid_map, evidence_dir = args
    run_dir = Path(evidence_dir) / run.run_id
    measured, passed, note = -1.0, False, ""
    try:
        trace = run_cosim(harvester_config(run), _registry(run, grid_map))
    except SimulationError as exc:
        note = f"simulation failed: {exc}"
        # a results table left by an earlier run must not sit beside this verdict
        (run_dir / "results.csv").unlink(missing_ok=True)
    else:
        measured, passed = assess_run(trace, grid_map, run.gap_threshold)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(trace, run_dir / "results.csv")
    verdict = EvidenceVerdict(
        run_id=run.run_id,
        passed=passed,
        criterion=f"min gap > {run.gap_threshold:g} m; standstill while stop engaged",
        measured=measured,
        threshold=run.gap_threshold,
        note=note,
    )
    write_verdict(verdict, evidence_dir)
    return verdict


def run_safety_suite(
    suite: SafetySuite, evidence_dir: str | Path, workers: int = 1
) -> list[EvidenceVerdict]:
    """Run every case, write evidence/<run_id>/{results.csv,verdict.json}.

    Each map is read and each run's loop validated before the first run,
    so a bad map or loop writes no evidence.  Verdicts come back in suite
    order; a run that breaks mid-simulation is recorded as failed with the
    reason in its note rather than aborting the remaining runs.
    """
    maps: dict[str, GridMap] = {}
    diagnostics: list[str] = []
    for run in suite.runs:
        if run.map_path not in maps:
            if not Path(run.map_path).is_file():
                raise ConfigError(f"run {run.run_id!r}: missing map file {run.map_path}")
            maps[run.map_path] = read_grid_map(run.map_path)
        problems = validate_config(harvester_config(run), _registry(run, maps[run.map_path]))
        diagnostics += [f"run {run.run_id!r}: {problem}" for problem in problems]
    if diagnostics:
        raise ConfigError("invalid safety suite", diagnostics)
    tasks = [(run, maps[run.map_path], evidence_dir) for run in suite.runs]
    return fan_out(_run_safety_case, tasks, workers)
