"""Shared plumbing: deep graph walks, map reads, the document checks and the capped fan-out."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldsim import _shared
from fieldsim.cli import main
from fieldsim.errors import ConfigError
from fieldsim.safety import (
    EvidenceVerdict,
    SafetyRun,
    SafetySuite,
    Status,
    link_evidence,
    minimal_cut_sets,
    read_fault_tree,
    read_gsn,
    read_safety_suite,
    run_safety_suite,
)
from fieldsim.dse import read_dse_config, run_sweep
from fieldsim.orchestrator import load_multimodel
from fieldsim.units import write_grid_map

from conftest import build_blind_map, build_field_map

DEPTH = 5000  # far beyond the interpreter's default recursion limit
SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def or_chain_doc(depth):
    events = {f"g{i}": {"gate": "or", "children": [f"g{i + 1}"]} for i in range(depth)}
    events[f"g{depth}"] = {"gate": "basic"}
    return {"top": "g0", "events": events}


def test_deep_fault_tree_evaluates_from_the_command_line(tmp_path, capsys):
    tree = tmp_path / "chain.json"
    tree.write_text(json.dumps(or_chain_doc(DEPTH)))
    code = main(["ft", "--tree", str(tree), "--events", f"g{DEPTH}=true"])
    assert (code, capsys.readouterr().out) == (0, "TOP: true\n")


def test_deep_fault_tree_cut_sets():
    tree = read_fault_tree(or_chain_doc(DEPTH))
    assert minimal_cut_sets(tree) == [frozenset([f"g{DEPTH}"])]


def test_deep_goal_chain_links_evidence():
    nodes = [{"id": f"G{i}", "kind": "goal", "children": [f"G{i + 1}"]} for i in range(DEPTH)]
    nodes.append({"id": f"G{DEPTH}", "kind": "goal", "children": ["E"]})
    nodes.append({"id": "E", "kind": "solution", "evidence_refs": ["run"]})
    verdict = EvidenceVerdict("run", True, "c", 1.0, 0.0)
    annotated = link_evidence(read_gsn({"nodes": nodes}), {"run": verdict})
    assert annotated.root_status() is Status.SUPPORTED
    assert set(annotated.statuses) == {n["id"] for n in nodes}


def test_postorder_puts_children_first_and_names_the_cycle():
    children = {"a": ["b", "c"], "b": ["c"], "c": [], "d": []}
    assert _shared.postorder(children.get, "adc", "graph") == ["c", "b", "a", "d"]
    with pytest.raises(ConfigError, match="graph has a cycle through 'a'"):
        _shared.postorder({"a": ["b"], "b": ["a"]}.get, "ab", "graph")


def test_a_rerun_suite_reads_its_rewritten_map(tmp_path, blind_map_path):
    path = tmp_path / "m.map"
    write_grid_map(build_field_map(), path)
    run = SafetyRun(run_id="run", map_path=str(path), speed=1.0, duration=0.1)
    [first] = run_safety_suite(SafetySuite([run]), tmp_path / "first")
    write_grid_map(build_blind_map(), path)
    [second] = run_safety_suite(SafetySuite([run]), tmp_path / "second")
    blind_run = dataclasses.replace(run, map_path=str(blind_map_path))
    [blind] = run_safety_suite(SafetySuite([blind_run]), tmp_path / "blind")
    assert second.measured == blind.measured != first.measured


def test_suite_pool_is_capped_at_the_run_count(tmp_path, field_map_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs tasks here."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(_shared, "ProcessPoolExecutor", RecordingPool)
    on_cpus(monkeypatch, 2)  # the cap at the CPUs would hide the cap at the runs on one CPU
    runs = [
        SafetyRun(run_id=name, map_path=str(field_map_path), speed=1.0, duration=0.1)
        for name in ("first", "second")
    ]
    verdicts = run_safety_suite(SafetySuite(runs), tmp_path / "evidence", workers=64)
    assert sizes == [2]
    assert [v.run_id for v in verdicts] == ["first", "second"]


class SizedPool:
    """Stands in for ProcessPoolExecutor: records its size and its tasks, runs them here."""

    sizes: list = []
    tasks: list = []

    def __init__(self, max_workers):
        SizedPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        SizedPool.tasks.append(len(tasks))
        return map(fn, tasks)


@pytest.fixture
def sized_pool(monkeypatch):
    """A fake pool on a host of 3 CPUs; no process is started."""
    SizedPool.sizes, SizedPool.tasks = [], []
    monkeypatch.setattr(_shared, "ProcessPoolExecutor", SizedPool)
    on_cpus(monkeypatch, 3)
    return SizedPool


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(_shared.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_a_worker_count_is_capped_at_the_cpus_this_process_may_run_on():
    assert 1 <= _shared.worker_count(100_000) <= len(_shared.os.sched_getaffinity(0))
    assert _shared.worker_count(1) == 1


def test_fan_out_caps_a_huge_worker_count_at_the_cpus(sized_pool):
    assert _shared.fan_out(abs, list(range(-9, 1)), 100_000) == list(range(9, -1, -1))
    assert (sized_pool.sizes, sized_pool.tasks) == ([3], [10])
    assert _shared.worker_count(100_000) == 3
    with pytest.raises(ConfigError, match=r"^workers must be >= 1, got 0$"):
        _shared.fan_out(abs, [1], 0)


def test_a_sweep_slices_its_grid_for_the_capped_worker_count(sized_pool):
    config = read_dse_config(SAMPLES / "dse_sweep.json")
    serial = run_sweep(config)
    assert sized_pool.sizes == []
    # 4 grid points in 1 scenario: 3 workers take 3 slices, not 4 of one point each
    assert run_sweep(config, workers=100_000) == serial
    assert (sized_pool.sizes, sized_pool.tasks) == ([3], [3])


def test_a_suite_on_one_cpu_runs_here_whatever_the_worker_count(tmp_path, field_map_path, monkeypatch):
    monkeypatch.setattr(_shared, "ProcessPoolExecutor", None)  # any pool would fail
    on_cpus(monkeypatch, 1)
    runs = [
        SafetyRun(run_id=name, map_path=str(field_map_path), speed=1.0, duration=0.1)
        for name in ("first", "second")
    ]
    verdicts = run_safety_suite(SafetySuite(runs), tmp_path / "evidence", workers=100_000)
    assert [v.run_id for v in verdicts] == ["first", "second"]


# --- document checks ---------------------------------------------------------

OBJECT = {"a": 1, "b": [2]}


@pytest.mark.parametrize(
    "check,args,result",
    [
        (_shared.check_object, (OBJECT, ("a", "b")), OBJECT),
        (_shared.check_object, (OBJECT, ("a",), ("b", "c")), OBJECT),
        (_shared.check_kind, ("k", OBJECT, dict), OBJECT),
        (_shared.check_kind, ("k", [], list), []),
        (_shared.check_kind, ("k", "", str), ""),
        (_shared.check_names, ("k", ["a", "b"]), ("a", "b")),
        (_shared.check_names, ("k", []), ()),
        (_shared.check_flag, ("k", True), True),
        (_shared.check_flag, ("k", False), False),
        (_shared.check_number, ("k", 2), 2.0),
        (_shared.check_number, ("k", -0.5), -0.5),
        (_shared.check_number, ("k", 1e308), 1e308),
        (_shared.check_number, ("k", math.inf, False), math.inf),
        (_shared.check_number, ("k", -math.inf, False), -math.inf),
    ],
)
def test_a_check_returns_what_it_accepts(check, args, result):
    out = check("w", *args)
    assert out == result and type(out) is type(result)


@pytest.mark.parametrize(
    "check,args,text",
    [
        (_shared.check_object, ([], ("a", "b")), "w needs 'a' and 'b'"),
        (_shared.check_object, (None, ("gate",)), "w needs a 'gate'"),
        (_shared.check_object, ({"a": 1}, ("a", "b", "c")), "w needs 'a', 'b' and 'c'"),
        (_shared.check_object, ({"a": 1, "z": 2, "y": 3, "b": 4}, ("a",), ("b",)), "w: unknown keys y, z"),
        (_shared.check_kind, ("k", [], dict), "w: 'k' must be an object, got []"),
        (_shared.check_kind, ("k", {}, list), "w: 'k' must be a list, got {}"),
        (_shared.check_kind, ("k", 5, str), "w: 'k' must be a string, got 5"),
        (_shared.check_names, ("k", "ab"), "w: 'k' must be a list of names, got 'ab'"),
        (_shared.check_names, ("k", ["a", 1]), "w: 'k' must be a list of names, got ['a', 1]"),
        (_shared.check_flag, ("k", 0), "w: 'k' must be true or false, got 0"),
        (_shared.check_flag, ("k", "false"), "w: 'k' must be true or false, got 'false'"),
        (_shared.check_number, ("k", True), "w: 'k' must be a number, got True"),
        (_shared.check_number, ("k", "1"), "w: 'k' must be a number, got '1'"),
        (_shared.check_number, ("k", None), "w: 'k' must be a number, got None"),
        (_shared.check_number, ("k", math.inf), "w: 'k' must be a number, got inf"),
        (_shared.check_number, ("k", -math.inf), "w: 'k' must be a number, got -inf"),
        (_shared.check_number, ("k", math.nan), "w: 'k' must be a number, got nan"),
        (_shared.check_number, ("k", math.nan, False), "w: 'k' must be a number, got nan"),
        (_shared.check_number, ("k", 10**400, False), f"w: 'k' must be a number, got {10**400}"),
    ],
)
def test_a_check_rejects_with_one_text(check, args, text):
    with pytest.raises(ConfigError) as caught:
        check("w", *args)
    assert str(caught.value) == text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@given(value=JSON_VALUES)
def test_a_check_of_any_json_value_returns_or_raises_a_config_error(value):
    checks = [
        lambda: _shared.check_object("w", value, ("a", "b"), ("c",)),
        lambda: _shared.check_object("w", value, ("",)),
        *(lambda kind=kind: _shared.check_kind("w", "k", value, kind) for kind in (dict, list, str)),
        lambda: _shared.check_names("w", "k", value),
        lambda: _shared.check_flag("w", "k", value),
        lambda: _shared.check_number("w", "k", value),
        lambda: _shared.check_number("w", "k", value, finite=False),
    ]
    for check in checks:
        try:
            check()
        except ConfigError:
            pass


def test_a_suite_run_at_an_infinite_speed_is_rejected(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text('{"map": "m", "runs": [{"id": "a", "speed": 1e999}]}')
    with pytest.raises(ConfigError) as caught:
        read_safety_suite(path)
    assert str(caught.value) == f"{path}: run 'a': 'speed' must be a number, got inf"


def test_a_suite_run_at_a_speed_past_the_floats_is_rejected(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text('{"map": "m", "runs": [{"id": "a", "speed": 1%s}]}' % ("0" * 400))
    with pytest.raises(ConfigError) as caught:
        read_safety_suite(path)
    assert str(caught.value) == f"{path}: run 'a': 'speed' must be a number, got 1{'0' * 400}"


@pytest.mark.parametrize(
    "read,sample",
    [
        (load_multimodel, "vehicle_replay.json"),
        (read_dse_config, "dse_sweep.json"),
        (read_safety_suite, "safety_suite.json"),
        (read_fault_tree, "fault_tree.json"),
        (read_gsn, "gsn_case.json"),
    ],
)
def test_every_json_sample_passes_its_reader(read, sample):
    read(SAMPLES / sample)
