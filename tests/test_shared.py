"""Shared plumbing: deep graph walks, map reads and the capped fan-out."""

import dataclasses
import json
from pathlib import Path

import pytest

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
    run_safety_suite,
)
from fieldsim.dse import read_dse_config, run_sweep
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
