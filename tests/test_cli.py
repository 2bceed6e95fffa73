"""End-to-end checks of the command line front end against the shipped samples."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fieldsim.cli import main
from fieldsim.dse import read_dse_results
from fieldsim.errors import SimulationError
from fieldsim.traces import read_trace_csv

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- cosim ------------------------------------------------------------------


def test_cosim_writes_results(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = run_cli(
        capsys, "cosim",
        "--config", SAMPLES / "vehicle_replay.json",
        "--scenario-inputs", SAMPLES / "sin_cal_inputs.csv",
        "--out", out,
    )
    assert code == 0
    assert "(401 rows)" in stdout
    trace = read_trace_csv(out)
    assert trace.channels == ["veh.x", "veh.y", "veh.theta"]
    assert len(trace.times) == 401


def test_cosim_step_and_duration_overrides(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = run_cli(
        capsys, "cosim",
        "--config", SAMPLES / "vehicle_replay.json",
        "--scenario-inputs", SAMPLES / "sin_cal_inputs.csv",
        "--step", "0.02", "--duration", "1.0",
        "--out", out,
    )
    assert code == 0
    trace = read_trace_csv(out)
    assert len(trace.times) == 51
    assert trace.times[-1] == pytest.approx(1.0)


def test_cosim_missing_config_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "cosim", "--config", tmp_path / "ghost.json", "--out", tmp_path / "o.csv"
    )
    assert code == 2
    assert stderr.startswith("error:")


def test_cosim_rejects_non_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code, _, stderr = run_cli(capsys, "cosim", "--config", bad, "--out", tmp_path / "o.csv")
    assert code == 2
    assert stderr.startswith("error:")


def test_cosim_lists_every_diagnostic(tmp_path, capsys):
    config = {
        "duration": 1.0,
        "step_size": -0.5,
        "instances": {"veh": {"unit_type": "vehicle"}},
        "connections": [{"source": "veh.x", "sink": "veh.delta_f"}],
        "outputs": ["ghost.x"],
    }
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "cosim", "--config", path, "--out", tmp_path / "o.csv")
    assert code == 2
    bullets = [line for line in stderr.splitlines() if line.startswith("  - ")]
    assert len(bullets) >= 3


def test_cosim_needs_a_backing_trace_for_replay(tmp_path, capsys):
    # without --scenario-inputs no 'replay' unit type exists
    code, _, stderr = run_cli(
        capsys, "cosim", "--config", SAMPLES / "vehicle_replay.json",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    assert "replay" in stderr


def test_cosim_over_the_recorded_value_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code, _, stderr = run_cli(
        capsys, "cosim",
        "--config", SAMPLES / "vehicle_replay.json",
        "--scenario-inputs", SAMPLES / "sin_cal_inputs.csv",
        "--duration", "1e6",
        "--out", out,
    )
    assert code == 2
    assert stderr == (
        "error: invalid multi-model configuration\n"
        "  - run of 1000000.0s at 0.01s would record 300000003 values "
        "(100000001 rows of 3), over the budget of 10000000\n"
    )
    assert not out.exists()


def test_runtime_failures_exit_3(tmp_path, monkeypatch, capsys):
    def boom(config, registry):
        raise SimulationError("instance 'veh' failed at t=0.5: boom")

    monkeypatch.setattr("fieldsim.cli.run_cosim", boom)
    code, _, stderr = run_cli(
        capsys, "cosim",
        "--config", SAMPLES / "vehicle_replay.json",
        "--scenario-inputs", SAMPLES / "sin_cal_inputs.csv",
        "--out", tmp_path / "o.csv",
    )
    assert code == 3
    assert stderr.startswith("simulation error:")


# --- scenario generation ----------------------------------------------------


def test_scenario_gen_speed_step(tmp_path, capsys):
    out = tmp_path / "cmd.csv"
    code, stdout, _ = run_cli(
        capsys, "scenario-gen", "--kind", "speed_step", "--duration", "8",
        "--base-speed", "2", "--sample-period", "1", "--out", out,
    )
    assert code == 0
    assert "(9 rows" in stdout
    trace = read_trace_csv(out, ["velocity", "delta_f"])
    velocity = [row[0] for row in trace.values]
    assert velocity == [0.5, 0.5, 1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 2.0]


def test_scenario_gen_rejects_bad_kind(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["scenario-gen", "--kind", "zigzag", "--duration", "1",
              "--base-speed", "1", "--out", str(tmp_path / "o.csv")])
    assert err.value.code == 2


def test_scenario_gen_over_the_sample_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code, _, stderr = run_cli(
        capsys, "scenario-gen", "--kind", "sin", "--duration", "20", "--base-speed", "2",
        "--sample-period", "1e-9", "--out", out,
    )
    assert code == 2
    assert stderr == (
        "error: scenario of 20.0s at a 1e-09s sample period has 20000000000 samples, "
        "over the cap of 1000000\n"
    )
    assert not out.exists()


# --- parameter sweeps -------------------------------------------------------


def test_sweep_optimize_and_rank(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, stdout, _ = run_cli(
        capsys, "dse", "sweep", "--config", SAMPLES / "dse_sweep.json",
        "--out", table, "--artifacts", tmp_path / "art",
    )
    assert code == 0
    assert "(4 rows)" in stdout
    names, rows = read_dse_results(table)
    assert names == ["veh.cAlphaF", "veh.mu"]
    assert len(rows) == 4
    for gi in range(4):
        run_dir = tmp_path / "art" / "sin_cal" / f"run_{gi:04d}"
        assert (run_dir / "results.csv").is_file()
        assert (run_dir / "objectives.json").is_file()

    best = tmp_path / "best.json"
    code, stdout, _ = run_cli(
        capsys, "dse", "optimize", "--results", table, "--format", "json", "--out", best
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["parameters"] == {"veh.cAlphaF": 30000.0, "veh.mu": 0.4}
    assert doc["total_mean_cross_track_error"] == 0.0
    assert json.loads(best.read_text()) == doc

    code, stdout, _ = run_cli(capsys, "dse", "optimize", "--results", table)
    assert code == 0
    assert stdout == "best assignment: veh.cAlphaF=30000, veh.mu=0.4 (summed mean error 0 m)\n"

    front = tmp_path / "front.csv"
    code, stdout, _ = run_cli(
        capsys, "dse", "rank", "--results", table, "--out", front
    )
    assert code == 0
    assert stdout == "1 of 4 rows are on the (mean, max) front\n"
    _, front_rows = read_dse_results(front)
    assert len(front_rows) == 1
    assert front_rows[0].assignment == {"veh.cAlphaF": 30000.0, "veh.mu": 0.4}

    code, stdout, _ = run_cli(
        capsys, "dse", "rank", "--results", table, "--format", "json"
    )
    assert code == 0
    listed = json.loads(stdout)
    assert len(listed) == 1
    assert listed[0]["mean_cross_track_error"] == 0.0


def test_sweep_worker_count_does_not_change_results(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "pooled.csv"
    assert run_cli(capsys, "dse", "sweep", "--config", SAMPLES / "dse_sweep.json",
                   "--out", serial, "--jobs", "1")[0] == 0
    assert run_cli(capsys, "dse", "sweep", "--config", SAMPLES / "dse_sweep.json",
                   "--out", threaded, "--jobs", "2")[0] == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_sweep_surfaces_tolerated_key_warnings(tmp_path, capsys):
    doc = json.loads((SAMPLES / "dse_sweep.json").read_text())
    doc["multiModel"] = str(SAMPLES / "vehicle_replay.json")
    doc["scenarioFiles"] = {
        "sin_cal": {
            "inputs": str(SAMPLES / "sin_cal_inputs.csv"),
            "reference": str(SAMPLES / "sin_cal_reference.csv"),
        }
    }
    doc["externalScripts"] = {"post": "plot.py"}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "dse", "sweep", "--config", path,
                              "--out", tmp_path / "t.csv")
    assert code == 0
    assert "warning: key 'externalScripts' is not interpreted; ignoring it" in stderr


# --- safety suite, goal structure, fault tree --------------------------------


@pytest.fixture(scope="module")
def safety_evidence(tmp_path_factory):
    evidence = tmp_path_factory.mktemp("evidence")
    proc = subprocess.run(
        [sys.executable, "-m", "fieldsim.cli", "safety-run",
         "--suite", str(SAMPLES / "safety_suite.json"),
         "--evidence-dir", str(evidence)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return evidence, proc.stdout


def test_safety_run_reports_each_verdict(safety_evidence):
    evidence, stdout = safety_evidence
    lines = stdout.splitlines()
    assert lines[-1] == "8/9 runs passed"
    assert "nominal_v1: PASS (min gap 0.730 m)" in lines
    assert "fog_v3: PASS (min gap 0.310 m)" in lines
    assert "degraded_v1: FAIL (min gap 0.000 m)" in lines
    assert len([l for l in lines if ": PASS" in l or ": FAIL" in l]) == 9
    assert sorted(p.name for p in evidence.iterdir()) == sorted(
        f"{c}_v{v}" for c in ("nominal", "fog", "degraded") for v in (1, 2, 3)
    )


def test_gsn_command_links_evidence(safety_evidence, tmp_path, capsys):
    evidence, _ = safety_evidence
    dot_path = tmp_path / "case.dot"
    code, stdout, _ = run_cli(
        capsys, "gsn", "--gsn", SAMPLES / "gsn_case.json",
        "--evidence-dir", evidence, "--out", dot_path,
    )
    assert code == 0
    assert stdout.splitlines()[0] == "root G_field_safe: unsupported"
    dot = dot_path.read_text()
    assert dot.startswith("digraph gsn {\n")
    # the failed degraded run dashes its whole support chain
    assert '"E_degraded" [shape=circle, label="E_degraded", style="dashed"];' in dot
    assert '"A_brakes" [shape=tab' in dot and "\\n[braking.case]" in dot


def test_gsn_command_needs_matching_evidence(tmp_path, capsys):
    empty = tmp_path / "evidence"
    empty.mkdir()
    code, _, stderr = run_cli(
        capsys, "gsn", "--gsn", SAMPLES / "gsn_case.json",
        "--evidence-dir", empty, "--out", tmp_path / "case.dot",
    )
    assert code == 2
    assert "evidence refs without verdicts" in stderr


def test_ft_command_evaluates_states(tmp_path, capsys):
    tree = SAMPLES / "fault_tree.json"
    code, stdout, _ = run_cli(
        capsys, "ft", "--tree", tree,
        "--events",
        "sensor_blind=false,obstacle_below_fov=false,detection_late=true,brake_weak=true",
    )
    assert code == 0
    assert stdout == "TOP: true\n"

    states = tmp_path / "states.json"
    states.write_text(json.dumps({
        "sensor_blind": False, "obstacle_below_fov": False,
        "detection_late": True, "brake_weak": False,
    }))
    code, stdout, _ = run_cli(capsys, "ft", "--tree", tree, "--events", states)
    assert code == 0
    assert stdout == "TOP: false\n"


def test_ft_command_rejects_incomplete_states(capsys):
    code, _, stderr = run_cli(
        capsys, "ft", "--tree", SAMPLES / "fault_tree.json",
        "--events", "sensor_blind=true",
    )
    assert code == 2
    assert "no state for basic events" in stderr


def test_ft_command_rejects_malformed_states(capsys):
    code, _, stderr = run_cli(
        capsys, "ft", "--tree", SAMPLES / "fault_tree.json", "--events", "fog"
    )
    assert code == 2
    assert "must look like name=true|false" in stderr


# --- malformed documents exit 2 ---------------------------------------------


def test_cosim_rejects_boolean_to_real_connection(tmp_path, capsys):
    config = {
        "duration": 1.0,
        "instances": {"sup": {"unit_type": "supervisor"}, "veh": {"unit_type": "vehicle"}},
        "connections": [{"source": "sup.stop_engaged", "sink": "veh.velocity"}],
        "outputs": ["veh.x"],
    }
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "cosim", "--config", path, "--out", tmp_path / "o.csv")
    assert code == 2
    assert "sup.stop_engaged -> veh.velocity: source is boolean, sink expects real" in stderr


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("decel", "fast", "bad decel 'fast'"),
        ("margin", None, "bad margin None"),
        ("duration", True, "bad duration True"),
        ("sensor", [], "bad sensor []"),
        ("sensor", {"fov": "wide"}, "bad sensor.fov 'wide'"),
        ("path", [[0.0, 0.0], [5.0]], "bad path"),
        ("path", [[0.0, 0.0], [5.0, "x"]], "bad path coordinate 'x'"),
    ],
)
def test_safety_run_rejects_mistyped_fields(tmp_path, capsys, field, value, fragment):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"map": "field.map", "runs": [{"id": "a", "speed": 1.0, field: value}]}))
    code, _, stderr = run_cli(
        capsys, "safety-run", "--suite", suite, "--evidence-dir", tmp_path / "evidence"
    )
    assert code == 2
    assert fragment in stderr


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"top": "t", "events": [{"gate": "basic"}]}, "'events' must be an object"),
        (
            {"top": "t", "events": {"t": {"gate": "or", "children": "ab"},
                                    "a": {"gate": "basic"}, "b": {"gate": "basic"}}},
            "'children' must be a list of names",
        ),
    ],
)
def test_ft_command_rejects_malformed_trees(tmp_path, capsys, doc, fragment):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "ft", "--tree", tree, "--events", "a=true,b=true")
    assert code == 2
    assert fragment in stderr


def test_gsn_command_rejects_string_children(tmp_path, capsys):
    gsn = tmp_path / "gsn.json"
    gsn.write_text(json.dumps({"nodes": [
        {"id": "G", "kind": "goal", "children": "ab"},
        {"id": "a", "kind": "goal"},
        {"id": "b", "kind": "goal"},
    ]}))
    code, _, stderr = run_cli(
        capsys, "gsn", "--gsn", gsn, "--evidence-dir", tmp_path, "--out", tmp_path / "c.dot"
    )
    assert code == 2
    assert "'children' must be a list of names" in stderr


@pytest.mark.parametrize(
    "command,doc,fragment",
    [
        ("ft", {"top": ["t"], "events": {"t": {"gate": "basic"}}},
         "fault tree 'top' must be an event name, got ['t']"),
        ("gsn", {"nodes": [{"id": ["G"], "kind": "goal"}]},
         "node 'id' must be a string, got ['G']"),
        ("cosim", {"duration": 1.0, "instances": {"veh": {"unit_type": ["vehicle"]}},
                   "outputs": ["veh.x"]},
         "instance 'veh': 'unit_type' must be a string, got ['vehicle']"),
    ],
    ids=["ft-top", "gsn-id", "cosim-unit-type"],
)
def test_names_that_are_not_strings_exit_2(tmp_path, capsys, command, doc, fragment):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = {
        "ft": ["--tree", path, "--events", "t=true"],
        "gsn": ["--gsn", path, "--evidence-dir", tmp_path, "--out", tmp_path / "c.dot"],
        "cosim": ["--config", path, "--out", tmp_path / "o.csv"],
    }[command]
    code, _, stderr = run_cli(capsys, command, *args)
    assert code == 2
    assert fragment in stderr
    assert "Traceback" not in stderr


COSIM_DOC = {"duration": 1.0, "instances": {"veh": {"unit_type": "vehicle"}}, "outputs": ["veh.x"]}


@pytest.mark.parametrize(
    "command,change,fragment",
    [
        ("cosim", {"connections": 5}, "'connections' must be a list"),
        ("cosim", {"outputs": 5}, "'outputs' must be a list"),
        ("cosim", {"outputs": "veh.x"}, "'outputs' must be a list"),
        ("sweep", {"multiModel": 5}, "'multiModel' must be a file path string, got 5"),
        ("sweep", {"scenarioFiles": {"sin_cal": {"inputs": 5, "reference": "r.csv"}}},
         "scenarioFiles['sin_cal'].inputs must be a file path string, got 5"),
        ("sweep", {"scenarioFiles": {"sin_cal": {"inputs": "i.csv", "reference": [1]}}},
         "scenarioFiles['sin_cal'].reference must be a file path string, got [1]"),
    ],
    ids=["connections-int", "outputs-int", "outputs-string", "multimodel-int",
         "inputs-int", "reference-list"],
)
def test_mistyped_lists_and_paths_exit_2(tmp_path, capsys, command, change, fragment):
    if command == "cosim":
        doc = {**COSIM_DOC, **change}
    else:
        doc = json.loads((SAMPLES / "dse_sweep.json").read_text())
        doc["multiModel"] = str(SAMPLES / "vehicle_replay.json")
        doc.update(change)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "cosim":
        args = ["cosim", "--config", path, "--out", tmp_path / "o.csv"]
    else:
        args = ["dse", "sweep", "--config", path, "--out", tmp_path / "t.csv"]
    code, _, stderr = run_cli(capsys, *args)
    assert code == 2
    assert fragment in stderr
    assert "Traceback" not in stderr


def test_safety_run_worker_count_does_not_change_evidence(safety_evidence, tmp_path):
    serial, serial_stdout = safety_evidence
    pooled = tmp_path / "evidence"
    proc = subprocess.run(
        [sys.executable, "-m", "fieldsim.cli", "safety-run",
         "--suite", str(SAMPLES / "safety_suite.json"),
         "--evidence-dir", str(pooled), "--jobs", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == serial_stdout
    files = sorted(p.relative_to(serial) for p in serial.glob("*/*"))
    assert len(files) == 18
    assert sorted(p.relative_to(pooled) for p in pooled.glob("*/*")) == files
    for name in files:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


@pytest.mark.parametrize(
    "key,value,fragment",
    [
        ("passed", "false", "'passed' must be true or false, got 'false'"),
        ("measured", "0.0", "'measured' must be a number, got '0.0'"),
    ],
)
def test_gsn_rejects_evidence_that_is_not_typed_json(
    safety_evidence, tmp_path, capsys, key, value, fragment
):
    evidence = tmp_path / "evidence"
    shutil.copytree(safety_evidence[0], evidence)
    verdict_file = evidence / "degraded_v1" / "verdict.json"
    doc = json.loads(verdict_file.read_text())
    doc[key] = value
    verdict_file.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(
        capsys, "gsn", "--gsn", SAMPLES / "gsn_case.json",
        "--evidence-dir", evidence, "--out", tmp_path / "case.dot",
    )
    assert code == 2
    assert stdout == ""
    assert f"degraded_v1/verdict.json: {fragment}" in stderr
    assert "Traceback" not in stderr


def test_gsn_rejects_a_string_assertion(safety_evidence, tmp_path, capsys):
    doc = json.loads((SAMPLES / "gsn_case.json").read_text())
    [away] = [node for node in doc["nodes"] if node["kind"] == "away_goal"]
    away["asserted"] = "false"
    path = tmp_path / "gsn.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run_cli(
        capsys, "gsn", "--gsn", path,
        "--evidence-dir", safety_evidence[0], "--out", tmp_path / "case.dot",
    )
    assert code == 2
    assert f"node {away['id']!r}: 'asserted' must be true or false, got 'false'" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "name,values,fragment",
    [
        ("veh.mu", [0.3, 0.3], "parameter 'veh.mu': value 0.3 appears more than once"),
        ("veh.cAlphaF", ["30k", 30000], "parameter 'veh.cAlphaF': value 30000.0 appears more than once"),
    ],
)
def test_sweep_rejects_a_repeated_grid_value(tmp_path, capsys, name, values, fragment):
    doc = json.loads((SAMPLES / "dse_sweep.json").read_text())
    doc["multiModel"] = str(SAMPLES / "vehicle_replay.json")
    doc["scenarioFiles"] = {
        "sin_cal": {
            "inputs": str(SAMPLES / "sin_cal_inputs.csv"),
            "reference": str(SAMPLES / "sin_cal_reference.csv"),
        }
    }
    doc["parameters"][name] = values
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    table = tmp_path / "t.csv"
    code, _, stderr = run_cli(capsys, "dse", "sweep", "--config", path, "--out", table)
    assert code == 2
    assert fragment in stderr
    assert "Traceback" not in stderr
    assert not table.exists()


def overflowing_commands(path):
    # 1e308 m/s moves veh.x by 1e306 m per 0.01 s step, past the largest
    # float after about 1.8 s
    lines = ["time,velocity,delta_f"] + [f"{k},1e308,0" for k in range(5)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_non_finite_output_during_cosim_exits_3(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code, _, stderr = run_cli(
        capsys, "cosim",
        "--config", SAMPLES / "vehicle_replay.json",
        "--scenario-inputs", overflowing_commands(tmp_path / "fast.csv"),
        "--out", out,
    )
    assert code == 3
    assert stderr == "simulation error: recorded output veh.x is inf at t=1.8\n"
    assert not out.exists()


def test_non_finite_output_during_sweep_exits_3(tmp_path, capsys):
    doc = json.loads((SAMPLES / "dse_sweep.json").read_text())
    doc["multiModel"] = str(SAMPLES / "vehicle_replay.json")
    doc["scenarioFiles"] = {
        "sin_cal": {
            "inputs": str(overflowing_commands(tmp_path / "fast.csv")),
            "reference": str(SAMPLES / "sin_cal_reference.csv"),
        }
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    table = tmp_path / "t.csv"
    code, _, stderr = run_cli(capsys, "dse", "sweep", "--config", path, "--out", table)
    assert code == 3
    assert "recorded output veh.x is inf at t=1.8" in stderr
    assert "Traceback" not in stderr
    assert not table.exists()
