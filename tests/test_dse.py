"""Design-space exploration tests: objective, grid, search, ranking, files."""

import json
import math
import random
from pathlib import Path

import pytest

from fieldsim import dse
from fieldsim.cli import main
from fieldsim.dse import (
    MAX_SWEEP_RUNS,
    DseConfig,
    SweepRow,
    cross_track_error,
    expand_grid,
    optimize,
    pareto_rank,
    read_dse_config,
    read_dse_results,
    run_sweep,
    write_dse_results,
    write_objectives_json,
)
from fieldsim.errors import ConfigError
from fieldsim.orchestrator import (
    Connection,
    InstanceSpec,
    MultiModelConfig,
    PortRef,
    lockstep_cosim,
    run_cosim,
    write_results_csv,
)
from fieldsim.traces import AlignedPair, ScenarioSpec, align, generate_scenario, write_trace_csv
from fieldsim.units import default_registry, replay_factory

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


# --- objective --------------------------------------------------------------


def test_cross_track_error_example():
    pair = AlignedPair(pairs=[(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 4.0, 5.0)], clamped=0)
    mean, worst = cross_track_error(pair)
    assert mean == 2.5  # distances 0 and 5
    assert worst == 5.0


def test_cross_track_error_of_identical_paths_is_zero():
    pair = AlignedPair(pairs=[(x, 2.0 * x, x, 2.0 * x) for x in range(10)], clamped=0)
    assert cross_track_error(pair) == (0.0, 0.0)


def test_cross_track_error_matches_direct_computation():
    rng = random.Random(5)
    for _ in range(50):
        pts = [
            (rng.uniform(-10, 10), rng.uniform(-10, 10),
             rng.uniform(-10, 10), rng.uniform(-10, 10))
            for _ in range(rng.randint(1, 40))
        ]
        dists = [
            math.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2) for x1, y1, x2, y2 in pts
        ]
        mean, worst = cross_track_error(AlignedPair(pairs=pts, clamped=0))
        assert abs(mean - sum(dists) / len(dists)) < 1e-12
        assert worst == max(dists)


def test_cross_track_error_is_translation_invariant():
    pts = [(1.0, 2.0, 3.0, 5.0), (0.0, 0.0, -1.0, 1.0)]
    shifted = [(x1 + 7, y1 - 3, x2 + 7, y2 - 3) for x1, y1, x2, y2 in pts]
    base = cross_track_error(AlignedPair(pairs=pts, clamped=0))
    moved = cross_track_error(AlignedPair(pairs=shifted, clamped=0))
    assert moved[0] == pytest.approx(base[0], rel=1e-12)
    assert moved[1] == pytest.approx(base[1], rel=1e-12)


def test_cross_track_error_rejects_empty_alignment():
    with pytest.raises(ConfigError, match="empty alignment"):
        cross_track_error(AlignedPair(pairs=[], clamped=0))


# --- grid expansion ---------------------------------------------------------


def test_expand_grid_order():
    grid = expand_grid({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    assert grid == [
        {"a": 1.0, "b": 3.0},
        {"a": 1.0, "b": 4.0},
        {"a": 2.0, "b": 3.0},
        {"a": 2.0, "b": 4.0},
    ]


def test_expand_grid_cardinality():
    space = {"p": [1, 2, 3, 4, 5], "q": [1, 2, 3, 4, 5], "r": [1, 2, 3, 4, 5]}
    grid = expand_grid(space)
    assert len(grid) == 125
    assert grid[0] == {"p": 1, "q": 1, "r": 1}
    assert grid[-1] == {"p": 5, "q": 5, "r": 5}


def test_expand_grid_validation():
    with pytest.raises(ConfigError, match="empty value list"):
        expand_grid({"a": []})
    with pytest.raises(ConfigError, match="bad value"):
        expand_grid({"a": [float("nan")]})


# --- calibration pick -------------------------------------------------------


def rows_from(table):
    # table: {scenario: {key_tuple: (mean, max)}}
    out = []
    for scenario, block in table.items():
        for key, (mean, worst) in block.items():
            out.append(
                SweepRow(
                    scenario=scenario,
                    assignment={"veh.a": key[0], "veh.b": key[1]},
                    mean_error=mean,
                    max_error=worst,
                )
            )
    return out


def test_optimize_sums_over_scenarios():
    # assignment A is never the single best but wins on the sum
    table = {
        "s1": {(1.0, 1.0): (1.0, 1.0), (2.0, 1.0): (0.4, 1.0)},
        "s2": {(1.0, 1.0): (1.0, 1.0), (2.0, 1.0): (2.0, 2.0)},
    }
    best, total = optimize(rows_from(table))
    assert best == {"veh.a": 1.0, "veh.b": 1.0}
    assert total == 2.0


def test_optimize_tie_keeps_first_grid_entry():
    space = {"veh.a": [1.0, 2.0], "veh.b": [1.0]}
    table = {
        "s1": {(1.0, 1.0): (0.5, 1.0), (2.0, 1.0): (0.5, 1.0)},
    }
    best, total = optimize(rows_from(table), space)
    assert best == {"veh.a": 1.0, "veh.b": 1.0}
    assert total == 0.5


def test_optimize_tie_keeps_the_first_scenarios_first_assignment():
    # the scenarios interleave, and the table's second row lists the other
    # assignment first; both total 3.0, so the first scenario's order decides
    a1, a2 = {"veh.a": 1.0}, {"veh.a": 2.0}
    rows = [SweepRow("A", a1, 1.0, 1.0), SweepRow("B", a2, 1.0, 1.0),
            SweepRow("A", a2, 2.0, 2.0), SweepRow("B", a1, 2.0, 2.0)]
    assert optimize(rows) == (a1, 3.0)


def test_optimize_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        a_vals = sorted({round(rng.uniform(0, 5), 3) for _ in range(rng.randint(1, 4))})
        b_vals = sorted({round(rng.uniform(0, 5), 3) for _ in range(rng.randint(1, 3))})
        scenarios = [f"s{i}" for i in range(rng.randint(1, 4))]
        space = {"veh.a": list(a_vals), "veh.b": list(b_vals)}
        # a coarse value pool forces frequent exact ties
        table = {
            s: {
                (a, b): (rng.choice([0.25, 0.5, 0.75, 1.0]), 1.0)
                for a in a_vals
                for b in b_vals
            }
            for s in scenarios
        }
        best, total = optimize(rows_from(table), space)

        expected_key = None
        expected_total = math.inf
        for a in a_vals:  # same nesting order as the grid
            for b in b_vals:
                candidate = 0.0
                for s in scenarios:
                    candidate += table[s][(a, b)][0]
                if candidate < expected_total:
                    expected_total = candidate
                    expected_key = (a, b)
        assert (best["veh.a"], best["veh.b"]) == expected_key
        assert total == expected_total


def test_optimize_rejects_ragged_tables():
    table = {
        "s1": {(1.0, 1.0): (1.0, 1.0), (2.0, 1.0): (0.4, 1.0)},
        "s2": {(1.0, 1.0): (1.0, 1.0)},
    }
    with pytest.raises(ConfigError, match="does not cover the same grid"):
        optimize(rows_from(table))


def test_optimize_rejects_duplicate_rows():
    rows = rows_from({"s1": {(1.0, 1.0): (1.0, 1.0)}})
    with pytest.raises(ConfigError, match="duplicate row"):
        optimize(rows + rows)


@pytest.mark.parametrize(
    "assignment,fragment",
    [
        ({"veh.a": 2.0}, "row is missing parameter 'veh.b'"),
        ({"veh.a": 2.0, "veh.b": 1.0, "veh.c": 0.0},
         r"row has parameters \['veh.a', 'veh.b', 'veh.c'\], expected \['veh.a', 'veh.b'\]"),
    ],
    ids=["missing", "extra"],
)
def test_optimize_rejects_a_row_whose_parameters_differ(assignment, fragment):
    rows = rows_from({"s1": {(1.0, 1.0): (1.0, 1.0)}})
    rows.append(SweepRow("s1", assignment, 0.5, 0.5))
    with pytest.raises(ConfigError, match=fragment):
        optimize(rows)


def test_optimize_rejects_empty_table():
    with pytest.raises(ConfigError, match="empty result table"):
        optimize([])


# --- pareto front -----------------------------------------------------------


def mk_rows(points):
    return [
        SweepRow(scenario="s", assignment={"p": float(i)}, mean_error=m, max_error=w)
        for i, (m, w) in enumerate(points)
    ]


def front_points(rows):
    return [(r.mean_error, r.max_error) for r in rows]


def test_pareto_example():
    rows = mk_rows([(1.0, 5.0), (2.0, 2.0), (3.0, 1.0), (2.0, 6.0)])
    assert front_points(pareto_rank(rows)) == [(1.0, 5.0), (2.0, 2.0), (3.0, 1.0)]


def test_pareto_keeps_duplicate_optimal_points():
    rows = mk_rows([(2.0, 2.0), (1.0, 5.0), (2.0, 2.0)])
    front = pareto_rank(rows)
    assert front_points(front) == [(1.0, 5.0), (2.0, 2.0), (2.0, 2.0)]
    # both duplicates survive with their own assignments
    assert {r.assignment["p"] for r in front} == {0.0, 1.0, 2.0}


def test_pareto_matches_quadratic_reference():
    rng = random.Random(31)
    for _ in range(20):
        pts = [
            (rng.choice([1.0, 2.0, 3.0, 4.0]), rng.choice([1.0, 2.0, 3.0, 4.0]))
            for _ in range(rng.randint(1, 30))
        ]
        rows = mk_rows(pts)
        front = pareto_rank(rows)

        def dominated(i):
            mi, wi = pts[i]
            return any(
                (mj <= mi and wj <= wi) and (mj < mi or wj < wi)
                for j, (mj, wj) in enumerate(pts)
                if j != i
            )

        expected = sorted(
            [i for i in range(len(pts)) if not dominated(i)],
            key=lambda i: (pts[i][0], i),
        )
        assert [r.assignment["p"] for r in front] == [float(i) for i in expected]


def test_pareto_single_row_and_empty():
    assert pareto_rank([]) == []
    one = mk_rows([(1.0, 1.0)])
    assert pareto_rank(one) == one


# --- config files -----------------------------------------------------------


def write_config(tmp_path, doc, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "algorithm": {"type": "exhaustive"},
    "parameters": {"veh.mu": [0.3, 0.5]},
    "scenarios": ["sin1"],
}


def test_read_dse_config_minimal(tmp_path):
    config = read_dse_config(write_config(tmp_path, BASE_DOC))
    assert config.algorithm == "exhaustive"
    assert config.parameters == {"veh.mu": [0.3, 0.5]}
    assert config.scenarios == ["sin1"]
    assert config.multi_model is None
    assert config.warnings == []


def test_read_dse_config_accepts_plain_algorithm_string(tmp_path):
    doc = dict(BASE_DOC, algorithm="exhaustive")
    assert read_dse_config(write_config(tmp_path, doc)).algorithm == "exhaustive"


def test_read_dse_config_k_suffix_values(tmp_path):
    doc = dict(BASE_DOC)
    doc["parameters"] = {"veh.cAlphaF": ["20k", "24.5k", "29K", 33500, "38000"]}
    config = read_dse_config(write_config(tmp_path, doc))
    assert config.parameters["veh.cAlphaF"] == [20000.0, 24500.0, 29000.0, 33500.0, 38000.0]


def test_read_dse_config_splits_comma_joined_scenarios(tmp_path):
    doc = dict(BASE_DOC, scenarios=["sin1, sin2, turn_ramp1"])
    config = read_dse_config(write_config(tmp_path, doc))
    assert config.scenarios == ["sin1", "sin2", "turn_ramp1"]
    # one string, not in a list, is read the same way
    doc = dict(BASE_DOC, scenarios="a,b")
    assert read_dse_config(write_config(tmp_path, doc)).scenarios == ["a", "b"]


def test_read_dse_config_keeps_dotted_instance_prefix(tmp_path):
    # legacy references carry a wrapper segment; the port is still the
    # last segment and the rest names the instance
    doc = dict(BASE_DOC)
    doc["parameters"] = {"{plant}.veh.cAlphaF": [1.0]}
    config = read_dse_config(write_config(tmp_path, doc))
    assert list(config.parameters) == ["{plant}.veh.cAlphaF"]


def test_read_dse_config_records_tolerated_keys(tmp_path):
    doc = dict(
        BASE_DOC,
        objectiveDefinitions={"externalScripts": {}},
        parameterConstraints=[],
        externalScripts={},
    )
    config = read_dse_config(write_config(tmp_path, doc))
    assert [w.split("'")[1] for w in config.warnings] == [
        "externalScripts",
        "objectiveDefinitions",
        "parameterConstraints",
    ]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(algorithm={"type": "genetic"}), "only 'exhaustive'"),
        (lambda d: d.update(algorithm=7), "must name the search type"),
        (lambda d: d.update(parameters={}), "non-empty object"),
        (lambda d: d.update(parameters={"veh.mu": []}), "non-empty value list"),
        (lambda d: d.update(parameters={"nodot": [1]}), "port reference"),
        (lambda d: d.update(parameters={"veh.mu": ["4x"]}), "cannot parse"),
        (lambda d: d.update(scenarios=[]), "no scenarios"),
        (lambda d: d.update(scenarios=["a, a"]), "unique"),
        (lambda d: d.update(surprise=1), "unknown keys"),
        (lambda d: d.update(parameters={"veh.mu": [True]}), "'veh.mu': bad value True"),
        (lambda d: d.update(parameters={"veh.mu": [None]}), "'veh.mu': bad value None"),
        (lambda d: d.update(parameters={"veh.mu": ["inf"]}), "non-finite value 'inf'"),
        (lambda d: d.update(scenarios=5), "'scenarios' must be a list of names"),
        (lambda d: d.update(scenarios=["a", 5]), "scenario name 5 is not a string"),
        (lambda d: d.update(scenarioFiles=[]), "'scenarioFiles' must be an object"),
        (lambda d: d.update(scenarioFiles={"sin1": {"inputs": "i.csv"}}),
         r"scenarioFiles\['sin1'\] needs exactly 'inputs' and 'reference'"),
    ],
)
def test_read_dse_config_rejections(tmp_path, mutate, fragment):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=fragment) as info:
        read_dse_config(path)
    assert str(info.value).startswith(f"{path}: ")  # every error names its file


@pytest.mark.parametrize("name", [".", "..", "../escaped", "a/b", "a\\b", "a\nb", "a\rb"])
def test_read_dse_config_rejects_a_scenario_name_that_leaves_its_directory_or_field(tmp_path, name):
    doc = dict(BASE_DOC, scenarios=["sin1", name])
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="bad scenario name") as info:
        read_dse_config(path)
    assert str(info.value).startswith(f"{path}: ")


def test_read_dse_config_rejects_a_document_that_is_not_an_object(tmp_path):
    with pytest.raises(ConfigError, match="sweep config must be a JSON object"):
        read_dse_config(write_config(tmp_path, [BASE_DOC]))


def test_read_dse_config_rejects_bad_json(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        read_dse_config(path)


# --- result files -----------------------------------------------------------


def test_dse_results_roundtrip(tmp_path):
    rows = rows_from({"s1": {(1.0, 2.0): (0.25, 0.5), (3.0, 4.0): (0.75, 1.5)}})
    path = tmp_path / "out.csv"
    write_dse_results(rows, path, param_names=["veh.a", "veh.b"])
    header = path.read_text().splitlines()[0]
    assert header == "scenario,veh.a,veh.b,mean_cross_track_error,max_cross_track_error"
    names, back = read_dse_results(path)
    assert names == ["veh.a", "veh.b"]
    assert back == rows


def test_dse_results_reject_a_scenario_name_with_a_comma(tmp_path):
    rows = [SweepRow("a,b", {"veh.a": 1.0}, 0.5, 0.5)]
    with pytest.raises(ConfigError, match="scenario name 'a,b' cannot contain a comma"):
        write_dse_results(rows, tmp_path / "out.csv", ["veh.a"])
    assert not (tmp_path / "out.csv").exists()


def test_dse_results_reject_bad_header(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("scenario,veh.a,mean_error\n")
    with pytest.raises(ConfigError, match="header must be"):
        read_dse_results(path)


@pytest.mark.parametrize(
    "params,fragment",
    [
        ("a,a", "header names column 'a' more than once"),
        ("a,scenario", "header names column 'scenario' more than once"),
        ("a,", "header has an empty column name"),
    ],
)
def test_dse_results_reject_a_header_that_does_not_name_each_column_once(tmp_path, params, fragment):
    path = tmp_path / "out.csv"
    path.write_text(
        f"scenario,{params},mean_cross_track_error,max_cross_track_error\n"
        "s,1,2,0.5,0.5\n"
    )
    with pytest.raises(ConfigError, match=rf"out\.csv:1: {fragment}"):
        read_dse_results(path)


def test_objectives_json_shape(tmp_path):
    path = tmp_path / "objectives.json"
    write_objectives_json(path, 0.125, 0.5)
    doc = json.loads(path.read_text())
    assert doc == {"cross_track_mean": 0.125, "cross_track_max": 0.5}


# --- end-to-end sweep -------------------------------------------------------

TRUE_PARAMS = {"veh.cAlphaF": 30000.0, "veh.mu": 0.4}


def command_config(duration=4.0):
    return MultiModelConfig(
        instances={"src": InstanceSpec("replay"), "veh": InstanceSpec("vehicle")},
        connections=[
            Connection(PortRef("src", "velocity"), PortRef("veh", "velocity")),
            Connection(PortRef("src", "delta_f"), PortRef("veh", "delta_f")),
        ],
        outputs=[PortRef("veh", "x"), PortRef("veh", "y")],
        step_size=0.01,
        duration=duration,
    )


@pytest.fixture(scope="module")
def sweep_workspace(tmp_path_factory):
    """A one-scenario sweep whose reference was produced by known parameters."""
    root = tmp_path_factory.mktemp("sweep")
    commands = generate_scenario(
        ScenarioSpec(name="sin1", kind="sin", duration=4.0, base_speed=1.5, amplitude=0.25)
    )
    write_trace_csv(commands, root / "sin1_inputs.csv")

    mm = command_config()
    truth = MultiModelConfig(
        instances={
            "src": InstanceSpec("replay"),
            "veh": InstanceSpec(
                "vehicle", {"cAlphaF": TRUE_PARAMS["veh.cAlphaF"], "mu": TRUE_PARAMS["veh.mu"]}
            ),
        },
        connections=mm.connections,
        outputs=mm.outputs,
        step_size=mm.step_size,
        duration=mm.duration,
    )
    reg = default_registry()
    reg.register("replay", replay_factory(commands))
    write_results_csv(run_cosim(truth, reg), root / "sin1_reference.csv")

    (root / "mm.json").write_text(
        json.dumps(
            {
                "instances": {
                    "src": {"unit_type": "replay"},
                    "veh": {"unit_type": "vehicle"},
                },
                "connections": [
                    {"source": "src.velocity", "sink": "veh.velocity"},
                    {"source": "src.delta_f", "sink": "veh.delta_f"},
                ],
                "outputs": ["veh.x", "veh.y"],
                "step_size": 0.01,
                "duration": 4.0,
            }
        )
    )
    (root / "sweep.json").write_text(
        json.dumps(
            {
                "algorithm": {"type": "exhaustive"},
                "parameters": {
                    "veh.cAlphaF": ["20k", "30k"],
                    "veh.mu": [0.3, 0.4],
                },
                "scenarios": ["sin1"],
                "multiModel": "mm.json",
                "scenarioFiles": {
                    "sin1": {"inputs": "sin1_inputs.csv", "reference": "sin1_reference.csv"}
                },
            }
        )
    )
    return root


def test_sweep_recovers_reference_parameters(sweep_workspace):
    config = read_dse_config(sweep_workspace / "sweep.json")
    rows = run_sweep(config)
    assert len(rows) == 4
    by_key = {(r.assignment["veh.cAlphaF"], r.assignment["veh.mu"]): r for r in rows}
    exact = by_key[(30000.0, 0.4)]
    assert exact.mean_error == 0.0
    assert exact.max_error == 0.0
    assert all(
        r.mean_error > 0.0 for k, r in by_key.items() if k != (30000.0, 0.4)
    )
    best, total = optimize(rows, config.parameters)
    assert best == TRUE_PARAMS
    assert total == 0.0


def test_sweep_rows_follow_grid_order(sweep_workspace):
    config = read_dse_config(sweep_workspace / "sweep.json")
    rows = run_sweep(config)
    keys = [(r.assignment["veh.cAlphaF"], r.assignment["veh.mu"]) for r in rows]
    assert keys == [(20000.0, 0.3), (20000.0, 0.4), (30000.0, 0.3), (30000.0, 0.4)]


def test_a_serial_sample_sweep_runs_its_scenario_as_one_lockstep(monkeypatch):
    calls = []

    def counted(configs, registry):
        calls.append(len(configs))
        return lockstep_cosim(configs, registry)

    monkeypatch.setattr(dse, "lockstep_cosim", counted)
    assert len(run_sweep(read_dse_config(SAMPLES / "dse_sweep.json"))) == 4
    assert calls == [4]


def test_sweep_is_worker_count_invariant(sweep_workspace, tmp_path):
    config = read_dse_config(sweep_workspace / "sweep.json")
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    write_dse_results(run_sweep(config, workers=1), serial, list(config.parameters))
    write_dse_results(run_sweep(config, workers=2), parallel, list(config.parameters))
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_writes_run_artifacts(sweep_workspace, tmp_path):
    config = read_dse_config(sweep_workspace / "sweep.json")
    art = tmp_path / "artifacts"
    run_sweep(config, artifacts_dir=art)
    run_dirs = sorted(p.name for p in (art / "sin1").iterdir())
    assert run_dirs == ["run_0000", "run_0001", "run_0002", "run_0003"]
    for d in run_dirs:
        contents = sorted(p.name for p in (art / "sin1" / d).iterdir())
        assert contents == ["objectives.json", "results.csv"]
    doc = json.loads((art / "sin1" / "run_0003" / "objectives.json").read_text())
    assert doc["cross_track_mean"] == 0.0
    assert doc["cross_track_max"] == 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "body,fragment",
    [
        ("time,veh.x,veh.y\n0,0,0\nx,1,1\n", r"bad_ref\.csv:3: malformed number"),
        ("time,a,b\n0,0,0\n", "cannot identify position channels among \\['a', 'b'\\]"),
    ],
    ids=["malformed_number", "no_position_channels"],
)
def test_sweep_with_artifacts_reads_every_scenario_before_its_first_run(
    sweep_workspace, tmp_path, workers, body, fragment
):
    config = read_dse_config(sweep_workspace / "sweep.json")
    (tmp_path / "bad_ref.csv").write_text(body)
    inputs, _ = config.scenario_files["sin1"]
    config.scenarios = ["sin1", "later"]
    config.scenario_files = {**config.scenario_files, "later": (inputs, tmp_path / "bad_ref.csv")}
    art = tmp_path / "artifacts"
    with pytest.raises(ConfigError, match=fragment):
        run_sweep(config, workers=workers, artifacts_dir=art)
    assert not list(art.glob("*/run_*"))


@pytest.mark.parametrize(
    "case,fragment",
    [
        ("reference", r"bad_ref\.csv: cannot identify position channels among \['a', 'b', 'c'\]"),
        ("outputs", r"^multi-model outputs: cannot identify position channels among \['veh\.theta'\]"),
    ],
    ids=["reference", "outputs"],
)
def test_sweep_without_position_channels_fails_before_any_run(
    sweep_workspace, tmp_path, monkeypatch, case, fragment
):
    config = read_dse_config(sweep_workspace / "sweep.json")
    if case == "reference":
        (tmp_path / "bad_ref.csv").write_text("time,a,b,c\n0,0,0,0\n1,1,1,1\n")
        inputs, _ = config.scenario_files["sin1"]
        config.scenario_files = {"sin1": (inputs, tmp_path / "bad_ref.csv")}
    else:
        config.multi_model.outputs = [PortRef("veh", "theta")]

    def forbidden(*args):
        raise AssertionError("the sweep simulated a point")

    monkeypatch.setattr(dse, "lockstep_cosim", forbidden)
    for artifacts_dir in (None, tmp_path / "artifacts"):
        with pytest.raises(ConfigError, match=fragment):
            run_sweep(config, artifacts_dir=artifacts_dir)
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("which", ["inputs", "reference"])
def test_sweep_names_a_missing_scenario_file(sweep_workspace, tmp_path, which):
    config = read_dse_config(sweep_workspace / "sweep.json")
    files = dict(zip(("inputs", "reference"), config.scenario_files["sin1"]))
    files[which] = tmp_path / "absent.csv"
    config.scenario_files = {"sin1": (files["inputs"], files["reference"])}
    with pytest.raises(ConfigError, match=rf"scenario 'sin1': missing {which} file .*absent\.csv"):
        run_sweep(config)


def test_sweep_requires_multi_model(sweep_workspace):
    config = read_dse_config(sweep_workspace / "sweep.json")
    config.multi_model = None
    with pytest.raises(ConfigError, match="names no multi-model"):
        run_sweep(config)


def test_sweep_requires_trace_files(sweep_workspace):
    config = read_dse_config(sweep_workspace / "sweep.json")
    config.scenarios = ["sin1", "ghost"]
    with pytest.raises(ConfigError, match="no trace files for scenarios: ghost"):
        run_sweep(config)


def test_sweep_rejects_parameter_for_unknown_instance(sweep_workspace):
    config = read_dse_config(sweep_workspace / "sweep.json")
    config.parameters = {"nobody.mu": [0.3]}
    with pytest.raises(ConfigError, match="no instance 'nobody'"):
        run_sweep(config)


def test_a_sweep_over_the_run_budget_exits_2_before_expanding_its_grid(
    sweep_workspace, tmp_path, monkeypatch, capsys
):
    doc = json.loads((sweep_workspace / "sweep.json").read_text())
    doc["multiModel"] = str(sweep_workspace / "mm.json")
    doc["scenarioFiles"]["sin1"] = {
        key: str(sweep_workspace / name) for key, name in doc["scenarioFiles"]["sin1"].items()
    }
    # 200 ** 3 = 8e6 points, four times the budget
    doc["parameters"] = {name: list(range(1, 201)) for name in ("veh.cAlphaF", "veh.mu", "veh.m_robot")}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))

    def forbidden(space):
        raise AssertionError("the sweep expanded its grid")

    monkeypatch.setattr(dse, "expand_grid", forbidden)
    out = tmp_path / "t.csv"
    assert main(["dse", "sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(out)]) == 2
    assert f"sweep of 8000000 runs exceeds the budget of {MAX_SWEEP_RUNS} runs" in capsys.readouterr().err
    assert not out.exists()


def test_expand_grid_rejects_a_repeated_value():
    with pytest.raises(ConfigError, match="parameter 'veh.mu': value 0.3 appears more than once"):
        expand_grid({"veh.cAlphaF": [1.0, 2.0], "veh.mu": [0.3, 0.4, 0.3]})


def test_dse_results_reject_non_finite_fields(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(
        "scenario,veh.a,mean_cross_track_error,max_cross_track_error\n"
        "s1,1,0.5,0.5\n"
        "s1,2,inf,inf\n"
    )
    with pytest.raises(ConfigError, match=r"out\.csv:3: non-finite value"):
        read_dse_results(path)


def test_optimize_rejects_a_table_without_a_finite_total():
    rows = rows_from({"s1": {(1.0, 1.0): (math.inf, math.inf), (2.0, 1.0): (math.inf, 1.0)}})
    with pytest.raises(ConfigError, match="no assignment has a finite summed error"):
        optimize(rows)
