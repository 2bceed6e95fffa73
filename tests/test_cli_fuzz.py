"""The command line front end on mutated copies of the shipped samples.

Each example copies ``samples/`` into a fresh directory, mutates one file
(a JSON value, a CSV or map token or line, or its raw bytes) and runs, in
process, every command of the README pipeline that reads that file.  Each
must exit 0, 2 or 3 and print no traceback: a bad input is a diagnostic,
never a crash.  The safety suite's runs are cut to 1 s so that an example
stays cheap.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsim.cli import main

SAMPLES = Path(__file__).resolve().parents[1] / "samples"
SUITE_DURATION = 1.0

# file name -> the commands that read it; "{d}" is the example's directory,
# "{evidence}" a verdict directory made once from the unmutated samples
COSIM = ["cosim", "--config", "{d}/vehicle_replay.json",
         "--scenario-inputs", "{d}/sin_cal_inputs.csv", "--out", "{d}/run.csv"]
SWEEP = ["dse", "sweep", "--config", "{d}/dse_sweep.json", "--out", "{d}/table.csv"]
OPTIMIZE = ["dse", "optimize", "--results", "{d}/table.csv"]
RANK = ["dse", "rank", "--results", "{d}/table.csv", "--out", "{d}/front.csv"]
SAFETY = ["safety-run", "--suite", "{d}/safety_suite.json", "--evidence-dir", "{d}/evidence"]
GSN = ["gsn", "--gsn", "{d}/gsn_case.json", "--evidence-dir", "{evidence}", "--out", "{d}/case.dot"]
FT = ["ft", "--tree", "{d}/fault_tree.json",
      "--events", "detection_late=true,brake_weak=true,sensor_blind=false,obstacle_below_fov=false"]
READERS = {
    "vehicle_replay.json": [COSIM, SWEEP],
    "sin_cal_inputs.csv": [COSIM, SWEEP],
    "sin_cal_reference.csv": [SWEEP],
    "dse_sweep.json": [SWEEP, OPTIMIZE, RANK],
    "safety_suite.json": [SAFETY],
    "field.map": [SAFETY],
    "gsn_case.json": [GSN],
    "fault_tree.json": [FT],
}

JSON_VALUES = st.sampled_from([
    None, True, False, 0, -1, 0.5, 2, 1e308, -1e308, math.nan, math.inf, "", "x", "20k",
    [], {}, [1], {"x": 1},
])
TOKENS = st.sampled_from(["", "x", "0", "-1", "0.5", "2", "1e308", "nan", "inf", "-inf", "1,2", " "])


def test_every_sample_is_fuzzed():
    assert sorted(READERS) == sorted(p.name for p in SAMPLES.iterdir())


def copy_samples(directory: Path) -> None:
    for path in SAMPLES.iterdir():
        shutil.copy(path, directory / path.name)
    suite = json.loads((directory / "safety_suite.json").read_text())
    for run in suite["runs"]:
        run["duration"] = SUITE_DURATION
    (directory / "safety_suite.json").write_text(json.dumps(suite))


@pytest.fixture(scope="module")
def evidence(tmp_path_factory):
    directory = tmp_path_factory.mktemp("samples")
    copy_samples(directory)
    assert run_command(SAFETY, directory, None) == 0
    return directory / "evidence"


def run_command(template, directory, evidence):
    args = [arg.format(d=directory, evidence=evidence) for arg in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert "Traceback" not in err.getvalue()
    return code


def json_nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_nodes(value, path + (key,))


@st.composite
def json_mutations(draw, text):
    """Replace, delete or rename one node of the document."""
    doc = json.loads(text)
    nodes = list(json_nodes(doc))
    path, _ = draw(st.sampled_from(nodes[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "rename"]))
    if action == "replace":
        parent[key] = draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    else:
        parent.append(parent[key])
    return json.dumps(doc)


@st.composite
def text_mutations(draw, text):
    """Replace one comma- or space-separated token, or drop, repeat or cut a line."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["token", "drop", "repeat", "cut"]))
    if action == "token":
        sep = "," if "," in lines[i] else " "
        tokens = lines[i].split(sep)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[i] = sep.join(tokens)
    elif action == "drop":
        del lines[i]
    elif action == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        del lines[i + 1:]
    return "\n".join(lines) + "\n"


@st.composite
def byte_mutations(draw, data):
    """Overwrite one byte with any value, possibly breaking the text encoding."""
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mutated_sample_gives_a_diagnostic_not_a_crash(name, evidence, data):
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        copy_samples(directory)
        path = directory / name
        kind = data.draw(st.sampled_from(["json" if name.endswith(".json") else "text", "bytes"]))
        if kind == "bytes":
            path.write_bytes(data.draw(byte_mutations(path.read_bytes())))
        else:
            mutate = json_mutations if kind == "json" else text_mutations
            path.write_text(data.draw(mutate(path.read_text())), newline="\n")
        for template in READERS[name]:
            assert run_command(template, directory, evidence) in (0, 2, 3)
