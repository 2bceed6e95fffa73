"""Single-operation probes, one per row of the ROADMAP baseline table.

Each probe times one public operation on fixed inputs and reports the median
of several batches, so the first benchmark point can be set beside the
baseline measured by hand.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median
from time import perf_counter

from fieldsim import dse, orchestrator, traces, units

from workloads import SAMPLES, SCENARIOS, _multimodel_doc

REPEATS = 15


def _median_s(fn, batch: int = 1) -> float:
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - start) / batch)
    return median(samples)


def run_probes(work: Path) -> tuple[dict, list[str]]:
    """Return ({metric: (value, unit)}, failures)."""
    failures = []
    name, kind, speed, amplitude = SCENARIOS[0]
    commands = traces.generate_scenario(traces.ScenarioSpec(name, kind, 20.0, speed, amplitude))
    config = orchestrator.load_multimodel(_multimodel_doc())

    def cosim():
        registry = units.default_registry()
        registry.register("replay", units.replay_factory(commands))
        return orchestrator.run_cosim(config, registry)

    trace = cosim()
    if len(trace.times) != 2001:
        failures.append(f"probe run_cosim gave {len(trace.times)} rows, expected 2001")

    grid_map = units.read_grid_map(SAMPLES / "field.map")
    # the sample suite's nominal sensor: 64 rays over 0.5-2 m
    sensor = units.SensorUnit(grid_map, {"min_range": 0.5, "max_range": 2.0})

    def place(x):
        def step():
            sensor.set_input("x", x)
            sensor.set_input("y", 0.0)
            sensor.set_input("theta", 0.0)
            sensor.do_step(0.01)
        return step

    # the obstacle's near face is at x = 10: 1.5 m ahead of x = 8.5, 5 m ahead of x = 5
    near, far = place(8.5), place(5.0)
    for step, expect in ((near, True), (far, False)):
        step()
        if sensor.get_output("obstacle_detected") is not expect:
            failures.append(f"probe sensor step: obstacle_detected is not {expect}")

    csv_path = work / "probe_trace.csv"
    traces.write_trace_csv(trace, csv_path)
    back = traces.read_trace_csv(csv_path)
    if (back.times, back.values) != (trace.times, trace.values):
        failures.append("probe CSV read-back differs from the written trace")
    if dse.cross_track_error(traces.align(back, trace)) != (0.0, 0.0):
        failures.append("probe align of a trace against itself is not zero")

    metrics = {
        "probe.run_cosim_2000_steps.ms": (_median_s(cosim) * 1e3, "ms"),
        "probe.sensor_step_near.us": (_median_s(near, 20) * 1e6, "us"),
        "probe.sensor_step_far.us": (_median_s(far, 20) * 1e6, "us"),
        "probe.clearance.us": (_median_s(lambda: grid_map.clearance(5.0, 0.0), 200) * 1e6, "us"),
        "probe.write_trace_csv_2001_rows.ms": (
            _median_s(lambda: traces.write_trace_csv(trace, csv_path)) * 1e3, "ms"),
        "probe.read_trace_csv_2001_rows.ms": (
            _median_s(lambda: traces.read_trace_csv(csv_path)) * 1e3, "ms"),
        "probe.align_objective_2001_rows.ms": (
            _median_s(lambda: dse.cross_track_error(traces.align(back, trace))) * 1e3, "ms"),
    }
    return metrics, failures
