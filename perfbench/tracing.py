"""In-memory tracing of fieldsim's public layer boundaries, for the traced pass.

The tracer wraps module attributes and class methods at the places where
fieldsim calls them (``fieldsim.dse.run_cosim``, ``VehicleUnit.do_step``,
...) and restores them afterwards; nothing under ``src/`` changes.

Two kinds of record:

* spans, for calls made once per run or per pipeline stage: name, start,
  end, parent index, plus the time covered by children;
* aggregates, for calls made once per macro step (``do_step``,
  ``instantiate``, ``clearance``): a call count and total time per name, so
  a sweep does not store millions of spans.  Their time still counts as
  child time of the enclosing span.

Self time of a span is its duration minus the time its children cover.
"""

from __future__ import annotations

from time import perf_counter_ns

from fieldsim import dse, orchestrator, safety, simunit, units

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, child_ns]
        self.totals: dict[str, list[int]] = {}  # aggregate name -> [calls, ns]
        self.macro_steps = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, on_result=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0, 0, open_[-1] if open_ else -1, 0]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter_ns()
                open_.pop()
                if open_:
                    spans[open_[-1]][4] += end - rec[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _aggregate_wrapper(self, name, fn, classify=None):
        spans, open_, totals = self.spans, self._open, self.totals

        def counted(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                key = name if classify is None else f"{name}.{classify(args[0])}"
                stat = totals.get(key)
                if stat is None:
                    stat = totals[key] = [0, 0]
                stat[0] += 1
                stat[1] += elapsed
                if open_:
                    spans[open_[-1]][4] += elapsed

        return counted

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, on_result=None):
        self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), on_result))

    def aggregate(self, owner, attr, name, classify=None):
        self._patch(owner, attr, self._aggregate_wrapper(name, getattr(owner, attr), classify))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)  # was inherited; uncover the base attribute
            else:
                setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_ns(self) -> dict[str, int]:
        """Self time per span name and total time per aggregate name."""
        out: dict[str, int] = {}
        for name, start, end, _, child in self.spans:
            out[name] = out.get(name, 0) + (end - start) - child
        for name, (_, total) in self.totals.items():
            out[name] = out.get(name, 0) + total
        return out

    def calls(self, name: str) -> int:
        if name in self.totals:
            return self.totals[name][0]
        return sum(1 for s in self.spans if s[0] == name)

    def total_ns(self, name: str) -> int:
        if name in self.totals:
            return self.totals[name][1]
        return sum(self.durations_ns(name))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""

    def count_steps(trace):
        tracer.macro_steps += len(trace.times) - 1

    for module in (dse, safety):
        tracer.span(module, "run_cosim", "orchestrator.run_cosim", count_steps)
    tracer.span(orchestrator, "validate_config", "orchestrator.validate_config")
    tracer.span(orchestrator, "write_trace_csv", "traces.write_trace_csv")
    tracer.aggregate(simunit.UnitRegistry, "instantiate", "simunit.instantiate")

    for cls, name in (
        (units.VehicleUnit, "units.vehicle.do_step"),
        (units.ReplayUnit, "units.control.replay.do_step"),
        (units.PurePursuitUnit, "units.control.pure_pursuit.do_step"),
        (units.SupervisoryBrake, "units.control.supervisor.do_step"),
    ):
        tracer.aggregate(cls, "do_step", name)
    tracer.aggregate(
        units.SensorUnit, "do_step", "units.sensing.sensor.do_step",
        classify=lambda unit: "near" if unit.get_output("obstacle_detected") else "far",
    )
    tracer.aggregate(units.GridMap, "clearance", "units.sensing.clearance")

    for attr, name in (
        ("run_sweep", "dse.run_sweep"),
        ("read_trace_csv", "traces.read_trace_csv"),
        ("align", "traces.align"),
        ("cross_track_error", "dse.cross_track_error"),
        ("write_dse_results", "dse.write_dse_results"),
        ("optimize", "dse.optimize"),
        ("pareto_rank", "dse.pareto_rank"),
    ):
        tracer.span(dse, attr, name)
    for attr in (
        "run_safety_suite", "assess_run", "write_verdict", "read_verdicts",
        "link_evidence", "render_gsn_dot", "minimal_cut_sets", "evaluate_fault_tree",
    ):
        tracer.span(safety, attr, f"safety.{attr}")


def percentile(values: list, q: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # integer ceil
    return ordered[rank - 1], len(ordered) - rank


def per_call(total_ns: int, calls: int, scale: float) -> float:
    return total_ns / calls / scale if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``; 0 where a layer did no work."""
    t = tracer
    self_ns = t.self_ns()
    p50, _ = percentile(t.durations_ns("orchestrator.run_cosim"), 50)
    p99, beyond_p99 = percentile(t.durations_ns("orchestrator.run_cosim"), 99)
    near = t.totals.get("units.sensing.sensor.do_step.near", [0, 0])
    far = t.totals.get("units.sensing.sensor.do_step.far", [0, 0])
    sensor_calls = near[0] + far[0]

    def calls(name):
        return (t.calls(name), "count")

    def each(name, unit, scale):
        return (per_call(t.total_ns(name), t.calls(name), scale), unit)

    def total(name, unit, scale):
        return (t.total_ns(name) / scale, unit)

    return {
        "orchestrator.run_cosim.calls": calls("orchestrator.run_cosim"),
        "orchestrator.run_cosim.p50_ms": (p50 / 1e6, "ms"),
        # a tail is reported only where at least ten samples lie beyond it
        "orchestrator.run_cosim.p99_ms": (p99 / 1e6 if beyond_p99 >= 10 else 0.0, "ms"),
        "orchestrator.master_ns_per_step": (
            per_call(self_ns.get("orchestrator.run_cosim", 0), t.macro_steps, 1), "ns"),
        "orchestrator.validate_config.calls": calls("orchestrator.validate_config"),
        "orchestrator.validate_config.us_per_call":
            each("orchestrator.validate_config", "us", 1e3),
        "simunit.instantiate.calls": calls("simunit.instantiate"),
        "units.vehicle.do_step.calls": calls("units.vehicle.do_step"),
        "units.vehicle.do_step.ns_per_call": each("units.vehicle.do_step", "ns", 1),
        "units.control.replay.do_step.ns_per_call": each("units.control.replay.do_step", "ns", 1),
        "units.control.pure_pursuit.do_step.ns_per_call":
            each("units.control.pure_pursuit.do_step", "ns", 1),
        "units.control.supervisor.do_step.ns_per_call":
            each("units.control.supervisor.do_step", "ns", 1),
        "units.sensing.sensor.do_step.calls": (sensor_calls, "count"),
        "units.sensing.sensor.near_us_per_step": (per_call(near[1], near[0], 1e3), "us"),
        "units.sensing.sensor.far_us_per_step": (per_call(far[1], far[0], 1e3), "us"),
        "units.sensing.sensor.far_step_share": (
            far[0] / sensor_calls if sensor_calls else 0.0, "ratio"),
        "units.sensing.clearance.calls": calls("units.sensing.clearance"),
        "units.sensing.clearance.us_per_call": each("units.sensing.clearance", "us", 1e3),
        "traces.align.us_per_call": each("traces.align", "us", 1e3),
        "traces.write_trace_csv.calls": calls("traces.write_trace_csv"),
        "traces.write_trace_csv.ms_per_call": each("traces.write_trace_csv", "ms", 1e6),
        "traces.read_trace_csv.calls": calls("traces.read_trace_csv"),
        "traces.read_trace_csv.ms_per_call": each("traces.read_trace_csv", "ms", 1e6),
        "dse.cross_track_error.us_per_call": each("dse.cross_track_error", "us", 1e3),
        "dse.write_dse_results.ms": total("dse.write_dse_results", "ms", 1e6),
        "dse.optimize.ms": total("dse.optimize", "ms", 1e6),
        "dse.pareto_rank.ms": total("dse.pareto_rank", "ms", 1e6),
        "dse.run_sweep.self_ms": (self_ns.get("dse.run_sweep", 0) / 1e6, "ms"),
        "safety.assess_run.ms_per_call": each("safety.assess_run", "ms", 1e6),
        "safety.write_verdict.calls": calls("safety.write_verdict"),
        "safety.read_verdicts.ms": total("safety.read_verdicts", "ms", 1e6),
        "safety.link_evidence.us": total("safety.link_evidence", "us", 1e3),
        "safety.render_gsn_dot.us": total("safety.render_gsn_dot", "us", 1e3),
        "safety.minimal_cut_sets.us": total("safety.minimal_cut_sets", "us", 1e3),
    }
