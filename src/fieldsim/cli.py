"""Command line front end.

Exit codes: 0 on success, 2 for configuration or usage problems, 3 when
a simulation fails at runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from ._shared import check_flag, check_kind, read_json
from .dse import (
    optimize,
    pareto_rank,
    read_dse_config,
    read_dse_results,
    run_sweep,
    write_dse_results,
)
from .errors import ConfigError, ContractViolation, SimulationError, UnknownUnitError
from .orchestrator import load_multimodel, run_cosim, write_results_csv
from .safety import (
    evaluate_fault_tree,
    link_evidence,
    read_fault_tree,
    read_gsn,
    read_safety_suite,
    read_verdicts,
    render_gsn_dot,
    run_safety_suite,
)
from .traces import (
    COMMAND_CHANNELS,
    SCENARIO_KINDS,
    ScenarioSpec,
    generate_scenario,
    read_trace_csv,
    write_trace_csv,
)
from .units import default_registry, replay_factory


def _cmd_cosim(args) -> int:
    config = load_multimodel(args.config)
    if args.step is not None:
        config = replace(config, step_size=args.step)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    registry = default_registry()
    if args.scenario_inputs:
        trace_in = read_trace_csv(args.scenario_inputs, COMMAND_CHANNELS)
        registry.register("replay", replay_factory(trace_in))
    start = time.perf_counter()
    trace = run_cosim(config, registry)
    elapsed = time.perf_counter() - start
    write_results_csv(trace, args.out)
    print(f"wrote {args.out} ({len(trace.times)} rows) in {elapsed:.2f} s")
    return 0


def _cmd_scenario_gen(args) -> int:
    spec = ScenarioSpec(
        name="scenario",
        kind=args.kind,
        duration=args.duration,
        base_speed=args.base_speed,
        amplitude=args.amplitude,
        sample_period=args.sample_period,
    )
    trace = generate_scenario(spec)
    write_trace_csv(trace, args.out)
    print(f"wrote {args.out} ({len(trace.times)} rows, kind {args.kind})")
    return 0


def _cmd_dse_sweep(args) -> int:
    config = read_dse_config(args.config)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    start = time.perf_counter()
    rows = run_sweep(config, workers=args.jobs, artifacts_dir=args.artifacts)
    elapsed = time.perf_counter() - start
    write_dse_results(rows, args.out, param_names=list(config.parameters))
    print(f"wrote {args.out} ({len(rows)} rows) in {elapsed:.2f} s")
    return 0


def _cmd_dse_optimize(args) -> int:
    param_names, rows = read_dse_results(args.results)
    best, total = optimize(rows)
    doc = {"parameters": best, "total_mean_cross_track_error": total}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(doc))
    else:
        settings = ", ".join(f"{name}={value:g}" for name, value in best.items())
        print(f"best assignment: {settings} (summed mean error {total:.6g} m)")
    return 0


def _cmd_dse_rank(args) -> int:
    param_names, rows = read_dse_results(args.results)
    front = pareto_rank(rows)
    if args.out:
        write_dse_results(front, args.out, param_names=param_names)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "scenario": row.scenario,
                        "parameters": row.assignment,
                        "mean_cross_track_error": row.mean_error,
                        "max_cross_track_error": row.max_error,
                    }
                    for row in front
                ]
            )
        )
    else:
        print(f"{len(front)} of {len(rows)} rows are on the (mean, max) front")
    return 0


def _cmd_safety_run(args) -> int:
    suite = read_safety_suite(args.suite)
    verdicts = run_safety_suite(suite, args.evidence_dir, workers=args.jobs)
    for verdict in verdicts:
        state = "PASS" if verdict.passed else "FAIL"
        detail = f"min gap {verdict.measured:.3f} m" if not verdict.note else verdict.note
        print(f"{verdict.run_id}: {state} ({detail})")
    print(f"{sum(v.passed for v in verdicts)}/{len(verdicts)} runs passed")
    return 0


def _cmd_gsn(args) -> int:
    graph = read_gsn(args.gsn)
    verdicts = read_verdicts(args.evidence_dir)
    annotated = link_evidence(graph, verdicts)
    Path(args.out).write_text(render_gsn_dot(annotated), newline="\n")
    for root in graph.roots():
        print(f"root {root.node_id}: {annotated.statuses[root.node_id].value}")
    print(f"wrote {args.out}")
    return 0


def _parse_event_states(text: str) -> dict[str, bool]:
    path = Path(text)
    if path.is_file():
        where = str(path)
        doc = check_kind(where, "event states", read_json(path), dict)
        return {name: check_flag(where, name, value) for name, value in doc.items()}
    states: dict[str, bool] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"event state {item!r} must look like name=true|false")
        value = value.strip().lower()
        if value in ("true", "1"):
            states[name.strip()] = True
        elif value in ("false", "0"):
            states[name.strip()] = False
        else:
            raise ConfigError(f"event state {item!r} must be true or false")
    return states


def _cmd_ft(args) -> int:
    tree = read_fault_tree(args.tree)
    states = _parse_event_states(args.events)
    result = evaluate_fault_tree(tree, states)
    print(f"TOP: {'true' if result else 'false'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldsim",
        description="Co-simulation, parameter sweeps and safety evidence for field vehicles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosim", help="run one co-simulation and record a results CSV")
    p.add_argument("--config", required=True, help="multi-model JSON file")
    p.add_argument("--scenario-inputs", dest="scenario_inputs",
                   help="command trace CSV backing any 'replay' instance")
    p.add_argument("--step", type=float, help="override the configured step size")
    p.add_argument("--duration", type=float, help="override the configured duration")
    p.add_argument("--out", required=True, help="results CSV to write")
    p.set_defaults(func=_cmd_cosim)

    p = sub.add_parser("scenario-gen", help="generate a synthetic command trace")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--base-speed", dest="base_speed", type=float, required=True)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--sample-period", dest="sample_period", type=float, default=0.1)
    p.add_argument("--out", required=True, help="command trace CSV to write")
    p.set_defaults(func=_cmd_scenario_gen)

    dse = sub.add_parser("dse", help="design-space exploration").add_subparsers(
        dest="dse_command", required=True
    )

    p = dse.add_parser("sweep", help="simulate every grid assignment against every scenario")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", required=True, help="result table CSV to write")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--artifacts", help="directory for per-run results and objective files")
    p.set_defaults(func=_cmd_dse_sweep)

    p = dse.add_parser("optimize", help="pick the assignment minimising the summed mean error")
    p.add_argument("--results", required=True, help="result table CSV from a sweep")
    p.add_argument("--out", help="JSON file for the best assignment")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_dse_optimize)

    p = dse.add_parser("rank", help="keep the (mean, max) Pareto front of a result table")
    p.add_argument("--results", required=True, help="result table CSV from a sweep")
    p.add_argument("--out", help="CSV file for the front")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_dse_rank)

    p = sub.add_parser("safety-run", help="run a safety suite and write evidence")
    p.add_argument("--suite", required=True, help="suite JSON file")
    p.add_argument("--evidence-dir", dest="evidence_dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_safety_run)

    p = sub.add_parser("gsn", help="link evidence into a goal structure and render DOT")
    p.add_argument("--gsn", required=True, help="goal structure JSON file")
    p.add_argument("--evidence-dir", dest="evidence_dir", required=True)
    p.add_argument("--out", required=True, help="DOT file to write")
    p.set_defaults(func=_cmd_gsn)

    p = sub.add_parser("ft", help="evaluate a fault tree for given basic event states")
    p.add_argument("--tree", required=True, help="fault tree JSON file")
    p.add_argument("--events", required=True,
                   help="JSON file or comma list like fog=true,rain=false")
    p.set_defaults(func=_cmd_ft)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownUnitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError) and exc.diagnostics != [str(exc)]:
            for diagnostic in exc.diagnostics:
                print(f"  - {diagnostic}", file=sys.stderr)
        return 2
    except (SimulationError, ContractViolation) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
