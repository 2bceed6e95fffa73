"""fieldsim benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload, both passes

With ``--trace 0`` one run sets the workload up, repeats it for about
``--seconds`` seconds, setting it up again before each repetition, and
reports medians of the end-to-end metrics.  With ``--trace 1`` it runs the
workload's traced pass and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the run context.  fieldsim
is imported from ``src/`` beside this directory; the run exits non-zero
without a result if it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the keys of workloads.WORKLOADS, which imports fieldsim and so only loads
# once import_fieldsim has found it
WORKLOAD_NAMES = ("sweep", "safety_suite")
SETUP_SHARE = 0.05  # of each repetition's time spent on extra set-ups
ACCOUNTING_TOLERANCE = 0.05


def import_fieldsim() -> None:
    src = ROOT / "src"
    if not (src / "fieldsim" / "__init__.py").is_file():
        raise SystemExit(f"fieldsim sources not found under {src}")
    sys.path.insert(0, str(src))
    import fieldsim

    if Path(fieldsim.__file__).resolve().parent != (src / "fieldsim").resolve():
        raise SystemExit(f"imported fieldsim from {fieldsim.__file__}, not from {src}")


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def digest(files: list[Path], base: Path) -> str:
    """SHA-256 over the files' paths relative to ``base`` and their bytes."""
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_context(seed: int, workers: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted((ROOT / "src" / "fieldsim").rglob("*.py"))
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": digest(sources, ROOT),
        "seed": seed,
        "workers": workers,
    }


class Run:
    """Shared bookkeeping for one benchmark invocation."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.workers = min(workload.workers, nproc())
        self.pinned = workload.pinned_sha256 if seed == 0 else ""
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}{self._dirs}"
        path.mkdir()
        return path

    def setup(self):
        path = self.fresh_dir("setup")
        start = perf_counter()
        inputs = self.workload.setup(self.seed, path)
        return inputs, perf_counter() - start

    def repetition(self, inputs, workers: int):
        """Run, check and digest one repetition; returns its Rep or None."""
        out = self.fresh_dir("rep")
        self.attempted += self.workload.attempts(inputs)
        try:
            rep = self.workload.run(inputs, out, workers)
        except Exception as exc:  # a raising run is a failed operation, not a crash
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        self.failures.extend(self.workload.check(inputs, rep, out))
        self.digests.add(digest(self.workload.output_files(out), out))
        shutil.rmtree(out)
        return rep

    def output_checks(self) -> None:
        if len(self.digests) > 1:
            self.failures.append(f"outputs differ between passes: {sorted(self.digests)}")
        if self.pinned and self.digests != {self.pinned}:
            self.failures.append(f"output digest {sorted(self.digests)} != pinned {self.pinned}")

    def result(self, metrics: dict, context: dict) -> dict:
        self.output_checks()
        failed = len(self.failures)
        context |= run_context(self.seed, self.workers) | {"workload": self.workload.name}
        context["ops_failed_ratio"] = failed / max(self.attempted, 1)
        context["failures"] = self.failures[:20]
        context["output_sha256"] = sorted(self.digests)
        print(json.dumps({"context": context}))
        return {
            "correct": failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }


def best_parts(reps: list) -> list:
    """(wall s, CPU s) of each part of a repetition: its least over ``reps``."""
    return [
        (min(r.parts[i][0] for r in reps), min(r.parts[i][1] for r in reps))
        for i in range(len(reps[0].parts))
    ]


def measure(run: Run, seconds: float) -> dict:
    """Untraced run: end-to-end metrics over set-ups and repetitions.

    The times of a repetition are the sums of its parts' least times over the
    run: other tenants of a shared host slow whole stretches of a run, and
    each part is fastest in a quiet moment.  Set-up time is the median of all
    set-ups.  Extra set-ups are made before every repetition, so that they are
    spread over the run and see the same machine load as the repetitions.
    """
    inputs, elapsed = run.setup()
    setup_times = [elapsed]
    reps, laps = [], []
    started = perf_counter()
    while not laps or perf_counter() - started + median(laps) <= seconds:
        lap = perf_counter()
        budget = SETUP_SHARE * (laps[-1] if laps else seconds / 10)
        while perf_counter() - lap < budget or len(setup_times) < 2 + len(laps):
            extra, elapsed = run.setup()
            setup_times.append(elapsed)
            shutil.rmtree(extra.directory)
        rep = run.repetition(inputs, run.workers)
        laps.append(perf_counter() - lap)
        if rep:
            reps.append(rep)

    best, runs, simulate_s = [(0.0, 0.0)], 0, 0.0
    if reps:
        best, runs = best_parts(reps), reps[0].runs
        simulate_s = sum(wall for wall, _ in best[: reps[0].simulating])
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "time_to_result_s": (sum(wall for wall, _ in best), "s"),
        "runs_per_s": (runs / simulate_s if simulate_s else 0.0, "1/s"),
        "cpu_s": (sum(cpu for _, cpu in best), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    context = {
        "samples": {"setup": len(setup_times), "repetitions": len(reps),
                    "parts": len(best)},
        "repetition_s": [round(r.total_s, 4) for r in reps],
        "part_s": [[round(wall, 4) for wall, _ in r.parts] for r in reps],
        "input_size": f"{run.workload.rows_per_run} rows x "
                      f"{run.workload.units_per_run} units per run",
    }
    result = run.result(metrics, context)
    ok = max(0.0, 1.0 - result["failed"] / result["attempted"])
    result["metrics"]["ops_ok_ratio"] = {"value": ok, "unit": "ratio"}
    return result


def traced(run: Run) -> dict:
    """Traced run: per-layer metrics from a traced serial pass of the workload."""
    from probes import run_probes
    from tracing import Tracer, install, layer_metrics, percentile

    def pass_(workers, tracer=None):
        inputs, _ = run.setup()  # a fresh set-up, so file caches start cold in every pass
        if tracer is None:
            return run.repetition(inputs, workers)
        install(tracer)
        try:
            return run.repetition(inputs, workers)
        finally:
            tracer.uninstall()

    parallel = pass_(run.workers) if run.workers > 1 else None
    serial_rep = pass_(1)
    tracer = Tracer()
    traced_rep = pass_(1, tracer)
    if not (serial_rep and traced_rep and (parallel or run.workers == 1)):
        return run.result({}, {"error": "a pass raised"})

    self_s = sum(tracer.self_ns().values()) / 1e9
    covered = self_s / traced_rep.total_s
    if abs(1.0 - covered) > ACCOUNTING_TOLERANCE:
        run.failures.append(f"traced spans cover {covered:.3f} of the pass, not 1 +- 0.05")
    metrics = layer_metrics(tracer)
    metrics |= {
        "dse.fanout.efficiency": (
            serial_rep.simulate_s / (run.workers * parallel.simulate_s) if parallel else 0.0,
            "ratio"),
        "trace.overhead_share": (traced_rep.total_s / serial_rep.total_s - 1.0, "ratio"),
        "accounting.covered_share": (covered, "ratio"),
        "accounting.uncovered_ms": ((traced_rep.total_s - self_s) * 1e3, "ms"),
    }
    probe_metrics, probe_failures = run_probes(run.fresh_dir("probe"))
    metrics |= probe_metrics
    run.failures.extend(probe_failures)

    context = {
        "passes_s": {
            "parallel": parallel.total_s if parallel else None,
            "serial": serial_rep.total_s,
            "traced": traced_rep.total_s,
        },
        "samples": {
            "orchestrator.run_cosim": tracer.calls("orchestrator.run_cosim"),
            "orchestrator.run_cosim.beyond_p99":
                percentile(tracer.durations_ns("orchestrator.run_cosim"), 99)[1],
            "spans": len(tracer.spans),
        },
        "self_ms": {
            k: round(v / 1e6, 3)
            for k, v in sorted(tracer.self_ns().items(), key=lambda kv: -kv[1])
        },
    }
    return run.result(metrics, context)


def run_one(args) -> int:
    import_fieldsim()
    from workloads import WORKLOADS

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        result = traced(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process."""
    import_fieldsim()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} --trace {trace} exited with {done.returncode}")
            result = json.loads(lines[-1])
            print(f"# {name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if len(lines) > 1:
                print(f"#   {lines[-2]}")
            for metric, entry in result["metrics"].items():
                print(f"{name:16} {metric:48} {entry['value']:>16.6g} {entry['unit']}")
                metrics[f"{name}/{metric}"] = entry
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
