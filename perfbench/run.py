"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload series --seed 20110368 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same units untraced and then traced, and reports
the per-layer metrics plus ``trace.overhead``.  The last line of standard
output is the result object; the exit code is non-zero when an output
check fails.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SPANS = ROOT / ".perfbench_spans"
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 20110368
#: Not used while the benchmark was written; reserved for checking claims.
HELD_OUT_SEED = 918273
SETUP_REPEATS = 5


def import_seconds(modules: list[str]) -> float:
    """Median import time of the program, at reference speed, over fresh interpreters.

    Each interpreter samples its own speed around the imports, because it
    may run on another core than this process.
    """
    code = (
        "import time; from speed import speed_factor; before = speed_factor(); "
        f"began = time.perf_counter(); import {', '.join(modules)}; "
        "took = time.perf_counter() - began; print(took * (before + speed_factor()) / 2)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    env.pop("REPRO_TELEMETRY", None)
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        samples.append(float(child.stdout))
    return statistics.median(samples)


def measure(workload, seconds: float) -> tuple[list, list[str], float]:
    """Run fresh units until they have taken ``seconds``; check each one after it ran.

    Also returns the peak RSS in MB over the workload's first
    ``rss_units`` units, which every run completes, read before any check
    runs.  The peak over the whole run would be the extreme of a number of
    units that varies with the machine's speed; the peak of a single unit
    varies with its inputs.
    """
    units = [workload.run_unit(index) for index in range(workload.rss_units)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [
        problem for index, unit in enumerate(units) for problem in workload.check_unit(index, unit)
    ]
    elapsed = sum(unit.elapsed_s for unit in units)
    while elapsed < seconds:
        index = len(units)
        unit = workload.run_unit(index)
        elapsed += unit.elapsed_s
        problems += workload.check_unit(index, unit)
        units.append(unit)
    return units, problems, peak_rss_mb


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(units: list, import_s: float, peak_rss_mb: float) -> dict[str, dict[str, object]]:
    ticks = [tick for unit in units for tick in unit.tick_ms]
    return {
        "setup_s": metric(import_s + statistics.median(u.setup_s for u in units), "s"),
        "iterations_per_s": metric(len(ticks) / sum(u.wall_s for u in units), "1/s"),
        "cpu_ms_per_iteration": metric(1e3 * sum(u.cpu_s for u in units) / len(ticks), "ms"),
        "tick_ms_p50": metric(statistics.median(ticks), "ms"),
        "tick_ms_p95": metric(percentile(ticks, 0.95), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer, plain: list, traced: list) -> dict[str, dict[str, object]]:
    from layers import SPAN_NAMES

    metrics: dict[str, dict[str, object]] = {}
    for name in SPAN_NAMES:
        calls, busy, self_time = tracer.totals[name]
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.busy_s"] = metric(busy, "s")
        metrics[f"{name}.self_s"] = metric(self_time, "s")
    counts = tracer.counts
    finds = tracer.totals["index.find_alp_window"][0] + tracer.totals["index.find_amp_window_at"][0]
    metrics["search.passes"] = metric(counts.get("search.passes", 0), "count")
    metrics["search.windows"] = metric(counts.get("search.windows", 0), "count")
    metrics["index.window_yield"] = metric(
        counts.get("index.windows_found", 0) / finds if finds else 0.0, "ratio"
    )
    metrics["dp.memo.hits"] = metric(sum(u.memo["hits"] for u in traced), "count")
    metrics["dp.memo.misses"] = metric(sum(u.memo["misses"] for u in traced), "count")
    revocations = sum(u.counts.get("revocations", 0) for u in traced)
    hot_swaps = sum(u.counts.get("hot_swaps", 0) for u in traced)
    metrics["resilience.revocations"] = metric(revocations, "count")
    metrics["resilience.hot_swap_yield"] = metric(
        hot_swaps / revocations if revocations else 0.0, "ratio"
    )
    metrics["journal.bytes"] = metric(
        sum(u.counts.get("journal.bytes", 0) for u in traced), "bytes"
    )
    metrics["checkpoint.snapshot_bytes"] = metric(
        counts.get("checkpoint.snapshot_bytes", 0), "bytes"
    )
    metrics["obs.busy_s"] = metric(
        sum(tracer.totals[name][1] for name in ("obs.count", "obs.observe", "obs.span")),
        "s",
    )
    metrics["trace.overhead"] = metric(
        sum(u.wall_s for u in traced) / sum(u.wall_s for u in plain), "ratio"
    )
    attempted = sum(u.attempted for u in plain + traced)
    failed = sum(u.failed for u in plain + traced)
    metrics["failed_share"] = metric(failed / attempted, "ratio")
    return metrics


def traced_run(workload, seconds: float, name: str) -> tuple[list, dict, list[str]]:
    """Each unit untraced and then traced; per-layer metrics from the latter.

    Alternating the two keeps a drift in the machine's speed, or the
    warm-up of the first units, out of ``trace.overhead``.
    """
    import layers

    count = max(1, round(seconds * workload.trace_rate))
    tracer = layers.Tracer()
    patches = layers.Patches(tracer)
    plain, traced = [], []
    for index in range(count):
        unit = workload.run_unit(index, "-plain")
        workload.release(unit)
        plain.append(unit)
        patches.install()
        try:
            traced.append(workload.run_unit(index))
        finally:
            patches.remove()
    problems = []
    for index, (untraced, unit) in enumerate(zip(plain, traced)):
        if untraced.digest != unit.digest:
            problems.append(f"unit {index} changed under tracing")
        problems += workload.check_unit(index, unit)
    tracer.write(SPANS / f"{name}.jsonl")
    for missing in patches.missing:
        print(f"note: {missing} is not in the program; its metrics read 0", file=sys.stderr)
    return plain + traced, per_layer(tracer, plain, traced), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["series", "series-metrics", "vo-durable"])
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (held-out seed for checking claims: {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC.name}/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from repro import obs

    obs.disable()
    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, run_dir)
    try:
        if args.trace:
            units, metrics, problems = traced_run(workload, args.seconds, args.workload)
        else:
            import_s = import_seconds(workloads.SETUP_IMPORTS)
            units, problems, peak_rss_mb = measure(workload, args.seconds)
            metrics = end_to_end(units, import_s, peak_rss_mb)
        if args.seed != DEFAULT_SEED:
            problems += workloads.check_pinned(args.workload, DEFAULT_SEED, run_dir)
    finally:
        workload.close()
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if problems:
        failed = attempted
        if "failed_share" in metrics:
            metrics["failed_share"] = metric(1.0, "ratio")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
