"""Command-line interface for the reproduction.

Subcommands:

* ``experiment`` — run the Section 5 study (time or cost minimization)
  and print the summary table plus the corresponding figure panels;
* ``example``    — replay the Section 4 worked example with a Gantt
  chart of the alternatives found;
* ``figures``    — regenerate one specific paper figure (4, 5 or 6);
* ``complexity`` — time ALP/AMP vs backfilling over growing slot lists
  (worst-case scans, best of ``--repeats``);
* ``vo``         — run the iterative metascheduler against a synthetic
  virtual organization and print the workload-trace summary;
* ``stats``      — render the summary of saved telemetry trace(s);
  several shards (or ``--merge``) are merged into one logical trace
  first;
* ``explain``    — replay the recorded decision path of one job
  (``--job J``) from a trace's decision log;
* ``profile``    — per-phase cost attribution (index scan, feasibility,
  cross-job subtraction, DP, journal fsync, …) of a saved trace.

Every run-something subcommand also accepts the telemetry pair
``--metrics`` (print the counter/histogram/span summary after the
command) and ``--trace FILE`` (dump the full telemetry state as JSONL,
replayable through ``stats``).  Telemetry stays disabled — and free —
unless one of the two is given.  ``experiment --workers N --trace FILE``
writes one shard per worker (``FILE`` → ``stem.wK.jsonl``); merge them
with ``stats --merge``.

Examples::

    repro-scheduler experiment --objective time --iterations 2000
    repro-scheduler experiment --iterations 200 --metrics
    repro-scheduler figures --figure 6 --iterations 1000 --seed 7
    repro-scheduler example
    repro-scheduler vo --until 2000 --jobs 25 --trace vo.jsonl
    repro-scheduler stats vo.jsonl
    repro-scheduler explain vo.jsonl --job user-job3
    repro-scheduler profile run.w0.jsonl run.w1.jsonl
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.resilience import FailureConfig
    from repro.sim.experiment import ExperimentResult

from repro import obs
from repro.core import (
    AdmissionRejectedError,
    Criterion,
    Job,
    SchedulingError,
    SlotSearchAlgorithm,
)
from repro.sim import ExperimentConfig, ExperimentRunner, JobGenerator

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (clear error, exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive, finite float (clear error, exit 2)."""
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _failure_config(args: argparse.Namespace) -> "FailureConfig | None":
    """Build the optional FailureConfig from --mtbf/--mttr flags.

    Raises:
        SchedulingError: For non-positive or non-finite values (argparse
            catches these first for CLI flags; this guards programmatic
            callers building a namespace by hand).
    """
    mtbf = getattr(args, "mtbf", None)
    mttr = getattr(args, "mttr", None)
    if mtbf is None and mttr is None:
        return None
    from repro.grid import FailureConfig

    return FailureConfig(
        mtbf=mtbf if mtbf is not None else 2000.0,
        mttr=mttr if mttr is not None else 200.0,
        seed=getattr(args, "failure_seed", 0),
    )


def _run_experiment(
    objective: Criterion,
    iterations: int,
    seed: int,
    rho: float,
    workers: int | None = None,
    failures: "FailureConfig | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
    trace_base: str | None = None,
) -> "ExperimentResult":
    config = ExperimentConfig(
        objective=objective,
        iterations=iterations,
        seed=seed,
        rho=rho,
        failures=failures,
    )
    if workers is not None:
        from repro.sim import ParallelRunner

        return ParallelRunner(config, workers=workers).run(
            checkpoint=checkpoint, resume=resume, trace_base=trace_base
        )
    return ExperimentRunner(config).run(checkpoint=checkpoint, resume=resume)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.sim import render_figure4, render_figure5, render_figure6, summarize, summary_table

    objective = Criterion(args.objective)
    failures = _failure_config(args)
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.checkpoint is not None and args.resume:
        # Resume status goes to stderr so stdout stays byte-comparable
        # with an uninterrupted run (the CI crash-resume smoke diffs it).
        print(
            f"resuming from checkpoint {args.checkpoint}",
            file=sys.stderr,
        )
    # A parallel run cannot record into the parent's telemetry context
    # (workers are separate processes), so --workers plus --trace routes
    # through per-worker shard files instead.
    trace_base: str | None = None
    if args.workers is not None and getattr(args, "trace", None):
        trace_base = args.trace
    result = _run_experiment(
        objective,
        args.iterations,
        args.seed,
        args.rho,
        workers=args.workers,
        failures=failures,
        checkpoint=args.checkpoint,
        resume=args.resume,
        trace_base=trace_base,
    )
    if trace_base is not None:
        from pathlib import Path

        base = Path(trace_base)
        pattern = base.with_name(f"{base.stem}.w*{base.suffix or '.jsonl'}")
        print(
            f"per-worker trace shards: {pattern} "
            f"(merge with: repro-scheduler stats --merge {pattern})",
            file=sys.stderr,
        )
    if failures is not None:
        print(
            f"failure injection: mtbf={failures.mtbf:g}, mttr={failures.mttr:g}, "
            f"seed={failures.seed} (per-node outage streams carved out of "
            "every iteration's slot list)"
        )
        print()
    print(summary_table(summarize(result)))
    print()
    if objective is Criterion.TIME:
        print(render_figure4(result))
        print()
        print(render_figure5(result, first_n=min(300, result.counted)))
    else:
        print(render_figure6(result))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.sim import render_figure4, render_figure5, render_figure6

    objective = Criterion.COST if args.figure == 6 else Criterion.TIME
    result = _run_experiment(objective, args.iterations, args.seed, rho=1.0)
    if args.figure == 4:
        print(render_figure4(result))
    elif args.figure == 5:
        print(render_figure5(result, first_n=min(args.first_n, result.counted)))
    else:
        print(render_figure6(result))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.core import find_alternatives
    from repro.examples_data import HORIZON, build_example
    from repro.sim.gantt import GanttChart

    example = build_example()
    algorithm = SlotSearchAlgorithm(args.algorithm)
    result = find_alternatives(example.slots, example.batch, algorithm)
    chart = GanttChart(HORIZON)
    chart.paint_slots(example.slots)
    labelled = [
        (f"{job.name}#{index + 1}", window)
        for job, windows in result.alternatives.items()
        for index, window in enumerate(windows)
    ]
    chart.paint_windows(labelled)
    print(chart.render(title=f"Section 4 example — all {algorithm.name} alternatives"))
    print()
    for job, windows in result.alternatives.items():
        print(f"{job.name}: {len(windows)} alternatives")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    from repro.sim import table
    from repro.sim.reporting import complexity_sweep

    points = complexity_sweep(tuple(args.sizes), seed=args.seed, repeats=args.repeats)
    seconds = {(point.algorithm, point.slots): point.seconds for point in points}
    rows = [
        [str(size)] + [f"{seconds[name, size] * 1e3:.3f}" for name in ("ALP", "AMP", "backfill")]
        for size in args.sizes
    ]
    print(table(rows, header=["slots", "ALP ms", "AMP ms", "backfill ms"]))
    return 0


def _cmd_vo(args: argparse.Namespace) -> int:
    from repro.grid import (
        ClusterSpec,
        LocalJobFlow,
        Metascheduler,
        RetryPolicy,
        SimulationDriver,
        VOEnvironment,
    )

    environment = VOEnvironment.generate(
        [
            ClusterSpec("alpha", node_count=args.nodes // 2),
            ClusterSpec("beta", node_count=args.nodes - args.nodes // 2),
        ],
        seed=args.seed,
    )
    flow = LocalJobFlow(seed=args.seed)
    for cluster in environment.clusters:
        flow.occupy(cluster, 0.0, args.until + 1000.0)
    failures = _failure_config(args)
    recovery = (
        RetryPolicy(max_revocations=args.max_revocations) if args.recovery else None
    )
    meta = Metascheduler(
        environment,
        period=args.period,
        horizon=args.horizon,
        recovery=recovery,
        max_pending=args.max_pending,
    )
    generator = JobGenerator(seed=args.seed)
    rng = random.Random(args.seed)
    shed = 0
    for index in range(args.jobs):
        request = generator.generate_request()
        job = Job(request, name=f"user-job{index}")
        at_time = rng.uniform(0.0, args.until / 2)
        try:
            meta.submit(job, at_time=at_time)
        except AdmissionRejectedError:
            shed += 1
    if shed:
        print(
            f"admission control: {shed}/{args.jobs} submissions shed "
            f"(backlog limit {args.max_pending})"
        )
    if failures is not None:
        driver = SimulationDriver(meta)
        driver.add_ticks(0.0, args.until)
        outages = driver.add_failures(failures, 0.0, args.until)
        driver.run()
        revocations = sum(report.revocations for report in meta.reports)
        hot_swaps = sum(report.hot_swaps for report in meta.reports)
        replacements = sum(report.replacements for report in meta.reports)
        dropped = sum(report.recovery_rejections for report in meta.reports)
        print(
            f"failures: {outages} outages (mtbf={failures.mtbf:g}, "
            f"mttr={failures.mttr:g}), {revocations} revocations | "
            f"recovery: {hot_swaps} hot-swapped, {replacements} re-searched, "
            f"{revocations - hot_swaps - replacements - dropped} resubmitted, "
            f"{dropped} dropped"
        )
    else:
        meta.run(until=args.until)
    print(meta.trace.summary())
    print(
        f"iterations: {len(meta.reports)}, backlog: {meta.backlog()}, "
        f"utilization: {environment.utilization(0.0, args.until):.2%}"
    )
    print(f"owner income: {environment.total_income(0.0, args.until + args.horizon):.2f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.sensitivity import render_sweep, sweep

    points = sweep(
        args.parameter,
        args.values,
        objective=Criterion(args.objective),
        iterations=args.iterations,
        seed=args.seed,
    )
    print(render_sweep(points))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.sim.reporting import experiments_report

    report = experiments_report(iterations=args.iterations, seed=args.seed)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as stream:
                stream.write(report)
                stream.write("\n")
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _load_trace(paths: Sequence[str], merge: bool) -> "obs.TraceData":
    """Read trace file(s); several paths (or ``--merge``) are merged.

    Raises:
        SchedulingError: Via :exc:`~repro.core.errors.TelemetryError`
            on a missing/malformed file or mixed-run shards (exit 2).
    """
    if merge or len(paths) > 1:
        return obs.merge_trace_files(list(paths))
    return obs.read_trace(paths[0])


def _reject_empty_trace(data: "obs.TraceData", paths: Sequence[str]) -> int | None:
    """Exit code 2 with a one-line diagnostic for an empty trace, else None."""
    if not data.has_data:
        print(
            f"error: {', '.join(paths)}: trace contains no records — was the "
            "run started with --trace/--metrics or REPRO_TELEMETRY=1?",
            file=sys.stderr,
        )
        return 2
    return None


def _cmd_stats(args: argparse.Namespace) -> int:
    data = _load_trace(args.trace_file, args.merge)
    failed = _reject_empty_trace(data, args.trace_file)
    if failed is not None:
        return failed
    print(obs.render_trace_summary(data))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    data = _load_trace(args.trace_file, args.merge)
    failed = _reject_empty_trace(data, args.trace_file)
    if failed is not None:
        return failed
    decisions = data.decisions
    if args.iteration is not None:
        decisions = [
            record for record in decisions if record.get("iteration") == args.iteration
        ]
    print(obs.render_explain(decisions, args.job))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    data = _load_trace(args.trace_file, args.merge)
    failed = _reject_empty_trace(data, args.trace_file)
    if failed is not None:
        return failed
    print(obs.render_profile(data))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.chaos import run_campaigns

    names = args.campaign if args.campaign else None
    if args.dir is not None:
        report = run_campaigns(args.dir, seed=args.chaos_seed, names=names)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
            report = run_campaigns(scratch, seed=args.chaos_seed, names=names)
    print(report.summary())
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-scheduler",
        description="Economic slot selection and co-allocation (PaCT 2011 reproduction)",
    )
    # Telemetry options are shared by every run-something subcommand via
    # a parent parser, so they can appear *after* the subcommand name
    # (``repro-scheduler experiment --metrics``).
    telemetry_options = argparse.ArgumentParser(add_help=False)
    telemetry_options.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the run's telemetry (metrics, spans, events) as JSONL to FILE",
    )
    telemetry_options.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry summary (counters, histograms, spans) after the run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment", help="run the Section 5 study", parents=[telemetry_options]
    )
    experiment.add_argument("--objective", choices=["time", "cost"], default="time")
    experiment.add_argument("--iterations", type=_positive_int, default=1000)
    experiment.add_argument("--seed", type=int, default=20110368)
    experiment.add_argument("--rho", type=_positive_float, default=1.0)
    experiment.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "shard the iterations across N processes via the seed-sharded "
            "ParallelRunner (results are identical for every N; omit for "
            "the historical single-stream serial runner)"
        ),
    )
    experiment.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "record every completed iteration to PATH (checksummed JSONL) "
            "so a killed run can be resumed with --resume; without "
            "--resume an existing file is replaced"
        ),
    )
    experiment.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip iterations already recorded in --checkpoint PATH; the "
            "merged result is identical to an uninterrupted run"
        ),
    )
    experiment.add_argument(
        "--mtbf",
        type=_positive_float,
        default=None,
        help="enable failure injection: mean time between failures per node",
    )
    experiment.add_argument(
        "--mttr",
        type=_positive_float,
        default=None,
        help="mean time to repair for injected failures",
    )
    experiment.add_argument(
        "--failure-seed",
        type=int,
        default=0,
        dest="failure_seed",
        help="master seed of the per-node outage streams",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    figures = sub.add_parser(
        "figures", help="regenerate one paper figure", parents=[telemetry_options]
    )
    figures.add_argument("--figure", type=int, choices=[4, 5, 6], required=True)
    figures.add_argument("--iterations", type=int, default=1000)
    figures.add_argument("--seed", type=int, default=20110368)
    figures.add_argument("--first-n", type=int, default=300, dest="first_n")
    figures.set_defaults(handler=_cmd_figures)

    example = sub.add_parser(
        "example",
        help="replay the Section 4 worked example",
        parents=[telemetry_options],
    )
    example.add_argument("--algorithm", choices=["alp", "amp"], default="amp")
    example.set_defaults(handler=_cmd_example)

    complexity = sub.add_parser(
        "complexity", help="ALP/AMP vs backfill timing", parents=[telemetry_options]
    )
    complexity.add_argument("--sizes", type=int, nargs="+", default=[200, 400, 800, 1600])
    complexity.add_argument("--repeats", type=int, default=5)
    complexity.add_argument("--seed", type=int, default=1)
    complexity.set_defaults(handler=_cmd_complexity)

    vo = sub.add_parser(
        "vo", help="iterative metascheduler demo", parents=[telemetry_options]
    )
    vo.add_argument("--nodes", type=int, default=12)
    vo.add_argument("--jobs", type=int, default=20)
    vo.add_argument("--until", type=float, default=2000.0)
    vo.add_argument("--period", type=float, default=100.0)
    vo.add_argument("--horizon", type=float, default=800.0)
    vo.add_argument("--seed", type=int, default=7)
    vo.add_argument(
        "--mtbf",
        type=_positive_float,
        default=None,
        help="enable node failures: mean time between failures per node",
    )
    vo.add_argument(
        "--mttr",
        type=_positive_float,
        default=None,
        help="mean time to repair for injected node failures",
    )
    vo.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        dest="max_pending",
        metavar="N",
        help=(
            "bounded admission: shed submissions once the backlog reaches "
            "N instead of growing the queue without bound"
        ),
    )
    vo.add_argument(
        "--failure-seed",
        type=int,
        default=0,
        dest="failure_seed",
        help="master seed of the per-node outage streams",
    )
    vo.add_argument(
        "--recovery",
        action="store_true",
        help=(
            "recover revoked jobs via retained phase-1 alternatives "
            "(hot-swap), immediate re-search, then backoff resubmission"
        ),
    )
    vo.add_argument(
        "--max-revocations",
        type=int,
        default=3,
        dest="max_revocations",
        help="per-job revocation budget before a typed rejection",
    )
    vo.set_defaults(handler=_cmd_vo)

    sweep = sub.add_parser(
        "sweep", help="parameter-sensitivity sweep", parents=[telemetry_options]
    )
    sweep.add_argument(
        "--parameter",
        required=True,
        choices=[
            "performance_ceiling",
            "same_start_probability",
            "slot_count",
            "price_cap_ceiling",
        ],
    )
    sweep.add_argument("--values", type=float, nargs="+", required=True)
    sweep.add_argument("--objective", choices=["time", "cost"], default="time")
    sweep.add_argument("--iterations", type=int, default=150)
    sweep.add_argument("--seed", type=int, default=20110368)
    sweep.set_defaults(handler=_cmd_sweep)

    report = sub.add_parser(
        "report",
        help="generate the EXPERIMENTS.md paper-vs-measured report",
        parents=[telemetry_options],
    )
    report.add_argument("--iterations", type=int, default=2000)
    report.add_argument("--seed", type=int, default=20110368)
    report.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the Markdown report to PATH instead of stdout",
    )
    report.set_defaults(handler=_cmd_report)

    # The trace-reading subcommands share the shard arguments: one or
    # more trace files, merged into one logical trace when several are
    # given (or when --merge forces it for a single file).
    shard_options = argparse.ArgumentParser(add_help=False)
    shard_options.add_argument(
        "trace_file",
        nargs="+",
        help=(
            "JSONL trace written by --trace (several worker shards of "
            "one run are merged before rendering)"
        ),
    )
    shard_options.add_argument(
        "--merge",
        action="store_true",
        help="merge the given shard files into one logical trace",
    )

    stats = sub.add_parser(
        "stats",
        help="render the summary of saved telemetry trace(s)",
        parents=[shard_options],
    )
    stats.set_defaults(handler=_cmd_stats)

    explain = sub.add_parser(
        "explain",
        help="replay the recorded decision path of one job",
        parents=[shard_options],
    )
    explain.add_argument(
        "--job",
        required=True,
        metavar="NAME",
        help="job name as recorded in the trace's decision log",
    )
    explain.add_argument(
        "--iteration",
        type=int,
        default=None,
        metavar="N",
        help="restrict the path to one experiment iteration",
    )
    explain.set_defaults(handler=_cmd_explain)

    profile = sub.add_parser(
        "profile",
        help="per-phase cost attribution of saved telemetry trace(s)",
        parents=[shard_options],
    )
    profile.set_defaults(handler=_cmd_profile)

    chaos = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection campaigns",
        parents=[telemetry_options],
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=20110368,
        metavar="SEED",
        help="master seed every campaign derives its fault placement from",
    )
    chaos.add_argument(
        "--campaign",
        action="append",
        choices=["sweep", "experiment", "io", "pool"],
        metavar="NAME",
        help=(
            "run only this campaign (repeatable); default runs all of "
            "sweep, experiment, io, pool"
        ),
    )
    chaos.add_argument(
        "--dir",
        metavar="PATH",
        default=None,
        help=(
            "scratch directory for journals and checkpoints (kept after "
            "the run for inspection); default: a temporary directory"
        ),
    )
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Library failures (:class:`~repro.core.SchedulingError`, which covers
    telemetry-trace errors too) are reported on stderr and map to exit
    code 2; argparse usage errors (including the positive-value checks on
    ``--iterations``/``--workers``/``--mtbf``/``--mttr``) are converted
    from their ``SystemExit`` into the same exit code 2 so embedders
    calling :func:`main` directly observe a return, not an exit.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    trace_path: str | None = getattr(args, "trace", None)
    wants_metrics: bool = getattr(args, "metrics", False)
    telemetry = None
    if trace_path or wants_metrics:
        telemetry = obs.configure(enabled=True)
    try:
        if telemetry is not None:
            with telemetry.span(f"cli.{args.command}"):
                code = args.handler(args)
        else:
            code = args.handler(args)
        if telemetry is not None:
            if wants_metrics:
                print()
                print("== telemetry summary ==")
                print(obs.render_summary(telemetry))
            if trace_path:
                lines = obs.write_trace(trace_path, telemetry)
                print(
                    f"telemetry trace: {lines} records written to {trace_path}",
                    file=sys.stderr,
                )
    except SchedulingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed stdout mid-report; reopen it onto
        # /dev/null so the interpreter's exit flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if telemetry is not None:
            obs.disable()
    return code


if __name__ == "__main__":
    sys.exit(main())
