"""EXP-GRID — the Section 2 scheme end to end on the grid substrate.

The paper's scheduling scheme is "iterative on periodically updated
local schedules" with postponement of unlucky jobs.  This benchmark
runs the full loop — local job flows occupying clusters, slot lists
published per iteration, windows committed as reservations — for an
AMP-driven and an ALP-driven metascheduler on *identical* environments
and job streams, and checks the end-to-end counterparts of the paper's
claims: AMP places at least as many jobs and achieves a lower mean
execution time.
"""

from __future__ import annotations

import random

from repro.core import (
    BatchScheduler,
    Criterion,
    InfeasiblePolicy,
    Job,
    SchedulerConfig,
    SlotSearchAlgorithm,
)
from repro.grid import ClusterSpec, LocalJobFlow, Metascheduler, VOEnvironment
from repro.sim import JobGenerator, table

from benchmarks.conftest import report

SEED = 31
UNTIL = 2400.0
JOB_COUNT = 24


def _run(algorithm: SlotSearchAlgorithm):
    environment = VOEnvironment.generate(
        [
            ClusterSpec("hpc", node_count=8, performance_range=(1.5, 3.0)),
            ClusterSpec("campus", node_count=10, performance_range=(1.0, 2.0)),
        ],
        seed=SEED,
    )
    flow = LocalJobFlow(seed=SEED)
    for cluster in environment.clusters:
        flow.occupy(cluster, 0.0, UNTIL + 2000.0)
    scheduler = BatchScheduler(
        SchedulerConfig(
            algorithm=algorithm,
            objective=Criterion.TIME,
            infeasible_policy=InfeasiblePolicy.EARLIEST,
        )
    )
    meta = Metascheduler(environment, scheduler, period=100.0, horizon=1200.0)
    generator = JobGenerator(seed=SEED)
    arrivals = random.Random(SEED)
    for index in range(JOB_COUNT):
        meta.submit(
            Job(generator.generate_request(), name=f"g{index}"),
            at_time=arrivals.uniform(0.0, UNTIL * 0.5),
        )
    meta.run(until=UNTIL)
    return meta


def test_metascheduler_end_to_end(benchmark, capsys):
    amp_meta = benchmark.pedantic(
        lambda: _run(SlotSearchAlgorithm.AMP), rounds=1, iterations=1
    )
    alp_meta = _run(SlotSearchAlgorithm.ALP)

    rows = []
    summaries = {}
    for name, meta in (("AMP", amp_meta), ("ALP", alp_meta)):
        summary = meta.trace.summary()
        summaries[name] = summary
        rows.append(
            [
                name,
                f"{summary.scheduled}/{summary.submitted}",
                f"{summary.mean_wait_time:.1f}" if summary.mean_wait_time is not None else "-",
                f"{summary.mean_execution_time:.1f}" if summary.mean_execution_time else "-",
                f"{summary.mean_cost:.1f}" if summary.mean_cost else "-",
                str(sum(report_.postponed for report_ in meta.reports)),
            ]
        )
    report(capsys, "=" * 72)
    report(capsys, "EXP-GRID — iterative metascheduler, identical VO and job stream")
    report(
        capsys,
        table(rows, header=["search", "placed", "wait", "exec", "cost", "postponements"]),
    )

    amp_summary, alp_summary = summaries["AMP"], summaries["ALP"]
    assert amp_summary.scheduled >= alp_summary.scheduled
    assert amp_summary.scheduled >= JOB_COUNT * 0.7, "AMP VO should place most jobs"

    # Execution-time comparison must be paired: ALP places fewer jobs
    # (it covers only cheap nodes), and comparing means over different
    # job subsets would be a selection-bias artefact.  On the jobs both
    # metaschedulers placed, AMP's faster-node windows win on average.
    amp_windows = {
        record.job.name: record.window
        for record in amp_meta.trace
        if record.window is not None
    }
    alp_windows = {
        record.job.name: record.window
        for record in alp_meta.trace
        if record.window is not None
    }
    common = sorted(set(amp_windows) & set(alp_windows))
    assert common, "no commonly placed jobs — environments diverged?"
    amp_mean = sum(amp_windows[name].length for name in common) / len(common)
    alp_mean = sum(alp_windows[name].length for name in common) / len(common)
    report(
        capsys,
        f"paired over {len(common)} commonly placed jobs: "
        f"AMP exec {amp_mean:.1f} vs ALP exec {alp_mean:.1f}",
    )

    assert amp_mean <= alp_mean * 1.05
