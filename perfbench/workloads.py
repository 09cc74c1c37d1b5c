"""The benchmark's three workloads.

A workload runs in *units*: cold, independent repetitions that each build
their own DP memo, scheduler, environment and run directory.  A series
unit is one ``ParallelRunner(workers=1)`` run of :data:`BLOCK` Section 5
iterations; a VO unit is one durable metascheduler episode.  Unit ``k``
of a run draws its inputs from ``unit_seed(seed, k)``, so every unit of
every run is reproducible from the command-line seed alone.  Unit times
are scaled to reference speed (see :mod:`speed`).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from repro import obs
from repro.core.audit import audit_windows
from repro.core.job import Job
from repro.core.optimize import DPMemo
from repro.core.resource import Resource
from repro.core.search import SlotSearchAlgorithm
from repro.grid.checkpoint import DurableMetascheduler, snapshot_metascheduler
from repro.grid.cluster import ClusterSpec
from repro.grid.environment import VOEnvironment
from repro.grid.local import LocalJobFlow
from repro.grid.metascheduler import Metascheduler
from repro.grid.resilience import FailureConfig, FailureGenerator, RetryPolicy
from repro.grid.trace import JobState
from repro.sim import experiment
from repro.sim.experiment import ExperimentConfig, ParallelRunner
from repro.sim.generators import JobGenerator
from speed import speed_factor

#: Modules a workload imports before its first scheduling call; timed in
#: fresh interpreters for ``setup_s``.
SETUP_IMPORTS = ["repro.sim.experiment", "repro.grid.checkpoint", "repro.core.audit"]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Iterations per series unit.
BLOCK = 10

#: VO sizing: two heterogeneous clusters, 48 nodes in all.
CLUSTERS = [
    ClusterSpec("hpc", node_count=20, performance_range=(1.5, 3.0)),
    ClusterSpec("campus", node_count=28, performance_range=(1.0, 2.0)),
]
TICKS = 201
PERIOD = 20.0
HORIZON = 600.0
JOBS = 300
SNAPSHOT_EVERY = 5
FAILURES = dict(mtbf=6000.0, mttr=60.0)
#: Ticks between speed samples in a VO episode.
CHUNK = 20
#: Pinned uids keep the final snapshot, and so its digest, independent
#: of how many resources and jobs the process created before the unit.
NODE_UID_BASE = 70_000
JOB_UID_BASE = 80_000


def unit_seed(seed: int, unit: int) -> int:
    digest = hashlib.blake2b(f"perfbench:{seed}:{unit}".encode("ascii"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class Unit:
    """What one timed unit produced.

    Times are at reference speed, except ``elapsed_s``: the wall time the
    unit really took, set-up and speed samples included.
    """

    elapsed_s: float
    setup_s: float
    wall_s: float
    cpu_s: float
    tick_ms: list[float]
    attempted: int
    failed: int
    digest: str
    memo: dict[str, int]
    counts: dict[str, float] = field(default_factory=dict)
    state: Any = None


def _pinned(workload: str, seed: int, unit: int) -> str | None:
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    digests = pins.get(workload, {}).get(str(seed), [])
    return digests[unit] if unit < len(digests) else None


def _check_pin(workload: str, seed: int, index: int, unit: Unit) -> list[str]:
    pinned = _pinned(workload, seed, index)
    if pinned is None or pinned == unit.digest:
        return []
    return [f"{workload} seed {seed} unit {index}: digest {unit.digest} != pinned {pinned}"]


def check_pinned(name: str, seed: int, run_dir: Path) -> list[str]:
    """Run and check unit 0 of ``seed``, a seed whose digests are pinned.

    Runs with other seeds call this so that every run compares at least
    one output with a pinned value, not only with another path.
    """
    workload = WORKLOADS[name](name, seed, run_dir)
    unit = workload.run_unit(0, "-pinned")
    problems = workload.check_unit(0, unit)
    workload.release(unit)
    return problems


# ---------------------------------------------------------------------- #
# series and series-metrics                                              #
# ---------------------------------------------------------------------- #


def series_digest(result: experiment.ExperimentResult) -> str:
    """Digest of samples, drop counters and slot/job totals."""
    samples = [
        (
            sample.index,
            sample.slot_count,
            sample.job_count,
            [
                (s.mean_job_time, s.mean_job_cost, s.total_alternatives, s.quota, s.budget)
                for s in (sample.alp, sample.amp)
            ],
        )
        for sample in result.samples
    ]
    return _digest(
        repr(
            (
                result.attempted,
                result.dropped_uncovered,
                result.dropped_infeasible,
                result.total_slots_processed,
                result.total_jobs_attempted,
                samples,
            )
        )
    )


def _run_block(seed: int, unit: int, *, metrics: bool) -> Unit:
    factor = speed_factor()
    began = perf_counter()
    config = ExperimentConfig(iterations=BLOCK, seed=unit_seed(seed, unit))
    memo = DPMemo()
    runner = ParallelRunner(config, workers=1, dp_memo=memo)
    if metrics:
        # As ``experiment --metrics`` does it: in-memory telemetry, no sink.
        obs.configure(enabled=True)
    marks = [perf_counter()]
    cpu = process_time()
    try:
        result = runner.run(progress=lambda done, counted: marks.append(perf_counter()))
    finally:
        if metrics:
            obs.disable()
    cpu_s = process_time() - cpu
    return Unit(
        elapsed_s=marks[-1] - began,
        setup_s=(marks[0] - began) * factor,
        wall_s=(marks[-1] - marks[0]) * factor,
        cpu_s=cpu_s * factor,
        tick_ms=[(b - a) * 1e3 * factor for a, b in zip(marks, marks[1:])],
        attempted=result.attempted,
        failed=0,
        digest=series_digest(result),
        memo=memo.stats(),
    )


class Series:
    """The Section 5 protocol: ALP and AMP on identical seeded slot lists."""

    #: Units per second of ``--seconds`` in a traced run, so that traced
    #: runs do a fixed amount of work for a given seed and length.
    trace_rate = 0.5
    #: Units that ``peak_rss_mb`` covers: 100 iterations, so the peak does
    #: not hang on the inputs of one unit.
    rss_units = 10

    def __init__(self, name: str, seed: int, run_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.metrics = name == "series-metrics"

    def run_unit(self, unit: int, tag: str = "") -> Unit:
        return _run_block(self.seed, unit, metrics=self.metrics)

    def check_unit(self, index: int, unit: Unit) -> list[str]:
        problems = _check_pin("series", self.seed, index, unit)
        if self.metrics:
            # Output must equal the matching prefix of ``series``.
            plain = _run_block(self.seed, index, metrics=False)
            if plain.digest != unit.digest:
                problems.append(
                    f"series-metrics unit {index} differs from series: "
                    f"{unit.digest} != {plain.digest}"
                )
        elif index == 0:
            oracle = self._reference_scan_block(index)
            if oracle.digest != unit.digest:
                problems.append(
                    f"series unit 0 differs from the reference scan: "
                    f"{unit.digest} != {oracle.digest}"
                )
        return problems

    def _reference_scan_block(self, index: int) -> Unit:
        """The block again, with phase 1 forced onto the naive ALP/AMP scan."""
        indexed = experiment.find_alternatives

        def reference(*args: Any, **kwargs: Any) -> Any:
            kwargs["use_index"] = False
            kwargs.pop("shards", None)
            return indexed(*args, **kwargs)

        experiment.find_alternatives = reference
        try:
            return _run_block(self.seed, index, metrics=False)
        finally:
            experiment.find_alternatives = indexed

    def release(self, unit: Unit) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# vo-durable                                                             #
# ---------------------------------------------------------------------- #


def vo_digest(meta: Metascheduler) -> str:
    return _digest(json.dumps(snapshot_metascheduler(meta), sort_keys=True))


def _environment(rng: random.Random) -> VOEnvironment:
    clusters = [spec.build(rng) for spec in CLUSTERS]
    uid = NODE_UID_BASE
    for cluster in clusters:
        for node in cluster:
            node.resource = Resource(
                node.name, performance=node.performance, price=node.price, uid=uid
            )
            uid += 1
    return VOEnvironment(clusters)


class VODurable:
    """A durable, fault-recovering metascheduler on a two-cluster VO."""

    trace_rate = 0.1
    #: One episode of 201 ticks already gives a steady peak.
    rss_units = 1

    def __init__(self, name: str, seed: int, run_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.run_dir = run_dir

    def run_unit(self, unit: int, tag: str = "") -> Unit:
        until = (TICKS - 1) * PERIOD
        seed = unit_seed(self.seed, unit)
        directory = self.run_dir / f"episode{unit}{tag}"
        factor = speed_factor()
        began = perf_counter()
        rng = random.Random(seed)
        environment = _environment(rng)
        flow = LocalJobFlow(seed=seed)
        for cluster in environment.clusters:
            flow.occupy(cluster, 0.0, until + HORIZON)
        meta = Metascheduler(
            environment, period=PERIOD, horizon=HORIZON, recovery=RetryPolicy(max_revocations=None)
        )
        jobs = JobGenerator(seed=seed)
        for index in range(JOBS):
            job = Job(jobs.generate_request(), name=f"g{index}", uid=JOB_UID_BASE + index)
            meta.submit(job, at_time=rng.uniform(0.0, until / 2))
        failures = FailureGenerator(FailureConfig(seed=seed, **FAILURES))
        nodes = list(environment.nodes())
        outages = sorted(
            (outage.start, outage.end, position)
            for position, node in enumerate(nodes)
            for outage in failures.stream(node.name, 0.0, until)
        )
        durable = DurableMetascheduler(meta, directory, snapshot_every=SNAPSHOT_EVERY)
        setup_s = (perf_counter() - began) * factor

        tick_ms = []
        upcoming = 0
        wall_s = cpu_s = 0.0
        for tick in range(TICKS):
            if tick % CHUNK == 0:
                if tick:
                    wall_s += (perf_counter() - wall) * factor
                    cpu_s += (process_time() - cpu) * factor
                factor = speed_factor()
                wall = perf_counter()
                cpu = process_time()
            now = tick * PERIOD
            # Outages beginning during the coming period are injected
            # before the tick, so revocation and recovery stay in the future.
            while upcoming < len(outages) and outages[upcoming][0] < now + PERIOD:
                start, end, position = outages[upcoming]
                durable.inject_outage(nodes[position], start, end)
                upcoming += 1
            tick_began = perf_counter()
            durable.run_iteration(now)
            tick_ms.append((perf_counter() - tick_began) * 1e3 * factor)
        durable.mark_completions(until)
        wall_s += (perf_counter() - wall) * factor
        cpu_s += (process_time() - cpu) * factor
        elapsed_s = perf_counter() - began

        placed = sum(
            1
            for record in meta.trace
            if record.state in (JobState.SCHEDULED, JobState.COMPLETED)
        )
        reports = meta.reports
        return Unit(
            elapsed_s=elapsed_s,
            setup_s=setup_s,
            wall_s=wall_s,
            cpu_s=cpu_s,
            tick_ms=tick_ms,
            attempted=JOBS,
            failed=JOBS - placed,
            digest=vo_digest(meta),
            memo=meta.scheduler.dp_memo.stats(),
            counts={
                "revocations": sum(report.revocations for report in reports),
                "hot_swaps": sum(report.hot_swaps for report in reports),
                "journal.bytes": durable.journal_path.stat().st_size,
            },
            state=durable,
        )

    def check_unit(self, index: int, unit: Unit) -> list[str]:
        problems = _check_pin(self.name, self.seed, index, unit)
        durable = unit.state
        windows = {
            record.job: record.window
            for record in durable.meta.trace
            if record.window is not None
        }
        for violation in audit_windows(windows, algorithm=SlotSearchAlgorithm.AMP):
            problems.append(f"vo-durable unit {index}: {violation.message}")
        # The last snapshot is a few ticks old, so restore replays the
        # journal tail on top of it.
        restored = DurableMetascheduler.restore(durable.directory)
        try:
            digest = vo_digest(restored.meta)
        finally:
            restored.close()
        if digest != unit.digest:
            problems.append(
                f"vo-durable unit {index}: restore gives {digest}, run gave {unit.digest}"
            )
        self.release(unit)
        return problems

    def release(self, unit: Unit) -> None:
        durable, unit.state = unit.state, None
        if durable is not None:
            durable.close()
            shutil.rmtree(durable.directory, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


WORKLOADS = {"series": Series, "series-metrics": Series, "vo-durable": VODurable}
