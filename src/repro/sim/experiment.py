"""The Section 5 experiment protocol: ALP vs AMP on identical slot lists.

One *experiment* (the paper's "simulated scheduling iteration") is:

1. draw a vacant-slot list and a job batch from the generators;
2. run the full two-phase pipeline **twice on the same inputs** — once
   with ALP, once with AMP;
3. count the experiment only if *both* pipelines succeed: every job has
   at least one alternative with both algorithms, and both phase-2 DPs
   are feasible (the paper: "only those experiments were taken into
   account when all of the batch jobs had at least one suitable
   alternative of execution"; for cost minimization "all jobs were
   successfully assigned ... using both slot search procedures").

The runner records per-experiment samples (feeding Fig. 5) and drop
counters, so the selection effects the paper describes (e.g. counted
cost-minimization iterations having smaller batches) are measurable.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.proc import WorkerSupervisor
    from repro.grid.resilience import FailureConfig
    from repro.sim.checkpoint import ExperimentCheckpoint

from repro.core.criteria import Criterion
from repro.core.errors import (
    InfeasibleConstraintError,
    InvalidRequestError,
    WorkerLostError,
)
from repro.core.job import Batch
from repro.core.optimize import (
    DEFAULT_RESOLUTION,
    Combination,
    DPMemo,
    minimize_cost,
    minimize_time,
    time_quota,
    vo_budget,
)
from repro.core.search import SearchResult, SlotSearchAlgorithm, find_alternatives
from repro.core.slot import SlotList
from repro.sim.generators import JobGenerator, JobGeneratorConfig, SlotGenerator, SlotGeneratorConfig

__all__ = [
    "AlgorithmSample",
    "IterationComparison",
    "IterationOutcome",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "ParallelRunner",
    "derive_iteration_seed",
    "generate_iteration",
    "run_iteration",
    "run_pipeline",
    "trace_shard_path",
]

#: Result type of one supervised ``pool.map`` (span results or outcome
#: lists, depending on the calling path).
_SpanResult = TypeVar("_SpanResult")


@dataclass(frozen=True)
class AlgorithmSample:
    """One algorithm's outcome on one counted experiment.

    Attributes:
        mean_job_time: Average job execution time of the chosen
            combination (the quantity of Fig. 4 (a) / Fig. 6 (b)).
        mean_job_cost: Average job execution cost (Fig. 4 (b) / 6 (a)).
        total_alternatives: Phase-1 alternatives over the whole batch.
        quota: The eq. (2) time quota ``T*`` of this pipeline.
        budget: The eq. (3) budget ``B*`` (None for cost minimization).
    """

    mean_job_time: float
    mean_job_cost: float
    total_alternatives: int
    quota: float
    budget: float | None

    @classmethod
    def from_combination(
        cls,
        combination: Combination,
        search: SearchResult,
        quota: float,
        budget: float | None,
    ) -> "AlgorithmSample":
        return cls(
            mean_job_time=combination.mean_job_time,
            mean_job_cost=combination.mean_job_cost,
            total_alternatives=search.total_alternatives,
            quota=quota,
            budget=budget,
        )


@dataclass(frozen=True)
class IterationComparison:
    """ALP and AMP on the same slot list and batch."""

    index: int
    slot_count: int
    job_count: int
    alp: AlgorithmSample
    amp: AlgorithmSample


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment series.

    Attributes:
        objective: TIME reproduces the Fig. 4/5 study (min ``T(s̄)``
            under ``B*``); COST reproduces Fig. 6 (min ``C(s̄)`` under
            ``T*``).
        iterations: Number of *attempted* scheduling iterations (the
            paper attempts 25 000; benchmarks default lower).
        seed: Master seed; one RNG drives both generators, so a config
            is fully reproducible.
        slot_config / job_config: Generator parameter sets.
        resolution: Phase-2 DP discretization.
        rho: AMP budget-shrink factor (Section 6 extension; 1.0 = paper).
        failures: Optional stochastic failure model
            (:class:`repro.grid.resilience.FailureConfig`).  When set,
            every iteration's slot list is degraded by seeded per-node
            outage streams (:func:`repro.grid.resilience.apply_slot_outages`)
            before the pipelines run — modelling non-dedicated resources
            whose vacant time is interrupted by failures.  The streams
            are keyed by resource name and salted with the iteration's
            derived seed, so sharded runs stay byte-identical for any
            worker count.
    """

    objective: Criterion = Criterion.TIME
    iterations: int = 1000
    seed: int = 20110368
    slot_config: SlotGeneratorConfig = field(default_factory=SlotGeneratorConfig)
    job_config: JobGeneratorConfig = field(default_factory=JobGeneratorConfig)
    resolution: int = DEFAULT_RESOLUTION
    rho: float = 1.0
    failures: "FailureConfig | None" = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise InvalidRequestError(
                f"iterations must be >= 1, got {self.iterations!r}"
            )
        if self.resolution < 2:
            raise InvalidRequestError(
                f"resolution must be >= 2, got {self.resolution!r}"
            )
        if self.rho <= 0:
            raise InvalidRequestError(f"rho must be positive, got {self.rho!r}")


@dataclass
class ExperimentResult:
    """Everything one experiment series produced."""

    config: ExperimentConfig
    samples: list[IterationComparison]
    attempted: int
    dropped_uncovered: int
    dropped_infeasible: int
    total_slots_processed: int
    total_jobs_attempted: int

    @property
    def counted(self) -> int:
        """Experiments that passed the both-pipelines-succeed filter."""
        return len(self.samples)


def run_pipeline(
    slots: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm,
    objective: Criterion,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    rho: float = 1.0,
) -> tuple[AlgorithmSample, Combination] | None:
    """Run phase 1 + phase 2 for one algorithm; ``None`` when dropped.

    Dropping happens when some job gets no alternative or the derived
    constraint is infeasible — exactly the paper's filtering rule.
    """
    search = find_alternatives(slots, batch, algorithm, rho=rho)
    if not search.all_jobs_covered():
        return None
    return _optimize_search(search, objective, resolution)


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one attempted scheduling iteration (either runner).

    Exactly one of ``comparison``/``dropped_uncovered``/
    ``dropped_infeasible`` is set/true per outcome.
    """

    slot_count: int
    job_count: int
    comparison: IterationComparison | None = None
    dropped_uncovered: bool = False
    dropped_infeasible: bool = False


def _optimize_search(
    search: SearchResult,
    objective: Criterion,
    resolution: int,
    memo: "DPMemo | None" = None,
) -> tuple[AlgorithmSample, Combination] | None:
    """Phase 2 for one algorithm's search; ``None`` when infeasible."""
    covered = search.alternatives
    quota = time_quota(covered)
    try:
        if objective is Criterion.TIME:
            budget = vo_budget(covered, quota, resolution=resolution, memo=memo)
            combination = minimize_time(
                covered, budget, resolution=resolution, memo=memo
            )
        else:
            budget = None
            combination = minimize_cost(
                covered, quota, resolution=resolution, memo=memo
            )
    except InfeasibleConstraintError:
        return None
    sample = AlgorithmSample.from_combination(combination, search, quota, budget)
    return sample, combination


def run_iteration(
    config: ExperimentConfig,
    index: int,
    slots: SlotList,
    batch: Batch,
    memo: "DPMemo | None" = None,
) -> IterationOutcome:
    """One attempted iteration: both pipelines on identical inputs.

    Pure function of its inputs — the shared building block of
    :class:`ExperimentRunner` (streamed RNG) and :class:`ParallelRunner`
    (per-iteration derived seeds).  ``memo`` is the caller-owned DP memo
    (each runner/worker span holds one); memo hits are byte-identical to
    recomputation, so the memo never affects results — only speed.
    """
    outcomes = {}
    uncovered = False
    for algorithm in (SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP):
        search = find_alternatives(slots, batch, algorithm, rho=config.rho)
        if not search.all_jobs_covered():
            uncovered = True
            break
        outcomes[algorithm] = search
    if uncovered:
        return IterationOutcome(
            slot_count=len(slots), job_count=len(batch), dropped_uncovered=True
        )
    pipelines = {}
    for algorithm, search in outcomes.items():
        finished = _optimize_search(search, config.objective, config.resolution, memo)
        if finished is None:
            return IterationOutcome(
                slot_count=len(slots), job_count=len(batch), dropped_infeasible=True
            )
        pipelines[algorithm] = finished[0]
    comparison = IterationComparison(
        index=index,
        slot_count=len(slots),
        job_count=len(batch),
        alp=pipelines[SlotSearchAlgorithm.ALP],
        amp=pipelines[SlotSearchAlgorithm.AMP],
    )
    return IterationOutcome(
        slot_count=len(slots), job_count=len(batch), comparison=comparison
    )


class _SeriesAccumulator:
    """Folds :class:`IterationOutcome` values into an :class:`ExperimentResult`."""

    def __init__(self) -> None:
        self.samples: list[IterationComparison] = []
        self.dropped_uncovered = 0
        self.dropped_infeasible = 0
        self.total_slots = 0
        self.total_jobs = 0

    def add(self, outcome: IterationOutcome) -> None:
        self.total_slots += outcome.slot_count
        self.total_jobs += outcome.job_count
        if outcome.comparison is not None:
            self.samples.append(outcome.comparison)
        elif outcome.dropped_uncovered:
            self.dropped_uncovered += 1
        else:
            self.dropped_infeasible += 1

    def result(self, config: ExperimentConfig, attempted: int) -> ExperimentResult:
        return ExperimentResult(
            config=config,
            samples=self.samples,
            attempted=attempted,
            dropped_uncovered=self.dropped_uncovered,
            dropped_infeasible=self.dropped_infeasible,
            total_slots_processed=self.total_slots,
            total_jobs_attempted=self.total_jobs,
        )


def _open_checkpoint(
    config: ExperimentConfig,
    checkpoint: "str | Path | ExperimentCheckpoint | None",
    resume: bool,
) -> "ExperimentCheckpoint | None":
    """Open the optional resume journal for a runner (shared helper).

    An already-constructed :class:`~repro.sim.checkpoint.ExperimentCheckpoint`
    passes through unchanged — the seam the chaos suite uses to hand the
    runner a checkpoint backed by a fault-injecting filesystem.  The
    runner closes whatever store it ran with, caller-provided or not.
    """
    if checkpoint is None:
        return None
    from repro.sim.checkpoint import ExperimentCheckpoint

    if isinstance(checkpoint, ExperimentCheckpoint):
        return checkpoint
    return ExperimentCheckpoint(checkpoint, config, resume=resume)


class ExperimentRunner:
    """Runs an experiment series per :class:`ExperimentConfig`.

    Generation is *streamed*: one RNG, seeded once with ``config.seed``,
    drives every iteration in sequence — the historical behaviour, kept
    so existing seeds keep producing the numbers recorded in
    EXPERIMENTS.md.  For a runner whose draws are independent of
    iteration order (and therefore shardable across processes), see
    :class:`ParallelRunner`.
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def run(
        self,
        *,
        progress: Callable[[int, int], None] | None = None,
        checkpoint: "str | Path | ExperimentCheckpoint | None" = None,
        resume: bool = False,
    ) -> ExperimentResult:
        """Execute the series.

        Args:
            progress: Optional callback ``(attempted_so_far, counted)``
                invoked after every attempted iteration.
            checkpoint: Optional path to a resumable checkpoint journal
                (or an open :class:`~repro.sim.checkpoint.ExperimentCheckpoint`);
                every completed iteration is appended so a killed run
                can be resumed.  Without ``resume``, an existing file at
                a given path is replaced.
            resume: Skip iterations already recorded in ``checkpoint``,
                replaying their outcomes from disk.  The generators are
                still advanced through skipped iterations, so the merged
                result is identical to an uninterrupted run.

        Raises:
            CheckpointMismatchError: When resuming against a checkpoint
                written for a different configuration.
        """
        config = self.config
        store = _open_checkpoint(config, checkpoint, resume)
        slot_generator = SlotGenerator(config.slot_config, seed=config.seed)
        job_generator = JobGenerator(config.job_config, rng=slot_generator.rng)
        accumulator = _SeriesAccumulator()
        # Run-local DP memo: cross-iteration reuse within this series
        # only, never ambient process state (hits are byte-identical).
        memo = DPMemo()
        try:
            for attempt in range(config.iterations):
                # Draws happen unconditionally: the streamed RNG must
                # advance through completed iterations for the remaining
                # ones to see the same stream an uninterrupted run would.
                slots = slot_generator.generate()
                batch = job_generator.generate()
                cached = store.get(attempt) if store is not None else None
                if cached is not None:
                    outcome = cached
                else:
                    slots = _degrade_slots(config, slots, salt=attempt)
                    outcome = run_iteration(config, attempt, slots, batch, memo)
                    if store is not None:
                        store.record(attempt, outcome)
                accumulator.add(outcome)
                if progress is not None:
                    progress(attempt + 1, len(accumulator.samples))
        finally:
            if store is not None:
                store.close()
        return accumulator.result(config, config.iterations)


def derive_iteration_seed(master_seed: int, index: int) -> int:
    """Deterministic, order-independent per-iteration seed.

    Hash-derived (not ``master_seed + index``) so that neighbouring
    iterations get statistically independent streams and any shard of the
    series can be regenerated in isolation — the property that makes
    :class:`ParallelRunner` results invariant under the worker count.
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def generate_iteration(config: ExperimentConfig, index: int) -> tuple[SlotList, Batch]:
    """Draw iteration ``index``'s slot list and batch from its own stream.

    Mirrors the serial runner's coupling (one RNG shared by both
    generators) but re-seeds per iteration via
    :func:`derive_iteration_seed`.
    """
    seed = derive_iteration_seed(config.seed, index)
    slot_generator = SlotGenerator(config.slot_config, seed=seed)
    job_generator = JobGenerator(config.job_config, rng=slot_generator.rng)
    slots = slot_generator.generate()
    batch = job_generator.generate()
    return _degrade_slots(config, slots, salt=seed), batch


def _degrade_slots(config: ExperimentConfig, slots: SlotList, *, salt: int) -> SlotList:
    """Carve the config's failure streams out of one iteration's slots.

    A pure function of ``(config, slots, salt)`` — the salt is the
    iteration's own seed (parallel path) or index (streamed path), so
    iterations fail independently yet reproducibly, in any process.
    """
    if config.failures is None:
        return slots
    from repro.grid.resilience import apply_slot_outages

    return apply_slot_outages(slots, config.failures, salt=salt)


def _run_span(config: ExperimentConfig, start: int, stop: int) -> ExperimentResult:
    """Run iterations ``[start, stop)`` of the seeded series (one shard).

    The DP memo is span-local: created here, dropped with the span.
    Worker processes therefore never share cache state — cross-cycle
    reuse happens within one shard only (memo hits are byte-identical
    to recomputation, so this is purely a speed matter).
    """
    accumulator = _SeriesAccumulator()
    memo = DPMemo()
    for index in range(start, stop):
        slots, batch = generate_iteration(config, index)
        accumulator.add(run_iteration(config, index, slots, batch, memo))
    return accumulator.result(config, stop - start)


def trace_shard_path(trace_base: str | Path, worker: int) -> Path:
    """Per-worker trace shard path: ``trace.jsonl`` → ``trace.w3.jsonl``."""
    base = Path(trace_base)
    suffix = base.suffix or ".jsonl"
    return base.with_name(f"{base.stem}.w{worker}{suffix}")


def _run_span_traced(
    config: ExperimentConfig,
    start: int,
    stop: int,
    trace_base: str,
    worker: int,
) -> ExperimentResult:
    """One *traced* shard: a private telemetry context writing a JSONL shard.

    Worker processes cannot share the parent's metric registry, so each
    shard records into its own context and dumps it to
    :func:`trace_shard_path` when done.  The contexts of all shards carry
    :class:`~repro.obs.context.TraceContext` ids derived from the master
    seed (worker-numbered spans, one shared trace id), so
    :func:`repro.obs.merge.merge_trace_files` folds them back into a
    single coherent tree.  Each iteration binds the decision log's
    ``iteration`` scope — which restarts the per-iteration sequence
    numbers — making the merged decision stream invariant under the
    worker count.
    """
    from repro.obs.context import TraceContext
    from repro.obs.export import write_trace
    from repro.obs.telemetry import configure, get_telemetry, install

    previous = get_telemetry()
    telemetry = configure(context=TraceContext.derive(config.seed, worker=worker))
    try:
        accumulator = _SeriesAccumulator()
        memo = DPMemo()
        decisions = telemetry.decisions
        for index in range(start, stop):
            slots, batch = generate_iteration(config, index)
            with decisions.scope(iteration=index):
                with telemetry.span("experiment.iteration", index=index):
                    accumulator.add(run_iteration(config, index, slots, batch, memo))
        write_trace(str(trace_shard_path(trace_base, worker)), telemetry)
        return accumulator.result(config, stop - start)
    finally:
        install(previous)


def _run_indices(config: ExperimentConfig, indices: list[int]) -> list[IterationOutcome]:
    """Run the listed iterations of the seeded series, in the given order.

    The checkpointing counterpart of :func:`_run_span`: a resumed series
    has *holes* (iterations already on disk), so shards are arbitrary
    index lists rather than contiguous spans.
    """
    outcomes = []
    memo = DPMemo()
    for index in indices:
        slots, batch = generate_iteration(config, index)
        outcomes.append(run_iteration(config, index, slots, batch, memo))
    return outcomes


def _count_samples(outcomes: dict[int, IterationOutcome]) -> int:
    """Counted (both-pipelines-succeeded) iterations in an outcome map."""
    return sum(1 for outcome in outcomes.values() if outcome.comparison is not None)


def _shard_spans(iterations: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(iterations)`` into ``shards`` contiguous spans."""
    base, extra = divmod(iterations, shards)
    spans = []
    cursor = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        spans.append((cursor, cursor + size))
        cursor += size
    return [span for span in spans if span[0] < span[1]]


class ParallelRunner:
    """Shards a seeded experiment series across worker processes.

    Every iteration draws from its own :func:`derive_iteration_seed`
    stream, so the series is embarrassingly parallel *and* deterministic:
    for a fixed master seed the merged result — samples, drop counters,
    per-job outcomes — is byte-identical for any ``workers`` value
    (``tests/test_experiment.py`` asserts 4 workers ≡ serial).  Note the
    per-iteration seeding means results differ from
    :class:`ExperimentRunner`'s single-stream draws for the same master
    seed; both are fully reproducible, they are just different series.

    A worker killed mid-run (OOM killer, operator ``SIGKILL``) breaks
    the whole ``concurrent.futures`` pool; the runner catches that,
    re-derives every shard's seeds, and retries the map on a fresh pool
    under the supervisor's budget — byte-identical to an undisturbed run
    because shards are pure functions of ``(config, span)``.  A loss
    that recurs past the budget raises
    :class:`~repro.core.errors.WorkerLostError` (CLI exit code 2).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        workers: int = 1,
        supervisor: "WorkerSupervisor | None" = None,
        span_task: "Callable[[ExperimentConfig, int, int], ExperimentResult] | None" = None,
        dp_memo: "DPMemo | None" = None,
    ) -> None:
        """Configure the sharded runner.

        Args:
            config: The experiment series to run.
            workers: Worker-process count (1 runs inline).
            supervisor: Restart budget/backoff for a broken worker pool.
                Defaults to a single fresh-pool retry
                (``WorkerSupervisor(max_restarts=1)``).
            span_task: Replacement for the per-shard span function on the
                plain (untraced, uncheckpointed) parallel path — the
                injection seam the chaos engine uses to kill a real
                worker (:class:`repro.chaos.proc.CrashOnceSpanTask`).
                Must be picklable and return the same result
                :func:`_run_span` would.
            dp_memo: Explicit opt-in DP memo for the *in-process*
                (``workers=1``, untraced, uncheckpointed) path — lets a
                caller observe or share cross-run DP cache traffic (the
                complexity benchmark does).  Worker processes always
                build their own span-local memo; results never depend on
                the memo either way.
        """
        if workers < 1:
            raise InvalidRequestError(f"workers must be >= 1, got {workers!r}")
        self.config = config or ExperimentConfig()
        self.workers = workers
        self._supervisor = supervisor
        self._span_task = span_task
        self._dp_memo = dp_memo

    def _pool_supervisor(self) -> "WorkerSupervisor":
        """The configured supervisor, or the one-fresh-pool-retry default."""
        if self._supervisor is None:
            from repro.chaos.proc import WorkerSupervisor

            self._supervisor = WorkerSupervisor(max_restarts=1)
        return self._supervisor

    def _map_supervised(
        self,
        task: "Callable[..., _SpanResult]",
        argument_lists: Sequence[Sequence[object]],
    ) -> "list[_SpanResult]":
        """``pool.map`` with broken-pool recovery.

        A ``SIGKILL``-ed worker surfaces as :class:`BrokenProcessPool`
        and poisons the whole executor, so recovery re-runs the *entire*
        map on a fresh pool: every shard is a pure function of its
        arguments, so the retried results are byte-identical and no
        partial state needs reconciling.
        """
        supervisor = self._pool_supervisor()
        restarts = 0
        while True:
            try:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    return list(pool.map(task, *argument_lists))
            except BrokenProcessPool as error:
                restarts += 1
                from repro.obs.telemetry import get_telemetry

                telemetry = get_telemetry()
                if telemetry.enabled:
                    telemetry.count("chaos.pool_broken", 1, layer="pool")
                if restarts > supervisor.max_restarts:
                    raise WorkerLostError(
                        f"experiment worker pool broke {restarts} times "
                        f"(a worker process died); supervisor budget "
                        f"({supervisor.max_restarts} restart(s)) is exhausted",
                        restarts=restarts - 1,
                    ) from error
                if telemetry.enabled:
                    telemetry.count("chaos.worker_restarts", 1, layer="pool")
                    if telemetry.decisions.enabled:
                        telemetry.decisions.emit(
                            "chaos.worker_recovered", layer="pool", restarts=restarts
                        )
                supervisor.pause(restarts)

    def run(
        self,
        *,
        progress: Callable[[int, int], None] | None = None,
        checkpoint: "str | Path | ExperimentCheckpoint | None" = None,
        resume: bool = False,
        trace_base: "str | Path | None" = None,
    ) -> ExperimentResult:
        """Execute the series across ``workers`` processes.

        Args:
            progress: Optional callback ``(attempted_so_far, counted)``;
                with multiple workers it fires once per merged shard
                rather than per iteration.
            checkpoint: Optional path to a resumable checkpoint journal
                (or an already-open :class:`ExperimentCheckpoint`, which
                is used as-is); completed iterations are appended (in
                the parent process) as shards finish.  Without
                ``resume``, an existing file is replaced.
            resume: Skip iterations already recorded in ``checkpoint``.
                Per-iteration derived seeds make every iteration
                independent, so only the missing indices run; the merged
                result is identical to an uninterrupted run for any
                worker count.
            trace_base: Record a telemetry trace of every shard.  Each
                worker writes :func:`trace_shard_path` (``trace.jsonl`` →
                ``trace.w0.jsonl`` …) from its own context; merge the
                shards with ``repro stats --merge`` or
                :func:`repro.obs.merge.merge_trace_files`.  For
                comparability, ``workers=1`` runs through the very same
                traced shard function (producing a single ``.w0`` shard).
                Mutually exclusive with ``checkpoint``.

        Raises:
            CheckpointMismatchError: When resuming against a checkpoint
                written for a different configuration.
            InvalidRequestError: When ``trace_base`` is combined with
                ``checkpoint``.
        """
        from repro.sim.stats import merge_results

        config = self.config
        if trace_base is not None and checkpoint is not None:
            raise InvalidRequestError(
                "trace_base cannot be combined with checkpoint: a resumed "
                "series has holes, so its shards would not form one trace"
            )
        store = _open_checkpoint(config, checkpoint, resume)
        if store is not None:
            try:
                return self._run_checkpointed(store, progress)
            finally:
                store.close()
        if self.workers == 1:
            if trace_base is not None:
                result = _run_span_traced(
                    config, 0, config.iterations, str(trace_base), 0
                )
                if progress is not None:
                    progress(result.attempted, result.counted)
                return result
            accumulator = _SeriesAccumulator()
            memo = self._dp_memo if self._dp_memo is not None else DPMemo()
            for index in range(config.iterations):
                slots, batch = generate_iteration(config, index)
                accumulator.add(run_iteration(config, index, slots, batch, memo))
                if progress is not None:
                    progress(index + 1, len(accumulator.samples))
            return accumulator.result(config, config.iterations)
        spans = _shard_spans(config.iterations, self.workers)
        if trace_base is not None:
            shards = self._map_supervised(
                _run_span_traced,
                (
                    [config] * len(spans),
                    [span[0] for span in spans],
                    [span[1] for span in spans],
                    [str(trace_base)] * len(spans),
                    list(range(len(spans))),
                ),
            )
        else:
            shards = self._map_supervised(
                self._span_task if self._span_task is not None else _run_span,
                (
                    [config] * len(spans),
                    [span[0] for span in spans],
                    [span[1] for span in spans],
                ),
            )
        if progress is not None:
            attempted = 0
            counted = 0
            for shard in shards:
                attempted += shard.attempted
                counted += shard.counted
                progress(attempted, counted)
        return merge_results(shards, config=config)

    def _run_checkpointed(
        self,
        store: "ExperimentCheckpoint",
        progress: Callable[[int, int], None] | None,
    ) -> ExperimentResult:
        """Run only the iterations missing from ``store``, then fold all.

        Outcomes are folded strictly in index order — recorded and fresh
        alike — so the result is byte-identical to an uninterrupted run
        regardless of where the previous run died or how many workers
        compute the remainder.
        """
        config = self.config
        outcomes: dict[int, IterationOutcome] = dict(store.outcomes)
        remaining = [
            index for index in range(config.iterations) if index not in outcomes
        ]
        if self.workers == 1 or len(remaining) <= 1:
            memo = DPMemo()
            for index in remaining:
                slots, batch = generate_iteration(config, index)
                outcome = run_iteration(config, index, slots, batch, memo)
                store.record(index, outcome)
                outcomes[index] = outcome
                if progress is not None:
                    progress(len(outcomes), _count_samples(outcomes))
        else:
            spans = _shard_spans(len(remaining), self.workers)
            chunks = [remaining[start:stop] for start, stop in spans]
            chunk_results = self._map_supervised(
                _run_indices, ([config] * len(chunks), chunks)
            )
            for chunk, results in zip(chunks, chunk_results):
                for index, outcome in zip(chunk, results):
                    store.record(index, outcome)
                    outcomes[index] = outcome
                if progress is not None:
                    progress(len(outcomes), _count_samples(outcomes))
        accumulator = _SeriesAccumulator()
        for index in range(config.iterations):
            accumulator.add(outcomes[index])
        return accumulator.result(config, config.iterations)
