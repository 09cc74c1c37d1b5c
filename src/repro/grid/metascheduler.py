"""The iterative metascheduler of the virtual organization.

Section 2 of the paper: "job batch scheduling runs iteratively on
periodically updated local schedules"; a job that cannot accumulate its
``N`` slots "is joined another batch, and its scheduling is postponed
till the next iteration".  :class:`Metascheduler` implements that cycle
on top of the grid substrate:

1. every ``period`` time units, collect the pending global jobs into a
   batch (submission order = priority, so older jobs go first);
2. ask the environment for the vacant-slot list over the lookahead
   horizon starting *now*;
3. run the two-phase :class:`~repro.core.scheduler.BatchScheduler`;
4. commit the chosen windows as reservations; postponed jobs stay in
   the queue for the next iteration (up to an optional retry limit).

A tick with an empty batch skips steps 2–4: it only counts the slots
the list would hold, for its report.

The run produces a :class:`~repro.grid.trace.WorkloadTrace` plus one
:class:`IterationReport` per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import AdmissionRejectedError, InvalidRequestError
from repro.core.job import Batch, Job
from repro.core.pricing import DemandAdjustedPricing
from repro.core.scheduler import (
    BatchScheduler,
    InfeasiblePolicy,
    ScheduleOutcome,
    SchedulerConfig,
)
from repro.grid.environment import VOEnvironment
from repro.grid.resilience import (
    RecoveryEvent,
    RecoveryManager,
    RecoveryOutcome,
    RetryPolicy,
)
from repro.grid.trace import JobState, WorkloadTrace
from repro.grid.node import ComputeNode
from repro.obs.spans import NOOP_SPAN
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = ["IterationReport", "Metascheduler"]


@dataclass(frozen=True)
class IterationReport:
    """What one scheduling iteration did.

    Attributes:
        index: Iteration number (0-based).
        time: Tick time of the iteration.
        slot_count: Vacant slots the environment publishes over the
            horizon (counted, not published, when the batch is empty).
        batch_size: Jobs in this iteration's batch.
        scheduled: Jobs that received (and committed) a window.
        postponed: Jobs pushed to the next iteration.
        rejected: Jobs dropped for exceeding the retry limit.
        total_alternatives: Phase-1 alternatives found for the batch.
        used_fallback: Whether the earliest-alternative fallback fired.
        revocations: Windows revoked by outages since the previous tick.
        hot_swaps: Revocations recovered from retained alternatives in
            the same event (no queue round trip).
        replacements: Revocations recovered by immediate re-search.
        recovery_rejections: Jobs dropped for exceeding the per-job
            revocation budget since the previous tick.
    """

    index: int
    time: float
    slot_count: int
    batch_size: int
    scheduled: int
    postponed: int
    rejected: int
    total_alternatives: int
    used_fallback: bool
    revocations: int = 0
    hot_swaps: int = 0
    replacements: int = 0
    recovery_rejections: int = 0


class Metascheduler:
    """Runs the periodic batch-scheduling cycle against a VO environment."""

    def __init__(
        self,
        environment: VOEnvironment,
        scheduler: BatchScheduler | None = None,
        *,
        period: float = 60.0,
        horizon: float = 600.0,
        min_slot_length: float = 0.0,
        max_batch_size: int | None = None,
        max_postponements: int | None = None,
        max_pending: int | None = None,
        demand_pricing: DemandAdjustedPricing | None = None,
        recovery: RecoveryManager | RetryPolicy | None = None,
    ) -> None:
        """Configure the cycle.

        Args:
            environment: The VO resource pool.
            scheduler: Two-phase scheduler; defaults to AMP +
                time-minimization with the EARLIEST fallback, which keeps
                a live VO making progress when the eq. (2) quota is tight.
            period: Time between scheduling iterations.
            horizon: Lookahead of the published slot list.
            min_slot_length: Gaps shorter than this are not published.
            max_batch_size: Cap on jobs per batch (oldest first);
                overflow simply waits (it is not a postponement).
            max_postponements: Drop a job after this many postponements
                (``None`` retries forever, as the paper's scheme does).
            max_pending: Bounded admission: once the backlog (pending
                jobs plus not-yet-absorbed submissions) reaches this
                limit, further :meth:`submit` calls are shed with a
                typed :class:`~repro.core.errors.AdmissionRejectedError`
                instead of growing the queue without bound (``None``
                admits everything, the legacy behaviour).
            demand_pricing: Optional supply-and-demand pricing (paper
                Section 7 future work): at every iteration, published
                slot prices are scaled by the demand multiplier for the
                environment's utilization over the *preceding* period.
            recovery: Opt-in fault recovery.  ``None`` (the default)
                keeps the legacy behaviour — an outage sends every
                revoked job straight back to the queue.  A
                :class:`~repro.grid.resilience.RecoveryManager` (or a
                bare :class:`~repro.grid.resilience.RetryPolicy`, which
                gets wrapped) enables the hot-swap → re-search →
                backoff-resubmit ladder with per-job revocation budgets.
        """
        if period <= 0:
            raise InvalidRequestError(f"period must be positive, got {period!r}")
        if horizon <= 0:
            raise InvalidRequestError(f"horizon must be positive, got {horizon!r}")
        if max_batch_size is not None and max_batch_size < 1:
            raise InvalidRequestError(
                f"max_batch_size must be >= 1, got {max_batch_size!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise InvalidRequestError(
                f"max_pending must be >= 1, got {max_pending!r}"
            )
        self.environment = environment
        self.scheduler = scheduler or BatchScheduler(
            SchedulerConfig(infeasible_policy=InfeasiblePolicy.EARLIEST)
        )
        self.period = period
        self.horizon = horizon
        self.min_slot_length = min_slot_length
        self.max_batch_size = max_batch_size
        self.max_postponements = max_postponements
        self.max_pending = max_pending
        #: Submissions shed by bounded admission over the run's lifetime.
        self.admission_rejections = 0
        self.demand_pricing = demand_pricing
        if isinstance(recovery, RetryPolicy):
            recovery = RecoveryManager(recovery)
        self.recovery = recovery
        self.trace = WorkloadTrace()
        self.reports: list[IterationReport] = []
        self._pending: list[Job] = []
        self._submissions: list[tuple[float, Job]] = []
        self._iteration = 0
        # Resilience counters accumulated between ticks, flushed into the
        # next IterationReport; and, per revoked-and-resubmitted job, the
        # iteration index current at revocation (for recovery latency).
        self._outage_counts = {
            "revocations": 0,
            "hot_swaps": 0,
            "replacements": 0,
            "recovery_rejections": 0,
        }
        self._revoked_at: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Submission                                                         #
    # ------------------------------------------------------------------ #

    def submit(self, job: Job, at_time: float = 0.0) -> None:
        """Queue a global job, effective from ``at_time``.

        Raises:
            AdmissionRejectedError: When bounded admission is configured
                (``max_pending``) and the backlog is already at the
                limit.  The job is *not* queued and does not enter the
                workload trace; the caller owns the shed policy.
        """
        if self.max_pending is not None and self.backlog() >= self.max_pending:
            self.admission_rejections += 1
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.count("meta.admission_rejected")
                telemetry.event(
                    "meta.admission_rejected",
                    job=job.name,
                    backlog=self.backlog(),
                    limit=self.max_pending,
                )
            raise AdmissionRejectedError(
                f"job {job.name!r} rejected: backlog {self.backlog()} is at the "
                f"admission limit {self.max_pending}",
                job_name=job.name,
                backlog=self.backlog(),
                limit=self.max_pending,
            )
        self.trace.add(job, at_time)
        self._submissions.append((at_time, job))
        self._submissions.sort(key=lambda pair: pair[0])

    def pending_jobs(self) -> list[Job]:
        """Jobs currently waiting for a window (oldest first)."""
        return list(self._pending)

    # ------------------------------------------------------------------ #
    # The cycle                                                          #
    # ------------------------------------------------------------------ #

    def _absorb_arrivals(self, now: float) -> None:
        arrived = [job for time, job in self._submissions if time <= now]
        self._submissions = [
            (time, job) for time, job in self._submissions if time > now
        ]
        self._pending.extend(arrived)

    def run_iteration(self, now: float) -> IterationReport:
        """Execute one scheduling iteration at time ``now``."""
        telemetry = get_telemetry()
        if telemetry.enabled:
            iteration_span = telemetry.span(
                "meta.iteration", index=self._iteration, time=now
            )
        else:
            iteration_span = NOOP_SPAN
        with iteration_span:
            decisions = telemetry.decisions
            if decisions.enabled:
                # ``tick`` (not ``iteration``) on purpose: the experiment
                # runner owns the ``iteration`` scope key, whose binding
                # restarts the per-iteration decision sequence numbers.
                with decisions.scope(tick=self._iteration):
                    report = self._run_iteration(now, telemetry)
            else:
                report = self._run_iteration(now, telemetry)
        return report

    def _run_iteration(self, now: float, telemetry: Telemetry) -> IterationReport:
        self._absorb_arrivals(now)
        self.trace.mark_completions(now)
        if self.recovery is not None:
            self.recovery.prune(now)

        batch_jobs = self._pending
        if self.max_batch_size is not None:
            batch_jobs = batch_jobs[: self.max_batch_size]
        # Older jobs get higher priority (lower number): submission order.
        batch = Batch(
            Job(job.request, name=job.name, priority=position, uid=job.uid)
            for position, job in enumerate(batch_jobs)
        )
        by_uid = {job.uid: job for job in batch_jobs}

        price_multiplier = 1.0
        if self.demand_pricing is not None:
            window_start = max(0.0, now - self.period)
            utilization = self.environment.utilization(
                window_start, window_start + self.period
            )
            price_multiplier = self.demand_pricing.multiplier(utilization)
        if batch_jobs:
            slots = self.environment.vacant_slot_list(
                now,
                now + self.horizon,
                min_length=self.min_slot_length,
                price_multiplier=price_multiplier,
            )
            slot_count = len(slots)
            outcome = self.scheduler.schedule(slots, batch)
            scheduled, rejected = self._apply(outcome, by_uid, telemetry)
            postponed = len(outcome.postponed) - rejected
            total_alternatives = outcome.search.total_alternatives
            used_fallback = outcome.used_fallback
        else:
            # An empty batch publishes nothing and runs no scheduler; the
            # report still counts the slots a publication would hold.
            slot_count = self.environment.vacant_slot_count(
                now, now + self.horizon, min_length=self.min_slot_length
            )
            scheduled = postponed = rejected = total_alternatives = 0
            used_fallback = False

        resilience = self._outage_counts
        report = IterationReport(
            index=self._iteration,
            time=now,
            slot_count=slot_count,
            batch_size=len(batch),
            scheduled=scheduled,
            postponed=postponed,
            rejected=rejected,
            total_alternatives=total_alternatives,
            used_fallback=used_fallback,
            revocations=resilience["revocations"],
            hot_swaps=resilience["hot_swaps"],
            replacements=resilience["replacements"],
            recovery_rejections=resilience["recovery_rejections"],
        )
        self._outage_counts = {key: 0 for key in resilience}
        self.reports.append(report)
        self._iteration += 1
        if telemetry.enabled:
            self._record_iteration(telemetry, report, price_multiplier)
        return report

    def _apply(
        self, outcome: ScheduleOutcome, by_uid: dict[int, Job], telemetry: Telemetry
    ) -> tuple[int, int]:
        """Commit the scheduled jobs and postpone the rest.

        Returns the number of jobs scheduled and the number rejected for
        exceeding the postponement limit.
        """
        decisions = telemetry.decisions
        record_decisions = decisions.enabled

        scheduled = 0
        for scheduled_job, window in outcome.scheduled_jobs.items():
            original = by_uid[scheduled_job.uid]
            self.environment.commit_window(original.name, window)
            self.trace.mark_scheduled(original, window, self._iteration)
            self._pending.remove(original)
            scheduled += 1
            if record_decisions:
                decisions.emit(
                    "meta.committed",
                    job=original.name,
                    start=window.start,
                    cost=window.cost,
                )
            if self.recovery is not None:
                # Keep the job's unused phase-1 alternatives around: they
                # are the hot-swap candidates should an outage revoke the
                # committed window (batch clones share uids, so the
                # alternatives map keys match the scheduled clone).
                alternatives = outcome.search.alternatives.get(scheduled_job, ())
                self.recovery.retain(original, list(alternatives), window)
                revoked_at = self._revoked_at.pop(original.uid, None)
                if revoked_at is not None and telemetry.enabled:
                    telemetry.observe(
                        "resilience.recovery_latency_ticks",
                        float(self._iteration - revoked_at + 1),
                    )

        rejected = 0
        for postponed_job in outcome.postponed:
            original = by_uid[postponed_job.uid]
            self.trace.mark_postponed(original)
            record = self.trace.record_for(original)
            if (
                self.max_postponements is not None
                and record.postponements > self.max_postponements
            ):
                self.trace.mark_rejected(original)
                self._pending.remove(original)
                rejected += 1
                if self.recovery is not None:
                    self.recovery.discard(original)
                if record_decisions:
                    decisions.emit(
                        "meta.rejected",
                        job=original.name,
                        postponements=record.postponements,
                    )
            elif record_decisions:
                decisions.emit(
                    "meta.postponed",
                    job=original.name,
                    postponements=record.postponements,
                )
        return scheduled, rejected

    def _record_iteration(
        self, telemetry: Telemetry, report: IterationReport, price_multiplier: float
    ) -> None:
        """Feed one iteration's outcome into the telemetry layer.

        Counter and gauge definitions deliberately mirror the audit
        log: ``meta.scheduled``/``meta.postponements``/``meta.rejected``
        accumulate the same quantities the per-job
        :class:`~repro.grid.trace.JobRecord` fields do, and the
        ``meta.jobs{state=...}`` gauges are exactly
        :attr:`~repro.grid.trace.TraceSummary.state_counts`, so a
        metrics dashboard and ``trace.summary()`` can never disagree.
        """
        if not telemetry.enabled:
            return
        telemetry.count("meta.iterations")
        telemetry.count("meta.scheduled", report.scheduled)
        telemetry.count("meta.postponements", report.postponed)
        telemetry.count("meta.rejected", report.rejected)
        if report.used_fallback:
            telemetry.count("meta.fallbacks")
        telemetry.set_gauge("meta.backlog", self.backlog())
        telemetry.observe("meta.batch_size", report.batch_size)
        telemetry.observe("meta.slot_count", report.slot_count)
        for state, jobs in self.trace.state_counts().items():
            telemetry.set_gauge("meta.jobs", jobs, state=state)
        telemetry.event(
            "meta.iteration",
            index=report.index,
            time=report.time,
            slot_count=report.slot_count,
            batch_size=report.batch_size,
            scheduled=report.scheduled,
            postponed=report.postponed,
            rejected=report.rejected,
            total_alternatives=report.total_alternatives,
            used_fallback=report.used_fallback,
            price_multiplier=price_multiplier,
            backlog=self.backlog(),
            revocations=report.revocations,
            hot_swaps=report.hot_swaps,
            replacements=report.replacements,
            recovery_rejections=report.recovery_rejections,
        )

    def run(self, until: float, *, start: float = 0.0) -> list[IterationReport]:
        """Run iterations every ``period`` from ``start`` until ``until``.

        Returns the reports of the iterations executed by this call.
        """
        if until < start:
            raise InvalidRequestError(f"until {until!r} precedes start {start!r}")
        first = len(self.reports)
        now = start
        while now <= until:
            self.run_iteration(now)
            now += self.period
        self.trace.mark_completions(until)
        return self.reports[first:]

    # ------------------------------------------------------------------ #
    # Dynamics (Section 7): node failures                                #
    # ------------------------------------------------------------------ #

    def inject_outage(self, node: ComputeNode, start: float, end: float) -> list[Job]:
        """Fail ``node`` during ``[start, end)`` and recover revoked jobs.

        Jobs whose reservations overlapped the outage lose their windows
        (synchronous tasks: losing one node kills the co-allocation).
        Only jobs *live at outage start* — SCHEDULED with a window still
        running past ``start`` — are revoked; completed jobs' historical
        reservations are preserved by the environment, so utilization
        and owner income stay correct.

        Without a :attr:`recovery` manager every revoked job returns to
        the pending queue and competes again at the next iteration (the
        legacy behaviour).  With one, each revocation walks the recovery
        ladder — hot-swap a retained phase-1 alternative, else an
        immediate single-job re-search, else backoff resubmission — and
        a job over its revocation budget is rejected with a typed
        :class:`~repro.core.errors.RecoveryExhaustedError` recorded on
        its :class:`~repro.grid.resilience.RecoveryEvent`.

        Returns:
            The jobs sent back to the queue (in original submission
            order); jobs recovered in place or rejected are not in it.
        """
        telemetry = get_telemetry()
        live: dict[str, object] = {}
        for record in self.trace:
            if (
                record.state is JobState.SCHEDULED
                and record.window is not None
                and record.window.end > start
            ):
                live[record.job.name] = record
        killed = set(
            self.environment.inject_outage(node, start, end, live_jobs=live.keys())
        )
        if telemetry.enabled:
            telemetry.count("resilience.outages")
        resubmitted: list[Job] = []
        for name, record in live.items():
            if name not in killed:
                continue
            job = record.job
            self._outage_counts["revocations"] += 1
            if telemetry.enabled:
                telemetry.count("resilience.revocations")
            if self.recovery is None:
                self.trace.mark_resubmitted(job)
                self._pending.append(job)
                resubmitted.append(job)
                continue
            if self._recover(job, start, telemetry) is RecoveryOutcome.RESUBMIT:
                resubmitted.append(job)
        return resubmitted

    def _recover(self, job: Job, now: float, telemetry: Telemetry) -> RecoveryOutcome:
        """Walk the recovery ladder for one revoked job; returns the rung."""
        manager = self.recovery
        revocations = manager.register_revocation(job)
        error = manager.exhausted(job)
        if error is not None:
            self.trace.mark_rejected(job)
            manager.discard(job)
            self._revoked_at.pop(job.uid, None)
            self._outage_counts["recovery_rejections"] += 1
            if telemetry.enabled:
                telemetry.count("resilience.rejections")
            manager.record(
                RecoveryEvent(
                    time=now,
                    job_name=job.name,
                    outcome=RecoveryOutcome.REJECT,
                    revocations=revocations,
                    error=error,
                )
            )
            return RecoveryOutcome.REJECT
        config = self.scheduler.config
        window = manager.find_hot_swap(
            job, self.environment, now, algorithm=config.algorithm, rho=config.rho
        )
        if window is not None:
            self.environment.commit_window(job.name, window)
            manager.consume(job, window)
            self.trace.mark_recovered(job, window, self._iteration)
            self._revoked_at.pop(job.uid, None)
            self._outage_counts["hot_swaps"] += 1
            if telemetry.enabled:
                telemetry.count("resilience.hotswap_hits")
                telemetry.observe("resilience.recovery_latency_ticks", 0.0)
            manager.record(
                RecoveryEvent(
                    time=now,
                    job_name=job.name,
                    outcome=RecoveryOutcome.HOT_SWAP,
                    revocations=revocations,
                    window=window,
                )
            )
            return RecoveryOutcome.HOT_SWAP
        if telemetry.enabled:
            telemetry.count("resilience.hotswap_misses")
        window = manager.research(
            job,
            self.environment,
            now,
            horizon=self.horizon,
            min_slot_length=self.min_slot_length,
            algorithm=config.algorithm,
            rho=config.rho,
        )
        if window is not None:
            self.environment.commit_window(job.name, window)
            self.trace.mark_recovered(job, window, self._iteration)
            self._revoked_at.pop(job.uid, None)
            self._outage_counts["replacements"] += 1
            if telemetry.enabled:
                telemetry.count("resilience.replacements")
                telemetry.observe("resilience.recovery_latency_ticks", 0.0)
            manager.record(
                RecoveryEvent(
                    time=now,
                    job_name=job.name,
                    outcome=RecoveryOutcome.RESEARCH,
                    revocations=revocations,
                    window=window,
                )
            )
            return RecoveryOutcome.RESEARCH
        delay = manager.policy.delay(revocations)
        self.trace.mark_resubmitted(job)
        self._revoked_at[job.uid] = self._iteration
        if delay > 0.0:
            # Backoff: the job re-enters the queue only once the delay
            # elapses, via the ordinary arrival absorption.
            self._submissions.append((now + delay, job))
            self._submissions.sort(key=lambda pair: pair[0])
        else:
            self._pending.append(job)
        if telemetry.enabled:
            telemetry.count("resilience.resubmissions")
        manager.record(
            RecoveryEvent(
                time=now,
                job_name=job.name,
                outcome=RecoveryOutcome.RESUBMIT,
                revocations=revocations,
                delay=delay,
            )
        )
        return RecoveryOutcome.RESUBMIT

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def backlog(self) -> int:
        """Jobs submitted but not yet scheduled or rejected."""
        return len(self._pending) + len(self._submissions)

    def completed_jobs(self) -> int:
        """Jobs whose windows have already finished."""
        return len(self.trace.in_state(JobState.COMPLETED))
