"""Two-phase batch scheduler façade.

:class:`BatchScheduler` wires the paper's full scheduling scheme together
for one iteration:

1. **Alternative search** (:mod:`repro.core.search`) with ALP or AMP,
   collecting disjoint alternative windows per job; jobs with no
   alternative are *postponed* to the next iteration.
2. **Constraint derivation**: the occupancy quota ``T*`` (eq. 2) and,
   for time minimization, the VO budget ``B*`` (eq. 3).
3. **Combination optimization** (:mod:`repro.core.optimize`): the
   backward-run DP picks one window per covered job.

The façade exists so that examples, the grid metascheduler, and the
experiment harness all run exactly the same pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.criteria import Criterion
from repro.core.errors import InfeasibleConstraintError
from repro.core.job import Batch, Job
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
from repro.core.window import Window
from repro.obs.spans import NOOP_SPAN
from repro.obs.telemetry import get_telemetry

__all__ = ["InfeasiblePolicy", "SchedulerConfig", "ScheduleOutcome", "BatchScheduler"]


class InfeasiblePolicy(enum.Enum):
    """What to do when the phase-2 DP has no feasible combination."""

    #: Propagate :class:`InfeasibleConstraintError` to the caller (the
    #: experiment harness drops such iterations, as the paper does).
    RAISE = "raise"
    #: Fall back to each job's earliest-found alternative.  Keeps a VO
    #: running when the eq. (2) quota is too tight for the current batch.
    EARLIEST = "earliest"


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of one scheduling pipeline.

    Attributes:
        algorithm: Phase-1 slot search algorithm (ALP or AMP).
        objective: Phase-2 criterion to minimize; the dual criterion is
            constrained (time → budget ``B*``, cost → quota ``T*``).
        rho: AMP budget-shrink factor ``S = ρ·C·t·N`` (Section 6).
        resolution: DP discretization bins.
        max_alternatives_per_job: Optional cap on phase-1 alternatives.
        infeasible_policy: Behaviour when the DP constraint cannot be met.

    The config holds no DP memo: every :class:`BatchScheduler` owns a
    private :class:`~repro.core.optimize.DPMemo`, so schedulers never
    share cache state.
    """

    algorithm: SlotSearchAlgorithm = SlotSearchAlgorithm.AMP
    objective: Criterion = Criterion.TIME
    rho: float = 1.0
    resolution: int = DEFAULT_RESOLUTION
    max_alternatives_per_job: int | None = None
    infeasible_policy: InfeasiblePolicy = InfeasiblePolicy.RAISE


@dataclass
class ScheduleOutcome:
    """Everything one scheduling iteration produced.

    Attributes:
        combination: The chosen window per covered job (empty when no job
            had alternatives).
        search: The raw phase-1 result (all alternatives, modified list).
        postponed: Jobs without any alternative — to be re-batched next
            iteration (Section 2).
        quota: The eq. (2) occupancy quota ``T*`` over covered jobs.
        budget: The eq. (3) VO budget ``B*`` (``None`` for cost
            minimization, where the quota itself is the constraint).
        used_fallback: ``True`` when the earliest-alternative fallback
            replaced an infeasible DP (see :class:`InfeasiblePolicy`).
    """

    combination: Combination
    search: SearchResult
    postponed: list[Job]
    quota: float
    budget: float | None
    used_fallback: bool = False

    @property
    def scheduled_jobs(self) -> dict[Job, Window]:
        """The committed job → window assignment."""
        return self.combination.selection


class BatchScheduler:
    """Runs the full two-phase economic scheduling scheme for one batch."""

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config or SchedulerConfig()
        self._dp_memo = DPMemo()

    @property
    def dp_memo(self) -> DPMemo:
        """This scheduler's private DP memo."""
        return self._dp_memo

    def schedule(self, slot_list: SlotList, batch: Batch) -> ScheduleOutcome:
        """Schedule ``batch`` against the vacant ``slot_list``.

        The input slot list is not modified; committed assignments live in
        the outcome's combination, and the slots left over after *all*
        alternatives were carved out are in ``outcome.search.remaining_slots``.

        Raises:
            InfeasibleConstraintError: Only under
                :attr:`InfeasiblePolicy.RAISE` when no combination fits
                the derived constraint.
        """
        config = self.config
        telemetry = get_telemetry()
        if telemetry.enabled:
            schedule_span = telemetry.span(
                "scheduler.schedule",
                algo=config.algorithm.value,
                objective=config.objective.value,
                jobs=len(batch),
                slots=len(slot_list),
            )
        else:
            schedule_span = NOOP_SPAN
        with schedule_span:
            search = find_alternatives(
                slot_list,
                batch,
                config.algorithm,
                rho=config.rho,
                max_alternatives_per_job=config.max_alternatives_per_job,
            )
            postponed = search.jobs_without_alternatives()
            covered = {
                job: windows for job, windows in search.alternatives.items() if windows
            }
            if telemetry.enabled:
                telemetry.count("scheduler.batches")
                telemetry.count("scheduler.jobs_submitted", len(batch))
                telemetry.count("scheduler.jobs_postponed", len(postponed))
            if not covered:
                empty = Combination({}, 0.0, 0.0, config.objective, 0.0)
                return ScheduleOutcome(empty, search, postponed, quota=0.0, budget=None)

            quota = time_quota(covered)
            budget: float | None = None
            used_fallback = False
            try:
                if config.objective is Criterion.TIME:
                    budget = vo_budget(
                        covered,
                        quota,
                        resolution=config.resolution,
                        memo=self._dp_memo,
                    )
                    combination = minimize_time(
                        covered,
                        budget,
                        resolution=config.resolution,
                        memo=self._dp_memo,
                    )
                else:
                    combination = minimize_cost(
                        covered,
                        quota,
                        resolution=config.resolution,
                        memo=self._dp_memo,
                    )
            except InfeasibleConstraintError:
                if config.infeasible_policy is InfeasiblePolicy.RAISE:
                    raise
                limit = budget if budget is not None else quota
                # Each job takes its first-found (earliest) window.
                earliest = {job: windows[0] for job, windows in covered.items()}
                combination = Combination.of(earliest, config.objective, limit)
                used_fallback = True
                if telemetry.enabled:
                    telemetry.count("scheduler.fallbacks")
                    if telemetry.decisions.enabled:
                        telemetry.decisions.emit(
                            "scheduler.fallback",
                            objective=config.objective.value,
                            limit=limit,
                        )
            if telemetry.enabled:
                telemetry.count("scheduler.jobs_scheduled", len(combination.selection))
            return ScheduleOutcome(
                combination=combination,
                search=search,
                postponed=postponed,
                quota=quota,
                budget=budget,
                used_fallback=used_fallback,
            )
