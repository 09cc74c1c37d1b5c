"""Multi-pass search for alternative slot sets (paper Section 2).

One scheduling iteration must supply *several* execution alternatives per
job so that the phase-2 optimizer has something to choose between.  The
scheme is:

* walk the batch in priority order; for each job, find one window with
  the configured algorithm (ALP or AMP);
* on success, *subtract* the window's occupied spans from the vacant-slot
  list, so that later alternatives — of this job and of every other job —
  never intersect it in processor time;
* after the last job, start over from the first job on the modified
  list; stop when a full pass over the batch finds no window for any
  job.

Because every found window removes a positive amount of vacant processor
time, the scheme always terminates.  The resulting alternatives are
mutually disjoint, so *any* combination choosing one window per job is
simultaneously realisable — the property the phase-2 dynamic programming
relies on.

Two implementations of the scheme live here.  The **indexed loop**
(:class:`~repro.core.index.SlotIndex`: column storage, survivor memos,
incremental subtraction, monotone start hints) is the only production
path for ALP/AMP.  The **naive loop** rescans a plain
:class:`~repro.core.slot.SlotList` through :func:`repro.core.alp.find_window`
/ :func:`repro.core.amp.find_window` for every window; it is the
executable specification the differential oracles hold the indexed loop
to, and the loop custom :data:`WindowFinder` callables run on.
Telemetry never chooses between them: it attaches to whichever loop runs
as observers guarded by ``enabled``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Mapping

from repro.core import alp, amp
from repro.core.errors import InvalidRequestError
from repro.core.index import NEG_INF, SlotIndex
from repro.core.job import Batch, Job, ResourceRequest
from repro.core.slot import SlotList
from repro.core.window import Window
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = [
    "SlotSearchAlgorithm",
    "SearchResult",
    "find_alternatives",
    "WindowFinder",
]

#: Signature of a pluggable single-window search: takes the current slot
#: list and a request, returns a window or ``None``.
WindowFinder = Callable[[SlotList, ResourceRequest], "Window | None"]


class SlotSearchAlgorithm(enum.Enum):
    """The two slot-search algorithms proposed by the paper."""

    ALP = "alp"
    AMP = "amp"

    def finder(self, *, rho: float = 1.0) -> WindowFinder:
        """A :data:`WindowFinder` for this algorithm.

        Args:
            rho: Budget-shrink factor of the Section 6 extension
                (``S = ρ · C · t · N``).  Only meaningful for AMP; ALP
                ignores it because its price cap is per-slot.
        """
        if self is SlotSearchAlgorithm.ALP:
            return lambda slots, request: alp.find_window(slots, request)
        return lambda slots, request: amp.find_window(
            slots, request, budget=request.scaled_budget(rho)
        )


@dataclass
class SearchResult:
    """Outcome of one alternative-search phase for a whole batch.

    Attributes:
        alternatives: For every job of the batch, its alternative windows
            in discovery order (possibly empty).
        remaining_slots: The vacant-slot list after all subtractions.
        passes: Number of complete passes over the batch, including the
            final empty pass that stopped the search.
    """

    alternatives: dict[Job, list[Window]]
    remaining_slots: SlotList
    passes: int

    @property
    def total_alternatives(self) -> int:
        """Total number of windows found across the whole batch."""
        return sum(len(windows) for windows in self.alternatives.values())

    @property
    def mean_alternatives_per_job(self) -> float:
        """Average number of alternatives per job (paper's ~7.39 vs ~34.28)."""
        if not self.alternatives:
            return 0.0
        return self.total_alternatives / len(self.alternatives)

    def jobs_without_alternatives(self) -> list[Job]:
        """Jobs whose scheduling must be postponed to the next iteration."""
        return [job for job, windows in self.alternatives.items() if not windows]

    def all_jobs_covered(self) -> bool:
        """Whether every job of the batch has at least one alternative.

        The paper's simulation study only counts experiments where this
        holds for the algorithms being compared.
        """
        return all(self.alternatives.values())

    def counts_by_job(self) -> Mapping[str, int]:
        """Alternative counts keyed by job name (diagnostic view)."""
        return {job.name: len(windows) for job, windows in self.alternatives.items()}


def find_alternatives(
    slot_list: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm | WindowFinder = SlotSearchAlgorithm.AMP,
    *,
    rho: float = 1.0,
    max_passes: int | None = None,
    max_alternatives_per_job: int | None = None,
    use_index: bool = True,
) -> SearchResult:
    """Find alternative windows for every job of ``batch``.

    Args:
        slot_list: Vacant slots of the current scheduling iteration.  The
            input list is left untouched; the search works on a copy.
        batch: Jobs in priority order.
        algorithm: One of :class:`SlotSearchAlgorithm`, or any custom
            :data:`WindowFinder` callable (used by the baselines and by
            ablation experiments).
        rho: AMP budget-shrink factor (Section 6 extension).
        max_passes: Optional safety cap on batch passes; ``None`` runs
            until a pass finds nothing (the paper's stopping rule).
        max_alternatives_per_job: Optional cap on alternatives collected
            per job; jobs at the cap are skipped in later passes.
        use_index: Run the ALP/AMP scans through the shared
            :class:`~repro.core.index.SlotIndex` (the default, and the
            production path).  ``False`` runs the naive reference scan
            instead — bit-for-bit the same windows, at ``O(m)`` per
            find.  Custom finder callables always run on the naive
            loop.  Enabled telemetry never changes the path.
    """
    if max_passes is not None and max_passes < 1:
        raise InvalidRequestError(f"max_passes must be >= 1, got {max_passes!r}")
    if max_alternatives_per_job is not None and max_alternatives_per_job < 1:
        raise InvalidRequestError(
            f"max_alternatives_per_job must be >= 1, got {max_alternatives_per_job!r}"
        )
    telemetry = get_telemetry()
    if isinstance(algorithm, SlotSearchAlgorithm):
        if use_index:
            return _find_alternatives_indexed(
                telemetry,
                slot_list,
                batch,
                algorithm,
                rho=rho,
                max_passes=max_passes,
                max_alternatives_per_job=max_alternatives_per_job,
            )
        finder, algo_label = algorithm.finder(rho=rho), algorithm.value
    else:
        finder, algo_label = algorithm, "custom"
    return _find_alternatives_naive(
        telemetry,
        slot_list,
        batch,
        finder,
        algo_label,
        max_passes=max_passes,
        max_alternatives_per_job=max_alternatives_per_job,
    )


def _flush_batch_metrics(
    telemetry: Telemetry, result: SearchResult, algo_label: str
) -> None:
    """Batch-level search counters shared by both loops."""
    if not telemetry.enabled:
        return
    telemetry.count("search.batches", 1, algo=algo_label)
    telemetry.count("search.passes", result.passes, algo=algo_label)
    telemetry.count(
        "search.windows_collected", result.total_alternatives, algo=algo_label
    )
    telemetry.count(
        "search.jobs_uncovered",
        len(result.jobs_without_alternatives()),
        algo=algo_label,
    )
    for windows in result.alternatives.values():
        telemetry.observe("search.alternatives_per_job", len(windows), algo=algo_label)


def _find_alternatives_naive(
    telemetry: Telemetry,
    slot_list: SlotList,
    batch: Batch,
    finder: WindowFinder,
    algo_label: str,
    *,
    max_passes: int | None,
    max_alternatives_per_job: int | None,
) -> SearchResult:
    """The reference multi-pass loop: the executable specification.

    Every find rescans the whole working list through ``finder`` and
    every accepted window is subtracted from a plain :class:`SlotList`.
    Telemetry observes it at batch granularity only: the phase-1 span
    and the batch counters.
    """
    with telemetry.span("phase1.find_alternatives", algo=algo_label, jobs=len(batch)):
        working = slot_list.copy()
        alternatives: dict[Job, list[Window]] = {job: [] for job in batch}
        passes = 0
        while max_passes is None or passes < max_passes:
            passes += 1
            found_any = False
            for job in batch:
                windows = alternatives[job]
                if (
                    max_alternatives_per_job is not None
                    and len(windows) >= max_alternatives_per_job
                ):
                    continue
                window = finder(working, job.request)
                if window is None:
                    continue
                for resource, start, end in window.occupied_spans():
                    working.subtract(resource, start, end)
                windows.append(window)
                found_any = True
            if not found_any:
                break
        result = SearchResult(
            alternatives=alternatives, remaining_slots=working, passes=passes
        )
        _flush_batch_metrics(telemetry, result, algo_label)
    return result


def _find_alternatives_indexed(
    telemetry: Telemetry,
    slot_list: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm,
    *,
    rho: float,
    max_passes: int | None,
    max_alternatives_per_job: int | None,
) -> SearchResult:
    """The multi-pass scheme over a shared :class:`SlotIndex`.

    Window-for-window equivalent to :func:`_find_alternatives_naive`:
    the index replays the same scans over primitive rows, subtraction is
    incremental, and per-job ``start_hint`` values exploit the
    monotonicity of window starts across passes (slot subtraction only
    removes vacant time, so a job's next window can never start before
    its previous one).

    Telemetry attaches as observers behind ``enabled`` checks, none of
    which feeds back into the search: the phase-1 span, the scan and
    subtract phase timers, the per-find scan counters (from
    :attr:`SlotIndex.last_scanned`), the batch counters, and — with
    decision logging on — one record per find carrying both start-hint
    prune tiers (the extra ``O(m)``
    :meth:`~repro.core.index.SlotIndex.hint_prunes` count is only paid
    then).
    """
    enabled = telemetry.enabled
    decisions = telemetry.decisions
    record_decisions = enabled and decisions.enabled
    algo_label = algorithm.value
    scan_seconds = 0.0
    subtract_seconds = 0.0
    began = 0.0
    depths: list[int] = []
    hint_skips = 0
    runtime_skips = 0
    skipped = 0
    runtime_skipped = 0
    with telemetry.span(
        "phase1.find_alternatives", algo=algo_label, jobs=len(batch), indexed=True
    ):
        index = SlotIndex(slot_list)
        is_amp = algorithm is SlotSearchAlgorithm.AMP
        budgets = (
            {job: job.request.scaled_budget(rho) for job in batch} if is_amp else {}
        )
        hints: dict[Job, float] = {job: NEG_INF for job in batch}
        alternatives: dict[Job, list[Window]] = {job: [] for job in batch}
        # ALP-only: once a job's search comes back empty it stays empty for
        # the rest of this batch search — later passes only *subtract*
        # vacant time, and an ALP window over fragments maps
        # candidate-for-candidate onto the containing rows of any earlier
        # state, so a window appearing later would have been found now.
        # AMP is excluded: its budget test fires only at row-start events
        # >= the hint, and subtraction mints new row starts (fragment
        # boundaries), so an AMP failure is not stable under further
        # subtraction.
        exhausted: set[Job] = set()
        passes = 0
        while max_passes is None or passes < max_passes:
            passes += 1
            found_any = False
            for job in batch:
                if job in exhausted:
                    continue
                windows = alternatives[job]
                if (
                    max_alternatives_per_job is not None
                    and len(windows) >= max_alternatives_per_job
                ):
                    continue
                if record_decisions:
                    skipped, runtime_skipped = index.hint_prunes(
                        job.request, start_hint=hints[job], check_price=not is_amp
                    )
                    hint_skips += skipped
                    runtime_skips += runtime_skipped
                if enabled:
                    began = perf_counter()
                if is_amp:
                    found = index.find_amp_window_at(
                        job.request, budget=budgets[job], start_hint=hints[job]
                    )
                else:
                    alp_window = index.find_alp_window(
                        job.request, start_hint=hints[job]
                    )
                    found = None if alp_window is None else (alp_window, alp_window.start)
                if enabled:
                    scan_seconds += perf_counter() - began
                    depths.append(index.last_scanned)
                if found is None:
                    if not is_amp:
                        exhausted.add(job)
                    if record_decisions:
                        decisions.emit(
                            "index.no_window",
                            job=job.name,
                            search_pass=passes,
                            scanned=index.last_scanned,
                            hint_skips=skipped,
                            hint_runtime_skips=runtime_skipped,
                        )
                    continue
                window, event_time = found
                if enabled:
                    began = perf_counter()
                    index.commit(window)
                    subtract_seconds += perf_counter() - began
                else:
                    index.commit(window)
                hints[job] = event_time
                windows.append(window)
                found_any = True
                if record_decisions:
                    decisions.emit(
                        "search.alternative_accepted",
                        job=job.name,
                        alternative=len(windows),
                        search_pass=passes,
                        start=window.start,
                        cost=window.cost,
                        scanned=index.last_scanned,
                        hint_skips=skipped,
                        hint_runtime_skips=runtime_skipped,
                    )
            if not found_any:
                break
        result = SearchResult(
            alternatives=alternatives, remaining_slots=index.slot_list(), passes=passes
        )
        if enabled:
            _flush_batch_metrics(telemetry, result, algo_label)
            found_count = result.total_alternatives
            telemetry.count("search.slots_scanned", sum(depths), algo=algo_label)
            telemetry.count("search.windows_found", found_count, algo=algo_label)
            telemetry.count(
                "search.windows_missed", len(depths) - found_count, algo=algo_label
            )
            depth_histogram = telemetry.registry.histogram(
                "search.scan_depth", algo=algo_label
            )
            for depth in depths:
                depth_histogram.observe(depth)
            telemetry.count("search.hint_skips", hint_skips, algo=algo_label)
            telemetry.count("search.hint_runtime_skips", runtime_skips, algo=algo_label)
            telemetry.observe("phase.seconds", scan_seconds, phase="phase1.scan")
            telemetry.observe("phase.seconds", subtract_seconds, phase="phase1.subtract")
    return result
