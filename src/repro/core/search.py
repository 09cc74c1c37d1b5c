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


class SearchResult:
    """Outcome of one alternative-search phase for a whole batch.

    Attributes:
        alternatives: For every job of the batch, its alternative windows
            in discovery order (possibly empty).  A search stopped by
            ``stop_if_uncovered`` holds only the jobs it searched: the
            batch prefix ending at the first job left without a window.
        remaining_slots: The vacant-slot list after all subtractions.
            The indexed loop hands over its :class:`SlotIndex` (a copy of
            the input for an empty batch, which builds no index), and the
            list is materialised from it on first access only: the
            scheduling cycle itself never reads it.
        passes: Number of complete passes over the batch, including the
            final empty pass that stopped the search (1 for a search
            stopped by ``stop_if_uncovered``).
    """

    __slots__ = ("alternatives", "passes", "_remaining")

    def __init__(
        self,
        alternatives: dict[Job, list[Window]],
        remaining_slots: SlotList | SlotIndex,
        passes: int,
    ) -> None:
        self.alternatives = alternatives
        self.passes = passes
        self._remaining = remaining_slots

    @property
    def remaining_slots(self) -> SlotList:
        """The vacant-slot list after all subtractions (cached)."""
        if isinstance(self._remaining, SlotIndex):
            self._remaining = self._remaining.slot_list()
        return self._remaining

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
    max_alternatives_per_job: int | None = None,
    use_index: bool = True,
    stop_if_uncovered: bool = False,
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
        max_alternatives_per_job: Optional cap on alternatives collected
            per job; jobs at the cap are skipped in later passes.
        use_index: Run the ALP/AMP scans through the shared
            :class:`~repro.core.index.SlotIndex` (the default, and the
            production path).  ``False`` runs the naive reference scan
            instead — bit-for-bit the same windows, at ``O(m)`` per
            find.  Custom finder callables always run on the naive
            loop.  Enabled telemetry never changes the path.
        stop_if_uncovered: End the search at the first empty find of a
            job that has no window yet, for callers that only use a
            batch every job of which is covered (the Section 5
            filter).  An empty ALP/AMP find is final (docs/model.md), so
            that job stays uncovered whatever the rest of the search
            does; the stop can only happen in pass 1.  The result then
            holds the searched prefix of the batch, ``passes == 1`` and
            ``all_jobs_covered()`` is False; a covered batch gets the
            full search.  ALP and AMP only: the argument does not hold
            for an arbitrary finder.
    """
    if max_alternatives_per_job is not None and max_alternatives_per_job < 1:
        raise InvalidRequestError(
            f"max_alternatives_per_job must be >= 1, got {max_alternatives_per_job!r}"
        )
    is_builtin = isinstance(algorithm, SlotSearchAlgorithm)
    if stop_if_uncovered and not is_builtin:
        raise InvalidRequestError(
            "stop_if_uncovered needs SlotSearchAlgorithm.ALP or .AMP, "
            "not a custom WindowFinder"
        )
    telemetry = get_telemetry()
    if is_builtin:
        if use_index:
            return _find_alternatives_indexed(
                telemetry,
                slot_list,
                batch,
                algorithm,
                rho=rho,
                max_alternatives_per_job=max_alternatives_per_job,
                stop_if_uncovered=stop_if_uncovered,
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
        max_alternatives_per_job=max_alternatives_per_job,
        stop_if_uncovered=stop_if_uncovered,
    )


def _searched_prefix(
    alternatives: dict[Job, list[Window]], last: Job
) -> dict[Job, list[Window]]:
    """The jobs a stopped search reached: the batch up to ``last``."""
    prefix: dict[Job, list[Window]] = {}
    for job, windows in alternatives.items():
        prefix[job] = windows
        if job == last:
            break
    return prefix


def _flush_batch_metrics(
    telemetry: Telemetry, result: SearchResult, algo_label: str, stopped: bool
) -> None:
    """Batch-level search counters shared by both loops."""
    if not telemetry.enabled:
        return
    telemetry.count("search.batches", 1, algo=algo_label)
    if stopped:
        telemetry.count("search.stopped_uncovered", 1, algo=algo_label)
    telemetry.count("search.passes", result.passes, algo=algo_label)
    telemetry.count(
        "search.windows_collected", result.total_alternatives, algo=algo_label
    )
    telemetry.count(
        "search.jobs_uncovered",
        len(result.jobs_without_alternatives()),
        algo=algo_label,
    )
    if result.alternatives:
        telemetry.registry.histogram(
            "search.alternatives_per_job", algo=algo_label
        ).observe_many([len(windows) for windows in result.alternatives.values()])


#: One find of the indexed loop, as :func:`_flush_find_trail` replays it:
#: job, search pass, the accepted window (``None`` for an empty find), its
#: alternative number (0 for an empty find), and the finder's
#: ``last_scanned`` / ``last_hint_skips`` / ``last_runtime_skips``.
_FindRow = tuple[Job, int, Window | None, int, int, int, int]


def _flush_find_trail(
    telemetry: Telemetry,
    trail: list[_FindRow],
    algo_label: str,
    scan_seconds: float,
    subtract_seconds: float,
) -> None:
    """Turn the indexed loop's per-find rows into metrics and records.

    The counters, the ``search.scan_depth`` histogram and the two
    phase timings, then (with decision logging on) one record per find
    in find order, emitted exactly as a per-find emit would have.
    """
    if not telemetry.enabled:
        return
    _, _, _, numbers, scanned, hint_skips, runtime_skips = (
        zip(*trail) if trail else ((),) * 7
    )
    telemetry.count("search.slots_scanned", sum(scanned), algo=algo_label)
    telemetry.count("search.windows_missed", numbers.count(0), algo=algo_label)
    telemetry.registry.histogram("search.scan_depth", algo=algo_label).observe_many(
        scanned
    )
    telemetry.count("search.hint_skips", sum(hint_skips), algo=algo_label)
    telemetry.count("search.hint_runtime_skips", sum(runtime_skips), algo=algo_label)
    telemetry.observe("phase.seconds", scan_seconds, phase="phase1.scan")
    telemetry.observe("phase.seconds", subtract_seconds, phase="phase1.subtract")
    decisions = telemetry.decisions
    if decisions.enabled:
        for job, search_pass, window, number, depth, hints, runtime in trail:
            if window is None:
                decisions.emit(
                    "index.no_window",
                    job=job.name,
                    search_pass=search_pass,
                    scanned=depth,
                    hint_skips=hints,
                    hint_runtime_skips=runtime,
                )
            else:
                decisions.emit(
                    "search.alternative_accepted",
                    job=job.name,
                    alternative=number,
                    search_pass=search_pass,
                    start=window.start,
                    cost=window.cost,
                    scanned=depth,
                    hint_skips=hints,
                    hint_runtime_skips=runtime,
                )


def _find_alternatives_naive(
    telemetry: Telemetry,
    slot_list: SlotList,
    batch: Batch,
    finder: WindowFinder,
    algo_label: str,
    *,
    max_alternatives_per_job: int | None,
    stop_if_uncovered: bool,
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
        stopped = False
        passes = 0
        while not stopped:
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
                    if stop_if_uncovered and not windows:
                        stopped = True
                        alternatives = _searched_prefix(alternatives, job)
                        break
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
        _flush_batch_metrics(telemetry, result, algo_label, stopped)
    return result


def _find_alternatives_indexed(
    telemetry: Telemetry,
    slot_list: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm,
    *,
    rho: float,
    max_alternatives_per_job: int | None,
    stop_if_uncovered: bool,
) -> SearchResult:
    """The multi-pass scheme over a shared :class:`SlotIndex`.

    Window-for-window equivalent to :func:`_find_alternatives_naive`:
    the index replays the same scans over primitive rows, subtraction is
    incremental, and per-job ``start_hint`` values exploit the
    monotonicity of window starts across passes (slot subtraction only
    removes vacant time, so a job's next window can never start before
    its previous one).  For the same reason a job whose find comes back
    empty is not searched again; with ``stop_if_uncovered``, one that has
    no window yet ends the search.  An empty batch builds no index.

    Telemetry is an observer that never feeds back into the search.
    With it on, each find appends one row to a per-batch ``trail`` (the
    job, pass, window, alternative number, and the scan counts the
    finders record on every call anyway: :attr:`SlotIndex.last_scanned`
    and both start-hint prune tiers, :attr:`~SlotIndex.last_hint_skips`
    and :attr:`~SlotIndex.last_runtime_skips`), and each commit is
    timed.  :func:`_flush_find_trail` turns the trail into the per-find
    counters, the scan-depth histogram, the phase timings and the
    decision records once per batch, in a ``finally`` so a search that
    raises still reports the finds it made.  ``phase1.scan`` is the
    loop's time minus the commits' time.  With telemetry off, the loop
    pays one ``None`` check per find.
    """
    enabled = telemetry.enabled
    algo_label = algorithm.value
    trail: list[_FindRow] | None = [] if enabled else None
    subtract_seconds = 0.0
    with telemetry.span(
        "phase1.find_alternatives", algo=algo_label, jobs=len(batch), indexed=True
    ):
        remaining: SlotList | SlotIndex
        if batch:
            index = remaining = SlotIndex(slot_list)
        else:
            # One pass over no job ends the search and never reads
            # ``index``: build none, and hand over a plain copy.
            remaining = slot_list.copy()
        is_amp = algorithm is SlotSearchAlgorithm.AMP
        budgets = (
            {job: job.request.scaled_budget(rho) for job in batch} if is_amp else {}
        )
        hints: dict[Job, float] = {job: NEG_INF for job in batch}
        alternatives: dict[Job, list[Window]] = {job: [] for job in batch}
        # A job whose find comes back empty is retired for the rest of
        # this batch search, under either algorithm, because later passes
        # only *subtract* vacant time.  Write C(t) for the candidates at
        # time t: rows with start <= t and end - t >= runtime.  A fragment
        # covers [t, t + runtime) only if its source row does, and it
        # keeps the source's uid, price and runtime, hence its cost.  Two
        # fragments of one row never overlap in time, so fragment ->
        # source is injective on C(t).  After a subtraction, then, every
        # C(t) holds no more candidates than before, which settles ALP's
        # count test, and each of its N cheapest costs is >= what it was;
        # IEEE + is monotone, so AMP's cheapest N-sum is >= too.  The
        # failed scan covered every event t >= hint; a non-event time has
        # a subset of the candidates of the latest event before it, and
        # times below the hint are infeasible by the start-hint
        # invariant.  So the new row starts that subtraction mints never
        # let a later find succeed (docs/model.md, "An empty find is
        # final").
        exhausted: set[Job] = set()
        stopped = False
        passes = 0
        loop_began = perf_counter() if enabled else 0.0
        try:
            while not stopped:
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
                    if is_amp:
                        found = index.find_amp_window_at(
                            job.request, budget=budgets[job], start_hint=hints[job]
                        )
                    else:
                        alp_window = index.find_alp_window(
                            job.request, start_hint=hints[job]
                        )
                        found = (
                            None if alp_window is None else (alp_window, alp_window.start)
                        )
                    if found is None:
                        exhausted.add(job)
                        if trail is not None:
                            trail.append(
                                (
                                    job,
                                    passes,
                                    None,
                                    0,
                                    index.last_scanned,
                                    index.last_hint_skips,
                                    index.last_runtime_skips,
                                )
                            )
                        if stop_if_uncovered and not windows:
                            stopped = True
                            alternatives = _searched_prefix(alternatives, job)
                            break
                        continue
                    window, event_time = found
                    if trail is None:
                        index.commit(window)
                    else:
                        began = perf_counter()
                        index.commit(window)
                        subtract_seconds += perf_counter() - began
                        # ``commit`` leaves the ``last_*`` counts alone.
                        trail.append(
                            (
                                job,
                                passes,
                                window,
                                len(windows) + 1,
                                index.last_scanned,
                                index.last_hint_skips,
                                index.last_runtime_skips,
                            )
                        )
                    hints[job] = event_time
                    windows.append(window)
                    found_any = True
                if not found_any:
                    break
        finally:
            if trail is not None:
                _flush_find_trail(
                    telemetry,
                    trail,
                    algo_label,
                    perf_counter() - loop_began - subtract_seconds,
                    subtract_seconds,
                )
        result = SearchResult(
            alternatives=alternatives, remaining_slots=remaining, passes=passes
        )
        _flush_batch_metrics(telemetry, result, algo_label, stopped)
    return result
