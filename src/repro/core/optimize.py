"""Phase-2 combination optimization — the backward-run dynamic programming.

Given the per-job alternative windows produced by the phase-1 search,
phase 2 chooses one window per job so that a batch criterion is optimal
under a resource constraint (paper Section 2, functional equation (1)):

    f_i(Z_i) = extr { g_i(s̄_i) + f_{i+1}(Z_i − z_i(s̄_i)) },
    f_{n+1} ≡ 0,

where ``g`` is the optimized measure (time or cost) and ``z`` the
constrained one (cost under the VO budget ``B*``, or time under the
occupancy quota ``T*``).  Because phase 1 guarantees that alternatives of
different jobs never intersect, *any* selection of one window per job is
realisable, and the problem is a multiple-choice knapsack solved exactly
(up to constraint discretization) by the backward run below.

The module also implements the constraint-generation formulas:

* :func:`time_quota` — eq. (2): ``T* = Σ_i ⌊Σ_s t_i(s̄_i) / l_i⌋`` (one
  floor per job, applied to the mean alternative time);
* :func:`vo_budget` — eq. (3): ``B*`` is the maximal owner income under
  the quota ``T*`` (the same DP run with ``extr = max``).

The constrained quantity is discretized into ``resolution`` integer bins
with *floor* rounding.  This guarantees that a truly feasible
combination is **never** rejected (no spurious infeasibility — crucial
because ``B*`` itself is defined as an attained income, so the Fig. 4
pipeline must always be feasible); the price is a bounded overshoot: a
combination reported feasible satisfies
``Σz <= limit · (1 + n / resolution)`` where ``n`` is the number of
jobs.  With integer inputs, an integer limit, and ``resolution >= limit``
the DP is exact.  A brute-force reference solver is provided for
testing.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.criteria import Criterion
from repro.core.errors import InfeasibleConstraintError, OptimizationError
from repro.core.job import Job
from repro.core.window import Window
from repro.obs.spans import NOOP_SPAN
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = [
    "Combination",
    "DPMemo",
    "time_quota",
    "vo_budget",
    "minimize_time",
    "minimize_cost",
    "optimize",
    "brute_force",
    "DEFAULT_RESOLUTION",
]

#: Default number of discretization bins for the constrained axis.  With
#: batches of at most ~10 jobs the worst-case relative constraint error is
#: ``n / resolution`` — under 1 % at the default.
DEFAULT_RESOLUTION: int = 2000


@dataclass(frozen=True)
class Combination:
    """A chosen slot combination ``s̄ = (s̄_1, ..., s̄_n)`` with its measures.

    Attributes:
        selection: The chosen window for every job.
        total_cost: ``C(s̄)`` in exact (undiscretized) arithmetic.
        total_time: ``T(s̄)`` in exact arithmetic.
        objective: Which criterion was minimized.
        limit: The constraint value the DP ran under.
    """

    selection: dict[Job, Window]
    total_cost: float
    total_time: float
    objective: Criterion
    limit: float

    @classmethod
    def of(
        cls,
        selection: dict[Job, Window],
        objective: Criterion,
        limit: float,
    ) -> "Combination":
        """A combination with exact totals summed over ``selection``."""
        return cls(
            selection=selection,
            total_cost=sum(window.cost for window in selection.values()),
            total_time=sum(window.length for window in selection.values()),
            objective=objective,
            limit=limit,
        )

    @property
    def mean_job_time(self) -> float:
        """Average job execution time of the combination (Fig. 4a / 6b)."""
        if not self.selection:
            return 0.0
        return self.total_time / len(self.selection)

    @property
    def mean_job_cost(self) -> float:
        """Average job execution cost of the combination (Fig. 4b / 6a)."""
        if not self.selection:
            return 0.0
        return self.total_cost / len(self.selection)


def _as_job_lists(
    alternatives: Mapping[Job, Sequence[Window]],
) -> tuple[list[Job], list[list[Window]]]:
    """Validate and normalise the alternatives mapping.

    Raises:
        OptimizationError: If some job has no alternatives — such jobs
            must be postponed *before* phase 2 (paper Section 2).
    """
    jobs = list(alternatives)
    lists: list[list[Window]] = []
    for job in jobs:
        windows = list(alternatives[job])
        if not windows:
            raise OptimizationError(
                f"job {job.name!r} has no alternatives; postpone it before optimizing"
            )
        lists.append(windows)
    return jobs, lists


def time_quota(alternatives: Mapping[Job, Sequence[Window]]) -> float:
    """The slot-occupancy quota ``T*`` of eq. (2).

    ``T* = Σ_i ⌊ Σ_{s̄_i} t_i(s̄_i) / l_i ⌋`` where ``l_i`` is the number
    of admissible slot sets of job ``i``: per job, the *floor of the mean*
    alternative execution time.  The quota balances the global job flow
    against owners' local jobs: a batch may not occupy much more time than
    an "average" choice of alternatives would.

    The floor is applied once per job, to the mean — not to every
    ``t/l`` term.  Flooring inside the sum (``Σ⌊t/l⌋``) collapses to 0
    whenever all of a job's alternatives are shorter than their count
    (three windows of length 1 would yield quota 0 instead of ⌊mean⌋ = 1)
    and undershoots the mean by up to ``l - 1`` otherwise, making ``T*``
    infeasibly tight for batches whose durations ``l`` does not divide.
    """
    _, lists = _as_job_lists(alternatives)
    quota = 0
    for windows in lists:
        quota += math.floor(sum(window.length for window in windows) / len(windows))
    return float(quota)


def _discretize(values: list[float], limit: float, resolution: int) -> tuple[list[int], int]:
    """Map constraint values onto integer bins with floor rounding.

    Returns the per-value bin weights and the bin capacity.  Floor
    rounding guarantees that any truly feasible selection stays
    DP-feasible (``Σ⌊z/unit⌋ <= ⌊Σz/unit⌋ <= capacity``); a DP-feasible
    selection may overshoot the limit by at most one unit per job, i.e.
    ``limit · n / resolution`` in total (see module docstring).
    """
    if limit < 0:
        raise InfeasibleConstraintError(
            f"constraint limit must be non-negative, got {limit!r}", limit=limit
        )
    if resolution < 1:
        raise OptimizationError(f"resolution must be >= 1, got {resolution!r}")
    if limit == 0:
        unit = 1.0
    else:
        unit = limit / resolution
    weights = [max(0, math.floor(value / unit + 1e-9)) for value in values]
    capacity = resolution if limit > 0 else 0
    return weights, capacity


def _undominated(
    job_g: list[float], job_z: list[int], capacity: int, *, maximize: bool
) -> list[int]:
    """Indices of one job's alternatives that the backward run can choose.

    Alternative ``b`` is dropped when some earlier ``a < b`` has
    ``z_a <= z_b`` and a ``g_a`` at least as good (``<=`` when
    minimizing, ``>=`` when maximizing); :func:`_backward_run` shows it
    never wins a column.  Alternatives heavier than ``capacity`` fit no
    column and are dropped too.  Comparing against the kept indices
    alone suffices: dominance is transitive, so a dropped dominator's own
    dominator is kept and dominates as well.
    """
    kept: list[int] = []
    for alt, (g, z) in enumerate(zip(job_g, job_z)):
        if z > capacity:
            continue
        for a in kept:
            if job_z[a] <= z and (job_g[a] >= g if maximize else job_g[a] <= g):
                break
        else:
            kept.append(alt)
    return kept


def _backward_run(
    g_values: list[list[float]],
    z_weights: list[list[int]],
    kept: list[list[int]],
    capacity: int,
    *,
    maximize: bool,
) -> tuple[list[int], float] | None:
    """Solve the multiple-choice knapsack by the paper's backward run.

    ``f_i(b)`` is the extremal total of ``g`` over jobs ``i..n`` when bins
    ``b`` of the constraint remain; the recurrence is eq. (1).  Each job
    folds its ``kept`` alternatives (from :func:`_undominated`), in index
    order, into one ``best`` vector over the constraint axis: a candidate
    ``g + f_{i+1}(b − z)`` overwrites column ``b`` only where it is
    strictly better, and ``choice`` records its index there.

    This is exactly the extremum over *all* alternatives with the
    first-index tie rule of ``argmin`` / ``argmax``:

    * ``f_{i+1}`` is monotone in the remaining bins (non-increasing when
      minimizing, non-decreasing when maximizing): ``f_{n+1} ≡ 0``, and a
      larger ``b`` admits more alternatives, each over a monotone
      ``f_{i+2}``.  IEEE-754 rounding of ``+`` is monotone, so this holds
      bit for bit.
    * If ``a < b`` with ``z_a <= z_b`` and ``g_a`` at least as good, then
      in every column ``b`` fills, ``g_a + f(b' − z_a)`` is at least as
      good as ``g_b + f(b' − z_b)``: a dropped alternative never beats its
      dominator, so the first index attaining the extremum is always kept.
    * A strict comparison in index order keeps the first index among
      ties, and a column no candidate improves keeps ``±inf`` and index 0,
      which is what ``argmin`` / ``argmax`` return on an all-``±inf``
      column.

    Returns:
        ``(chosen indices, extremal objective)`` or ``None`` when no
        selection fits the capacity.
    """
    bad = math.inf if not maximize else -math.inf
    better = np.greater if maximize else np.less
    spread = capacity + 1
    f_next = np.zeros(spread)
    choices: list[np.ndarray] = []
    for job_g, job_z, job_kept in zip(
        reversed(g_values), reversed(z_weights), reversed(kept)
    ):
        best = np.full(spread, bad)
        choice = np.zeros(spread, dtype=np.intp)
        for alt in job_kept:
            z = job_z[alt]
            candidate = job_g[alt] + f_next[: spread - z]
            improves = better(candidate, best[z:])
            np.copyto(best[z:], candidate, where=improves)
            np.copyto(choice[z:], alt, where=improves)
        choices.append(choice)
        f_next = best
    choices.reverse()
    if not math.isfinite(f_next[capacity]):
        return None
    # Forward reconstruction: Z_1 = Z*, Z_{i+1} = Z_i − z_i(s̄_i).
    selection: list[int] = []
    remaining = capacity
    for job_index, choice in enumerate(choices):
        alt = int(choice[remaining])
        selection.append(alt)
        remaining -= z_weights[job_index][alt]
    return selection, float(f_next[capacity])


#: Per-window reader of each criterion: :meth:`Criterion.of` without its
#: per-call dispatch, which phase 2 would pay on every alternative.
_READ: dict[Criterion, Callable[[Window], float]] = {
    Criterion.COST: attrgetter("cost"),
    Criterion.TIME: attrgetter("length"),
}


#: Memo key: extremum direction, bin capacity, and the per-job
#: ``(g row, z row)`` value pairs — everything :func:`_backward_run`
#: consumes, nothing else.
_DPKey = tuple[bool, int, tuple[tuple[tuple[float, ...], tuple[int, ...]], ...]]


class DPMemo:
    """Cross-cycle cache of backward-run DP results.

    The memo was added on the premise that consecutive metascheduler
    cycles re-pose phase 2 the *same* multiple-choice knapsack.
    Measured, they do not: it serves 0 hits on every perfbench workload
    (``series``, ``series-metrics``, ``vo-durable``) at both benchmark
    seeds, every lookup a miss.  Deleting it waits for the next change
    to the benchmark, because ``perfbench/workloads.py`` constructs a
    memo and reads :meth:`stats` (ROADMAP item 3).

    The memo keys each solved instance by the **values** the DP
    consumes — the extremum direction, the bin capacity, and the
    per-job ``(g, z)`` rows — so invalidation is automatic: any change
    to an alternative set, the limit, or the resolution produces a
    different key and misses.  Infeasible outcomes (``None``) are
    cached too.

    Entries are LRU-evicted beyond ``max_entries``.  Hits return a copy
    of the cached selection, so callers may mutate their result freely.
    To recompute every run, pass no memo (``memo=None``) to the phase-2
    entry points.

    Attributes:
        max_entries: LRU capacity (oldest entries evicted beyond it).
        hits: Number of lookups answered from the cache.
        misses: Number of lookups that ran the DP.
    """

    __slots__ = ("max_entries", "hits", "misses", "_entries")

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise OptimizationError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[_DPKey, tuple[list[int], float] | None] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached table and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Snapshot of the memo counters (benchmark/diagnostic view)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def backward_run(
        self,
        g_values: list[list[float]],
        z_weights: list[list[int]],
        kept: list[list[int]],
        capacity: int,
        *,
        maximize: bool,
        telemetry: Telemetry,
        label: str,
    ) -> tuple[list[int], float] | None:
        """:func:`_backward_run` through the cache (byte-identical results).

        A hit returns the cached outcome — the same selection indices and
        extremal value the DP produced when the instance was first posed,
        so memo-on and memo-off runs are indistinguishable downstream.
        Hits and misses are counted on the memo and, when telemetry is
        enabled, on the ``dp.memo.hits`` / ``dp.memo.misses`` counters.
        """
        key: _DPKey = (
            maximize,
            capacity,
            tuple(
                (tuple(job_g), tuple(job_z))
                for job_g, job_z in zip(g_values, z_weights)
            ),
        )
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            if telemetry.enabled:
                telemetry.count("dp.memo.hits", 1, objective=label)
            cached = entries[key]
            return None if cached is None else (list(cached[0]), cached[1])
        self.misses += 1
        if telemetry.enabled:
            telemetry.count("dp.memo.misses", 1, objective=label)
        solved = _backward_run(g_values, z_weights, kept, capacity, maximize=maximize)
        entries[key] = None if solved is None else (list(solved[0]), solved[1])
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
        return solved


def _solve(
    lists: list[list[Window]],
    measure: Criterion,
    limit: float,
    *,
    maximize: bool,
    label: str,
    resolution: int,
    memo: DPMemo | None,
) -> tuple[list[int], float]:
    """Phase 2's one driver: eq. (1) over ``measure`` under ``limit``.

    Chooses one window per job, extremizing ``measure`` (``max`` when
    ``maximize``) subject to ``Σ measure.dual <= limit``, with the
    constraint discretized into ``resolution`` bins.  The backward run
    goes through ``memo`` when one is given.  ``label`` tags the
    ``dp.*`` metrics and decision records.

    Returns:
        ``(chosen alternative index per job, extremal measure total)``.

    Raises:
        InfeasibleConstraintError: When no selection fits the limit.
    """
    telemetry = get_telemetry()
    constrained = measure.dual
    value, weight = _READ[measure], _READ[constrained]
    g_values = [[value(window) for window in windows] for windows in lists]
    flat_z = [weight(window) for windows in lists for window in windows]
    weights_flat, capacity = _discretize(flat_z, limit, resolution)
    z_weights: list[list[int]] = []
    cursor = 0
    for windows in lists:
        z_weights.append(weights_flat[cursor : cursor + len(windows)])
        cursor += len(windows)
    kept = [
        _undominated(job_g, job_z, capacity, maximize=maximize)
        for job_g, job_z in zip(g_values, z_weights)
    ]
    if telemetry.enabled:
        # The run's size before it executes: ``dp.table_cells`` is the
        # number of ``f_i`` cells _backward_run folds, one row of
        # ``capacity + 1`` per undominated alternative.
        telemetry.count("dp.runs", 1, objective=label)
        telemetry.count(
            "dp.table_cells",
            sum(map(len, kept)) * (capacity + 1),
            objective=label,
        )
        telemetry.observe("dp.capacity", capacity, objective=label)
        telemetry.observe("dp.alternatives", len(flat_z), objective=label)
    began = time.perf_counter()
    if memo is None:
        solved = _backward_run(g_values, z_weights, kept, capacity, maximize=maximize)
    else:
        solved = memo.backward_run(
            g_values,
            z_weights,
            kept,
            capacity,
            maximize=maximize,
            telemetry=telemetry,
            label=label,
        )
    if telemetry.enabled:
        telemetry.observe(
            "phase.seconds", time.perf_counter() - began, phase="phase2.dp"
        )
    if solved is None:
        if telemetry.enabled:
            telemetry.count("dp.infeasible", 1, objective=label)
            if telemetry.decisions.enabled:
                telemetry.decisions.emit("dp.infeasible", objective=label, limit=limit)
        best = sum(min(map(weight, windows)) for windows in lists)
        raise InfeasibleConstraintError(
            f"no combination satisfies {constrained.value} <= {limit:g} "
            f"(the least possible is {best:g})",
            limit=limit,
            best=best,
        )
    return solved


def optimize(
    alternatives: Mapping[Job, Sequence[Window]],
    objective: Criterion,
    limit: float,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    memo: DPMemo | None = None,
) -> Combination:
    """Choose one window per job minimizing ``objective`` under ``limit``.

    The limit constrains the *dual* criterion: minimizing time runs under
    the VO budget ``B*``; minimizing cost runs under the quota ``T*``.

    The backward run goes through ``memo`` when one is supplied — see
    :class:`DPMemo`; a hit reproduces the memo-off outcome exactly.
    ``memo=None`` (the default) recomputes every run: cross-cycle reuse
    is an explicit opt-in owned by the caller (each
    :class:`~repro.core.scheduler.BatchScheduler` holds its own memo),
    never ambient process state.

    Raises:
        InfeasibleConstraintError: When no selection fits the limit.
        OptimizationError: When a job has no alternatives.
    """
    jobs, lists = _as_job_lists(alternatives)
    if not jobs:
        return Combination({}, 0.0, 0.0, objective, limit)
    telemetry = get_telemetry()
    if telemetry.enabled:
        phase_span = telemetry.span(
            "phase2.optimize", objective=objective.value, jobs=len(jobs)
        )
    else:
        phase_span = NOOP_SPAN
    with phase_span:
        chosen, _ = _solve(
            lists,
            objective,
            limit,
            maximize=False,
            label=objective.value,
            resolution=resolution,
            memo=memo,
        )
        selection = {
            job: windows[alt] for job, windows, alt in zip(jobs, lists, chosen)
        }
        if telemetry.enabled and telemetry.decisions.enabled:
            decisions = telemetry.decisions
            for (job, window), alt in zip(selection.items(), chosen):
                decisions.emit(
                    "dp.selected",
                    job=job.name,
                    objective=objective.value,
                    alternative=alt + 1,
                    start=window.start,
                    cost=window.cost,
                )
        return Combination.of(selection, objective, limit)


def vo_budget(
    alternatives: Mapping[Job, Sequence[Window]],
    quota: float | None = None,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    memo: DPMemo | None = None,
) -> float:
    """The VO budget ``B*`` of eq. (3).

    ``B*`` is the maximal total income of resource owners over all
    combinations whose total time fits the quota ``T*`` — the same
    backward run with ``extr = max`` and cost as the income function.

    Args:
        alternatives: Phase-1 output; every job must have alternatives.
        quota: The time quota ``T*``; computed by eq. (2) when omitted.
        memo: Optional DP memo for the backward run (``None``
            recomputes; see :class:`DPMemo`).

    Raises:
        InfeasibleConstraintError: When even the fastest combination
            exceeds the quota (the scheduling iteration is then dropped,
            matching the paper's experimental protocol).
    """
    jobs, lists = _as_job_lists(alternatives)
    if not jobs:
        return 0.0
    if quota is None:
        quota = time_quota(alternatives)
    telemetry = get_telemetry()
    if telemetry.enabled:
        phase_span = telemetry.span("phase2.vo_budget", jobs=len(jobs))
    else:
        phase_span = NOOP_SPAN
    with phase_span:
        _, income = _solve(
            lists,
            Criterion.COST,
            quota,
            maximize=True,
            label="budget",
            resolution=resolution,
            memo=memo,
        )
        return income


def minimize_time(
    alternatives: Mapping[Job, Sequence[Window]],
    budget_limit: float,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    memo: DPMemo | None = None,
) -> Combination:
    """``min T(s̄)`` subject to ``C(s̄) <= B*`` (the Fig. 4 experiment)."""
    return optimize(
        alternatives,
        Criterion.TIME,
        budget_limit,
        resolution=resolution,
        memo=memo,
    )


def minimize_cost(
    alternatives: Mapping[Job, Sequence[Window]],
    quota: float,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    memo: DPMemo | None = None,
) -> Combination:
    """``min C(s̄)`` subject to ``T(s̄) <= T*`` (the Fig. 6 experiment)."""
    return optimize(
        alternatives,
        Criterion.COST,
        quota,
        resolution=resolution,
        memo=memo,
    )


def brute_force(
    alternatives: Mapping[Job, Sequence[Window]],
    objective: Criterion,
    limit: float,
    *,
    max_combinations: int = 2_000_000,
) -> Combination | None:
    """Exact exhaustive reference solver (for tests and small instances).

    Enumerates every combination, returning the best feasible one or
    ``None`` when none fits the limit.

    Raises:
        OptimizationError: If the search space exceeds
            ``max_combinations`` or a job has no alternatives.
    """
    jobs, lists = _as_job_lists(alternatives)
    if not jobs:
        return Combination({}, 0.0, 0.0, objective, limit)
    space = math.prod(len(windows) for windows in lists)
    if space > max_combinations:
        raise OptimizationError(
            f"brute force over {space} combinations exceeds cap {max_combinations}"
        )
    constrained = objective.dual
    best: tuple[float, tuple[Window, ...]] | None = None
    for combo in itertools.product(*lists):
        z_total = sum(constrained.of(window) for window in combo)
        if z_total > limit + 1e-9:
            continue
        g_total = sum(objective.of(window) for window in combo)
        if best is None or g_total < best[0]:
            best = (g_total, combo)
    if best is None:
        return None
    return Combination.of(dict(zip(jobs, best[1])), objective, limit)
