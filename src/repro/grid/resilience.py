"""Fault injection and recovery — the Section 7 dynamics made first-class.

The paper schedules on **non-dedicated** resources: owners' local jobs
and hardware failures can reclaim nodes at any time, and the slot lists
the metascheduler sees are only ever a snapshot.  This module supplies
both halves of a failure model for the grid substrate:

* **Injection** — :class:`FailureGenerator` draws seeded per-node
  MTBF/MTTR outage streams (exponential up-time and repair-time draws,
  one independent hash-derived stream per node name), feeding
  :meth:`~repro.grid.events.SimulationDriver.add_outage` for
  event-driven runs and :func:`apply_slot_outages` for the statistical
  experiment engine.  Streams are keyed by *node name*, not object
  identity, so they are reproducible across processes — the property
  that keeps :class:`~repro.sim.experiment.ParallelRunner` shards
  byte-identical for any worker count.

* **Recovery** — :class:`RecoveryManager` retains each scheduled job's
  *unused* phase-1 alternatives (phase 1 deliberately finds many; the
  seed implementation threw them away after phase 2).  When an outage
  revokes a job's window, recovery tries, in order:

  1. **hot-swap**: revalidate the retained alternatives against current
     node occupancy and commit the best still-feasible window in the
     same event, respecting the job's ``C``/budget constraints;
  2. **re-search**: an immediate single-job ALP/AMP search over the
     current vacant slots;
  3. **resubmission** with bounded exponential backoff
     (:class:`RetryPolicy`), competing again at a later batch iteration.

  A per-job revocation budget caps the loop: a job revoked more often
  than the policy allows is rejected with a typed
  :class:`~repro.core.errors.RecoveryExhaustedError` recorded on its
  :class:`RecoveryEvent` — graceful degradation, never a livelock.

Every step is observable through :mod:`repro.obs` (see
``docs/observability.md``) and surfaced per tick in
:class:`~repro.grid.metascheduler.IterationReport`.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.errors import InvalidRequestError, RecoveryExhaustedError
from repro.core.index import SlotIndex
from repro.core.job import Job
from repro.core.search import SlotSearchAlgorithm
from repro.core.slot import Slot, SlotList
from repro.core.window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.environment import VOEnvironment

__all__ = [
    "FailureConfig",
    "FailureGenerator",
    "Outage",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryOutcome",
    "RetryPolicy",
    "apply_slot_outages",
    "derive_node_seed",
]


# --------------------------------------------------------------------- #
# Injection                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FailureConfig:
    """Parameters of the stochastic failure model.

    Attributes:
        mtbf: Mean time between failures per node (exponential up-time).
        mttr: Mean time to repair (exponential outage duration).
        seed: Master seed; per-node streams are hash-derived from it.
    """

    mtbf: float = 2000.0
    mttr: float = 200.0
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN slips past a bare `<= 0` (every NaN comparison is False),
        # then poisons the exponential draws downstream — check
        # finiteness explicitly.
        if not math.isfinite(self.mtbf) or self.mtbf <= 0:
            raise InvalidRequestError(
                f"mtbf must be positive and finite, got {self.mtbf!r}"
            )
        if not math.isfinite(self.mttr) or self.mttr <= 0:
            raise InvalidRequestError(
                f"mttr must be positive and finite, got {self.mttr!r}"
            )


@dataclass(frozen=True)
class Outage:
    """One node failure: down during ``[start, start + duration)``."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        """Repair time."""
        return self.start + self.duration


def derive_node_seed(master_seed: int, node_name: str, *, salt: int = 0) -> int:
    """Deterministic, order-independent per-node stream seed.

    Hash-derived (mirroring
    :func:`repro.sim.experiment.derive_iteration_seed`) so that every
    node gets a statistically independent outage stream that depends
    only on ``(master_seed, salt, node_name)`` — never on process
    identity, node construction order, or how much of the stream other
    nodes consumed.
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{salt}:{node_name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FailureGenerator:
    """Seeded per-node MTBF/MTTR outage streams."""

    def __init__(self, config: FailureConfig | None = None) -> None:
        self.config = config or FailureConfig()

    def stream(
        self, node_name: str, start: float, end: float, *, salt: int = 0
    ) -> Iterator[Outage]:
        """Yield the node's outages beginning inside ``[start, end)``.

        The stream is an alternating renewal process anchored at
        ``start``: up-times are exponential with mean ``mtbf``, repair
        times exponential with mean ``mttr``.  Outages never overlap
        (the next failure clock starts at the previous repair).  The
        draw sequence depends only on ``(seed, salt, node_name)`` and
        ``start``, so any caller regenerating the same span gets the
        same outages.
        """
        config = self.config
        rng = random.Random(derive_node_seed(config.seed, node_name, salt=salt))
        time = start + rng.expovariate(1.0 / config.mtbf)
        while time < end:
            duration = rng.expovariate(1.0 / config.mttr)
            if duration > 0.0:
                yield Outage(time, duration)
            time += duration + rng.expovariate(1.0 / config.mtbf)


def apply_slot_outages(
    slots: SlotList, config: FailureConfig, *, salt: int = 0
) -> SlotList:
    """Carve seeded per-node outages out of a vacant-slot list.

    The statistical experiment engine (:mod:`repro.sim.experiment`) has
    no occupancy schedules to fail — its iterations *are* slot lists —
    so failures are modelled at the source: every resource's outage
    stream over the list's horizon is subtracted from that resource's
    slots, exactly as a node-level outage would have removed the vacant
    time before publication.  Streams are keyed by resource *name*, so
    the result is a pure function of ``(slots, config, salt)`` and is
    identical across :class:`~repro.sim.experiment.ParallelRunner`
    worker processes.
    """
    if not len(slots):
        return slots.copy()
    horizon_start = min(slot.start for slot in slots)
    horizon_end = max(slot.end for slot in slots)
    generator = FailureGenerator(config)
    streams: dict[str, list[Outage]] = {}
    surviving = SlotList()
    for slot in slots:
        name = slot.resource.name
        outages = streams.get(name)
        if outages is None:
            outages = list(
                generator.stream(name, horizon_start, horizon_end, salt=salt)
            )
            streams[name] = outages
        for piece_start, piece_end in _subtract_outages(slot.start, slot.end, outages):
            surviving.insert(Slot(slot.resource, piece_start, piece_end, slot.price))
    return surviving


def _subtract_outages(
    start: float, end: float, outages: list[Outage]
) -> list[tuple[float, float]]:
    """The sub-spans of ``[start, end)`` untouched by ``outages``."""
    pieces: list[tuple[float, float]] = []
    cursor = start
    for outage in outages:
        if outage.end <= cursor:
            continue
        if outage.start >= end:
            break
        if outage.start > cursor:
            pieces.append((cursor, outage.start))
        cursor = outage.end
        if cursor >= end:
            break
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


# --------------------------------------------------------------------- #
# Recovery                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard recovery fights for one job.

    Attributes:
        max_revocations: Per-job revocation budget: a job revoked more
            than this many times is rejected (``None`` retries forever —
            hot-swap/re-search/backoff still make every attempt finite
            work, so there is no livelock either way).
        backoff_base: Resubmission delay after the first revocation that
            could not be recovered in place; ``0`` re-queues immediately
            (the legacy behaviour).
        backoff_factor: Multiplier applied per further revocation.
        backoff_cap: Upper bound on the resubmission delay.
    """

    max_revocations: int | None = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_revocations is not None and self.max_revocations < 0:
            raise InvalidRequestError(
                f"max_revocations must be >= 0, got {self.max_revocations!r}"
            )
        if self.backoff_base < 0:
            raise InvalidRequestError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_factor < 1.0:
            raise InvalidRequestError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.backoff_cap < self.backoff_base:
            raise InvalidRequestError(
                f"backoff_cap {self.backoff_cap!r} below base {self.backoff_base!r}"
            )

    def delay(self, revocations: int) -> float:
        """Resubmission delay after the ``revocations``-th revocation."""
        if self.backoff_base <= 0.0:
            return 0.0
        exponent = max(0, revocations - 1)
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor**exponent)


class RecoveryOutcome(enum.Enum):
    """What happened to one revoked job, in decreasing order of grace."""

    #: A retained phase-1 alternative was recommitted in the same event.
    HOT_SWAP = "hot_swap"
    #: An immediate single-job search found a replacement window.
    RESEARCH = "research"
    #: The job returned to the queue (possibly with a backoff delay).
    RESUBMIT = "resubmit"
    #: The per-job revocation budget ran out; the job was rejected.
    REJECT = "reject"


@dataclass(frozen=True)
class RecoveryEvent:
    """Audit record of one revocation's recovery.

    Attributes:
        time: Outage start (when the revocation happened).
        job_name: The revoked job.
        outcome: How recovery resolved it.
        revocations: The job's revocation count including this one.
        window: The recommitted window for in-place recoveries.
        delay: Backoff delay for RESUBMIT outcomes.
        error: The typed rejection error for REJECT outcomes.
    """

    time: float
    job_name: str
    outcome: RecoveryOutcome
    revocations: int
    window: Window | None = None
    delay: float = 0.0
    error: RecoveryExhaustedError | None = None


class RecoveryManager:
    """Retained-alternative store plus retry accounting for one VO run.

    Owned by the :class:`~repro.grid.metascheduler.Metascheduler`, which
    calls :meth:`retain` when it commits a window and drives the
    hot-swap → re-search → resubmit ladder from its outage handler.  The
    manager itself never mutates the trace or the pending queue — it
    validates windows, commits nothing, and keeps the audit log.
    """

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self.events: list[RecoveryEvent] = []
        self._retained: dict[int, list[Window]] = {}
        self._revocations: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Alternative retention                                              #
    # ------------------------------------------------------------------ #

    def retain(self, job: Job, windows: list[Window], chosen: Window) -> int:
        """Keep the job's unused phase-1 alternatives; returns the count.

        Phase-1 alternatives are pairwise disjoint, so equality with the
        chosen window identifies exactly the committed one.
        """
        kept = [window for window in windows if window != chosen]
        self._retained[job.uid] = kept
        return len(kept)

    def retained(self, job: Job) -> list[Window]:
        """The job's currently retained alternatives (possibly stale)."""
        return list(self._retained.get(job.uid, ()))

    def prune(self, now: float) -> int:
        """Drop retained windows that start before ``now``.

        A window starting in the past can never be recommitted, so
        pruning at every tick bounds the store's memory by the lookahead
        horizon instead of the run length.
        """
        dropped = 0
        for uid in list(self._retained):
            windows = self._retained[uid]
            kept = [window for window in windows if window.start >= now]
            dropped += len(windows) - len(kept)
            if kept:
                self._retained[uid] = kept
            else:
                del self._retained[uid]
        return dropped

    def discard(self, job: Job) -> None:
        """Forget a job entirely (rejected or otherwise finished)."""
        self._retained.pop(job.uid, None)

    # ------------------------------------------------------------------ #
    # Retry accounting                                                   #
    # ------------------------------------------------------------------ #

    def register_revocation(self, job: Job) -> int:
        """Count one more revocation for the job; returns the new total."""
        count = self._revocations.get(job.uid, 0) + 1
        self._revocations[job.uid] = count
        return count

    def revocations(self, job: Job) -> int:
        """How many times outages have revoked the job so far."""
        return self._revocations.get(job.uid, 0)

    def exhausted(self, job: Job) -> RecoveryExhaustedError | None:
        """The typed rejection error once the budget is spent, else None."""
        limit = self.policy.max_revocations
        if limit is None:
            return None
        count = self.revocations(job)
        if count <= limit:
            return None
        return RecoveryExhaustedError(
            f"job {job.name!r} revoked {count} times, budget is {limit}",
            job_name=job.name,
            revocations=count,
            limit=limit,
        )

    def record(self, event: RecoveryEvent) -> None:
        """Append one recovery event to the audit log."""
        self.events.append(event)

    def outcome_counts(self) -> dict[str, int]:
        """Recovery events per outcome value (every outcome present)."""
        counts = {outcome.value: 0 for outcome in RecoveryOutcome}
        for event in self.events:
            counts[event.outcome.value] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Window (re)acquisition                                             #
    # ------------------------------------------------------------------ #

    def find_hot_swap(
        self,
        job: Job,
        environment: "VOEnvironment",
        now: float,
        *,
        algorithm: SlotSearchAlgorithm = SlotSearchAlgorithm.AMP,
        rho: float = 1.0,
    ) -> Window | None:
        """The best retained alternative still feasible at ``now``.

        A retained window survives revalidation when it starts at or
        after ``now``, still satisfies the job's constraints (per-slot
        price cap for ALP, aggregate budget for AMP), and every
        allocation span is vacant on its node — which also excludes
        anything touching the just-recorded outage interval.  Best =
        earliest start, cheapest on ties (the same preference order the
        phase-1 scan discovers windows in).
        """
        budget = (
            job.request.scaled_budget(rho)
            if algorithm is SlotSearchAlgorithm.AMP
            else None
        )
        best: Window | None = None
        for window in self._retained.get(job.uid, ()):
            if window.start < now:
                continue
            if not window.satisfies(job.request, budget=budget):
                continue
            if best is not None and (window.start, window.cost) >= (
                best.start,
                best.cost,
            ):
                continue
            if all(
                environment.node_for(allocation.resource.uid).schedule.is_free(
                    allocation.start, allocation.end
                )
                for allocation in window.allocations
            ):
                best = window
        return best

    def consume(self, job: Job, window: Window) -> None:
        """Remove a recommitted window from the job's retained set."""
        windows = self._retained.get(job.uid)
        if windows is None:
            return
        self._retained[job.uid] = [w for w in windows if w != window]

    def research(
        self,
        job: Job,
        environment: "VOEnvironment",
        now: float,
        *,
        horizon: float,
        min_slot_length: float = 0.0,
        algorithm: SlotSearchAlgorithm = SlotSearchAlgorithm.AMP,
        rho: float = 1.0,
    ) -> Window | None:
        """Incremental re-search: one fresh window for one job, right now.

        Publishes the environment's vacant slots over the metascheduler's
        lookahead horizon from ``now`` and runs a single ALP/AMP scan —
        the phase-1 primitive without the batch machinery, so a revoked
        job need not wait for the next iteration when capacity exists.
        """
        slots = environment.vacant_slot_list(
            now, now + horizon, min_length=min_slot_length
        )
        index = SlotIndex(slots)
        if algorithm is SlotSearchAlgorithm.AMP:
            return index.find_amp_window(
                job.request, budget=job.request.scaled_budget(rho)
            )
        return index.find_alp_window(job.request)
