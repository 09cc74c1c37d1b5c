"""Per-search slot index — the fast phase-1 search path.

:class:`SlotIndex` holds the ordered vacant-slot list as parallel
primitive *columns* (start, end, resource uid, performance, price in
``array('d')``/``array('q')`` storage — :class:`~repro.core.columns.ColumnStore`),
so the ALP/AMP forward scans run over local floats instead of chasing
``Slot → Resource`` attribute chains, and window subtraction locates the
carved slot by bisection instead of a linear rescan.  The index holds no
``Slot`` objects at all: it keeps the only ``uid → Resource`` map and
reconstructs value-equal ``Slot`` objects exactly where one leaves the
index — a found window's source slots and :meth:`slot_list` — so the
hot scan and commit paths touch nothing but primitive tuples.  The
index is built once per alternative search, and :meth:`commit` is its
only mutation: every committed window only touches the ``O(log m)``
neighbourhood of its source rows.

On top of the column layout the index memoizes the request-*static*
part of the scan predicates: for each ``(volume, min_performance,
max_price)`` key the surviving rows — with their precomputed runtimes —
are built once by a vectorized mask over the columns
(:meth:`ColumnStore.survivors`) and then maintained incrementally
through ``commit``, so the repeated passes of one alternative search
only re-apply the cheap dynamic start-hint predicate over the
pre-filtered survivors (the static predicates are the vectorized
kernels of :mod:`repro.core.columns`).

The finders here are drop-in equivalents of :func:`repro.core.alp.find_window`
and :func:`repro.core.amp.find_window`: they perform the same suitability
tests, the same candidate-expiry filter, and the same budget summation in
the same float-operation order, so the produced windows are bit-for-bit
identical to the reference scans (``tests/test_reference_oracles.py``
enforces this differentially, ``tests/test_properties.py`` checks the
model invariants).  Hoisting the static predicates out of the scan loop
is order-safe because every skip condition is a pure per-row predicate.

Two assumptions, both guaranteed by the paper's model and checked by the
test suite, let the index go beyond the reference implementation:

* **No same-resource overlap.**  Vacant slots of one resource never share
  processor time (``SlotList.check_no_overlap``), so the slot containing
  an allocated span is unique and can be located by bisection.
* **Monotone window starts.**  :meth:`commit` only removes vacant time,
  so for a fixed request the earliest feasible window start never moves
  backwards across the passes of one alternative search.  The optional
  ``start_hint`` (the event time of the previous window found for the
  same request on a superset of this list) lets the scan skip candidates
  that cannot survive to any feasible event, and — for AMP — skip the
  cheapest-subset budget checks at events that are provably infeasible.

Vacant time never comes back into an index.  Revocations and outages
return or remove time in the node schedules, and the next search
re-publishes it through
:meth:`~repro.grid.environment.VOEnvironment.vacant_slot_list` into a
fresh index, so a hint never outlives the list it was found on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator

from repro.core.columns import ColumnStore, Row, SurvivorRow, expiry_bound
from repro.core.errors import SlotListError
from repro.core.job import ResourceRequest
from repro.core.resource import Resource
from repro.core.slot import Slot, SlotList
from repro.core.window import Window, carved_allocation

__all__ = ["SlotIndex"]

NEG_INF = float("-inf")
INF = float("inf")

# Memoized survivor layout: a plain repro.core.columns.SurvivorRow —
# ``(start, end, uid, performance, price, runtime)``.  The leading
# triple is exactly ``SlotList``'s sort key, so memo order and scan
# order coincide with the reference list; no ``Slot`` is attached, so a
# vectorized rebuild is a single C-level ``zip`` over the column
# buffers and the scans append the memo tuples themselves as
# candidates instead of building per-row wrappers.

_new = object.__new__
_set_field = object.__setattr__


def _carve_slot(resource: Resource, start: float, end: float, price: float) -> Slot:
    """A :class:`Slot` without the dataclass ``__init__``.

    Every slot the index materialises is backed by a row that already
    holds the model invariants (non-empty span, validated price), so
    the hot paths skip the frozen-dataclass machinery and its
    re-validation.
    """
    slot = _new(Slot)
    _set_field(slot, "resource", resource)
    _set_field(slot, "start", start)
    _set_field(slot, "end", end)
    _set_field(slot, "price", price)
    return slot

#: Entries a scan must have skipped as hint-dead before a find bothers
#: rewriting its memo; below this the list-copy costs more than the
#: skips it saves.
_COMPACT_MIN_DEAD = 32

#: A memo more than this many journal ops behind is rebuilt vectorized
#: instead of replayed: a numpy mask over all rows costs about as much
#: as replaying a few dozen ops at python level, and rebuilding also
#: resets the entry list's insertion churn.
_REPLAY_MAX = 24

#: One committed allocation: the ``(start, end, uid)`` key of the
#: removed source row, its performance and price — so replay can decide
#: by the static predicates alone whether a memo could even contain the
#: row, skipping the bisect probe for the (common) ops that touch rows
#: outside the memo's survivor set — plus the replacement rows carved
#: from it.
_IndexOp = tuple[tuple[float, float, int], float, float, list[Row]]


class _Memo:
    """One survivor memo plus its compaction floor and journal cursor.

    ``entries`` are the static-predicate survivors in scan order.
    Finds drop entries that fell behind the monotone start hint
    (``end <= hint`` — the tier-1 prune); ``floor`` records the largest
    hint whose dead entries were removed.  A later scan with a smaller
    hint (a second job sharing the request key) would need those
    entries back, so it rebuilds from the columns.

    ``synced`` is the index into the owning :class:`SlotIndex`'s
    commit journal up to which this memo is current.  Commits do not
    touch memos eagerly — each memo replays its pending journal tail on
    next access — so memos of requests that finished searching cost
    nothing while other requests commit.
    """

    __slots__ = ("entries", "floor", "synced")

    def __init__(self, entries: list[SurvivorRow], synced: int) -> None:
        self.entries = entries
        self.floor = NEG_INF
        self.synced = synced


class SlotIndex:
    """Sorted view of a vacant-slot list, built once per search.

    The ``last_*`` attributes describe the most recent
    :meth:`find_alp_window`/:meth:`find_amp_window_at` call and are
    recorded on every find, so the search loop can report scan work
    without a second pass.  Entries a compaction or a memo rebuild at
    the hint already removed are not visited and not counted, so
    ``last_hint_skips + last_runtime_skips <= last_scanned`` always.

    Attributes:
        last_scanned: Survivor-memo entries the scan visited, skipped
            ones included.
        last_hint_skips: Visited entries skipped by the tier-1
            start-hint prune (``end <= start_hint``: the row cannot
            survive to any event at or past the hint).
        last_runtime_skips: Visited entries skipped by the tier-2
            prune (``end - start_hint < runtime``: the row outlives the
            hint but cannot fit the runtime from there).
    """

    __slots__ = (
        "_columns", "_resources", "_memos", "_ops",
        "last_scanned", "last_hint_skips", "last_runtime_skips",
    )

    def __init__(self, slots: Iterable[Slot] = ()) -> None:
        materialized = list(slots)
        # The only uid → Resource map; the rows hold primitive tuples.
        self._resources: dict[int, Resource] = {
            slot.resource.uid: slot.resource for slot in materialized
        }
        self._columns = ColumnStore(
            (slot.start, slot.end, slot.resource.uid, slot.resource.performance, slot.price)
            for slot in materialized
        )
        # (volume, min_performance, max_price) → rows surviving the
        # static predicates, in scan order.  Built vectorized on first
        # use, then kept current lazily: each commit appends one op per
        # allocation to the journal and a memo replays its pending tail
        # on next access (or rebuilds if far behind); the dynamic
        # start-hint predicate is applied per scan.
        self._memos: dict[tuple[float, float, float | None], _Memo] = {}
        self._ops: list[_IndexOp] = []
        self.last_scanned = 0
        self.last_hint_skips = 0
        self.last_runtime_skips = 0

    # ------------------------------------------------------------------ #
    # Container protocol                                                 #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlotIndex({len(self._columns)} slots)"

    def _slot_of(self, entry: "SurvivorRow | Row") -> Slot:
        """Value-equal :class:`Slot` for one row/survivor tuple."""
        return _carve_slot(self._resources[entry[2]], entry[0], entry[1], entry[4])

    def _materialize(self) -> list[Slot]:
        resources = self._resources
        columns = self._columns
        return [
            _carve_slot(resources[uid], start, end, price)
            for start, end, uid, price in zip(
                columns.starts, columns.ends, columns.uids, columns.prices
            )
        ]

    def slot_list(self) -> SlotList:
        """Materialise the current state as a plain :class:`SlotList`.

        The returned slots are value-equal reconstructions from the
        rows (the index keeps no ``Slot`` objects).
        """
        return SlotList(self._materialize())

    # ------------------------------------------------------------------ #
    # Survivor memos                                                     #
    # ------------------------------------------------------------------ #

    def _survivors(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        hint: float = NEG_INF,
    ) -> _Memo:
        """The static-predicate survivor memo for one request key.

        ``hint`` is the caller's start hint; a memo compacted past it is
        rebuilt vectorized from the columns so that every entry a scan
        at ``hint`` may need is present.  A memo
        that fell more than :data:`_REPLAY_MAX` journal ops behind is
        likewise rebuilt; otherwise the pending ops are replayed against
        it, producing exactly the entry set eager maintenance would have
        (same scalar kernel, same insertion order).
        """
        key = (volume, min_performance, max_price)
        memo = self._memos.get(key)
        ops = self._ops
        total_ops = len(ops)
        if (
            memo is None
            or hint < memo.floor
            or total_ops - memo.synced > _REPLAY_MAX
        ):
            # Rebuild already filtered to the scan's hint: entries with
            # ``end <= hint`` are tier-1 dead for this and (by hint
            # monotonicity) every future scan of this memo, so they are
            # dropped vectorized and ``hint`` becomes the floor — the
            # same state compaction would eventually reach, minus the
            # churn of re-attaching and re-skipping them.
            entries = self._columns.survivors(
                volume, min_performance, max_price, hint
            )
            if memo is None:
                memo = _Memo(entries, total_ops)
                self._memos[key] = memo
            else:
                memo.entries = entries
                memo.synced = total_ops
            memo.floor = hint
        elif memo.synced != total_ops:
            entries = memo.entries
            for op_key, op_performance, op_price, replacements in ops[memo.synced:]:
                # Probes and insertions compare the entry tuples
                # directly — the leading (start, end, uid) triple is
                # unique per row, so plain C tuple comparison decides
                # on the triple, and the 3-tuple op key sorts
                # immediately before its full entry.  A removed row
                # that fails the memo's static predicates cannot be
                # among the entries (they are exactly the static
                # survivors), so the probe is skipped outright.
                if (
                    op_performance >= min_performance
                    and (max_price is None or op_price <= max_price)
                    and op_key[1] - op_key[0] >= volume / op_performance
                ):
                    position = bisect_left(entries, op_key)
                    if position < len(entries):
                        entry = entries[position]
                        if (
                            entry[0] == op_key[0]
                            and entry[1] == op_key[1]
                            and entry[2] == op_key[2]
                        ):
                            del entries[position]
                for row in replacements:
                    # Inlined scalar static_survivor kernel (same float
                    # ops, same order as the vectorized mask).
                    performance = row[3]
                    if performance < min_performance:
                        continue
                    if max_price is not None and row[4] > max_price:
                        continue
                    runtime = volume / performance
                    start, end = row[0], row[1]
                    if end - start < runtime:
                        continue
                    insort(
                        entries,
                        (
                            start,
                            end,
                            row[2],
                            performance,
                            row[4],
                            runtime,
                            expiry_bound(end, runtime),
                        ),
                    )
            memo.synced = total_ops
        return memo

    def _finish_scan(
        self, memo: _Memo, hint: float, scanned: int, dead: int, short: int
    ) -> None:
        """Record a find's scan counts and drop the hint-dead entries it skipped.

        ``dead`` of the first ``scanned`` entries failed ``end > hint``;
        by hint monotonicity they fail every future scan of this memo
        too (a smaller hint forces a rebuild via ``floor``), so the scan
        rewrites its prefix without them once the copy pays for itself.
        """
        self.last_scanned = scanned
        self.last_hint_skips = dead
        self.last_runtime_skips = short
        if dead >= _COMPACT_MIN_DEAD and dead * 2 >= scanned:
            entries = memo.entries
            entries[:scanned] = [
                entry for entry in entries[:scanned] if entry[1] > hint
            ]
            if hint > memo.floor:
                memo.floor = hint

    # ------------------------------------------------------------------ #
    # Window search                                                      #
    # ------------------------------------------------------------------ #

    def find_alp_window(
        self,
        request: ResourceRequest,
        *,
        check_price: bool = True,
        start_hint: float = NEG_INF,
    ) -> Window | None:
        """ALP forward scan over the index (paper steps 1°-5°).

        Equivalent to :func:`repro.core.alp.find_window` on the same slot
        list.  ``start_hint`` may be set to the start of a window
        previously found for the *same request* on a superset of this
        list; candidates that cannot survive to any event at or past the
        hint are skipped (the result is unchanged by monotonicity).
        """
        node_count = request.node_count
        max_price = request.max_price if check_price else None
        memo = self._survivors(
            request.volume, request.min_performance, max_price, start_hint
        )
        survivors = memo.entries
        window_start = NEG_INF
        dead = short = 0
        # Candidates are the memo tuples themselves, in scan insertion
        # order — the same order ForwardScan.candidates holds; a slot
        # is only materialised for the accepted window.  ``min_bound``
        # is the smallest per-candidate expiry bound
        # (:func:`~repro.core.columns.expiry_bound`): events below it
        # provably expire nobody, so the per-event filter — whose exact
        # ``end - start >= runtime`` comparisons are unchanged when it
        # does run — is skipped there.
        candidates: list[SurvivorRow] = []
        min_bound = INF
        for scanned, entry in enumerate(survivors, 1):
            end = entry[1]
            if end <= start_hint:  # cannot survive to any event >= hint
                dead += 1
                continue
            runtime = entry[5]
            if end - start_hint < runtime:
                short += 1
                continue
            start = entry[0]
            if start > window_start:
                window_start = start
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                    candidates = alive
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            if len(candidates) == node_count:
                allocations = [
                    carved_allocation(
                        self._slot_of(c), window_start, window_start + c[5]
                    )
                    for c in candidates
                ]
                self._finish_scan(memo, start_hint, scanned, dead, short)
                return Window.from_scan(request, allocations)
        self._finish_scan(memo, start_hint, len(survivors), dead, short)
        return None

    def find_amp_window(
        self,
        request: ResourceRequest,
        *,
        budget: float | None = None,
        start_hint: float = NEG_INF,
    ) -> Window | None:
        """AMP forward scan over the index (paper steps 1°-4°).

        Equivalent to :func:`repro.core.amp.find_window`; see
        :meth:`find_alp_window` for the ``start_hint`` contract (for AMP
        the hint must be the *event time* at which the previous window
        was accepted, as returned by :meth:`find_amp_window_at`).
        """
        found = self.find_amp_window_at(request, budget=budget, start_hint=start_hint)
        return None if found is None else found[0]

    def find_amp_window_at(
        self,
        request: ResourceRequest,
        *,
        budget: float | None = None,
        start_hint: float = NEG_INF,
    ) -> tuple[Window, float] | None:
        """Like :meth:`find_amp_window` but also returns the accepting
        event time (the scan position ``T_last``, which may be later than
        the window's own start when the cheapest subset excludes the
        newest candidate).  The event time is the correct ``start_hint``
        for the next AMP search of the same request.
        """
        if budget is None:
            budget = request.budget
        node_count = request.node_count
        memo = self._survivors(
            request.volume, request.min_performance, None, start_hint
        )
        survivors = memo.entries
        window_start = NEG_INF
        dead = short = 0
        # Candidates are the memo tuples in insertion order, plus the
        # same candidates ranked by (cost, uid) — AMP step 2°'s ordering —
        # maintained by insertion/removal instead of per-event sorting.
        # ``cheapest_total`` caches the cost of the first ``node_count``
        # ranked entries; it is invalidated only when an insertion or an
        # expiry touches that prefix, so unchanged events skip the
        # re-summation entirely (the cached value was produced by the
        # identical float-addition sequence, keeping results bit-exact).
        candidates: list[SurvivorRow] = []
        ranked: list[tuple[float, int, float, SurvivorRow]] = []
        cheapest_total: float | None = None
        min_bound = INF
        for scanned, entry in enumerate(survivors, 1):
            end = entry[1]
            if end <= start_hint:
                dead += 1
                continue
            runtime = entry[5]
            if end - start_hint < runtime:
                short += 1
                continue
            start = entry[0]
            if start > window_start:
                window_start = start
                # Events below ``min_bound`` provably expire nobody
                # (see find_alp_window); otherwise run the exact expiry
                # filter, unranking expired candidates in insertion
                # order.  ``c[4] * c[5]`` re-produces a candidate's
                # cost bit-for-bit (same two operands, same multiply).
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                        elif _remove_ranked(ranked, c[4] * c[5], c[2]) < node_count:
                            cheapest_total = None
                    candidates = alive
            uid = entry[2]
            cost = entry[4] * runtime
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            position = bisect_left(ranked, (cost, uid))
            ranked.insert(position, (cost, uid, runtime, entry))
            if position < node_count:
                cheapest_total = None
            if len(candidates) < node_count or start < start_hint:
                continue
            if cheapest_total is None:
                total = 0.0
                for k in range(node_count):
                    total += ranked[k][0]
                cheapest_total = total
            if cheapest_total <= budget:
                chosen = ranked[:node_count]
                sync = max(item[3][0] for item in chosen)
                allocations = [
                    carved_allocation(self._slot_of(item[3]), sync, sync + item[2])
                    for item in chosen
                ]
                self._finish_scan(memo, start_hint, scanned, dead, short)
                return Window.from_scan(request, allocations), start
        self._finish_scan(memo, start_hint, len(survivors), dead, short)
        return None

    # ------------------------------------------------------------------ #
    # Commit                                                             #
    # ------------------------------------------------------------------ #

    def commit(self, window: Window) -> None:
        """Subtract the window's occupied spans (paper Fig. 1 (b)).

        Each allocation remembers the vacant slot it was carved from, so
        the containing row is located by bisection rather than the
        linear rescan of :meth:`SlotList.subtract`.  The source slot is
        matched by value — ``(start, end, uid)`` key plus price.

        Raises:
            SlotListError: If some source slot is no longer in the index.
        """
        columns = self._columns
        for allocation in window.allocations:
            source = allocation.source
            resource = source.resource
            uid = resource.uid
            key = (source.start, source.end, uid)
            position = columns.bisect_key(key)
            if (
                position == len(columns)
                or columns.key_at(position) != key
                or columns.prices[position] != source.price
            ):
                raise SlotListError(
                    f"no vacant slot on {resource.name!r} contains span "
                    f"[{allocation.start:g}, {allocation.end:g})"
                )
            replacements: list[Row] = []
            left = allocation.start > source.start
            if left and (position == 0 or columns.starts[position - 1] < source.start):
                # The left remainder keeps the source's start and shrinks
                # its end, so (outside an equal-start run, where bisection
                # would be needed) it sorts at the very position the
                # source occupied: overwrite in place instead of paying
                # two O(m) memmoves per column plus a bisect.
                row: Row = (
                    source.start,
                    allocation.start,
                    uid,
                    resource.performance,
                    source.price,
                )
                columns.replace_row_at(position, row)
                replacements.append(row)
            else:
                columns.delete_at(position)
                if left:
                    row = (
                        source.start,
                        allocation.start,
                        uid,
                        resource.performance,
                        source.price,
                    )
                    columns.insert_row(row)
                    replacements.append(row)
            if source.end > allocation.end:
                row = (
                    allocation.end,
                    source.end,
                    uid,
                    resource.performance,
                    source.price,
                )
                columns.insert_row(row)
                replacements.append(row)
            self._ops.append((key, resource.performance, source.price, replacements))


def _remove_ranked(
    ranked: list[tuple[float, int, float, SurvivorRow]], cost: float, uid: int
) -> int:
    """Drop the ``(cost, uid)`` entry from the ranked list; return its position."""
    position = bisect_left(ranked, (cost, uid))
    while position < len(ranked):
        entry = ranked[position]
        if entry[0] == cost and entry[1] == uid:
            del ranked[position]
            return position
        position += 1
    raise SlotListError(f"ranked candidate (cost={cost!r}, uid={uid!r}) missing")
