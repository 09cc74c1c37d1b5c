"""AMP — Algorithm based on Maximal job Price (paper Section 3).

AMP replaces ALP's per-slot price cap with a *job budget*
``S = C · t · N``: the window's **total** cost must fit the budget, but
individual slots may be arbitrarily expensive.  This widens the search
space — any ALP window is also an AMP window, but AMP can additionally
mix cheap slow nodes with expensive fast ones (Section 6's price/quality
argument), which is where its experimental advantage comes from.

The algorithm (paper steps 1°-4°):

1. Find the earliest window of ``N`` slots with ALP, *excluding* the
   price condition 2°c.
2. Sort the candidate slots by cost ascending and take the cheapest
   ``N``; if their total cost ``M_N`` fits the budget, the window is
   formed from them (extra candidates are simply left in the vacant
   list).
3. Otherwise keep scanning: add the next suited slot, advance the window
   start to it, expire candidates, and whenever at least ``N``
   candidates are alive re-try step 2.  Running out of slots while
   holding fewer than ``N`` candidates is a failure — the job is
   postponed.

Like ALP the scan is strictly forward, so complexity is ``O(m)`` slot
examinations; the re-sorting in step 2 touches only the (bounded)
candidate window.
"""

from __future__ import annotations

from repro.core.alp import ForwardScan
from repro.core.errors import InvalidRequestError, WindowNotFoundError
from repro.core.job import ResourceRequest
from repro.core.slot import Slot, SlotList
from repro.core.window import Window

__all__ = ["find_window", "require_window", "cheapest_subset"]


def _slot_cost(slot: Slot, request: ResourceRequest) -> float:
    """Cost of placing one task of ``request`` in ``slot``.

    Per-slot total cost is ``price per unit × runtime on that node``
    (Section 6: ``C · t / P``), so a fast expensive node can undercut a
    slow cheap one — the effect AMP exploits.
    """
    return slot.cost_of(request.volume)


def cheapest_subset(candidates: list[Slot], request: ResourceRequest) -> tuple[list[Slot], float]:
    """The ``N`` cheapest candidate slots and their total cost ``M_N``.

    Implements AMP step 2°'s "sort window slots by their cost in
    ascending order; calculate total cost of first N slots".  Ties are
    broken by resource uid so results are deterministic.

    Raises:
        InvalidRequestError: If fewer than ``N`` candidates are supplied.
    """
    if len(candidates) < request.node_count:
        raise InvalidRequestError(
            f"need at least {request.node_count} candidates, got {len(candidates)}"
        )
    ranked = sorted(
        candidates, key=lambda slot: (_slot_cost(slot, request), slot.resource.uid)
    )
    chosen = ranked[: request.node_count]
    return chosen, sum(_slot_cost(slot, request) for slot in chosen)


def find_window(slot_list: SlotList, request: ResourceRequest, *, budget: float | None = None) -> Window | None:
    """Run AMP for a single job over ``slot_list``.

    Args:
        slot_list: The ordered list of vacant slots (not modified).
        request: The job's resource request.  Condition 2°a (performance)
            and 2°b (length) still apply to every slot; condition 2°c is
            replaced by the budget test.
        budget: The job budget ``S``.  Defaults to ``request.budget``
            (= ``C · t · N``).  Pass ``request.scaled_budget(rho)`` for
            the Section 6 extension ``S = ρ · C · t · N``.

    Returns:
        The earliest window whose ``N`` cheapest alive candidates fit the
        budget, or ``None`` when the scan is exhausted first.
    """
    if budget is None:
        budget = request.budget
    scan = ForwardScan(request, check_price=False)
    for slot in slot_list:
        if not scan.offer(slot):
            continue
        if scan.size < request.node_count:
            continue
        chosen, total_cost = cheapest_subset(scan.candidates, request)
        if total_cost <= budget:
            return scan.build_window(chosen)
    return None


def require_window(slot_list: SlotList, request: ResourceRequest, *, budget: float | None = None, job_name: str | None = None) -> Window:
    """Like :func:`find_window` but raises on failure.

    Raises:
        WindowNotFoundError: When no suitable window exists.
    """
    window = find_window(slot_list, request, budget=budget)
    if window is None:
        limit = request.budget if budget is None else budget
        raise WindowNotFoundError(
            f"AMP found no window of {request.node_count} slots within budget "
            f"{limit:g} (volume {request.volume:g}, P>={request.min_performance:g}) "
            f"in a list of {len(slot_list)} slots",
            job_name=job_name,
        )
    return window
