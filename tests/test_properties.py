"""Property-based invariants of the slot-search model (hypothesis).

Where the oracle tests of ``test_reference_oracles.py`` pin the finders
to brute-force references on specific quantities (the window start), the
properties here assert the *model contracts* of paper Section 3 over
seeded random instances, for both the naive-rescan reference and the
indexed fast path:

* ALP windows respect the per-slot price cap ``c ≤ C`` (cond. 2°c);
* AMP windows respect the job budget ``S = C·t·N``;
* alternatives produced by the multi-pass scheme never overlap the
  slots subtracted for previously found windows, and never escape the
  originally vacant spans;
* every ALP-feasible instance is AMP-feasible (the budget is the sum of
  ``N`` per-slot caps over runtimes no longer than the capped ones when
  all performances are ≥ 1, so ALP's own window fits under it).

Instances come from the shared seeded builders in ``tests/conftest.py``
— the same generator family the differential suite uses.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResourceRequest, SlotSearchAlgorithm, find_alternatives
from repro.core import alp, amp

from tests.conftest import make_random_batch, make_random_slot_list

#: Budget-sum tolerance: ``Window.cost`` re-adds placement costs in
#: resource-uid order, while the scan's acceptance test sums them in
#: (cost, uid) order — same terms, different float association.
COST_TOLERANCE = 1e-9

_request_strategy = st.builds(
    ResourceRequest,
    node_count=st.integers(min_value=1, max_value=5),
    volume=st.floats(min_value=10.0, max_value=200.0),
    min_performance=st.floats(min_value=1.0, max_value=2.0),
    max_price=st.floats(min_value=1.0, max_value=8.0),
)

_seed_strategy = st.integers(min_value=0, max_value=100_000)

_use_index = st.booleans()


@settings(max_examples=80, deadline=None)
@given(seed=_seed_strategy, request=_request_strategy)
def test_alp_windows_respect_per_slot_cap(seed, request):
    """Every slot of an ALP window costs at most the per-slot cap C."""
    slots = make_random_slot_list(seed)
    window = alp.find_window(slots, request)
    if window is None:
        return
    for allocation in window.allocations:
        assert allocation.unit_price <= request.max_price
        assert allocation.resource.performance >= request.min_performance
    assert window.satisfies(request)


@settings(max_examples=80, deadline=None)
@given(seed=_seed_strategy, request=_request_strategy)
def test_amp_windows_respect_budget(seed, request):
    """An AMP window's total cost never exceeds S = C·t·N."""
    slots = make_random_slot_list(seed)
    window = amp.find_window(slots, request)
    if window is None:
        return
    assert window.cost <= request.budget + COST_TOLERANCE
    for allocation in window.allocations:
        assert allocation.resource.performance >= request.min_performance
    assert window.satisfies(request, budget=request.budget * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(
    seed=_seed_strategy,
    algorithm=st.sampled_from(list(SlotSearchAlgorithm)),
    use_index=_use_index,
)
def test_alternatives_are_mutually_disjoint(seed, algorithm, use_index):
    """No two alternatives — of any jobs — share processor time.

    This is the invariant the phase-2 DP relies on: subtracting each
    found window from the vacant list must make all later windows (of
    every job) disjoint from it.
    """
    slots = make_random_slot_list(seed)
    batch = make_random_batch(seed)
    result = find_alternatives(slots, batch, algorithm, use_index=use_index)
    windows = [
        window for windows in result.alternatives.values() for window in windows
    ]
    for i, first in enumerate(windows):
        for second in windows[i + 1 :]:
            assert not first.intersects(second)


@settings(max_examples=60, deadline=None)
@given(
    seed=_seed_strategy,
    algorithm=st.sampled_from(list(SlotSearchAlgorithm)),
    use_index=_use_index,
)
def test_alternatives_stay_inside_vacant_spans(seed, algorithm, use_index):
    """Every placement lies inside an originally vacant slot of its
    resource, and total vacant time is conserved: original vacancy =
    remaining vacancy + allocated spans."""
    slots = make_random_slot_list(seed)
    batch = make_random_batch(seed)
    vacant = {}
    total_vacant = 0.0
    for slot in slots:
        vacant.setdefault(slot.resource.uid, []).append((slot.start, slot.end))
        total_vacant += slot.end - slot.start
    result = find_alternatives(slots, batch, algorithm, use_index=use_index)
    allocated = 0.0
    for windows in result.alternatives.values():
        for window in windows:
            for allocation in window.allocations:
                spans = vacant.get(allocation.resource.uid, ())
                assert any(
                    start <= allocation.start and allocation.end <= end
                    for start, end in spans
                ), "allocation escapes the original vacant spans"
                allocated += allocation.end - allocation.start
    remaining = sum(slot.end - slot.start for slot in result.remaining_slots)
    assert remaining + allocated == pytest.approx(total_vacant, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=_seed_strategy, request=_request_strategy)
def test_alp_feasible_implies_amp_feasible(seed, request):
    """With all performances ≥ 1 (runtime ≤ capped-slot runtime), an
    ALP window's own slots fit the AMP budget, so AMP finds a window —
    no later than ALP's."""
    slots = make_random_slot_list(seed)
    alp_window = alp.find_window(slots, request)
    if alp_window is None:
        return
    amp_window = amp.find_window(slots, request)
    assert amp_window is not None
    assert amp_window.start <= alp_window.start


# --------------------------------------------------------------------- #
# Series partition properties (repro.sim.experiment._shard_spans)       #
# --------------------------------------------------------------------- #
#
# ParallelRunner's worker-count invariance leans on how it cuts a seeded
# series into worker spans; the contracts are pinned here for arbitrary
# series lengths and shard counts.

from repro.sim.experiment import _shard_spans  # noqa: E402

_series_lengths = st.integers(min_value=0, max_value=400)
_shard_counts = st.integers(min_value=1, max_value=9)


@settings(max_examples=150, deadline=None)
@given(iterations=_series_lengths, shards=_shard_counts)
def test_partition_is_a_disjoint_cover(iterations, shards):
    """Every iteration lands in exactly one non-empty span — no
    iteration runs twice across workers and none is dropped."""
    spans = _shard_spans(iterations, shards)
    assert len(spans) == min(iterations, shards)
    covered = [index for start, stop in spans for index in range(start, stop)]
    assert len(covered) == len(set(covered))
    assert set(covered) == set(range(iterations))
    assert all(start < stop for start, stop in spans)


@settings(max_examples=150, deadline=None)
@given(iterations=_series_lengths, shards=_shard_counts)
def test_partition_ordering_is_stable(iterations, shards):
    """Spans are contiguous and ascending, so merging worker results in
    span order replays the serial iteration order; sizes are balanced to
    within one, larger spans first."""
    spans = _shard_spans(iterations, shards)
    cursor = 0
    for start, stop in spans:
        assert start == cursor
        cursor = stop
    assert cursor == iterations
    sizes = [stop - start for start, stop in spans]
    if sizes:
        assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=80, deadline=None)
@given(iterations=st.integers(min_value=1, max_value=400))
def test_partition_single_shard_is_identity(iterations):
    """shards=1 degenerates to the whole series in one span."""
    assert _shard_spans(iterations, 1) == [(0, iterations)]
