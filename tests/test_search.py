"""Tests for the multi-pass alternative search (repro.core.search)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Batch,
    InvalidRequestError,
    Job,
    Resource,
    ResourceRequest,
    Slot,
    SlotList,
    SlotSearchAlgorithm,
    find_alternatives,
)

from tests.conftest import make_resource, make_uniform_slots


def _batch(*requests: ResourceRequest) -> Batch:
    return Batch(
        Job(request, name=f"j{i}", priority=i) for i, request in enumerate(requests)
    )


class TestFinderResolution:
    def test_enum_values(self):
        assert SlotSearchAlgorithm("alp") is SlotSearchAlgorithm.ALP
        assert SlotSearchAlgorithm("amp") is SlotSearchAlgorithm.AMP

    def test_custom_finder_is_used(self):
        calls = []

        def never_finds(slots, request):
            calls.append(request)
            return None

        slots = make_uniform_slots(3)
        result = find_alternatives(slots, _batch(ResourceRequest(1, 10.0)), never_finds)
        assert result.total_alternatives == 0
        assert len(calls) == 1  # one job, one pass, then stop

    def test_invalid_caps_rejected(self):
        slots = make_uniform_slots(1)
        batch = _batch(ResourceRequest(1, 10.0))
        with pytest.raises(InvalidRequestError):
            find_alternatives(slots, batch, max_alternatives_per_job=0)


class TestSearchScheme:
    def test_single_job_fills_slot_with_alternatives(self):
        # One node vacant for 100, job of volume 25 -> exactly 4 disjoint
        # alternatives back to back.
        slots = make_uniform_slots(1, length=100.0)
        result = find_alternatives(slots, _batch(ResourceRequest(1, 25.0)))
        assert result.total_alternatives == 4
        starts = sorted(w.start for w in next(iter(result.alternatives.values())))
        assert starts == [0.0, 25.0, 50.0, 75.0]
        assert len(result.remaining_slots) == 0

    def test_alternatives_are_pairwise_disjoint(self):
        slots = make_uniform_slots(3, length=200.0)
        batch = _batch(
            ResourceRequest(2, 60.0),
            ResourceRequest(1, 45.0),
        )
        result = find_alternatives(slots, batch)
        windows = list(itertools.chain.from_iterable(result.alternatives.values()))
        for first, second in itertools.combinations(windows, 2):
            assert not first.intersects(second)

    def test_priority_order_gets_first_pick(self):
        # Two identical jobs; only one window fits.  The higher-priority
        # job must win it.
        slots = make_uniform_slots(1, length=50.0)
        batch = _batch(ResourceRequest(1, 50.0), ResourceRequest(1, 50.0))
        result = find_alternatives(slots, batch)
        counts = result.counts_by_job()
        assert counts == {"j0": 1, "j1": 0}

    def test_jobs_without_alternatives_reported(self):
        slots = make_uniform_slots(1, length=50.0)
        batch = _batch(ResourceRequest(1, 50.0), ResourceRequest(5, 50.0))
        result = find_alternatives(slots, batch)
        assert [job.name for job in result.jobs_without_alternatives()] == ["j1"]
        assert not result.all_jobs_covered()

    def test_all_jobs_covered_flag(self):
        slots = make_uniform_slots(2, length=100.0)
        batch = _batch(ResourceRequest(1, 30.0), ResourceRequest(1, 30.0))
        result = find_alternatives(slots, batch)
        assert result.all_jobs_covered()

    def test_max_alternatives_per_job_cap(self):
        slots = make_uniform_slots(1, length=1000.0)
        batch = _batch(ResourceRequest(1, 10.0))
        result = find_alternatives(slots, batch, max_alternatives_per_job=3)
        assert result.total_alternatives == 3

    def test_input_list_untouched(self):
        slots = make_uniform_slots(2, length=100.0)
        before = list(slots)
        find_alternatives(slots, _batch(ResourceRequest(1, 30.0)))
        assert list(slots) == before

    def test_empty_batch(self):
        slots = make_uniform_slots(2)
        result = find_alternatives(slots, Batch())
        assert result.total_alternatives == 0
        assert result.mean_alternatives_per_job == 0.0
        assert result.all_jobs_covered()

    def test_remaining_slots_disjoint_from_windows(self):
        slots = make_uniform_slots(2, length=150.0)
        batch = _batch(ResourceRequest(1, 40.0), ResourceRequest(2, 60.0))
        result = find_alternatives(slots, batch)
        windows = list(itertools.chain.from_iterable(result.alternatives.values()))
        for slot in result.remaining_slots:
            for window in windows:
                for resource, start, end in window.occupied_spans():
                    if resource == slot.resource:
                        assert end <= slot.start or slot.end <= start

    def test_indexed_remaining_slots_are_built_once_and_match_naive(self):
        slots = make_uniform_slots(3, length=150.0)
        batch = _batch(ResourceRequest(1, 40.0), ResourceRequest(2, 60.0))
        indexed = find_alternatives(slots, batch)
        naive = find_alternatives(slots, batch, use_index=False)
        assert indexed.remaining_slots is indexed.remaining_slots
        assert list(indexed.remaining_slots) == list(naive.remaining_slots)

    def test_amp_finds_superset_count_of_alp(self):
        # Environment where the only possible partner node is expensive:
        # ALP's per-slot cap (5 < 8) rules it out entirely, while AMP's
        # budget S = 5*50*2 = 500 covers cheap+gold = (2+8)*50 = 500.
        cheap = Slot(make_resource("cheap", price=2.0), 0.0, 100.0)
        gold = Slot(make_resource("gold", price=8.0), 0.0, 100.0)
        slots = SlotList([cheap, gold])
        batch = _batch(ResourceRequest(2, 50.0, max_price=5.0))
        amp_result = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP)
        alp_result = find_alternatives(slots, batch, SlotSearchAlgorithm.ALP)
        assert alp_result.total_alternatives == 0
        assert amp_result.total_alternatives == 2  # [0,50) and [50,100)

    def test_rho_parameter_reaches_amp(self):
        slots = make_uniform_slots(2, length=100.0, price=4.0)
        batch = _batch(ResourceRequest(2, 50.0, max_price=4.0))
        full = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP, rho=1.0)
        # rho=0.5 shrinks S below the only window's cost -> nothing found.
        tight = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP, rho=0.5)
        assert full.total_alternatives == 2
        assert tight.total_alternatives == 0


# --------------------------------------------------------------------- #
# Property-based invariants                                             #
# --------------------------------------------------------------------- #


def _random_environment(seed: int):
    rng = random.Random(seed)
    slots = []
    start = 0.0
    for i in range(rng.randint(15, 30)):
        if rng.random() > 0.4:
            start += rng.uniform(0.0, 10.0)
        node = Resource(
            f"n{i}", performance=rng.uniform(1.0, 3.0), price=rng.uniform(1.0, 6.0)
        )
        slots.append(Slot(node, start, start + rng.uniform(50.0, 300.0)))
    requests = [
        ResourceRequest(
            node_count=rng.randint(1, 4),
            volume=rng.uniform(30.0, 150.0),
            min_performance=rng.uniform(1.0, 2.0),
            max_price=rng.uniform(2.0, 8.0),
        )
        for _ in range(rng.randint(2, 5))
    ]
    batch = Batch(Job(request, priority=i) for i, request in enumerate(requests))
    return SlotList(slots), batch


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    algorithm=st.sampled_from(list(SlotSearchAlgorithm)),
)
def test_search_invariants(seed, algorithm):
    """For both algorithms, on random environments: windows are valid and
    pairwise disjoint, vacant time is conserved, and the remaining list
    keeps its ordering invariants."""
    slots, batch = _random_environment(seed)
    result = find_alternatives(slots, batch, algorithm)
    windows = list(itertools.chain.from_iterable(result.alternatives.values()))
    for job, job_windows in result.alternatives.items():
        for window in job_windows:
            budget = job.request.budget if algorithm is SlotSearchAlgorithm.AMP else None
            assert window.satisfies(job.request, budget=budget)
    for first, second in itertools.combinations(windows, 2):
        assert not first.intersects(second)
    occupied = sum(
        allocation.runtime for window in windows for allocation in window.allocations
    )
    assert result.remaining_slots.total_vacant_time() + occupied == pytest.approx(
        slots.total_vacant_time(), rel=1e-9
    )
    assert result.remaining_slots.is_sorted()
    assert result.remaining_slots.check_no_overlap()
