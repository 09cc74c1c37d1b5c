"""Tests for the cross-cycle DP memoization (repro.core.optimize.DPMemo).

The memo is keyed by the values the backward run consumes, so
invalidation must be automatic: changing the alternative sets or the
constraint limit must miss.
And memo-on runs must be byte-identical to memo-off runs — a hit returns
exactly what recomputation would.
"""

from __future__ import annotations

import pytest

from repro.core import Batch, Job, ResourceRequest, Slot, SlotList
from repro.core.criteria import Criterion
from repro.core.errors import InfeasibleConstraintError, OptimizationError
from repro.core.optimize import (
    DPMemo,
    minimize_time,
    optimize,
    time_quota,
    vo_budget,
)
from repro.core.scheduler import BatchScheduler, SchedulerConfig
from repro.core.search import find_alternatives
from repro.obs.telemetry import configure, get_telemetry, install
from tests.conftest import make_random_batch, make_random_slot_list, make_resource


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


def covered_alternatives(seed: int):
    """Phase-1 alternatives for a seeded instance (covered jobs only)."""
    result = find_alternatives(make_random_slot_list(seed), make_random_batch(seed))
    return {job: windows for job, windows in result.alternatives.items() if windows}


def combination_key(combination):
    """Value identity of a phase-2 outcome (window object ids aside)."""
    return (
        combination.total_cost,
        combination.total_time,
        sorted(
            (job.name, window.start, window.cost)
            for job, window in combination.selection.items()
        ),
    )


class TestMemoHitsAndInvalidation:
    def test_identical_instance_hits_and_matches(self):
        covered = covered_alternatives(1)
        quota = time_quota(covered)
        memo = DPMemo()
        first = optimize(covered, Criterion.COST, quota, memo=memo)
        assert memo.stats() == {"hits": 0, "misses": 1, "entries": 1}
        second = optimize(covered, Criterion.COST, quota, memo=memo)
        assert memo.hits == 1
        assert combination_key(first) == combination_key(second)

    def test_alternative_set_change_invalidates(self):
        covered = covered_alternatives(2)
        quota = time_quota(covered)
        memo = DPMemo()
        optimize(covered, Criterion.COST, quota, memo=memo)
        # Drop one alternative of one job: the per-job (g, z) rows
        # change, so the memo must miss, not serve the stale table.
        job = next(job for job, windows in covered.items() if len(windows) > 1)
        shrunk = dict(covered)
        shrunk[job] = covered[job][:-1]
        fresh = optimize(shrunk, Criterion.COST, quota, memo=memo)
        assert memo.stats()["misses"] == 2
        assert combination_key(fresh) == combination_key(
            optimize(shrunk, Criterion.COST, quota, memo=None)
        )

    def test_quota_change_invalidates(self):
        covered = covered_alternatives(3)
        quota = time_quota(covered)
        memo = DPMemo()
        optimize(covered, Criterion.COST, quota, memo=memo)
        optimize(covered, Criterion.COST, quota * 2.0, memo=memo)
        assert memo.stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_infeasible_outcomes_are_cached(self):
        resource = make_resource("solo", performance=1.0, price=1.0)
        job = Job(ResourceRequest(node_count=1, volume=10.0), name="j0")
        window = find_alternatives(
            # One slot, one job, one window of length 10.
            SlotList([Slot(resource, 0.0, 10.0)]),
            Batch([job]),
        ).alternatives[job]
        memo = DPMemo()
        for _ in range(2):
            with pytest.raises(InfeasibleConstraintError):
                optimize({job: window}, Criterion.COST, 1.0, memo=memo)
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_lru_eviction_bounds_entries(self):
        covered = covered_alternatives(5)
        memo = DPMemo(max_entries=2)
        quota = time_quota(covered)
        for bump in range(4):
            optimize(covered, Criterion.COST, quota + bump, memo=memo)
        assert len(memo) == 2
        assert memo.stats()["misses"] == 4

    def test_invalid_capacity_rejected(self):
        with pytest.raises(OptimizationError):
            DPMemo(max_entries=0)


class TestSchedulerMemoIsolation:
    """No ambient process-wide memo: schedulers never share cache state
    implicitly (the retired ``DEFAULT_DP_MEMO`` module global)."""

    def test_schedulers_do_not_share_memo_implicitly(self):
        slots = make_random_slot_list(3)
        batch = make_random_batch(3)
        first = BatchScheduler(SchedulerConfig())
        first.schedule(slots, batch)
        first.schedule(slots, batch)
        # Same instance twice: the second cycle hits the private memo.
        assert first.dp_memo.stats()["hits"] > 0

        # A fresh scheduler on the *same* instance starts cold — were a
        # process-wide memo still ambient, these would be all hits.
        second = BatchScheduler(SchedulerConfig())
        assert second.dp_memo is not first.dp_memo
        second.schedule(slots, batch)
        assert second.dp_memo.stats()["hits"] == 0
        assert second.dp_memo.stats()["misses"] > 0

    def test_module_has_no_default_memo_global(self):
        import importlib

        # ``import repro.core.optimize as m`` would bind the re-exported
        # *function* (repro.core shadows the submodule name); go through
        # importlib to get the module object itself.
        optimize_module = importlib.import_module("repro.core.optimize")
        assert not hasattr(optimize_module, "DEFAULT_DP_MEMO")
        assert "DEFAULT_DP_MEMO" not in optimize_module.__all__


class TestSchedulerByteIdentity:
    @pytest.mark.parametrize("objective", [Criterion.TIME, Criterion.COST])
    def test_memo_on_equals_memo_off_across_seeded_run(self, objective):
        """Repeated seeded scheduling cycles: memo on ≡ memo off.

        ``on`` keeps its memo across every cycle; the memo-off side is a
        fresh, cold scheduler per cycle, so nothing it returns was served
        from a cache.
        """
        config = SchedulerConfig(objective=objective)
        on = BatchScheduler(config)
        for seed in range(8):
            slots = make_random_slot_list(seed)
            batch = make_random_batch(seed)
            # Two cycles per seed so the second poses the memo an
            # already-solved instance (a guaranteed cross-cycle hit).
            for _ in range(2):
                outcome_on = on.schedule(slots, batch)
                outcome_off = BatchScheduler(config).schedule(slots, batch)
                assert outcome_on.quota == outcome_off.quota
                assert outcome_on.budget == outcome_off.budget
                assert combination_key(outcome_on.combination) == combination_key(
                    outcome_off.combination
                )
        assert on.dp_memo.hits > 0

    def test_vo_budget_hits_cross_cycle(self):
        covered = covered_alternatives(7)
        quota = time_quota(covered)
        memo = DPMemo()
        assert vo_budget(covered, quota, memo=memo) == vo_budget(
            covered, quota, memo=memo
        )
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1}


class TestMemoTelemetry:
    def test_hit_and_miss_counters(self):
        configure()
        telemetry = get_telemetry()
        covered = covered_alternatives(8)
        budget_limit = vo_budget(covered)
        memo = DPMemo()
        minimize_time(covered, budget_limit, memo=memo)
        minimize_time(covered, budget_limit, memo=memo)
        registry = telemetry.registry
        assert registry.counter("dp.memo.misses", objective="time").value == 1
        assert registry.counter("dp.memo.hits", objective="time").value == 1
