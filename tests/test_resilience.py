"""Fault-injection and recovery tests (repro.grid.resilience).

Covers the failure generator's determinism contracts, the recovery
ladder (hot-swap → re-search → backoff resubmission → typed rejection),
the event-driver scenarios the ISSUE names (tick-boundary outage,
co-allocated all-node revocation, retry exhaustion), the hypothesis
property that recovery never violates the ALP per-slot or AMP budget
constraints, and the experiment engine's worker-count invariance with
failures enabled.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchScheduler,
    Criterion,
    InfeasiblePolicy,
    InvalidRequestError,
    Job,
    RecoveryExhaustedError,
    ResourceRequest,
    SchedulerConfig,
    SlotSearchAlgorithm,
)
from repro.grid import (
    Cluster,
    ComputeNode,
    FailureConfig,
    FailureGenerator,
    JobState,
    Metascheduler,
    RecoveryManager,
    RecoveryOutcome,
    RetryPolicy,
    SimulationDriver,
    VOEnvironment,
    apply_slot_outages,
    derive_node_seed,
)
from repro.sim import ExperimentConfig, ParallelRunner

from tests.conftest import make_random_slot_list


def _environment(node_count: int = 4) -> VOEnvironment:
    nodes = [
        ComputeNode(f"n{i}", performance=1.0, price=1.0) for i in range(node_count)
    ]
    return VOEnvironment([Cluster("c", nodes)])


def _meta(
    environment: VOEnvironment | None = None,
    *,
    recovery: RetryPolicy | RecoveryManager | None = None,
    algorithm: SlotSearchAlgorithm = SlotSearchAlgorithm.AMP,
) -> Metascheduler:
    scheduler = BatchScheduler(
        SchedulerConfig(algorithm=algorithm, infeasible_policy=InfeasiblePolicy.EARLIEST)
    )
    return Metascheduler(
        environment or _environment(),
        scheduler,
        period=50.0,
        horizon=400.0,
        recovery=recovery,
    )


class TestFailureGenerator:
    def test_config_validation(self):
        with pytest.raises(InvalidRequestError):
            FailureConfig(mtbf=0.0)
        with pytest.raises(InvalidRequestError):
            FailureConfig(mttr=-1.0)

    def test_stream_is_deterministic(self):
        generator = FailureGenerator(FailureConfig(mtbf=500.0, mttr=50.0, seed=9))
        first = list(generator.stream("n0", 0.0, 10_000.0))
        second = list(generator.stream("n0", 0.0, 10_000.0))
        assert first == second
        assert first  # 10k units at mtbf 500 essentially always fails

    def test_streams_independent_per_node(self):
        generator = FailureGenerator(FailureConfig(mtbf=500.0, mttr=50.0, seed=9))
        a = list(generator.stream("n0", 0.0, 10_000.0))
        b = list(generator.stream("n1", 0.0, 10_000.0))
        assert a != b

    def test_outages_ordered_and_disjoint(self):
        generator = FailureGenerator(FailureConfig(mtbf=100.0, mttr=200.0, seed=4))
        outages = list(generator.stream("n0", 0.0, 20_000.0))
        for earlier, later in zip(outages, outages[1:]):
            assert earlier.end <= later.start

    def test_node_seed_depends_on_salt_and_name(self):
        assert derive_node_seed(1, "n0") == derive_node_seed(1, "n0")
        assert derive_node_seed(1, "n0") != derive_node_seed(2, "n0")
        assert derive_node_seed(1, "n0") != derive_node_seed(1, "n1")
        assert derive_node_seed(1, "n0") != derive_node_seed(1, "n0", salt=1)

    def test_driver_schedule_count_matches_streams(self):
        environment = _environment(3)
        driver = SimulationDriver(_meta(environment))
        config = FailureConfig(mtbf=300.0, mttr=30.0, seed=5)
        count = driver.add_failures(config, 0.0, 5000.0)
        expected = sum(
            len(list(FailureGenerator(config).stream(node.name, 0.0, 5000.0)))
            for node in environment.nodes()
        )
        assert count == expected > 0


class TestApplySlotOutages:
    def test_pure_function_of_inputs(self):
        slots = make_random_slot_list(3, count=20)
        config = FailureConfig(mtbf=100.0, mttr=40.0, seed=2)
        first = apply_slot_outages(slots, config, salt=7)
        second = apply_slot_outages(slots, config, salt=7)
        assert [(s.resource.name, s.start, s.end, s.price) for s in first] == [
            (s.resource.name, s.start, s.end, s.price) for s in second
        ]

    def test_salt_changes_the_carving(self):
        slots = make_random_slot_list(3, count=20)
        config = FailureConfig(mtbf=100.0, mttr=40.0, seed=2)
        a = apply_slot_outages(slots, config, salt=1)
        b = apply_slot_outages(slots, config, salt=2)
        assert [(s.start, s.end) for s in a] != [(s.start, s.end) for s in b]

    def test_only_removes_vacant_time(self):
        slots = make_random_slot_list(5, count=15)
        config = FailureConfig(mtbf=60.0, mttr=60.0, seed=1)
        degraded = apply_slot_outages(slots, config)
        total_before = sum(s.end - s.start for s in slots)
        total_after = sum(s.end - s.start for s in degraded)
        assert total_after < total_before
        # Every degraded slot is a sub-span of some original slot of the
        # same resource at the same price.
        originals = [(s.resource.uid, s.start, s.end, s.price) for s in slots]
        for piece in degraded:
            assert any(
                piece.resource.uid == uid
                and piece.start >= start
                and piece.end <= end
                and piece.price == price
                for uid, start, end, price in originals
            )

    def test_empty_list_passthrough(self):
        from repro.core import SlotList

        config = FailureConfig(mtbf=10.0, mttr=10.0, seed=0)
        assert len(apply_slot_outages(SlotList(), config)) == 0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(InvalidRequestError):
            RetryPolicy(max_revocations=-1)
        with pytest.raises(InvalidRequestError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(InvalidRequestError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(InvalidRequestError):
            RetryPolicy(backoff_base=100.0, backoff_cap=10.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=10.0, backoff_factor=2.0, backoff_cap=35.0)
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 20.0
        assert policy.delay(3) == 35.0  # capped
        assert RetryPolicy(backoff_base=0.0).delay(5) == 0.0


class TestHotSwapRecovery:
    def test_hot_swap_majority_same_tick(self):
        """The ISSUE's recovery demo: with recovery on, >= 50 % of the
        revoked jobs are rescheduled by hot-swap in the *same event*;
        resubmit-only recovers 0 % same-tick."""

        def run(with_recovery: bool):
            meta = _meta(
                _environment(4),
                recovery=RetryPolicy() if with_recovery else None,
            )
            jobs = [
                Job(ResourceRequest(1, 60.0, max_price=3.0), name=f"g{i}")
                for i in range(2)
            ]
            for job in jobs:
                meta.submit(job)
            meta.run_iteration(0.0)
            revoked = 0
            for job in jobs:
                record = meta.trace.record_for(job)
                assert record.state is JobState.SCHEDULED
                victim = meta.environment.node_for(
                    record.window.allocations[0].resource.uid
                )
                meta.inject_outage(victim, record.window.start, record.window.end)
                revoked += 1
            return meta, revoked

        meta, revoked = run(with_recovery=True)
        counts = meta.recovery.outcome_counts()
        assert revoked == 2
        assert counts["hot_swap"] / revoked >= 0.5
        same_tick = [r for r in meta.trace if r.recoveries > 0]
        assert len(same_tick) >= 1
        for record in same_tick:
            assert record.state is JobState.SCHEDULED
            assert record.resubmissions == 0

        baseline, revoked = run(with_recovery=False)
        assert revoked == 2
        # Resubmit-only: nothing is rescheduled inside the outage event.
        assert all(record.recoveries == 0 for record in baseline.trace)
        assert all(
            record.state is JobState.PENDING
            for record in baseline.trace
            if record.resubmissions > 0
        )

    def test_hot_swap_window_is_committed_and_consistent(self):
        meta = _meta(_environment(3), recovery=RetryPolicy())
        job = Job(ResourceRequest(1, 50.0, max_price=3.0), name="g1")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        old_window = record.window
        victim = meta.environment.node_for(old_window.allocations[0].resource.uid)
        meta.inject_outage(victim, old_window.start, old_window.end)
        assert record.state is JobState.SCHEDULED
        assert record.recoveries == 1
        assert record.window != old_window
        # The new window satisfies the request and is really reserved.
        assert record.window.satisfies(job.request, budget=job.request.budget)
        assert meta.environment.cancel_job("g1") == 1

    def test_co_allocated_job_loses_all_nodes_and_recovers(self):
        """Losing one node kills the whole co-allocation; recovery must
        recommit a complete synchronous window, not a partial one."""
        meta = _meta(_environment(3), recovery=RetryPolicy())
        job = Job(ResourceRequest(3, 60.0, max_price=3.0), name="wide")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        window = record.window
        assert window.slots_number == 3
        victim = meta.environment.node_for(window.allocations[0].resource.uid)
        # Outage clipping only the start of the window on ONE node.
        meta.inject_outage(victim, window.start, window.start + 10.0)
        assert record.state is JobState.SCHEDULED
        assert record.recoveries == 1
        new_window = record.window
        assert new_window.slots_number == 3
        starts = {allocation.start for allocation in new_window.allocations}
        assert len(starts) == 1  # still synchronous
        # All three nodes hold exactly the new reservations.
        assert meta.environment.cancel_job("wide") == 3

    def test_research_used_when_alternatives_are_dead(self):
        # Single node, phase 1 capped at 2 alternatives: the outage
        # covers the chosen window AND the only retained alternative, so
        # hot-swap misses, but an immediate re-search still finds the
        # vacancy past the outage — no queue round trip.
        scheduler = BatchScheduler(
            SchedulerConfig(
                infeasible_policy=InfeasiblePolicy.EARLIEST,
                max_alternatives_per_job=2,
            )
        )
        meta = Metascheduler(
            _environment(1),
            scheduler,
            period=50.0,
            horizon=400.0,
            recovery=RetryPolicy(),
        )
        job = Job(ResourceRequest(1, 50.0, max_price=3.0), name="g1")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        node = meta.environment.node_for(record.window.allocations[0].resource.uid)
        # Both the chosen [0, 50) and the retained [50, 100) windows
        # overlap the outage; single node => nothing to hot-swap to.
        meta.inject_outage(node, 0.0, 120.0)
        assert record.state is JobState.SCHEDULED
        assert record.recoveries == 1
        assert record.window.start >= 120.0
        counts = meta.recovery.outcome_counts()
        assert counts["research"] == 1
        assert counts["hot_swap"] == 0


class TestRetryExhaustion:
    def test_back_to_back_outages_hit_typed_rejection(self):
        meta = _meta(_environment(2), recovery=RetryPolicy(max_revocations=1))
        job = Job(ResourceRequest(1, 50.0, max_price=3.0), name="g1")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        # First revocation: within budget, recovers in place.
        first_node = meta.environment.node_for(
            record.window.allocations[0].resource.uid
        )
        meta.inject_outage(first_node, record.window.start, record.window.end)
        assert record.state is JobState.SCHEDULED
        # Second revocation: budget (1) exhausted -> typed rejection.
        second_node = meta.environment.node_for(
            record.window.allocations[0].resource.uid
        )
        resubmitted = meta.inject_outage(
            second_node, record.window.start, record.window.end
        )
        assert resubmitted == []
        assert record.state is JobState.REJECTED
        assert record.window is None
        assert job not in meta.pending_jobs()
        event = meta.recovery.events[-1]
        assert event.outcome is RecoveryOutcome.REJECT
        assert isinstance(event.error, RecoveryExhaustedError)
        assert event.error.job_name == "g1"
        assert event.error.revocations == 2
        assert event.error.limit == 1
        # The drop is surfaced in the next tick's report.
        report = meta.run_iteration(50.0)
        assert report.recovery_rejections == 1
        assert report.revocations == 2

    def test_no_livelock_under_persistent_outages(self):
        """Bounded budget: a node that keeps failing can only revoke a
        job ``max_revocations + 1`` times before it is dropped."""
        meta = _meta(_environment(1), recovery=RetryPolicy(max_revocations=2))
        job = Job(ResourceRequest(1, 50.0, max_price=3.0), name="g1")
        meta.submit(job)
        node = next(meta.environment.nodes())
        now = 0.0
        for _ in range(20):
            meta.run_iteration(now)
            record = meta.trace.record_for(job)
            if record.state is JobState.REJECTED:
                break
            if record.state is JobState.SCHEDULED:
                meta.inject_outage(node, record.window.start, record.window.end)
            now += meta.period
        assert meta.trace.record_for(job).state is JobState.REJECTED
        assert meta.recovery.revocations(job) == 3  # budget 2, third strike

    def test_backoff_delays_requeue(self):
        meta = _meta(
            _environment(1),
            recovery=RetryPolicy(backoff_base=120.0, backoff_factor=2.0),
        )
        job = Job(ResourceRequest(1, 50.0, max_price=3.0), name="g1")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        node = next(meta.environment.nodes())
        # Outage covering the whole horizon: no hot-swap, no re-search.
        meta.inject_outage(node, 0.0, 500.0)
        assert record.state is JobState.PENDING
        event = meta.recovery.events[-1]
        assert event.outcome is RecoveryOutcome.RESUBMIT
        assert event.delay == 120.0
        # Before the delay elapses the job is not in the pending queue.
        assert meta.pending_jobs() == []
        meta.run_iteration(50.0)
        assert meta.trace.record_for(job).state is JobState.PENDING
        # Once the backoff expires, it re-enters the batch cycle.
        report = meta.run_iteration(150.0)
        assert report.batch_size == 1


class TestTickBoundaryOutage:
    def test_outage_at_tick_time_fires_before_the_tick(self):
        meta = _meta(_environment(2))
        job = Job(ResourceRequest(1, 200.0, max_price=3.0), name="g1")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        victim = meta.environment.node_for(record.window.allocations[0].resource.uid)
        driver = SimulationDriver(meta)
        driver.add_ticks(50.0, 100.0)
        driver.add_outage(victim, 50.0, 30.0)  # exactly on the tick
        events = driver.run()
        assert [event.kind.name for event in events[:2]] == ["OUTAGE", "TICK"]
        # The tick sharing the outage's timestamp already reports it and
        # (resubmit path) may reschedule the revoked job immediately.
        tick_report = events[1].report
        assert tick_report.time == 50.0
        assert tick_report.revocations == 1
        assert record.resubmissions == 1


class TestRecoveryManagerUnit:
    def test_retain_excludes_chosen_and_prunes_by_time(self):
        from repro.core import SlotIndex

        slots = make_random_slot_list(11, count=30)
        index = SlotIndex(slots)
        request = ResourceRequest(1, 50.0, max_price=5.0)
        windows = []
        for _ in range(3):
            window = index.find_alp_window(request)
            if window is None:
                break
            index.commit(window)
            windows.append(window)
        assert len(windows) >= 2
        job = Job(request, name="j")
        manager = RecoveryManager()
        manager.retain(job, windows, windows[0])
        assert windows[0] not in manager.retained(job)
        assert len(manager.retained(job)) == len(windows) - 1
        # Prune everything starting before a far-future time.
        manager.prune(1e12)
        assert manager.retained(job) == []

    def test_exhausted_only_past_the_budget(self):
        manager = RecoveryManager(RetryPolicy(max_revocations=1))
        job = Job(ResourceRequest(1, 10.0, max_price=2.0), name="j")
        assert manager.exhausted(job) is None
        manager.register_revocation(job)
        assert manager.exhausted(job) is None
        manager.register_revocation(job)
        error = manager.exhausted(job)
        assert isinstance(error, RecoveryExhaustedError)
        assert (error.job_name, error.revocations, error.limit) == ("j", 2, 1)

    def test_unlimited_budget_never_exhausts(self):
        manager = RecoveryManager(RetryPolicy(max_revocations=None))
        job = Job(ResourceRequest(1, 10.0, max_price=2.0), name="j")
        for _ in range(10):
            manager.register_revocation(job)
        assert manager.exhausted(job) is None


@pytest.mark.parametrize(
    "algorithm",
    [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP],
    ids=["alp", "amp"],
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_recovery_never_violates_constraints(algorithm, seed):
    """Property: however outages interleave, every window a job ends up
    holding — committed, hot-swapped, or re-searched — satisfies its
    request's constraints (per-slot price cap for ALP, aggregate budget
    for AMP) and the synchronous-start co-allocation contract."""
    import random

    from repro.sim import JobGenerator

    environment = _environment(5)
    meta = _meta(
        environment,
        recovery=RetryPolicy(max_revocations=2, backoff_base=25.0),
        algorithm=algorithm,
    )
    generator = JobGenerator(seed=seed)
    rng = random.Random(seed)
    for index in range(5):
        meta.submit(
            Job(generator.generate_request(), name=f"j{index}"),
            at_time=rng.uniform(0.0, 400.0),
        )
    driver = SimulationDriver(meta)
    driver.add_ticks(0.0, 1000.0)
    driver.add_failures(FailureConfig(mtbf=400.0, mttr=60.0, seed=seed), 0.0, 1000.0)
    driver.run()
    rho = meta.scheduler.config.rho
    for record in meta.trace:
        if record.state not in (JobState.SCHEDULED, JobState.COMPLETED):
            assert record.state is not JobState.REJECTED or record.window is None
            continue
        if record.window is None:
            continue
        request = record.job.request
        if algorithm is SlotSearchAlgorithm.AMP:
            assert record.window.satisfies(request, budget=request.scaled_budget(rho))
        else:
            assert record.window.satisfies(request)


class TestExperimentEngineFailures:
    CONFIG = ExperimentConfig(
        objective=Criterion.TIME,
        iterations=16,
        seed=4242,
        resolution=300,
        failures=FailureConfig(mtbf=400.0, mttr=60.0, seed=11),
    )

    def test_failures_change_the_series(self):
        plain = ExperimentConfig(
            objective=Criterion.TIME, iterations=16, seed=4242, resolution=300
        )
        degraded = ParallelRunner(self.CONFIG, workers=1).run()
        baseline = ParallelRunner(plain, workers=1).run()
        assert degraded.total_slots_processed != baseline.total_slots_processed

    def test_workers_invariant_with_failures(self):
        """The CI contract: with failure injection on, the sharded run
        merges byte-identical to the serial one."""
        serial = ParallelRunner(self.CONFIG, workers=1).run()
        parallel = ParallelRunner(self.CONFIG, workers=4).run()

        def document(result) -> str:
            return json.dumps(
                {
                    "samples": [asdict(sample) for sample in result.samples],
                    "attempted": result.attempted,
                    "dropped_uncovered": result.dropped_uncovered,
                    "dropped_infeasible": result.dropped_infeasible,
                    "total_slots_processed": result.total_slots_processed,
                    "total_jobs_attempted": result.total_jobs_attempted,
                },
                sort_keys=True,
            )

        assert document(parallel) == document(serial)
