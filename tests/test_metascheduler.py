"""Tests for the iterative metascheduler and workload trace."""

from __future__ import annotations

import pytest

from repro.core import (
    BatchScheduler,
    InfeasiblePolicy,
    InvalidRequestError,
    Job,
    ResourceRequest,
    SchedulerConfig,
)
from repro.grid import (
    Cluster,
    ComputeNode,
    JobState,
    Metascheduler,
    VOEnvironment,
    WorkloadTrace,
)


def _environment(node_count: int = 4) -> VOEnvironment:
    nodes = [ComputeNode(f"n{i}", performance=1.0, price=2.0) for i in range(node_count)]
    return VOEnvironment([Cluster("c", nodes)])


def _scheduler() -> BatchScheduler:
    return BatchScheduler(
        SchedulerConfig(infeasible_policy=InfeasiblePolicy.EARLIEST)
    )


def _job(node_count: int = 1, volume: float = 50.0, name: str = "") -> Job:
    return Job(
        ResourceRequest(node_count=node_count, volume=volume, max_price=3.0), name=name
    )


class TestWorkloadTrace:
    def test_lifecycle(self):
        trace = WorkloadTrace()
        job = _job(name="a")
        record = trace.add(job, submit_time=5.0)
        assert record.state is JobState.PENDING
        trace.mark_postponed(job)
        assert record.postponements == 1
        assert record.wait_time is None

    def test_summary_empty(self):
        summary = WorkloadTrace().summary()
        assert summary.submitted == 0
        assert summary.mean_wait_time is None
        assert summary.makespan is None
        assert summary.total_cost == 0.0

    def test_state_counts_cover_every_state(self):
        trace = WorkloadTrace()
        trace.add(_job(name="a"), submit_time=0.0)
        counts = trace.state_counts()
        assert counts == {
            "pending": 1,
            "scheduled": 0,
            "completed": 0,
            "rejected": 0,
        }

    def test_owner_income_empty_without_placements(self):
        trace = WorkloadTrace()
        trace.add(_job(name="a"), submit_time=0.0)
        assert trace.owner_income() == {}
        assert trace.summary().total_owner_income == 0.0


class TestMetaschedulerValidation:
    def test_rejects_bad_parameters(self):
        environment = _environment()
        with pytest.raises(InvalidRequestError):
            Metascheduler(environment, period=0.0)
        with pytest.raises(InvalidRequestError):
            Metascheduler(environment, horizon=-1.0)
        with pytest.raises(InvalidRequestError):
            Metascheduler(environment, max_batch_size=0)

    def test_run_rejects_reversed_span(self):
        scheduler = Metascheduler(_environment(), _scheduler())
        with pytest.raises(InvalidRequestError):
            scheduler.run(until=-10.0)


class TestSingleIteration:
    def test_schedules_submitted_job(self):
        environment = _environment()
        meta = Metascheduler(environment, _scheduler(), horizon=400.0)
        job = _job(node_count=2, name="g1")
        meta.submit(job)
        report = meta.run_iteration(0.0)
        assert report.scheduled == 1
        assert report.postponed == 0
        record = meta.trace.record_for(job)
        assert record.state is JobState.SCHEDULED
        assert record.window is not None
        # The reservation really landed in the environment.
        assert environment.total_income(0.0, 400.0) > 0.0

    def test_future_submission_not_batched(self):
        meta = Metascheduler(_environment(), _scheduler())
        meta.submit(_job(), at_time=100.0)
        report = meta.run_iteration(0.0)
        assert report.batch_size == 0
        assert meta.backlog() == 1

    def test_empty_queue_publishes_nothing_and_counts_the_slots(self, monkeypatch):
        environment = _environment()
        for position, node in enumerate(environment.nodes()):
            for start in range(0, 600, 90 + 20 * position):
                node.run_local_job(float(start), float(start + 30 + 4 * position))
        meta = Metascheduler(
            environment, _scheduler(), horizon=400.0, min_slot_length=12.0
        )
        meta.submit(_job(), at_time=500.0)  # arrives after the tick
        # What the tick published before empty batches skipped it.
        published = environment.vacant_slot_list(100.0, 500.0, min_length=12.0)
        calls: list[str] = []
        monkeypatch.setattr(
            VOEnvironment,
            "vacant_slot_list",
            lambda *args, **kwargs: calls.append("vacant_slot_list"),
        )
        monkeypatch.setattr(
            BatchScheduler, "schedule", lambda *args: calls.append("schedule")
        )
        report = meta.run_iteration(100.0)
        assert calls == []
        assert report.batch_size == 0
        assert report.slot_count == len(published) > 0
        assert (report.scheduled, report.postponed, report.rejected) == (0, 0, 0)
        assert report.total_alternatives == 0
        assert not report.used_fallback

    def test_impossible_job_postponed_each_iteration(self):
        meta = Metascheduler(_environment(node_count=1), _scheduler(), horizon=300.0)
        job = _job(node_count=3, name="huge")  # needs 3 nodes, VO has 1
        meta.submit(job)
        for index in range(3):
            report = meta.run_iteration(float(index) * 60.0)
            assert report.postponed == 1
        assert meta.trace.record_for(job).postponements == 3

    def test_postponement_limit_rejects(self):
        meta = Metascheduler(
            _environment(node_count=1),
            _scheduler(),
            max_postponements=1,
        )
        job = _job(node_count=3, name="huge")
        meta.submit(job)
        meta.run_iteration(0.0)
        report = meta.run_iteration(60.0)
        assert report.rejected == 1
        assert meta.trace.record_for(job).state is JobState.REJECTED
        assert meta.backlog() == 0

    def test_max_batch_size_defers_overflow(self):
        meta = Metascheduler(_environment(), _scheduler(), max_batch_size=1)
        first, second = _job(name="a"), _job(name="b")
        meta.submit(first)
        meta.submit(second)
        report = meta.run_iteration(0.0)
        assert report.batch_size == 1
        assert report.scheduled == 1
        # The overflow job is neither postponed nor rejected — it waits.
        assert meta.trace.record_for(second).postponements == 0
        assert meta.backlog() == 1


class TestRun:
    def test_periodic_ticks(self):
        meta = Metascheduler(_environment(), _scheduler(), period=50.0)
        reports = meta.run(until=200.0)
        assert [report.time for report in reports] == [0.0, 50.0, 100.0, 150.0, 200.0]

    def test_eventually_drains_queue(self):
        environment = _environment(node_count=2)
        meta = Metascheduler(environment, _scheduler(), period=100.0, horizon=500.0)
        for index in range(6):
            meta.submit(_job(node_count=2, volume=100.0, name=f"g{index}"), at_time=0.0)
        meta.run(until=2000.0)
        summary = meta.trace.summary()
        assert summary.scheduled == 6
        assert meta.backlog() == 0

    def test_completions_marked(self):
        meta = Metascheduler(_environment(), _scheduler(), period=100.0, horizon=400.0)
        meta.submit(_job(volume=50.0, name="quick"))
        meta.run(until=1000.0)
        assert meta.completed_jobs() == 1

    def test_windows_of_different_jobs_disjoint_in_environment(self):
        environment = _environment(node_count=2)
        meta = Metascheduler(environment, _scheduler(), period=50.0, horizon=600.0)
        for index in range(5):
            meta.submit(_job(node_count=1, volume=80.0, name=f"g{index}"))
        meta.run(until=600.0)
        # If any two committed windows overlapped, commit_window would
        # have raised; additionally the schedules must be clean.
        for node in environment.nodes():
            intervals = node.schedule.intervals()
            for left, right in zip(intervals, intervals[1:]):
                assert left.end <= right.start

    def test_trace_summary_metrics(self):
        meta = Metascheduler(_environment(), _scheduler(), period=50.0, horizon=400.0)
        meta.submit(_job(volume=50.0, name="a"), at_time=0.0)
        meta.submit(_job(volume=50.0, name="b"), at_time=25.0)
        meta.run(until=300.0)
        summary = meta.trace.summary()
        assert summary.submitted == 2
        assert summary.scheduled == 2
        assert summary.mean_wait_time is not None and summary.mean_wait_time >= 0.0
        assert summary.total_cost > 0.0
        assert summary.makespan is not None

    def test_summary_state_counts_and_owner_income(self):
        meta = Metascheduler(_environment(), _scheduler(), period=50.0, horizon=400.0)
        meta.submit(_job(volume=50.0, name="a"), at_time=0.0)
        meta.submit(_job(volume=50.0, name="b"), at_time=25.0)
        meta.run(until=1000.0)
        summary = meta.trace.summary()
        assert sum(summary.state_counts.values()) == summary.submitted
        assert summary.state_counts["completed"] + summary.state_counts[
            "scheduled"
        ] == summary.scheduled
        # Every coin users spent landed on some owner's node.
        assert summary.total_owner_income == pytest.approx(summary.total_cost)
        assert all(income > 0.0 for income in summary.owner_income.values())

    def test_user_spend_equals_owner_income(self):
        """Money conservation: what users pay is what owners earn."""
        alpha = Cluster(
            "alpha", [ComputeNode(f"a{i}", performance=1.0, price=2.0) for i in range(2)]
        )
        beta = Cluster(
            "beta", [ComputeNode(f"b{i}", performance=1.0, price=4.0) for i in range(2)]
        )
        environment = VOEnvironment([alpha, beta])
        meta = Metascheduler(environment, _scheduler(), period=50.0, horizon=400.0)
        meta.submit(Job(ResourceRequest(2, 50.0, max_price=5.0), name="paid"))
        meta.submit(Job(ResourceRequest(9, 50.0, max_price=5.0), name="unplaceable"))
        meta.run(until=200.0)
        placed = [record for record in meta.trace if record.window is not None]
        assert [record.job.name for record in placed] == ["paid"]
        spend = sum(record.cost for record in placed)
        assert spend > 0.0
        assert spend == pytest.approx(environment.total_income(0.0, 10_000.0))


class TestMetaschedulerTelemetry:
    """The telemetry gauges and the audit log must agree by construction."""

    def test_meta_gauges_match_trace_state_counts(self):
        from repro import obs

        obs.disable()
        telemetry = obs.configure(enabled=True)
        try:
            meta = Metascheduler(
                _environment(), _scheduler(), period=50.0, horizon=400.0
            )
            meta.submit(_job(volume=50.0, name="a"), at_time=0.0)
            meta.submit(_job(volume=50.0, name="b"), at_time=25.0)
            meta.run(until=300.0)
            counts = meta.trace.state_counts()
            for state, expected in counts.items():
                gauge = telemetry.registry.get("meta.jobs", state=state)
                assert gauge is not None, f"missing meta.jobs{{state={state}}}"
                assert gauge.value == expected
            iterations = telemetry.registry.get("meta.iterations")
            assert iterations.value == len(meta.reports)
            scheduled = telemetry.registry.get("meta.scheduled")
            assert scheduled.value == sum(r.scheduled for r in meta.reports)
            # One root span tree per iteration.
            assert len(telemetry.traces) == len(meta.reports)
            assert all(root.name == "meta.iteration" for root in telemetry.traces)
        finally:
            obs.disable()


class TestDemandPricing:
    """Section 7 future work: supply-and-demand pricing in the cycle."""

    def _busy_environment(self):
        environment = _environment(node_count=2)
        for node in environment.nodes():
            node.run_local_job(0.0, 80.0)  # 80% busy over the first period
        return environment

    def test_surge_raises_job_costs(self):
        from repro.core import DemandAdjustedPricing

        job_costs = {}
        for sensitivity in (None, 2.0):
            environment = self._busy_environment()
            pricing = (
                None
                if sensitivity is None
                else DemandAdjustedPricing(sensitivity=sensitivity)
            )
            meta = Metascheduler(
                environment,
                _scheduler(),
                period=100.0,
                horizon=400.0,
                demand_pricing=pricing,
            )
            # Generous price cap: the surged price must stay affordable,
            # otherwise the job is postponed instead of repriced.
            job = Job(
                ResourceRequest(node_count=1, volume=50.0, max_price=10.0),
                name=f"g-{sensitivity}",
            )
            meta.submit(job)
            meta.run_iteration(0.0)
            record = meta.trace.record_for(job)
            assert record.window is not None
            job_costs[sensitivity] = record.window.cost
        assert job_costs[2.0] > job_costs[None]

    def test_idle_environment_no_surge(self):
        from repro.core import DemandAdjustedPricing

        environment = _environment(node_count=2)
        meta = Metascheduler(
            environment,
            _scheduler(),
            period=100.0,
            horizon=400.0,
            demand_pricing=DemandAdjustedPricing(sensitivity=5.0),
        )
        job = _job(volume=50.0, name="idle-job")
        meta.submit(job)
        meta.run_iteration(0.0)
        record = meta.trace.record_for(job)
        assert record.window is not None
        # Zero utilization -> multiplier 1 -> base price 2.0 per unit.
        assert record.window.cost == pytest.approx(2.0 * 50.0)
