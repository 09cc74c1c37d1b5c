"""Chaos engine tests (repro.chaos): fault plans, the fs shim, supervised
worker recovery, and the crash-point sweeps over both checkpoint formats.

The heavyweight end-to-end guarantees live in the harness campaigns —
the tests here both unit-test the primitives and run the campaigns at a
fixed seed, so CI replays exactly the sweep a failing report names.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import pytest

from repro.chaos import (
    ChaosFilesystem,
    CrashOnceSpanTask,
    FaultPlan,
    FaultPoint,
    SimulatedCrash,
    WorkerSupervisor,
    derive_fault_seed,
    run_campaigns,
    sweep_crash_points,
    sweep_experiment_resume,
)
from repro.chaos.fs import flip_one_bit
from repro.core import InvalidRequestError, SchedulingError
from repro.core.errors import (
    JournalClosedError,
    PersistenceError,
    WorkerLostError,
)
from repro.core.journal import JournalWriter, read_journal
from repro.sim.experiment import ExperimentConfig, ParallelRunner

import random

CHAOS_SEED = 20110368

ZERO_BACKOFF = WorkerSupervisor(max_restarts=2, backoff_base=0.0, backoff_cap=0.0)


class TestFaultPrimitives:
    def test_derived_seed_is_deterministic_and_label_sensitive(self):
        assert derive_fault_seed(7, "io") == derive_fault_seed(7, "io")
        assert derive_fault_seed(7, "io") != derive_fault_seed(8, "io")
        assert derive_fault_seed(7, "io") != derive_fault_seed(7, "pool")

    def test_point_fires_on_nth_matching_operation_only_once(self):
        plan = FaultPlan((FaultPoint("write", "torn", index=3, path="journal"),))
        assert plan.observe("write", "journal.jsonl") is None
        assert plan.observe("fsync", "journal.jsonl") is None  # other op
        assert plan.observe("write", "snapshot.json") is None  # other file
        assert plan.observe("write", "journal.jsonl") is None
        fired = plan.observe("write", "journal.jsonl")
        assert fired is not None and fired.kind == "torn"
        assert plan.observe("write", "journal.jsonl") is None  # consumed
        assert [f.point.describe() for f in plan.injected] == [
            "write#3(torn)@journal"
        ]
        assert plan.pending == ()

    def test_point_validation(self):
        with pytest.raises(InvalidRequestError, match="unknown fault op"):
            FaultPoint("read", "crash")
        with pytest.raises(InvalidRequestError, match="not valid for op"):
            FaultPoint("fsync", "torn")
        with pytest.raises(InvalidRequestError, match="1-based"):
            FaultPoint("write", "crash", index=0)

    def test_simulated_crash_is_not_an_exception(self):
        # It must unwind past `except Exception` exactly like SIGKILL.
        assert not issubclass(SimulatedCrash, Exception)

    def test_supervisor_ladder_matches_retry_policy_shape(self):
        supervisor = WorkerSupervisor(
            max_restarts=5, backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3
        )
        assert supervisor.delay(1) == pytest.approx(0.1)
        assert supervisor.delay(2) == pytest.approx(0.2)
        assert supervisor.delay(3) == pytest.approx(0.3)  # capped
        assert supervisor.delay(4) == pytest.approx(0.3)
        with pytest.raises(InvalidRequestError, match="backoff_cap"):
            WorkerSupervisor(backoff_base=0.5, backoff_cap=0.1)


class TestChaosFilesystem:
    def test_flip_one_bit_keeps_payload_json_shaped(self):
        line = '{"crc":123,"data":{},"kind":"x","seq":4}'
        flipped = flip_one_bit(line)
        assert flipped != line
        assert flipped[:-3] == line[:-3]  # only the tail digit moved
        assert flipped[-2].isdigit()

    def test_enospc_poisons_journal_fail_closed(self, tmp_path):
        # Satellite regression: after any append OSError the handle must
        # refuse all further appends (fsyncgate) — write #1 is the
        # header, so index=2 starves the first real append.
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan((FaultPoint("write", "enospc", index=2, path=path.name),))
        writer = JournalWriter(path, fsync=False, fs=ChaosFilesystem(plan))
        with pytest.raises(PersistenceError, match="No space left"):
            writer.append("cmd", {"n": 1})
        assert writer.poisoned
        with pytest.raises(JournalClosedError):
            writer.append("cmd", {"n": 2})
        assert plan.injected and plan.injected[0].point.kind == "enospc"

    def test_torn_append_is_skipped_on_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan((FaultPoint("write", "torn", index=3, path=path.name),))
        writer = JournalWriter(path, fsync=False, fs=ChaosFilesystem(plan))
        writer.append("cmd", {"n": 1})
        with pytest.raises(SimulatedCrash):
            writer.append("cmd", {"n": 2})
        with pytest.warns(UserWarning, match="torn"):
            records = read_journal(path)
        # Header (seq 0) + first command survived; the torn record is
        # the crash artefact and must not surface.
        assert [record.seq for record in records] == [0, 1]


class TestCrashPointSweeps:
    def test_durable_metascheduler_sweep(self, tmp_path):
        result = sweep_crash_points(tmp_path, seed=CHAOS_SEED)
        assert result.failures == []
        assert result.runs == 18  # 9 journal appends x (crash, torn)
        assert result.injected == 18

    def test_experiment_resume_sweep(self, tmp_path):
        result = sweep_experiment_resume(tmp_path, seed=CHAOS_SEED, iterations=4)
        assert result.failures == []
        # 4 serial records x 2 modes, plus one sampled parallel point
        # per mode.
        assert result.runs == 10
        assert result.injected == 10

    def test_io_faults_campaign(self, tmp_path):
        # ENOSPC / failed fsync / failed snapshot rename / silent
        # bit-flip on the grid format, ENOSPC on the sim format.
        report = run_campaigns(tmp_path, seed=CHAOS_SEED, names=["io"])
        (campaign,) = report.campaigns
        assert campaign.failures == []
        assert campaign.runs == 5
        assert campaign.injected == 5

    def test_same_seed_reproduces_the_report(self, tmp_path):
        first = run_campaigns(tmp_path / "a", seed=CHAOS_SEED, names=["io"])
        second = run_campaigns(tmp_path / "b", seed=CHAOS_SEED, names=["io"])
        assert first.summary() == second.summary()

    def test_unknown_campaign_rejected(self, tmp_path):
        with pytest.raises(InvalidRequestError, match="unknown chaos campaign"):
            run_campaigns(tmp_path, names=["sweeep"])

    def test_campaigns_run_with_telemetry_enabled(self, tmp_path):
        # Regression: the guarded chaos counters/decisions only execute
        # when telemetry is on, so a label-name collision there is
        # invisible to every other test.
        from repro import obs

        obs.disable()
        telemetry = obs.configure(enabled=True)
        try:
            report = run_campaigns(tmp_path, seed=CHAOS_SEED, names=["io"])
            assert report.ok
            campaigns = telemetry.registry.get(
                "chaos.campaigns", campaign="io", ok="true"
            )
            assert campaigns is not None and campaigns.value == 1
            ops = {record["op"] for record in telemetry.decisions.records}
            assert {"chaos.fault", "chaos.campaign"} <= ops
        finally:
            obs.disable()


@dataclass(frozen=True)
class _KillAlwaysTask:
    """Span task whose worker always SIGKILLs itself — never recovers."""

    def __call__(self, config, indices):
        os.kill(os.getpid(), signal.SIGKILL)


class TestShardRecovery:
    """Kill injection into the worker shards of a seed-sharded series."""

    def test_kill_requires_process_mode(self, tmp_path):
        # Called inline, the task would SIGKILL the caller itself.
        sentinel = tmp_path / "killed.sentinel"
        config = ExperimentConfig(iterations=2, seed=CHAOS_SEED)
        task = CrashOnceSpanTask(str(sentinel), 0)
        with pytest.raises(InvalidRequestError, match="process-mode"):
            task(config, [0, 1])
        assert not sentinel.exists()


class TestPoolRecovery:
    def test_killed_pool_worker_recovers_byte_identically(self, tmp_path):
        # Satellite regression: an actually-killed worker breaks the
        # whole concurrent.futures pool; the supervised retry on a fresh
        # pool must converge on the undisturbed result.
        config = ExperimentConfig(iterations=6, seed=CHAOS_SEED)
        reference = ParallelRunner(config, workers=2).run()
        sentinel = tmp_path / "killed.sentinel"
        seed = derive_fault_seed(CHAOS_SEED, "test-pool")
        victim = random.Random(seed).randrange(config.iterations)
        runner = ParallelRunner(
            config,
            workers=2,
            supervisor=ZERO_BACKOFF,
            span_task=CrashOnceSpanTask(str(sentinel), victim),
        )
        assert runner.run() == reference
        assert sentinel.exists()

    def test_recurring_pool_breakage_raises_worker_lost(self):
        config = ExperimentConfig(iterations=4, seed=CHAOS_SEED)
        runner = ParallelRunner(
            config,
            workers=2,
            supervisor=WorkerSupervisor(
                max_restarts=0, backoff_base=0.0, backoff_cap=0.0
            ),
            span_task=_KillAlwaysTask(),
        )
        with pytest.raises(WorkerLostError, match="pool broke"):
            runner.run()

    def test_worker_lost_maps_to_cli_exit_2(self):
        # main() converts SchedulingError to exit code 2; WorkerLostError
        # must ride that path.
        assert issubclass(WorkerLostError, SchedulingError)
