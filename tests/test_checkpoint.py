"""Tests for durable metascheduler state (repro.grid.checkpoint)."""

from __future__ import annotations

import json
import os
import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, Resource, ResourceRequest, Slot, TaskAllocation, Window, amp
from repro.core.errors import (
    CheckpointMismatchError,
    InvalidRequestError,
    PersistenceError,
)
from repro.core.fsio import FileSystem
from repro.grid import (
    Cluster,
    ComputeNode,
    JobState,
    Metascheduler,
    RetryPolicy,
    VOEnvironment,
)
from repro.grid import checkpoint
from repro.grid.checkpoint import (
    CHECKPOINT_FORMAT,
    DurableMetascheduler,
    _Encoder,
    load_snapshot,
    restore_metascheduler,
    save_snapshot,
    snapshot_metascheduler,
)
from repro.obs import TraceContext
from repro.obs.telemetry import configure, disable, get_telemetry


def build_meta(**kwargs) -> Metascheduler:
    nodes = []
    for i in range(4):
        node = ComputeNode(f"n{i}", performance=1.0 + i * 0.5, price=1.0 + i)
        # Pin resource uids so independent builds (a reference run vs a
        # durable run) produce byte-identical snapshots.
        node.resource = Resource(
            f"n{i}", performance=1.0 + i * 0.5, price=1.0 + i, uid=900 + i
        )
        nodes.append(node)
    environment = VOEnvironment([Cluster("c0", nodes)])
    return Metascheduler(environment, period=50.0, horizon=500.0, **kwargs)


def make_job(index: int, *, nodes: int = 2) -> Job:
    return Job(
        ResourceRequest(node_count=nodes, volume=60.0, max_price=10.0),
        name=f"job{index}",
        uid=1000 + index,
    )


def canonical(meta: Metascheduler) -> str:
    return json.dumps(snapshot_metascheduler(meta), sort_keys=True)


def scheduled_document() -> dict:
    """A snapshot document, as read from disk, with a committed window."""
    meta = build_meta()
    meta.submit(make_job(0), at_time=0.0)
    meta.run_iteration(0.0)
    data = json.loads(json.dumps(snapshot_metascheduler(meta)))
    assert data["trace"][0]["window"] is not None
    return data


def first_allocation(data: dict) -> dict:
    return data["trace"][0]["window"]["allocations"][0]


def scheduled_meta(seed: int = 4, *, horizon: float = 200.0) -> Metascheduler:
    """A metascheduler that has run a seeded stream of jobs."""
    rng = random.Random(seed)
    meta = build_meta()
    for i in range(rng.randint(3, 6)):
        meta.submit(make_job(i, nodes=rng.randint(1, 3)), at_time=rng.uniform(0.0, 100.0))
    meta.run(horizon)
    return meta


def window_sources(meta: Metascheduler) -> list[Slot]:
    return [
        allocation.source
        for record in meta.trace
        if record.window is not None
        for allocation in record.window.allocations
    ]


class TestSnapshotRoundTrip:
    def test_snapshot_restores_identical_state(self):
        meta = build_meta()
        for i in range(4):
            meta.submit(make_job(i), at_time=i * 10.0)
        meta.run(200.0)
        data = json.loads(json.dumps(snapshot_metascheduler(meta)))
        restored = restore_metascheduler(data)
        assert canonical(restored) == canonical(meta)
        assert restored._iteration == meta._iteration
        assert len(restored.trace) == len(meta.trace)
        assert restored.reports == meta.reports

    def test_snapshot_preserves_pending_and_future_submissions(self):
        meta = build_meta()
        meta.submit(make_job(0), at_time=0.0)
        meta.submit(make_job(1), at_time=500.0)  # future arrival
        meta.run_iteration(0.0)
        restored = restore_metascheduler(snapshot_metascheduler(meta))
        assert [job.uid for job in restored.pending_jobs()] == [
            job.uid for job in meta.pending_jobs()
        ]
        assert [
            (time, job.uid) for time, job in restored._submissions
        ] == [(time, job.uid) for time, job in meta._submissions]

    def test_snapshot_preserves_recovery_state(self):
        meta = build_meta(recovery=RetryPolicy(max_revocations=2, backoff_base=10.0))
        for i in range(3):
            meta.submit(make_job(i), at_time=0.0)
        meta.run(100.0)
        node = next(meta.environment.nodes())
        meta.inject_outage(node, 110.0, 150.0)
        restored = restore_metascheduler(snapshot_metascheduler(meta))
        assert restored.recovery is not None
        assert restored.recovery.policy == meta.recovery.policy
        assert restored.recovery._revocations == meta.recovery._revocations
        assert restored.recovery._retained == meta.recovery._retained

    def test_restored_run_continues_like_the_original(self):
        meta = build_meta()
        for i in range(5):
            meta.submit(make_job(i), at_time=i * 20.0)
        meta.run(100.0)
        restored = restore_metascheduler(snapshot_metascheduler(meta))
        meta.run(400.0, start=150.0)
        restored.run(400.0, start=150.0)
        assert canonical(restored) == canonical(meta)

    def test_new_jobs_after_restore_get_fresh_uids(self):
        meta = build_meta()
        meta.submit(make_job(7), at_time=0.0)  # uid 1007
        restored = restore_metascheduler(snapshot_metascheduler(meta))
        fresh = Job(ResourceRequest(node_count=1, volume=10.0))
        assert fresh.uid > 1007
        assert all(fresh.uid != job.uid for job in restored.pending_jobs())

    def test_unknown_format_rejected(self):
        meta = build_meta()
        data = snapshot_metascheduler(meta)
        data["format"] = "repro/99-checkpoint"
        with pytest.raises(CheckpointMismatchError, match="unsupported checkpoint"):
            restore_metascheduler(data)

    def test_resource_identity_interned(self):
        restored = restore_metascheduler(scheduled_document())
        nodes = {node.resource.uid: node.resource for node in restored.environment.nodes()}
        sources = [
            allocation.source.resource
            for record in restored.trace
            if record.window is not None
            for allocation in record.window.allocations
        ]
        assert sources
        for resource in sources:
            assert resource is nodes[resource.uid]  # same object, not just equal

    def test_infinite_max_price_encoded_as_null(self):
        meta = build_meta()
        meta.submit(Job(ResourceRequest(1, 10.0), uid=1100), at_time=0.0)
        data = json.loads(json.dumps(snapshot_metascheduler(meta)))
        assert data["trace"][0]["job"]["request"]["max_price"] is None
        (record,) = restore_metascheduler(data).trace
        assert record.job.request.max_price == float("inf")


    def test_window_slots_survive(self):
        meta = scheduled_meta()
        restored = restore_metascheduler(json.loads(json.dumps(snapshot_metascheduler(meta))))
        sources = window_sources(meta)
        copies = window_sources(restored)
        assert sources and len(copies) == len(sources)
        for original, copy in zip(sources, copies):
            assert (original.start, original.end, original.price) == (
                copy.start,
                copy.end,
                copy.price,
            )
            assert original.resource.uid == copy.resource.uid
            assert original.resource.performance == copy.resource.performance

    def test_jobs_survive(self):
        meta = scheduled_meta()
        restored = restore_metascheduler(json.loads(json.dumps(snapshot_metascheduler(meta))))
        assert len(restored.trace) == len(meta.trace)
        for original, copy in zip(meta.trace, restored.trace):
            assert original.job.uid == copy.job.uid
            assert original.job.name == copy.job.name
            assert original.job.request == copy.job.request

    def test_committed_windows_survive(self):
        meta = scheduled_meta()
        committed = {r.job.uid: r.window for r in meta.trace if r.window is not None}
        assert committed, "fixture should commit at least one window"
        restored = restore_metascheduler(json.loads(json.dumps(snapshot_metascheduler(meta))))
        by_uid = {r.job.uid: r.window for r in restored.trace if r.window is not None}
        assert by_uid.keys() == committed.keys()
        for uid, window in committed.items():
            copy = by_uid[uid]
            assert copy.start == window.start
            assert copy.cost == pytest.approx(window.cost)
            assert [r.uid for r in copy.resources()] == [r.uid for r in window.resources()]

    def test_document_is_strict_json(self):
        data = snapshot_metascheduler(scheduled_meta())
        json.dumps(data, allow_nan=False)  # must not raise
        assert data["format"] == CHECKPOINT_FORMAT


class TestNonFiniteRejection:
    """NaN/Infinity must be rejected loudly at the snapshot boundary.

    A NaN passes bare ``<= 0`` sanity checks (every NaN comparison is
    False) and ``json.loads`` accepts non-standard ``NaN``/``Infinity``
    tokens, so these values would otherwise slip into a restored run and
    corrupt its schedules.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_decode_rejects_non_finite_slot_fields(self, bad):
        data = scheduled_document()
        first_allocation(data)["source"]["start"] = bad
        with pytest.raises(InvalidRequestError, match="slot start"):
            restore_metascheduler(data)

    @pytest.mark.parametrize("field", ["start", "end"])
    def test_decode_rejects_non_finite_allocation_bounds(self, field):
        data = scheduled_document()
        first_allocation(data)[field] = float("nan")
        with pytest.raises(InvalidRequestError, match=f"allocation {field}"):
            restore_metascheduler(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_decode_rejects_non_finite_resource_price(self, bad):
        data = scheduled_document()
        data["resources"][0]["price"] = bad
        with pytest.raises(InvalidRequestError, match="resource price"):
            restore_metascheduler(data)

    def test_decode_rejects_nan_volume(self):
        data = scheduled_document()
        data["trace"][0]["job"]["request"]["volume"] = float("nan")
        with pytest.raises(InvalidRequestError, match="request volume"):
            restore_metascheduler(data)

    def test_decode_rejects_non_numeric_fields(self):
        data = scheduled_document()
        first_allocation(data)["source"]["end"] = "soon"
        with pytest.raises(InvalidRequestError, match="must be a number"):
            restore_metascheduler(data)

    def test_encode_rejects_nan_slot_price(self):
        resource = Resource("n", performance=1.0, price=1.0)
        slot = Slot(resource, 0.0, 10.0, price=float("nan"))
        with pytest.raises(InvalidRequestError, match="slot price"):
            _Encoder().slot(slot)

    def test_encode_rejects_nan_max_price(self):
        job = Job(ResourceRequest(1, 5.0, max_price=float("nan")))
        with pytest.raises(InvalidRequestError, match="max_price"):
            _Encoder().job(job)


class TestValidation:
    def test_missing_resource_reference_rejected(self):
        data = scheduled_document()
        first_allocation(data)["source"]["resource"] = 4242
        with pytest.raises(CheckpointMismatchError, match="undeclared resource uid 4242"):
            restore_metascheduler(data)

    def test_missing_job_reference_rejected(self):
        data = scheduled_document()
        data["metascheduler"]["pending"].append(4242)
        with pytest.raises(CheckpointMismatchError, match="undeclared job uid 4242"):
            restore_metascheduler(data)

    def test_snapshot_with_optimization_budget_rejected(self):
        # Older snapshots could carry a phase-2 budget (resolution
        # step-down, greedy fallback, deadline).  Restoring one without
        # it would run phase 2 differently, so it is refused.
        data = scheduled_document()
        data["scheduler"]["budget"] = {
            "max_cells": 2_000_000,
            "deadline": None,
            "min_resolution": 50,
        }
        with pytest.raises(CheckpointMismatchError, match="optimization budget"):
            restore_metascheduler(data)

    def test_report_degraded_key_decodes_and_renders_unchanged(self):
        # Every report ever written carries ``"degraded": false``; it is
        # dropped on decode and written back, so the bytes stay the same.
        data = json.loads(json.dumps(snapshot_metascheduler(scheduled_meta())))
        assert data["reports"]
        assert all(report["degraded"] is False for report in data["reports"])
        restored = restore_metascheduler(data)
        assert stdlib_text(snapshot_metascheduler(restored)) == stdlib_text(data)
        rendered = checkpoint._SnapshotText().render(restored, {})
        assert rendered + "\n" == stdlib_text(data)

    def test_bare_document_with_unknown_format_rejected(self):
        # The format tag is checked before any other key is read, so a
        # foreign document fails as a mismatch, not as a KeyError.
        with pytest.raises(CheckpointMismatchError, match="unsupported checkpoint"):
            restore_metascheduler({"format": "repro/999"})


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_roundtrip_preserves_search_results(seed):
    """Property: searching the vacant slots of a restored environment
    gives identical windows to searching the original's."""
    meta = scheduled_meta(seed, horizon=150.0)
    restored = restore_metascheduler(json.loads(json.dumps(snapshot_metascheduler(meta))))
    rng = random.Random(seed)
    request = ResourceRequest(
        node_count=rng.randint(1, 4),
        volume=rng.uniform(30.0, 120.0),
        max_price=rng.uniform(2.0, 6.0),
    )
    original = amp.find_window(meta.environment.vacant_slot_list(0.0, 500.0), request)
    copy = amp.find_window(restored.environment.vacant_slot_list(0.0, 500.0), request)
    if original is None:
        assert copy is None
    else:
        assert copy is not None
        assert copy.start == original.start
        assert copy.cost == pytest.approx(original.cost)
        assert [r.uid for r in copy.resources()] == [r.uid for r in original.resources()]


class TestAtomicSnapshotFiles:
    def test_save_then_load(self, tmp_path):
        meta = build_meta()
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_metascheduler(meta), path)
        data = load_snapshot(path)
        assert data["format"] == CHECKPOINT_FORMAT
        assert not path.with_name("snap.json.tmp").exists()

    def test_saved_snapshot_restores_the_schedule(self, tmp_path):
        meta = scheduled_meta()
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_metascheduler(meta), path)
        restored = restore_metascheduler(load_snapshot(path))
        assert len(restored.trace) == len(meta.trace)
        assert canonical(restored) == canonical(meta)

    def test_crash_between_tmp_write_and_rename_keeps_old_snapshot(
        self, tmp_path, monkeypatch
    ):
        meta = build_meta()
        meta.submit(make_job(0), at_time=0.0)
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_metascheduler(meta), path)
        before = path.read_text(encoding="utf-8")

        meta.run_iteration(0.0)

        def explode(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(PersistenceError, match="cannot write snapshot"):
            save_snapshot(snapshot_metascheduler(meta), path)
        monkeypatch.undo()
        # The visible snapshot is untouched and still restorable.
        assert path.read_text(encoding="utf-8") == before
        restored = restore_metascheduler(load_snapshot(path))
        assert restored._iteration == 0

    def test_load_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read snapshot"):
            load_snapshot(tmp_path / "absent.json")

    def test_load_garbage_snapshot_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text('{"format": "repro/1-checkpoint', encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="not valid JSON"):
            load_snapshot(path)


class TestDurableMetascheduler:
    def run_workload(self, durable: DurableMetascheduler) -> None:
        for i in range(4):
            durable.submit(make_job(i), at_time=i * 10.0)
        durable.run(200.0)
        node = next(durable.meta.environment.nodes())
        durable.inject_outage(node, 210.0, 260.0)
        durable.run_iteration(250.0)

    def test_restore_after_kill_matches_live_state(self, tmp_path):
        meta = build_meta(recovery=RetryPolicy())
        durable = DurableMetascheduler(meta, tmp_path, snapshot_every=3, fsync=False)
        self.run_workload(durable)
        # No close(): simulate an abrupt kill, then restore from disk.
        restored = DurableMetascheduler.restore(tmp_path, fsync=False)
        assert canonical(restored.meta) == canonical(meta)

    def test_restore_tolerates_torn_journal_tail(self, tmp_path):
        meta = build_meta()
        durable = DurableMetascheduler(meta, tmp_path, snapshot_every=100, fsync=False)
        durable.submit(make_job(0), at_time=0.0)
        durable.run_iteration(0.0)
        state_before_tear = canonical(meta)
        durable.run_iteration(50.0)
        durable._journal._stream.flush()
        # Tear the final journal record in half, as a mid-append kill would.
        journal = tmp_path / "journal.jsonl"
        text = journal.read_text(encoding="utf-8")
        lines = text.splitlines()
        journal.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="torn trailing journal record"):
            restored = DurableMetascheduler.restore(tmp_path, fsync=False)
        # The torn iteration is lost; everything before it is intact.
        assert canonical(restored.meta) == state_before_tear

    def test_restore_then_continue_equals_uninterrupted_run(self, tmp_path):
        # Reference: one uninterrupted run.
        reference = build_meta()
        for i in range(4):
            reference.submit(make_job(i), at_time=i * 10.0)
        reference.run(400.0)
        # Durable: same workload, killed after 200, restored, continued.
        meta = build_meta()
        durable = DurableMetascheduler(meta, tmp_path, snapshot_every=2, fsync=False)
        for i in range(4):
            durable.submit(make_job(i), at_time=i * 10.0)
        now = 0.0
        while now <= 200.0:
            durable.run_iteration(now)
            now += meta.period
        restored = DurableMetascheduler.restore(tmp_path, fsync=False)
        while now <= 400.0:
            restored.run_iteration(now)
            now += restored.meta.period
        restored.mark_completions(400.0)
        assert canonical(restored.meta) == canonical(reference)

    def test_restore_without_snapshot_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read snapshot"):
            DurableMetascheduler.restore(tmp_path)

    def test_rejected_submission_is_not_journaled(self, tmp_path):
        from repro.core.errors import AdmissionRejectedError
        from repro.core.journal import read_journal

        meta = build_meta(max_pending=1)
        durable = DurableMetascheduler(meta, tmp_path, fsync=False)
        durable.submit(make_job(0), at_time=0.0)
        with pytest.raises(AdmissionRejectedError):
            durable.submit(make_job(1), at_time=0.0)
        durable.close()
        kinds = [record.kind for record in read_journal(tmp_path / "journal.jsonl")]
        assert kinds.count("submit") == 1

    def test_snapshot_every_bounds_replay(self, tmp_path):
        from repro.core.journal import read_journal

        meta = build_meta()
        durable = DurableMetascheduler(meta, tmp_path, snapshot_every=2, fsync=False)
        durable.submit(make_job(0), at_time=0.0)
        durable.run(300.0)  # 7 iterations -> several snapshots
        snapshot = load_snapshot(tmp_path / "snapshot.json")
        records = read_journal(tmp_path / "journal.jsonl")
        pending_replay = [
            record for record in records if record.seq >= snapshot["journal_seq"]
        ]
        assert len(pending_replay) <= 2

    def test_invalid_snapshot_every_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="snapshot_every"):
            DurableMetascheduler(build_meta(), tmp_path, snapshot_every=0)

    def test_context_manager_snapshots_on_exit(self, tmp_path):
        meta = build_meta()
        with DurableMetascheduler(meta, tmp_path, snapshot_every=100, fsync=False) as durable:
            durable.submit(make_job(0), at_time=0.0)
            durable.run_iteration(0.0)
        restored = DurableMetascheduler.restore(tmp_path, fsync=False)
        assert canonical(restored.meta) == canonical(meta)
        # Everything is in the snapshot; nothing left to replay.
        snapshot = load_snapshot(tmp_path / "snapshot.json")
        assert restored.meta._iteration == 1
        assert snapshot["journal_seq"] >= 1

    def test_close_closes_the_journal_when_the_final_snapshot_fails(self, tmp_path):
        class FailingReplace(FileSystem):
            fail = False

            def replace(self, source, target):
                if self.fail:
                    raise OSError("simulated rename failure")
                super().replace(source, target)

        fs = FailingReplace()
        durable = DurableMetascheduler(build_meta(), tmp_path, fsync=False, fs=fs)
        durable.submit(make_job(0), at_time=0.0)
        stream = durable._journal._stream
        fs.fail = True
        with pytest.raises(PersistenceError, match="cannot write snapshot"):
            durable.close()
        assert stream.closed
        assert durable._journal._stream is None


def build_recovery_run(directory, *, snapshot_every: int = 2) -> DurableMetascheduler:
    """A durable run on two clusters with owner jobs and fault recovery."""
    nodes = []
    for position in range(8):
        rank = position % 4
        node = ComputeNode(
            f"c{position // 4}n{rank}", performance=1.0 + 0.25 * rank, price=1.0 + 0.5 * rank
        )
        node.resource = Resource(
            node.name, performance=node.performance, price=node.price, uid=900 + position
        )
        for start in range(0, 1200, 170 + 30 * position):
            node.run_local_job(float(start), float(start + 40 + 5 * rank), f"owner{position}")
        nodes.append(node)
    environment = VOEnvironment([Cluster("c0", nodes[:4]), Cluster("c1", nodes[4:])])
    meta = Metascheduler(
        environment,
        period=50.0,
        horizon=500.0,
        recovery=RetryPolicy(max_revocations=None),
    )
    durable = DurableMetascheduler(
        meta, directory, snapshot_every=snapshot_every, fsync=False
    )
    for i in range(12):
        durable.submit(make_job(i, nodes=1 + i % 3), at_time=i * 25.0)
    return durable


def run_ticks(durable: DurableMetascheduler, ticks: range) -> None:
    """Run ``ticks``, revoking a future window with an outage every third tick."""
    meta = durable.meta
    nodes = {node.name: node for node in meta.environment.nodes()}
    for tick in ticks:
        now = tick * meta.period
        if tick % 3 == 2:
            victim = next(
                (
                    record
                    for record in meta.trace
                    if record.state is JobState.SCHEDULED and record.window.start > now
                ),
                None,
            )
            if victim is not None:
                allocation = victim.window.allocations[0]
                node = nodes[allocation.resource.name]
                durable.inject_outage(node, allocation.start, allocation.start + 10.0)
        durable.run_iteration(now)


def live_objects(meta: Metascheduler) -> dict[int, object]:
    """Every immutable object a snapshot of ``meta`` encodes, by id."""
    objects: list[object] = [
        interval for node in meta.environment.nodes() for interval in node.schedule
    ]
    for record in meta.trace:
        objects.append(record.job)
        if record.window is not None:
            objects.append(record.window)
    objects.extend(meta.reports)
    for windows in meta.recovery._retained.values():
        objects.extend(windows)
    return {id(obj): obj for obj in objects}


def stdlib_text(document: dict) -> str:
    return json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n"


class TestSnapshotMemo:
    """The durable run's snapshot text cache, checked against the stdlib."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Checks every snapshot a durable run writes against the stdlib.

        The file must hold ``json.dumps`` of :func:`snapshot_metascheduler`
        plus the journal watermark (and the trace context, when telemetry
        carries one), and the run's text cache exactly its live objects.
        Yields the list of retained-window counts seen.
        """
        seen: list[int] = []
        save = checkpoint.save_snapshot

        def save_and_check(data, path, *, fs=None):
            written = save(data, path, fs=fs)
            durable = runs[-1]
            expected = snapshot_metascheduler(durable.meta) | {
                "journal_seq": durable._journal.next_seq
            }
            telemetry = get_telemetry()
            if telemetry.enabled and telemetry.context is not None:
                expected["trace_context"] = telemetry.context.to_dict()
            assert written.read_text(encoding="utf-8") == stdlib_text(expected)
            cache = durable._snapshot_text
            live = live_objects(durable.meta)
            assert len(cache) == len(live)
            assert all(obj in cache for obj in live.values())
            seen.append(sum(len(w) for w in durable.meta.recovery._retained.values()))
            return written

        runs: list[DurableMetascheduler] = []
        real_init = DurableMetascheduler.__init__

        def tracked_init(self, *args, **kwargs):
            runs.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "save_snapshot", save_and_check)
        monkeypatch.setattr(DurableMetascheduler, "__init__", tracked_init)
        return seen

    @pytest.fixture
    def encoded(self, monkeypatch):
        """Every object the snapshot encoders are called on, in call order."""
        calls: list[object] = []

        def counting(encode):
            def wrapper(*args):
                calls.append(args[-1])
                return encode(*args)

            return wrapper

        monkeypatch.setattr(checkpoint, "_window_text", counting(checkpoint._window_text))
        monkeypatch.setattr(_Encoder, "job", counting(_Encoder.job))
        monkeypatch.setattr(checkpoint, "_encode_interval", counting(checkpoint._encode_interval))
        monkeypatch.setattr(checkpoint, "_encode_report", counting(checkpoint._encode_report))
        return calls

    def test_every_snapshot_is_byte_identical_to_stdlib_json(self, tmp_path, checked):
        durable = build_recovery_run(tmp_path)
        run_ticks(durable, range(16))
        durable.close()
        reports = durable.meta.reports
        assert sum(report.revocations for report in reports) > 0
        assert sum(report.hot_swaps for report in reports) > 0
        assert max(checked) > 0  # some snapshots carried retained windows
        assert len(checked) == 1 + 16 // 2 + 1

    def test_a_postponed_record_is_rewritten_at_every_snapshot(self, tmp_path, checked):
        durable = build_recovery_run(tmp_path, snapshot_every=1)
        wide = make_job(99, nodes=9)  # wider than the whole VO
        durable.submit(wide, at_time=0.0)
        run_ticks(durable, range(4))
        record = durable.meta.trace.record_for(wide)
        assert record.state is JobState.PENDING
        assert record.postponements == 4
        assert len(checked) == 1 + 4

    def test_traced_run_writes_its_context_after_the_trace(self, tmp_path, checked):
        context = TraceContext.derive(20110368).child("metascheduler")
        configure(context=context)
        try:
            durable = build_recovery_run(tmp_path)
            run_ticks(durable, range(6))
            durable.close()
        finally:
            disable()
        assert len(checked) == 1 + 6 // 2 + 1
        # "trace_context" sorts after "trace", so it closes the document.
        assert durable.snapshot_path.read_text(encoding="utf-8").endswith(
            ',"trace_context":' + stdlib_text(context.to_dict())[:-1] + "}\n"
        )

    def test_restored_run_continues_byte_identical_with_a_fresh_memo(
        self, tmp_path, checked
    ):
        durable = build_recovery_run(tmp_path, snapshot_every=3)
        run_ticks(durable, range(7))
        # No close(): the journal tail past the last snapshot is replayed.
        restored = DurableMetascheduler.restore(tmp_path, snapshot_every=3, fsync=False)
        assert len(restored._snapshot_text) == 0
        before = len(checked)
        run_ticks(restored, range(7, 16))
        restored.close()
        assert len(checked) - before == 9 // 3 + 1

    def test_memo_follows_released_intervals_and_new_reports(self, tmp_path, checked):
        durable = build_recovery_run(tmp_path, snapshot_every=100)
        run_ticks(durable, range(4))
        durable.snapshot()
        cache = durable._snapshot_text
        node = next(durable.meta.environment.nodes())
        released, *rest = node.schedule.intervals()
        node.schedule.release(released)
        label = rest[0].label
        labelled = [iv for iv in node.schedule if iv.label == label]
        assert node.schedule.release_label(label) == len(labelled)
        report = durable.run_iteration(200.0)
        assert report not in cache
        durable.snapshot()
        assert released not in cache
        assert not any(interval in cache for interval in labelled)
        assert report in cache

    def test_memo_swaps_out_a_revoked_window(self, tmp_path, checked):
        durable = build_recovery_run(tmp_path, snapshot_every=100)
        run_ticks(durable, range(2))
        durable.snapshot()
        cache = durable._snapshot_text
        meta = durable.meta
        record = next(
            record for record in meta.trace if record.state is JobState.SCHEDULED
        )
        revoked = record.window
        assert revoked in cache
        allocation = revoked.allocations[0]
        node = next(
            node for node in meta.environment.nodes() if node.resource is allocation.resource
        )
        durable.inject_outage(node, allocation.start, allocation.start + 10.0)
        assert record.window is not revoked
        durable.snapshot()
        assert revoked not in cache
        if record.window is not None:
            assert record.window in cache

    def test_save_without_a_memo_writes_the_same_bytes(self, tmp_path):
        durable = build_recovery_run(tmp_path / "run")
        run_ticks(durable, range(6))
        meta, extra = durable.meta, {"journal_seq": 0}
        plain = save_snapshot(snapshot_metascheduler(meta) | extra, tmp_path / "plain.json")
        cache = checkpoint._SnapshotText()
        # Two rounds, so the second joins text cached by the first.
        for name in ("first.json", "second.json"):
            cached = save_snapshot(lambda: cache.render(meta, extra), tmp_path / name)
            assert cached.read_bytes() == plain.read_bytes()

    def test_memo_hit_interns_the_window_resources_in_order(self):
        # Windows on resources no node publishes put those resources in
        # the table in window order; a cache hit must keep that order.
        meta = build_meta()
        for index, uid in enumerate((990, 980)):
            job = make_job(index, nodes=1)
            record = meta.trace.add(job, 0.0)
            source = Slot(Resource(f"foreign{uid}", uid=uid), 0.0, 100.0)
            record.window = Window(job.request, [TaskAllocation(source, 0.0, 60.0)])
        cache = checkpoint._SnapshotText()
        cache.render(meta, {})
        again = cache.render(meta, {})
        assert again + "\n" == stdlib_text(snapshot_metascheduler(meta))
        assert [entry["uid"] for entry in json.loads(again)["resources"]][-2:] == [990, 980]

    def test_a_repeated_snapshot_encodes_nothing(self, tmp_path, encoded):
        durable = build_recovery_run(tmp_path, snapshot_every=100)
        run_ticks(durable, range(6))
        durable.snapshot()
        assert encoded
        encoded.clear()
        durable.snapshot()
        assert encoded == []

    def test_a_tick_encodes_only_the_objects_it_created(self, tmp_path, encoded):
        durable = build_recovery_run(tmp_path, snapshot_every=100)
        run_ticks(durable, range(6))
        durable.snapshot()
        before = live_objects(durable.meta)
        encoded.clear()
        report = durable.run_iteration(300.0)
        durable.snapshot()
        created = live_objects(durable.meta).keys() - before.keys()
        assert id(report) in created
        assert sorted(id(obj) for obj in encoded) == sorted(created)


class TestSnapshotPhaseTimer:
    def test_snapshot_phase_covers_the_render(self, tmp_path, monkeypatch):
        rendered: list[float] = []
        render = checkpoint._SnapshotText.render

        def timed_render(self, meta, extra):
            began = perf_counter()
            try:
                return render(self, meta, extra)
            finally:
                rendered.append(perf_counter() - began)

        monkeypatch.setattr(checkpoint._SnapshotText, "render", timed_render)
        telemetry = configure()
        try:
            durable = build_recovery_run(tmp_path)
            run_ticks(durable, range(6))
            durable.close()
            phase = telemetry.registry.get("phase.seconds", phase="checkpoint.snapshot")
        finally:
            disable()
        assert phase.count == len(rendered) == 1 + 6 // 2 + 1
        assert phase.total >= sum(rendered)
