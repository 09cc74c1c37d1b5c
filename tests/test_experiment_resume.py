"""Resumable experiment series: checkpoint, kill, resume, byte-identical."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from repro.chaos.proc import WorkerSupervisor
from repro.core.errors import CheckpointMismatchError, WorkerLostError
from repro.core.journal import JournalWriter
from repro.sim import (
    ExperimentCheckpoint,
    ExperimentConfig,
    ParallelRunner,
    config_fingerprint,
    decode_outcome,
    encode_outcome,
    generate_iteration,
    run_iteration,
)
from repro.sim.experiment import _run_indices

CONFIG = ExperimentConfig(iterations=18, seed=41)


def compute_outcome(config: ExperimentConfig, index: int):
    slots, batch = generate_iteration(config, index)
    return run_iteration(config, index, slots, batch)


class TestOutcomeCodec:
    def test_counted_outcome_round_trips(self):
        for index in range(6):
            outcome = compute_outcome(CONFIG, index)
            assert decode_outcome(encode_outcome(outcome)) == outcome

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(CONFIG) == config_fingerprint(
            ExperimentConfig(iterations=18, seed=41)
        )
        assert config_fingerprint(CONFIG) != config_fingerprint(
            ExperimentConfig(iterations=18, seed=42)
        )
        assert config_fingerprint(CONFIG) != config_fingerprint(
            ExperimentConfig(iterations=19, seed=41)
        )


class TestSeedingTag:
    def test_checkpoint_fingerprinted_without_the_seeding_tag_is_refused(self, tmp_path):
        """A header hash of the bare config (no ``seeding`` tag) may stand
        for a single-stream series; resuming it must refuse, not splice."""
        payload = asdict(CONFIG)
        payload["objective"] = CONFIG.objective.value
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        untagged = hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
        assert untagged != config_fingerprint(CONFIG)
        path = tmp_path / "ck.jsonl"
        writer = JournalWriter(path, fsync=False, header={"fingerprint": untagged})
        writer.append(
            "outcome", {"index": 0, "outcome": encode_outcome(compute_outcome(CONFIG, 0))}
        )
        writer.close()
        with pytest.raises(CheckpointMismatchError, match="different experiment"):
            ParallelRunner(CONFIG, workers=2).run(checkpoint=path, resume=True)


class TestSerialResume:
    def test_resume_equals_uninterrupted(self, tmp_path):
        reference = ParallelRunner(CONFIG).run()
        # Simulate a crash: checkpoint only the first 10 iterations.
        partial = tmp_path / "partial.jsonl"
        interrupted = 0

        def killer(attempted, counted):
            nonlocal interrupted
            interrupted = attempted
            if attempted >= 10:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(CONFIG).run(checkpoint=partial, progress=killer)
        assert interrupted == 10
        resumed = ParallelRunner(CONFIG).run(checkpoint=partial, resume=True)
        assert resumed == reference

    def test_resume_skips_finished_work(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        store = ExperimentCheckpoint(path, CONFIG, resume=True)
        assert store.completed == CONFIG.iterations
        store.close()
        # A fully-checkpointed resume recomputes nothing: the journal is
        # not appended to, and the result still matches a plain run.
        before = path.read_bytes()
        result = ParallelRunner(CONFIG).run(checkpoint=path, resume=True)
        assert result == ParallelRunner(CONFIG).run()
        assert path.read_bytes() == before

    def test_fresh_run_replaces_existing_checkpoint(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        other = ExperimentConfig(iterations=4, seed=999)
        ParallelRunner(other).run(checkpoint=path)
        # Same path, different config, no --resume: starts over cleanly.
        result = ParallelRunner(CONFIG).run(checkpoint=path)
        assert result == ParallelRunner(CONFIG).run()

    def test_resume_with_wrong_config_is_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        other = ExperimentConfig(iterations=18, seed=999)
        with pytest.raises(CheckpointMismatchError, match="different experiment"):
            ParallelRunner(other).run(checkpoint=path, resume=True)

    def test_resume_tolerates_torn_checkpoint_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        # Tear the last record in half, as a SIGKILL mid-append would.
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="torn trailing journal record"):
            result = ParallelRunner(CONFIG).run(checkpoint=path, resume=True)
        # The torn iteration was simply recomputed.
        assert result == ParallelRunner(CONFIG).run()


class TestParallelResume:
    def test_resume_with_holes_matches_uninterrupted(self, tmp_path):
        reference = ParallelRunner(CONFIG, workers=1).run()
        path = tmp_path / "ck.jsonl"
        store = ExperimentCheckpoint(path, CONFIG)
        # Non-contiguous completion pattern, as an aborted sharded run leaves.
        for index in [0, 1, 2, 3, 7, 11, 12]:
            store.record(index, compute_outcome(CONFIG, index))
        store.close()
        for workers in (1, 3):
            resumed = ParallelRunner(CONFIG, workers=workers).run(
                checkpoint=path, resume=True
            )
            assert resumed == reference, f"workers={workers} diverged"

    def test_checkpointed_fresh_run_matches_plain_run(self, tmp_path):
        reference = ParallelRunner(CONFIG, workers=2).run()
        checkpointed = ParallelRunner(CONFIG, workers=2).run(
            checkpoint=tmp_path / "ck.jsonl"
        )
        assert checkpointed == reference

    def test_progress_reports_cached_iterations(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = ExperimentCheckpoint(path, CONFIG)
        for index in range(12):
            store.record(index, compute_outcome(CONFIG, index))
        store.close()
        calls = []
        ParallelRunner(CONFIG, workers=1).run(
            checkpoint=path,
            resume=True,
            progress=lambda attempted, counted: calls.append(attempted),
        )
        # One call per freshly-computed iteration, counting from the
        # resumed baseline.
        assert calls == list(range(13, CONFIG.iterations + 1))

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "holes"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_pairs_rise_to_the_folded_result(self, tmp_path, workers, resumed):
        """The running ``(attempted, counted)`` tally never decreases and
        ends at the folded result's counters, recorded outcomes included."""
        path = tmp_path / "ck.jsonl"
        recorded = [0, 1, 2, 3, 7, 11, 12] if resumed else []
        store = ExperimentCheckpoint(path, CONFIG)
        for index in recorded:
            store.record(index, compute_outcome(CONFIG, index))
        store.close()
        pairs = []
        result = ParallelRunner(CONFIG, workers=workers).run(
            checkpoint=path,
            resume=resumed,
            progress=lambda attempted, counted: pairs.append((attempted, counted)),
        )
        assert result == ParallelRunner(CONFIG, workers=1).run()
        assert 0 < result.counted < CONFIG.iterations
        for before, after in zip(pairs, pairs[1:]):
            assert after[0] > before[0] and after[1] >= before[1]
        assert pairs[-1] == (CONFIG.iterations, result.counted)
        if workers == 1:
            # In process, progress fires once per computed iteration.
            assert len(pairs) == CONFIG.iterations - len(recorded)


def _recorded_outcomes(path: str) -> int:
    """Outcome records on disk (every line after the header)."""
    try:
        return max(0, Path(path).read_bytes().count(b"\n") - 1)
    except FileNotFoundError:
        return 0


@dataclass(frozen=True)
class _DieOnLastChunk:
    """Pool chunk task that logs each call's first index and SIGKILLs its
    worker on the series' last chunk, once every other iteration is in
    the checkpoint.  With a ``sentinel`` it dies only once."""

    checkpoint: str
    calls: str
    sentinel: str | None = None

    def __call__(self, config, indices):
        with open(self.calls, "a", encoding="utf-8") as log:
            log.write(f"{indices[0]}\n")
        dies = config.iterations - 1 in indices and not (
            self.sentinel is not None and Path(self.sentinel).exists()
        )
        if dies:
            others = config.iterations - len(indices)
            deadline = time.monotonic() + 20
            while _recorded_outcomes(self.checkpoint) < others and time.monotonic() < deadline:
                time.sleep(0.01)
            if self.sentinel is not None:
                Path(self.sentinel).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return _run_indices(config, indices)


class TestPoolChunkRecording:
    """A pool run records each chunk as the pool hands it back."""

    def test_chunks_before_a_dead_last_worker_are_on_disk(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        runner = ParallelRunner(
            CONFIG,
            workers=2,
            supervisor=WorkerSupervisor(max_restarts=0, backoff_base=0.0, backoff_cap=0.0),
            span_task=_DieOnLastChunk(str(path), str(tmp_path / "calls.log")),
        )
        with pytest.raises(WorkerLostError):
            runner.run(checkpoint=path)
        store = ExperimentCheckpoint(path, CONFIG, resume=True)
        recorded = sorted(store.outcomes)
        store.close()
        # More than one worker's share survives, as a prefix of the series.
        assert recorded == list(range(len(recorded)))
        assert CONFIG.iterations // 2 < len(recorded) < CONFIG.iterations
        resumed = ParallelRunner(CONFIG, workers=2).run(checkpoint=path, resume=True)
        assert resumed == ParallelRunner(CONFIG).run()

    def test_broken_pool_reruns_only_the_chunks_not_yet_handed_back(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        calls = tmp_path / "calls.log"
        runner = ParallelRunner(
            CONFIG,
            workers=2,
            supervisor=WorkerSupervisor(max_restarts=1, backoff_base=0.0, backoff_cap=0.0),
            span_task=_DieOnLastChunk(str(path), str(calls), str(tmp_path / "died")),
        )
        assert runner.run(checkpoint=path) == ParallelRunner(CONFIG).run()
        starts = Counter(int(line) for line in calls.read_text().split())
        last = max(starts)
        assert starts[last] == 2
        assert all(count == 1 for start, count in starts.items() if start != last)
        assert _recorded_outcomes(str(path)) == CONFIG.iterations


@pytest.mark.slow
class TestKillResumeSmoke:
    """SIGKILL a checkpointed CLI run mid-flight, resume, diff stdout."""

    ARGS = [
        "experiment",
        "--iterations",
        "300",
        "--seed",
        "11",
    ]

    def cli(self, *extra, cwd):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.ARGS, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=cwd,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = self.cli(cwd=tmp_path)
        ref_out, ref_err = reference.communicate(timeout=300)
        assert reference.returncode == 0, ref_err.decode()

        checkpoint = tmp_path / "ck.jsonl"
        victim = self.cli("--checkpoint", str(checkpoint), cwd=tmp_path)
        deadline = time.monotonic() + 240
        # Kill once a prefix of iterations is durably on disk.
        while time.monotonic() < deadline:
            if checkpoint.exists() and checkpoint.stat().st_size > 4000:
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.communicate(timeout=60)

        resumed = self.cli(
            "--checkpoint", str(checkpoint), "--resume", cwd=tmp_path
        )
        res_out, res_err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, res_err.decode()
        assert res_out == ref_out
        assert b"resuming from checkpoint" in res_err


def _children(pid: int) -> set[int]:
    """Live pids whose parent is ``pid``, read from ``/proc``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``: comm may hold spaces, so split after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.add(int(entry.name))
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (which nothing may reap)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestOrphanedPoolWorkers:
    """Pool workers exit when their parent is SIGKILLed mid-run."""

    SCRIPT = (
        "from repro.sim import ExperimentConfig, ParallelRunner\n"
        "ParallelRunner(ExperimentConfig(iterations=100_000, seed=3), workers=2).run()\n"
    )

    def test_workers_exit_after_parent_sigkill(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        parent = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: set[int] = set()
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                assert parent.poll() is None, "the run ended before its pool started"
                workers = _children(parent.pid)
                time.sleep(0.05)
            assert len(workers) >= 2
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=10)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
