"""Resumable experiment series: checkpoint, kill, resume, byte-identical."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.errors import CheckpointMismatchError
from repro.sim import (
    ExperimentCheckpoint,
    ExperimentConfig,
    ExperimentRunner,
    ParallelRunner,
    config_fingerprint,
    decode_outcome,
    encode_outcome,
    generate_iteration,
    run_iteration,
)

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


class TestSerialResume:
    def test_resume_equals_uninterrupted(self, tmp_path):
        reference = ExperimentRunner(CONFIG).run()
        # Simulate a crash: checkpoint only the first 10 iterations.
        partial = tmp_path / "partial.jsonl"
        interrupted = 0

        def killer(attempted, counted):
            nonlocal interrupted
            interrupted = attempted
            if attempted >= 10:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(CONFIG).run(checkpoint=partial, progress=killer)
        assert interrupted == 10
        resumed = ExperimentRunner(CONFIG).run(checkpoint=partial, resume=True)
        assert resumed == reference

    def test_resume_skips_finished_work(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ExperimentRunner(CONFIG).run(checkpoint=path)
        store = ExperimentCheckpoint(path, CONFIG, resume=True)
        assert store.completed == CONFIG.iterations
        store.close()
        # A fully-checkpointed resume recomputes nothing: the journal is
        # not appended to, and the result still matches a plain run.
        before = path.read_bytes()
        result = ExperimentRunner(CONFIG).run(checkpoint=path, resume=True)
        assert result == ExperimentRunner(CONFIG).run()
        assert path.read_bytes() == before

    def test_fresh_run_replaces_existing_checkpoint(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        other = ExperimentConfig(iterations=4, seed=999)
        ExperimentRunner(other).run(checkpoint=path)
        # Same path, different config, no --resume: starts over cleanly.
        result = ExperimentRunner(CONFIG).run(checkpoint=path)
        assert result == ExperimentRunner(CONFIG).run()

    def test_resume_with_wrong_config_is_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ExperimentRunner(CONFIG).run(checkpoint=path)
        other = ExperimentConfig(iterations=18, seed=999)
        with pytest.raises(CheckpointMismatchError, match="different experiment"):
            ExperimentRunner(other).run(checkpoint=path, resume=True)

    def test_resume_tolerates_torn_checkpoint_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ExperimentRunner(CONFIG).run(checkpoint=path)
        # Tear the last record in half, as a SIGKILL mid-append would.
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="torn trailing journal record"):
            result = ExperimentRunner(CONFIG).run(checkpoint=path, resume=True)
        # The torn iteration was simply recomputed.
        assert result == ExperimentRunner(CONFIG).run()


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
