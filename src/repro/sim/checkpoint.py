"""Resumable experiment series: per-iteration outcome checkpoints.

A 25 000-iteration Section 5 study is hours of compute; a crash at
iteration 24 000 should cost one iteration, not the run.  This module
records every *completed* iteration's :class:`~repro.sim.experiment.IterationOutcome`
in a checksummed journal (:mod:`repro.core.journal`), so a re-run with
``--resume`` replays the finished iterations from disk and computes only
the missing ones.

Two properties make resumed runs trustworthy:

* **Config fingerprinting** — the journal header carries a hash of the
  full :class:`~repro.sim.experiment.ExperimentConfig`; resuming against
  a checkpoint written for different parameters raises
  :class:`~repro.core.errors.CheckpointMismatchError` instead of
  silently merging incompatible series.
* **Bit-exact replay** — outcomes are stored as JSON, whose ``float``
  round trip is exact in Python, so the merged
  :class:`~repro.sim.experiment.ExperimentResult` of a killed-and-resumed
  run equals an uninterrupted run (asserted in
  ``tests/test_experiment_resume.py`` and the CI crash-resume smoke).

A torn trailing record — the residue of killing the process mid-append —
is skipped with a warning; that iteration is simply recomputed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.core.errors import CheckpointMismatchError
from repro.core.fsio import FileSystem
from repro.core.journal import JournalWriter, journal_header, read_journal
from repro.sim.experiment import (
    AlgorithmSample,
    ExperimentConfig,
    IterationComparison,
    IterationOutcome,
)

__all__ = [
    "ExperimentCheckpoint",
    "config_fingerprint",
    "decode_outcome",
    "encode_outcome",
]

#: Journal record kind used for completed iterations.
OUTCOME_KIND = "outcome"


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable hash of every field that shapes an experiment series.

    Enum members are replaced by their values and nested dataclasses
    flattened, so the fingerprint depends only on the configuration's
    *content* — equal configs in different processes hash identically.
    The ``seeding`` tag names how iterations draw their inputs; older
    checkpoints, whose fingerprint lacks it, may hold a single-stream
    series and are refused rather than spliced into this one.
    """
    payload = asdict(config)
    payload["objective"] = config.objective.value
    payload["seeding"] = "per-iteration"
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def encode_outcome(outcome: IterationOutcome) -> dict[str, Any]:
    """JSON-ready encoding of one iteration outcome."""
    data: dict[str, Any] = {
        "slot_count": outcome.slot_count,
        "job_count": outcome.job_count,
        "dropped_uncovered": outcome.dropped_uncovered,
        "dropped_infeasible": outcome.dropped_infeasible,
    }
    if outcome.comparison is not None:
        comparison = outcome.comparison
        data["comparison"] = {
            "index": comparison.index,
            "slot_count": comparison.slot_count,
            "job_count": comparison.job_count,
            "alp": asdict(comparison.alp),
            "amp": asdict(comparison.amp),
        }
    return data


def decode_outcome(data: dict[str, Any]) -> IterationOutcome:
    """Rebuild an :class:`IterationOutcome` from :func:`encode_outcome`."""
    comparison = None
    payload = data.get("comparison")
    if payload is not None:
        comparison = IterationComparison(
            index=int(payload["index"]),
            slot_count=int(payload["slot_count"]),
            job_count=int(payload["job_count"]),
            alp=AlgorithmSample(**payload["alp"]),
            amp=AlgorithmSample(**payload["amp"]),
        )
    return IterationOutcome(
        slot_count=int(data["slot_count"]),
        job_count=int(data["job_count"]),
        comparison=comparison,
        dropped_uncovered=bool(data["dropped_uncovered"]),
        dropped_infeasible=bool(data["dropped_infeasible"]),
    )


class ExperimentCheckpoint:
    """Journal of completed experiment iterations, keyed by index.

    Args:
        path: Checkpoint file (checksummed JSONL).
        config: The series configuration; fingerprinted into the header.
        resume: Load previously completed iterations into
            :attr:`outcomes` instead of starting fresh.  A fresh run
            (``resume=False``) replaces any existing file.
        fsync: Force every append to stable storage.  The default
            ``False`` still flushes per record — enough to survive a
            process kill, which is the failure mode experiments care
            about — without paying an fsync per iteration.
        fs: Filesystem seam the underlying journal writes through
            (defaults to the real filesystem; used by the chaos engine).

    Raises:
        CheckpointMismatchError: When resuming against a checkpoint
            written for a different configuration.
    """

    def __init__(
        self,
        path: str | Path,
        config: ExperimentConfig,
        *,
        resume: bool = False,
        fsync: bool = False,
        fs: FileSystem | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = config_fingerprint(config)
        #: Completed iterations loaded on resume (index → outcome).
        self.outcomes: dict[int, IterationOutcome] = {}
        if resume:
            records = read_journal(self.path)
            header = journal_header(records)
            if header is not None:
                stored = header.get("fingerprint")
                if stored != self.fingerprint:
                    raise CheckpointMismatchError(
                        f"checkpoint {str(self.path)!r} was written for a "
                        f"different experiment configuration (fingerprint "
                        f"{stored!r}, expected {self.fingerprint!r}); "
                        "refusing to merge incompatible series"
                    )
            for record in records:
                if record.kind == OUTCOME_KIND:
                    self.outcomes[int(record.data["index"])] = decode_outcome(
                        record.data["outcome"]
                    )
        elif self.path.exists():
            self.path.unlink()
        self._writer = JournalWriter(
            self.path, fsync=fsync, header={"fingerprint": self.fingerprint}, fs=fs
        )

    @property
    def completed(self) -> int:
        """Number of iterations already on disk."""
        return len(self.outcomes)

    def record(self, index: int, outcome: IterationOutcome) -> None:
        """Durably append one completed iteration."""
        self._writer.append(
            OUTCOME_KIND, {"index": index, "outcome": encode_outcome(outcome)}
        )
        self.outcomes[index] = outcome

    def close(self) -> None:
        """Flush and close the underlying journal (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "ExperimentCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
