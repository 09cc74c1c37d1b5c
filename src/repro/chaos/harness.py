"""Crash-point sweeps and chaos campaigns over the durable + parallel layers.

The harness turns the fault primitives (:mod:`repro.chaos.faults`,
:mod:`repro.chaos.fs`, :mod:`repro.chaos.proc`) into end-to-end
*campaigns*, each asserting the recovery contract of one layer:

* :func:`sweep_crash_points` — run a fixed reference workload through a
  :class:`~repro.grid.checkpoint.DurableMetascheduler`, crashing at
  **every** journal sequence point (full-record and torn variants),
  restoring from disk, finishing the workload, and requiring the final
  state to be byte-identical to an uninterrupted oracle run.
* :func:`sweep_experiment_resume` — the same sweep over the experiment
  engine's outcome checkpoint: crash at every record of a checkpointed
  series, resume with ``--resume`` semantics, and require the merged
  result to equal the uninterrupted series (serial and parallel).
* ``io`` campaign — the non-crash storage faults: ``ENOSPC`` and a
  failed ``fsync`` must fail-closed
  (:class:`~repro.core.errors.JournalClosedError` on the next append), a
  failed snapshot rename must leave the previous snapshot restorable,
  and a silent bit-flip must be *detected* on replay
  (:class:`~repro.core.errors.JournalCorruptError`), never re-applied.
* ``pool`` campaign — ``SIGKILL`` a real worker process under
  :class:`~repro.sim.experiment.ParallelRunner`; supervised recovery
  must reproduce the undisturbed output exactly.

Campaigns never raise on a contract violation — they collect findings
into :class:`CampaignResult` so one run reports every failure — and all
randomized placement (which worker to kill, which record to starve)
derives from the single ``--chaos-seed`` via
:func:`~repro.chaos.faults.derive_fault_seed`, so a failing campaign
replays bit-for-bit.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from repro.chaos.faults import FaultPlan, FaultPoint, SimulatedCrash, derive_fault_seed
from repro.chaos.fs import ChaosFilesystem
from repro.chaos.proc import CrashOnceSpanTask
from repro.core import Job, Resource, ResourceRequest
from repro.core.errors import (
    InvalidRequestError,
    JournalClosedError,
    JournalCorruptError,
    PersistenceError,
)
from repro.core.journal import read_journal
from repro.grid import Cluster, ComputeNode, Metascheduler, RetryPolicy, VOEnvironment
from repro.grid.checkpoint import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    DurableMetascheduler,
    snapshot_metascheduler,
)
from repro.obs.telemetry import get_telemetry
from repro.sim.checkpoint import ExperimentCheckpoint
from repro.sim.experiment import ExperimentConfig, ExperimentResult, ParallelRunner

__all__ = [
    "CAMPAIGN_NAMES",
    "CampaignResult",
    "ChaosReport",
    "run_campaigns",
    "sweep_crash_points",
    "sweep_experiment_resume",
]

#: The reference metascheduler workload, as a replayable command script.
#: Each command journals exactly one record, so command ``c`` (1-based)
#: is journal write ``c + 1`` (the header is write 1) — the mapping the
#: crash-point sweep uses to address "journal append #k".
REFERENCE_SCRIPT: tuple[tuple[str | int | float, ...], ...] = (
    ("submit", 0, 0.0),
    ("submit", 1, 10.0),
    ("iteration", 0.0),
    ("submit", 2, 60.0),
    ("iteration", 50.0),
    ("iteration", 100.0),
    ("outage", 0, 160.0, 210.0),
    ("iteration", 150.0),
    ("completions", 250.0),
)


@dataclass
class CampaignResult:
    """Outcome of one chaos campaign.

    Attributes:
        name: Campaign name (see :data:`CAMPAIGN_NAMES`).
        runs: Fault scenarios executed.
        injected: Faults that actually fired across the scenarios.
        failures: One human-readable line per violated recovery
            contract; empty means the campaign passed.
    """

    name: str
    runs: int = 0
    injected: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every scenario upheld its recovery contract."""
        return not self.failures


@dataclass
class ChaosReport:
    """Aggregate of all campaigns of one ``chaos`` invocation."""

    #: The master ``--chaos-seed`` every campaign derived from.
    seed: int
    #: Per-campaign results, in execution order.
    campaigns: list[CampaignResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every campaign passed."""
        return all(campaign.ok for campaign in self.campaigns)

    def summary(self) -> str:
        """Render the per-campaign PASS/FAIL table plus failure detail."""
        lines = [f"chaos campaigns (seed {self.seed})"]
        for campaign in self.campaigns:
            verdict = "PASS" if campaign.ok else "FAIL"
            lines.append(
                f"  {campaign.name:<12} {verdict}  "
                f"({campaign.runs} scenarios, {campaign.injected} faults injected)"
            )
            for failure in campaign.failures:
                lines.append(f"    - {failure}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Reference workload (pinned uids, see tests/test_checkpoint.py)          #
# ---------------------------------------------------------------------- #


def _build_reference_meta() -> Metascheduler:
    """A small VO with pinned resource uids, so independent builds of
    the oracle and each crashed run produce byte-identical snapshots."""
    nodes = []
    for index in range(4):
        node = ComputeNode(
            f"n{index}", performance=1.0 + index * 0.5, price=1.0 + index
        )
        node.resource = Resource(
            f"n{index}",
            performance=1.0 + index * 0.5,
            price=1.0 + index,
            uid=900 + index,
        )
        nodes.append(node)
    environment = VOEnvironment([Cluster("c0", nodes)])
    return Metascheduler(
        environment, period=50.0, horizon=500.0, recovery=RetryPolicy()
    )


def _reference_job(index: int) -> Job:
    return Job(
        ResourceRequest(node_count=2, volume=60.0, max_price=10.0),
        name=f"job{index}",
        uid=1000 + index,
    )


def _apply_command(
    target: DurableMetascheduler | Metascheduler,
    command: tuple[str | int | float, ...],
) -> None:
    """Execute one script command on a durable or plain metascheduler."""
    meta = target.meta if isinstance(target, DurableMetascheduler) else target
    kind = command[0]
    if kind == "submit":
        target.submit(_reference_job(int(command[1])), float(command[2]))
    elif kind == "iteration":
        target.run_iteration(float(command[1]))
    elif kind == "completions":
        if isinstance(target, DurableMetascheduler):
            target.mark_completions(float(command[1]))
        else:
            meta.trace.mark_completions(float(command[1]))
    elif kind == "outage":
        node = list(meta.environment.nodes())[int(command[1])]
        target.inject_outage(node, float(command[2]), float(command[3]))
    else:
        raise InvalidRequestError(f"unknown reference-script command {kind!r}")


def _canonical(meta: Metascheduler) -> str:
    return json.dumps(snapshot_metascheduler(meta), sort_keys=True)


def _reference_oracle() -> str:
    """Canonical final state of an uninterrupted reference run."""
    meta = _build_reference_meta()
    for command in REFERENCE_SCRIPT:
        _apply_command(meta, command)
    return _canonical(meta)


def _applied_commands(directory: Path) -> int:
    """Commands durably on disk: the last journal seq (header is 0).

    A torn trailing record is the crash artefact and counts as *not*
    applied — exactly what restore will skip.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = read_journal(directory / JOURNAL_NAME)
    return records[-1].seq if records else 0


def _restore_and_finish(directory: Path) -> str:
    """Restore a crashed durable run, finish the script, return state."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        applied = _applied_commands(directory)
        restored = DurableMetascheduler.restore(directory, fsync=False)
    try:
        for command in REFERENCE_SCRIPT[applied:]:
            _apply_command(restored, command)
        return _canonical(restored.meta)
    finally:
        restored._journal.close()


# ---------------------------------------------------------------------- #
# Campaign: durable metascheduler crash-point sweep                       #
# ---------------------------------------------------------------------- #


def sweep_crash_points(
    base_dir: str | Path,
    *,
    seed: int = 0,
    modes: Sequence[str] = ("crash", "torn"),
    snapshot_every: int = 3,
) -> CampaignResult:
    """Crash a durable run at every journal sequence point; verify restore.

    For every command of :data:`REFERENCE_SCRIPT` and every ``mode``
    (``crash`` = the record reached the OS buffer, ``torn`` = half of it
    did), the run is killed at that command's journal append, restored
    from disk, resumed from the journal's high-water mark, and the final
    state compared byte-for-byte against the uninterrupted oracle.

    The sweep is exhaustive rather than sampled, so ``seed`` only labels
    the campaign; it exists for signature uniformity with the sampled
    campaigns.
    """
    base = Path(base_dir)
    oracle = _reference_oracle()
    result = CampaignResult(name="sweep")
    for mode in modes:
        for command_index in range(1, len(REFERENCE_SCRIPT) + 1):
            result.runs += 1
            label = f"{mode}@journal-append-{command_index}"
            directory = base / f"sweep-{mode}-{command_index:02d}"
            plan = FaultPlan(
                (
                    FaultPoint(
                        "write", mode, index=command_index + 1, path=JOURNAL_NAME
                    ),
                )
            )
            durable = DurableMetascheduler(
                _build_reference_meta(),
                directory,
                snapshot_every=snapshot_every,
                fsync=False,
                fs=ChaosFilesystem(plan),
            )
            crashed = False
            try:
                for command in REFERENCE_SCRIPT:
                    _apply_command(durable, command)
            except SimulatedCrash:
                crashed = True
            finally:
                durable._journal.close()
            result.injected += len(plan.injected)
            if not crashed:
                result.failures.append(f"{label}: fault never fired")
                continue
            final = _restore_and_finish(directory)
            if final != oracle:
                result.failures.append(
                    f"{label}: restored state diverges from the oracle"
                )
    return result


# ---------------------------------------------------------------------- #
# Campaign: experiment checkpoint crash/resume sweep                      #
# ---------------------------------------------------------------------- #


def _crash_then_resume(
    result: CampaignResult,
    runner: Callable[[], ParallelRunner],
    reference: ExperimentResult,
    kind: str,
    mode: str,
    record: int,
    path: Path,
) -> None:
    """Crash a checkpointed run at outcome ``record``, then resume it.

    ``runner`` builds a fresh runner for each run; the resumed result
    must equal ``reference``, the uninterrupted series.
    """
    result.runs += 1
    label = f"{kind}-{mode}@outcome-{record}"
    plan = FaultPlan((FaultPoint("write", mode, index=record + 1, path=path.name),))
    store = ExperimentCheckpoint(path, runner().config, resume=False, fs=ChaosFilesystem(plan))
    crashed = False
    try:
        runner().run(checkpoint=store)
    except SimulatedCrash:
        crashed = True
    result.injected += len(plan.injected)
    if not crashed:
        result.failures.append(f"{label}: fault never fired")
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        resumed = runner().run(checkpoint=str(path), resume=True)
    if resumed != reference:
        result.failures.append(
            f"{label}: resumed result diverges from the uninterrupted run"
        )


def sweep_experiment_resume(
    base_dir: str | Path,
    *,
    seed: int = 20110368,
    iterations: int = 6,
    modes: Sequence[str] = ("crash", "torn"),
) -> CampaignResult:
    """Crash a checkpointed series at every outcome record; verify resume.

    Serial sweep: every outcome record of an in-process
    :class:`~repro.sim.experiment.ParallelRunner` run (``workers=1``) is
    crashed at (full and torn), then the series is resumed from the
    checkpoint path and must merge to the uninterrupted result.  A
    second, sampled pass does the same with two workers, exercising the
    checkpointed pool path, which records each chunk as the pool hands
    it back.
    """
    base = Path(base_dir)
    base.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(iterations=iterations, seed=seed)
    result = CampaignResult(name="experiment")
    serial = partial(ParallelRunner, config)
    reference = serial().run()
    for mode in modes:
        for record in range(1, iterations + 1):
            path = base / f"experiment-{mode}-{record:02d}.jsonl"
            _crash_then_resume(result, serial, reference, "serial", mode, record, path)
    # Parallel pass: sampled (one crash point per mode) to bound wall time.
    # One seed is one series, so the in-process reference serves too.
    parallel = partial(ParallelRunner, config, workers=2)
    rng = random.Random(derive_fault_seed(seed, "experiment-parallel"))
    for mode in modes:
        record = rng.randrange(1, iterations + 1)
        path = base / f"experiment-parallel-{mode}-{record:02d}.jsonl"
        _crash_then_resume(result, parallel, reference, "parallel", mode, record, path)
    return result


# ---------------------------------------------------------------------- #
# Campaign: non-crash I/O faults (fail-closed / survive / detect)         #
# ---------------------------------------------------------------------- #


def _io_campaign(base_dir: str | Path, seed: int) -> CampaignResult:
    """ENOSPC, failed fsync, failed rename, and a silent bit-flip."""
    base = Path(base_dir)
    base.mkdir(parents=True, exist_ok=True)
    oracle = _reference_oracle()
    result = CampaignResult(name="io")
    placement_seed = derive_fault_seed(seed, "io-placement")
    rng = random.Random(placement_seed)

    def run_faulted(
        directory: Path, plan: FaultPlan, *, fsync: bool
    ) -> tuple[DurableMetascheduler, str | None]:
        """Apply the script under ``plan``; returns the durable plus the
        name of the library error that interrupted it (None = ran out)."""
        durable = DurableMetascheduler(
            _build_reference_meta(),
            directory,
            snapshot_every=3,
            fsync=fsync,
            fs=ChaosFilesystem(plan),
        )
        try:
            for command in REFERENCE_SCRIPT:
                _apply_command(durable, command)
        except PersistenceError as error:
            return durable, type(error).__name__
        return durable, None

    def check_fail_closed(name: str, durable: DurableMetascheduler) -> None:
        """After the fault, the journal must refuse further appends."""
        try:
            _apply_command(durable, ("iteration", 400.0))
        except JournalClosedError:
            return
        result.failures.append(
            f"{name}: journal accepted an append after an I/O failure "
            "instead of failing closed"
        )

    # ENOSPC on a journal append: nothing hit the disk, the handle must
    # fail-closed, and restore+resume must reconverge on the oracle.
    result.runs += 1
    command_index = rng.randrange(3, len(REFERENCE_SCRIPT))
    directory = base / "io-enospc"
    plan = FaultPlan(
        (FaultPoint("write", "enospc", index=command_index + 1, path=JOURNAL_NAME),)
    )
    durable, interrupted = run_faulted(directory, plan, fsync=False)
    result.injected += len(plan.injected)
    if interrupted is None:
        result.failures.append("enospc: fault never fired")
    else:
        check_fail_closed("enospc", durable)
        if _restore_and_finish(directory) != oracle:
            result.failures.append("enospc: restored state diverges from the oracle")

    # Failed fsync (fsyncgate): the record may or may not be durable, so
    # the handle must poison itself; reopening resumes from whatever the
    # scan finds on disk.
    result.runs += 1
    command_index = rng.randrange(3, len(REFERENCE_SCRIPT))
    directory = base / "io-fsync"
    plan = FaultPlan(
        (
            FaultPoint(
                "fsync", "fsync_fail", index=command_index + 1, path=JOURNAL_NAME
            ),
        )
    )
    durable, interrupted = run_faulted(directory, plan, fsync=True)
    result.injected += len(plan.injected)
    if interrupted is None:
        result.failures.append("fsync_fail: fault never fired")
    else:
        check_fail_closed("fsync_fail", durable)
        if _restore_and_finish(directory) != oracle:
            result.failures.append(
                "fsync_fail: restored state diverges from the oracle"
            )

    # Failed snapshot rename: the previous snapshot must stay intact and
    # restorable; the journal (which already holds the command) resumes.
    result.runs += 1
    directory = base / "io-rename"
    plan = FaultPlan(
        (FaultPoint("replace", "rename_fail", index=2, path=SNAPSHOT_NAME),)
    )
    durable, interrupted = run_faulted(directory, plan, fsync=False)
    durable._journal.close()
    result.injected += len(plan.injected)
    if interrupted is None:
        result.failures.append("rename_fail: fault never fired")
    elif _restore_and_finish(directory) != oracle:
        result.failures.append("rename_fail: restored state diverges from the oracle")

    # Silent mid-file bit-flip: the full run "succeeds", but replay must
    # detect the corruption (checksum / sequence validation), never
    # silently re-apply the mutated record.
    result.runs += 1
    directory = base / "io-bitflip"
    flip_index = rng.randrange(2, len(REFERENCE_SCRIPT) - 1)
    plan = FaultPlan(
        (FaultPoint("write", "bitflip", index=flip_index + 1, path=JOURNAL_NAME),)
    )
    durable, interrupted = run_faulted(directory, plan, fsync=False)
    durable._journal.close()
    result.injected += len(plan.injected)
    if interrupted is not None:
        result.failures.append(f"bitflip: run failed early with {interrupted}")
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                DurableMetascheduler.restore(directory, fsync=False)
            result.failures.append(
                "bitflip: restore silently replayed a corrupted journal record"
            )
        except JournalCorruptError:
            pass

    # ENOSPC on the experiment checkpoint format: the run dies with a
    # typed error, the writer fails closed, and a resume recomputes the
    # lost iteration.
    result.runs += 1
    config = ExperimentConfig(iterations=4, seed=seed)
    reference = ParallelRunner(config).run()
    path = base / "io-sim-enospc.jsonl"
    plan = FaultPlan((FaultPoint("write", "enospc", index=3, path=path.name),))
    store = ExperimentCheckpoint(path, config, resume=False, fs=ChaosFilesystem(plan))
    try:
        ParallelRunner(config).run(checkpoint=store)
        result.failures.append("sim-enospc: fault never fired")
    except PersistenceError:
        if not store._writer.poisoned:
            result.failures.append(
                "sim-enospc: checkpoint writer did not fail-closed"
            )
        resumed = ParallelRunner(config).run(checkpoint=str(path), resume=True)
        if resumed != reference:
            result.failures.append(
                "sim-enospc: resumed result diverges from the uninterrupted run"
            )
    result.injected += len(plan.injected)
    return result


# ---------------------------------------------------------------------- #
# Campaign: killed pool worker (ParallelRunner)                           #
# ---------------------------------------------------------------------- #


def _pool_campaign(base_dir: str | Path, seed: int) -> CampaignResult:
    """SIGKILL one experiment pool worker; supervised retry must converge."""
    base = Path(base_dir)
    base.mkdir(parents=True, exist_ok=True)
    result = CampaignResult(name="pool", runs=1)
    config = ExperimentConfig(iterations=8, seed=seed)
    reference = ParallelRunner(config, workers=2).run()
    victim_seed = derive_fault_seed(seed, "pool-kill")
    victim = random.Random(victim_seed).randrange(config.iterations)
    sentinel = base / "pool.sentinel"
    runner = ParallelRunner(
        config,
        workers=2,
        span_task=CrashOnceSpanTask(str(sentinel), victim),
    )
    outcome = runner.run()
    if not sentinel.exists():
        result.failures.append("pool: the span task never killed its worker")
    else:
        result.injected += 1
    if outcome != reference:
        result.failures.append(
            "pool: result after supervised pool retry diverges from the "
            "undisturbed run"
        )
    return result


# ---------------------------------------------------------------------- #
# Campaign registry + entry point                                         #
# ---------------------------------------------------------------------- #


def _sweep_campaign(base_dir: str | Path, seed: int) -> CampaignResult:
    return sweep_crash_points(base_dir, seed=seed)


def _experiment_campaign(base_dir: str | Path, seed: int) -> CampaignResult:
    return sweep_experiment_resume(base_dir, seed=seed)


_CAMPAIGNS: dict[str, Callable[[str | Path, int], CampaignResult]] = {
    "sweep": _sweep_campaign,
    "experiment": _experiment_campaign,
    "io": _io_campaign,
    "pool": _pool_campaign,
}

#: Campaign names accepted by :func:`run_campaigns` and ``repro chaos``.
CAMPAIGN_NAMES: tuple[str, ...] = tuple(_CAMPAIGNS)


def run_campaigns(
    base_dir: str | Path,
    *,
    seed: int = 20110368,
    names: Sequence[str] | None = None,
) -> ChaosReport:
    """Run the selected chaos campaigns; returns the aggregate report.

    Args:
        base_dir: Scratch directory for journals, checkpoints, and
            sentinels (created if missing).
        seed: The single master seed (``--chaos-seed``) every campaign
            derives its fault placement from.
        names: Campaign subset to run, in :data:`CAMPAIGN_NAMES` order;
            ``None`` runs all of them.

    Raises:
        InvalidRequestError: For an unknown campaign name.
    """
    base = Path(base_dir)
    base.mkdir(parents=True, exist_ok=True)
    selected = list(CAMPAIGN_NAMES) if names is None else list(names)
    for name in selected:
        if name not in _CAMPAIGNS:
            raise InvalidRequestError(
                f"unknown chaos campaign {name!r}; expected a subset of "
                f"{list(CAMPAIGN_NAMES)}"
            )
    report = ChaosReport(seed=seed)
    telemetry = get_telemetry()
    for name in CAMPAIGN_NAMES:
        if name not in selected:
            continue
        campaign = _CAMPAIGNS[name](base / name, seed)
        report.campaigns.append(campaign)
        if telemetry.enabled:
            telemetry.count(
                "chaos.campaigns", 1, campaign=name, ok=str(campaign.ok).lower()
            )
            if telemetry.decisions.enabled:
                telemetry.decisions.emit(
                    "chaos.campaign",
                    campaign=name,
                    ok=campaign.ok,
                    runs=campaign.runs,
                    injected=campaign.injected,
                    failures=len(campaign.failures),
                )
    return report
