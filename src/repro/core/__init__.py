"""Core library: the paper's primary contribution.

This package implements the economic slot-selection and co-allocation
model of Toporkov et al. (PaCT 2011): the data model (resources, slots,
windows, jobs), the two linear slot-search algorithms ALP and AMP, the
multi-pass alternative search with slot subtraction, and the backward-run
dynamic programming that picks the batch-optimal combination of
alternatives.

Typical use::

    from repro.core import (
        Resource, Slot, SlotList, ResourceRequest, Job, Batch,
        BatchScheduler, SchedulerConfig, SlotSearchAlgorithm, Criterion,
    )

    nodes = [Resource(f"cpu{i}", performance=1.0, price=2.0) for i in range(4)]
    slots = SlotList(Slot(node, 0.0, 500.0) for node in nodes)
    batch = Batch([Job(ResourceRequest(node_count=2, volume=80, max_price=5))])
    outcome = BatchScheduler(SchedulerConfig()).schedule(slots, batch)
"""

from repro.core.criteria import (
    CriteriaVector,
    Criterion,
    criteria_vector,
    total_cost,
    total_time,
)
from repro.core.errors import (
    AdmissionRejectedError,
    CheckpointMismatchError,
    InfeasibleConstraintError,
    InvalidRequestError,
    InvariantViolationError,
    JournalClosedError,
    JournalCorruptError,
    OptimizationError,
    PersistenceError,
    RecoveryExhaustedError,
    SchedulingError,
    SlotListError,
    WindowNotFoundError,
    WorkerLostError,
)
from repro.core.fsio import FileSystem, REAL_FS
from repro.core.job import Batch, Job, ResourceRequest
from repro.core.journal import (
    JournalRecord,
    JournalWriter,
    journal_header,
    read_journal,
    verify_record,
)
from repro.core.optimize import (
    Combination,
    brute_force,
    minimize_cost,
    minimize_time,
    optimize,
    time_quota,
    vo_budget,
)
from repro.core.audit import (
    AuditError,
    Violation,
    audit_outcome,
    audit_windows,
    require_valid,
)
from repro.core.coschedule import BatchAssignment, BatchStrategy, coallocate_batch
from repro.core.pricing import BudgetPolicy, DemandAdjustedPricing, ExponentialPricing
from repro.core.resource import DEFAULT_PRICE_BASE, Resource, price_of_performance
from repro.core.scheduler import (
    BatchScheduler,
    InfeasiblePolicy,
    ScheduleOutcome,
    SchedulerConfig,
)
from repro.core.index import SlotIndex
from repro.core.search import (
    SearchResult,
    SlotSearchAlgorithm,
    WindowFinder,
    find_alternatives,
)
from repro.core.slot import Slot, SlotList
from repro.core.strategy import ScheduleStrategy, ScheduleVersion, build_strategy
from repro.core.timeline import (
    StepFunction,
    SupplySummary,
    alive_profile,
    concurrency_profile,
    supply_summary,
)
from repro.core.window import TaskAllocation, Window
from repro.core import alp, amp

__all__ = [
    # data model
    "Resource",
    "Slot",
    "SlotList",
    "TaskAllocation",
    "Window",
    "ResourceRequest",
    "Job",
    "Batch",
    # algorithms
    "alp",
    "amp",
    "SlotIndex",
    "SlotSearchAlgorithm",
    "WindowFinder",
    "find_alternatives",
    "SearchResult",
    # optimization
    "Criterion",
    "CriteriaVector",
    "criteria_vector",
    "total_cost",
    "total_time",
    "Combination",
    "optimize",
    "minimize_time",
    "minimize_cost",
    "time_quota",
    "vo_budget",
    "brute_force",
    # future-work extensions
    "ScheduleStrategy",
    "ScheduleVersion",
    "build_strategy",
    "BatchStrategy",
    "BatchAssignment",
    "coallocate_batch",
    # timeline diagnostics
    "StepFunction",
    "SupplySummary",
    "concurrency_profile",
    "alive_profile",
    "supply_summary",
    # durable state
    "JournalRecord",
    "JournalWriter",
    "journal_header",
    "read_journal",
    "verify_record",
    "FileSystem",
    "REAL_FS",
    # auditing
    "Violation",
    "AuditError",
    "audit_windows",
    "audit_outcome",
    "require_valid",
    # scheduler façade
    "BatchScheduler",
    "SchedulerConfig",
    "ScheduleOutcome",
    "InfeasiblePolicy",
    # pricing
    "ExponentialPricing",
    "BudgetPolicy",
    "DemandAdjustedPricing",
    "price_of_performance",
    "DEFAULT_PRICE_BASE",
    # errors
    "RecoveryExhaustedError",
    "SchedulingError",
    "InvariantViolationError",
    "InvalidRequestError",
    "SlotListError",
    "WindowNotFoundError",
    "OptimizationError",
    "InfeasibleConstraintError",
    "AdmissionRejectedError",
    "PersistenceError",
    "JournalCorruptError",
    "JournalClosedError",
    "CheckpointMismatchError",
    "WorkerLostError",
]
