"""Grid substrate: the virtual organization the scheduler runs against.

The paper evaluates its algorithms on slot lists; real deployments get
those slot lists from *somewhere* — local resource managers publishing
the vacant gaps of their nodes' occupancy schedules.  This package
builds that somewhere:

* :mod:`repro.grid.occupancy` — busy-interval schedules per node;
* :mod:`repro.grid.node` — priced compute nodes (resource + schedule);
* :mod:`repro.grid.cluster` — resource domains under one owner;
* :mod:`repro.grid.local` — owner-local job flows (non-dedication);
* :mod:`repro.grid.environment` — the VO: publishes slot lists, commits
  windows;
* :mod:`repro.grid.metascheduler` — the periodic batch-scheduling cycle
  with postponement;
* :mod:`repro.grid.resilience` — stochastic failure injection and the
  alternative-backed fault-recovery subsystem;
* :mod:`repro.grid.checkpoint` — crash-safe durable state: atomic
  snapshots plus command-journal replay;
* :mod:`repro.grid.trace` — job life-cycle records and run metrics.
"""

from repro.grid.arrivals import BurstyArrivals, PoissonArrivals
from repro.grid.checkpoint import (
    DurableMetascheduler,
    load_snapshot,
    restore_metascheduler,
    save_snapshot,
    snapshot_metascheduler,
)
from repro.grid.cluster import Cluster, ClusterSpec
from repro.grid.environment import VOEnvironment
from repro.grid.events import EventKind, SimulationDriver, SimulationEvent
from repro.grid.local import LocalJobFlow, LocalLoadModel
from repro.grid.metascheduler import IterationReport, Metascheduler
from repro.grid.node import (
    LOCAL_LABEL_PREFIX,
    OUTAGE_LABEL_PREFIX,
    RESERVATION_LABEL_PREFIX,
    ComputeNode,
    total_income,
)
from repro.grid.occupancy import BusyInterval, OccupancySchedule
from repro.grid.resilience import (
    FailureConfig,
    FailureGenerator,
    Outage,
    RecoveryEvent,
    RecoveryManager,
    RecoveryOutcome,
    RetryPolicy,
    apply_slot_outages,
    derive_node_seed,
)
from repro.grid.trace import JobRecord, JobState, TraceSummary, WorkloadTrace

__all__ = [
    "BusyInterval",
    "OccupancySchedule",
    "ComputeNode",
    "total_income",
    "LOCAL_LABEL_PREFIX",
    "RESERVATION_LABEL_PREFIX",
    "OUTAGE_LABEL_PREFIX",
    "PoissonArrivals",
    "BurstyArrivals",
    "SimulationDriver",
    "SimulationEvent",
    "EventKind",
    "Cluster",
    "ClusterSpec",
    "LocalJobFlow",
    "LocalLoadModel",
    "VOEnvironment",
    "Metascheduler",
    "IterationReport",
    "DurableMetascheduler",
    "snapshot_metascheduler",
    "restore_metascheduler",
    "save_snapshot",
    "load_snapshot",
    "FailureConfig",
    "FailureGenerator",
    "Outage",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryOutcome",
    "RetryPolicy",
    "apply_slot_outages",
    "derive_node_seed",
    "WorkloadTrace",
    "JobRecord",
    "JobState",
    "TraceSummary",
]
