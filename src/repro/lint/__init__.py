"""repro-lint: the project's invariant linter.

The reproduction's headline property — byte-identical results for any
worker count, across crashes and resumes — rests on a handful of coding
invariants that no general-purpose linter knows about:

* no ambient entropy (wall-clock timestamps, the global ``random``
  state, OS randomness) in the scheduling and simulation code;
* every RNG in a sharded path is seeded through the derivation helpers
  (:func:`repro.sim.experiment.derive_iteration_seed`,
  :func:`repro.grid.resilience.derive_node_seed`), never ad hoc;
* invariants raise typed errors from :mod:`repro.core.errors` rather
  than ``assert`` (which vanishes under ``python -O``);
* everything feeding serialization or journal writes iterates in a
  defined order;
* no handler is broad enough to swallow
  :class:`~repro.core.errors.JournalCorruptError` or
  :class:`~repro.core.errors.CheckpointMismatchError`;
* every telemetry/decision-log emit in the hot scheduling paths
  (``repro/core``, ``repro/grid``) sits behind an enabled-guard, so
  disabled telemetry stays zero-cost.

On top of the per-module rules sits a whole-program layer: a project
symbol table with import/alias resolution (:mod:`repro.lint.project`),
a conservative cross-module call graph (:mod:`repro.lint.graph`), and
four flow rules (:mod:`repro.lint.flowrules`) — RPR101 no shared state
in worker-reachable code, RPR102 typed errors at the ``__all__``
surface, RPR103 fork-safe worker arguments, RPR104 deterministic
resource lifecycles.

This package checks those invariants statically, at lint time, instead
of waiting for a 25 000-iteration differential run to diverge.  Run it
as ``repro-lint src/`` (console script) or ``python -m repro.lint src/``;
rules are one class each (:mod:`repro.lint.rules`,
:mod:`repro.lint.flowrules`), findings print as
``file:line:col CODE message``, and ``# repro-lint: disable=...``
comments suppress line- or file-wide (and are counted).  See ``docs/static-analysis.md`` for the full rule
catalog, the whole-program model and its conservatisms, and the
suppression policy.
"""

from repro.lint.base import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    file_suppressions,
    module_key,
    parse_suppressions,
)
from repro.lint.engine import (
    DEFAULT_RULES,
    LintReport,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.flowrules import (
    FLOW_RULES,
    ExceptionContractRule,
    ForkSafetyRule,
    ResourceLifecycleRule,
    SharedStateRule,
)
from repro.lint.graph import CallGraph
from repro.lint.project import Project
from repro.lint.rules import (
    ALL_RULES,
    BroadExceptRule,
    DerivedSeedRule,
    EntropyRule,
    GuardedTelemetryRule,
    NoAssertRule,
    OrderedSerializationRule,
    rules_by_code,
)
from repro.lint.cli import main

__all__ = [
    # data model
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "file_suppressions",
    "module_key",
    "parse_suppressions",
    # engine
    "DEFAULT_RULES",
    "LintReport",
    "lint_source",
    "lint_sources",
    "lint_file",
    "lint_paths",
    # whole-program analysis
    "Project",
    "CallGraph",
    # per-module rules
    "ALL_RULES",
    "EntropyRule",
    "DerivedSeedRule",
    "NoAssertRule",
    "OrderedSerializationRule",
    "BroadExceptRule",
    "GuardedTelemetryRule",
    "rules_by_code",
    # flow rules
    "FLOW_RULES",
    "SharedStateRule",
    "ExceptionContractRule",
    "ForkSafetyRule",
    "ResourceLifecycleRule",
    # entry point
    "main",
]
