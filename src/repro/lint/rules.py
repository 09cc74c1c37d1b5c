"""The rule catalog: six statically checkable determinism invariants.

Each rule is one class; ``ALL_RULES`` is the default set the engine
runs.  The catalog with worked examples and rationale lives in
``docs/static-analysis.md`` — keep the two in sync when adding rules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import Finding, ModuleContext, Rule, matches_suffix

__all__ = [
    "ALL_RULES",
    "EntropyRule",
    "DerivedSeedRule",
    "NoAssertRule",
    "OrderedSerializationRule",
    "BroadExceptRule",
    "GuardedTelemetryRule",
    "rules_by_code",
]

#: Modules allowed to touch the wall clock: the injectable clock shim is
#: the single funnel for timestamps (see ``repro/obs/clock.py``).
ENTROPY_ALLOWLIST = ("repro/obs/clock.py",)

#: Sharded execution paths: every RNG here must be seeded through the
#: derivation helpers or results stop being worker-count-invariant.
#: The chaos engine is held to the same bar — fault placement must be a
#: pure function of the master ``--chaos-seed`` or campaigns stop
#: replaying.
SHARDED_PATHS = (
    "sim/experiment.py",
    "grid/resilience.py",
    "chaos/faults.py",
    "chaos/fs.py",
    "chaos/proc.py",
    "chaos/harness.py",
)

#: Modules whose output is serialized, journaled, checksummed, or
#: diffed byte-for-byte across runs.
SERIALIZATION_PATHS = (
    "core/journal.py",
    "grid/checkpoint.py",
    "sim/checkpoint.py",
    "obs/export.py",
    "obs/events.py",
    "obs/merge.py",
)

#: ``random`` module helpers that drive the *shared global* RNG (or the
#: OS entropy pool, for SystemRandom) — never acceptable in seeded code.
_SEED_DERIVERS = ("derive_iteration_seed", "derive_node_seed", "derive_fault_seed")

_WALL_CLOCK_CALLS = {
    "time.time": "wall-clock timestamp",
    "time.time_ns": "wall-clock timestamp",
    "datetime.datetime.now": "wall-clock timestamp",
    "datetime.datetime.utcnow": "wall-clock timestamp",
    "datetime.datetime.today": "wall-clock timestamp",
    "datetime.date.today": "wall-clock date",
}

_OS_ENTROPY_CALLS = {
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "random UUID",
    "random.SystemRandom": "OS-entropy RNG",
}


def _is_none(node: ast.expr | None) -> bool:
    return node is None or (isinstance(node, ast.Constant) and node.value is None)


class EntropyRule(Rule):
    """RPR001 — no ambient entropy outside the clock allowlist.

    Wall-clock reads, the process-global ``random`` state, OS
    randomness, and random UUIDs all make output depend on *when and
    where* the code ran instead of only on the seed.  One stray call in
    ``core/``/``sim/``/``grid/`` silently breaks worker-count-invariant
    sharding and byte-identical resume.  Timestamps belong in
    :mod:`repro.obs.clock` (the only allowlisted module); randomness
    must come from an explicitly seeded ``random.Random(seed)``.

    Monotonic duration clocks (``time.monotonic``,
    ``time.perf_counter``) are deliberately *not* flagged: they measure
    elapsed time for telemetry only and never produce values that feed
    seeded state, scheduling decisions or serialized results.
    """

    code = "RPR001"
    name = "no-ambient-entropy"
    rationale = "seeded runs must not read wall clocks or global/OS randomness"

    def applies_to(self, module: ModuleContext) -> bool:
        """Every module except the injectable clock shim."""
        return not matches_suffix(module.key, ENTROPY_ALLOWLIST)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag calls into wall clocks, the global RNG, and OS entropy."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.call_name(node)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"ambient {_WALL_CLOCK_CALLS[name]} via {name}() — route "
                    "timestamps through repro.obs.clock.now()",
                )
            elif name in _OS_ENTROPY_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"ambient {_OS_ENTROPY_CALLS[name]} via {name}() — all "
                    "randomness must flow from an explicit seed",
                )
            elif name.startswith("secrets."):
                yield self.finding(
                    module,
                    node,
                    f"ambient OS entropy via {name}() — all randomness must "
                    "flow from an explicit seed",
                )
            elif name == "random.Random" and (
                not node.args or _is_none(node.args[0])
            ):
                yield self.finding(
                    module,
                    node,
                    "random.Random() without an explicit seed falls back to "
                    "OS entropy — pass a derived seed",
                )
            elif name.startswith("random.") and name.count(".") == 1:
                helper = name.split(".", 1)[1]
                if helper and helper[0].islower():
                    yield self.finding(
                        module,
                        node,
                        f"{name}() drives the process-global RNG — construct "
                        "a seeded random.Random instead",
                    )


class DerivedSeedRule(Rule):
    """RPR002 — sharded paths seed RNGs only through the derivation helpers.

    :class:`~repro.sim.experiment.ParallelRunner` and the failure
    streams in :mod:`repro.grid.resilience` are byte-identical for any
    worker count *only because* every RNG they build is keyed by
    ``derive_iteration_seed(master, index)`` /
    ``derive_node_seed(master, name)`` — stable identities, independent
    of shard assignment.  An ad-hoc ``random.Random(seed + index)``
    (correlated neighbouring streams) or ``random.Random(worker_id)``
    (shard-dependent!) type-checks fine and only fails 25 000
    iterations later; this rule catches it at lint time.
    """

    code = "RPR002"
    name = "derived-seeds-only"
    rationale = "worker-count invariance requires hash-derived per-shard seeds"

    def applies_to(self, module: ModuleContext) -> bool:
        """Only the sharded execution paths (plus test-supplied extras)."""
        return matches_suffix(module.key, SHARDED_PATHS + self.extra_paths)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag ``random.Random(x)`` where ``x`` is not a derived seed."""
        derived_names = self._derived_assignments(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.call_name(node) != "random.Random":
                continue
            if not node.args or _is_none(node.args[0]):
                continue  # unseeded: RPR001's finding, not ours
            if not self._is_derived(module, node.args[0], derived_names):
                yield self.finding(
                    module,
                    node,
                    "RNG in a sharded path must be seeded via "
                    "derive_iteration_seed()/derive_node_seed(), not an "
                    "ad-hoc expression",
                )

    @staticmethod
    def _derived_assignments(module: ModuleContext) -> set[str]:
        """Names assigned directly from a seed-derivation call."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = module.call_name(node.value)
            if callee is None or callee.split(".")[-1] not in _SEED_DERIVERS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_derived(
        module: ModuleContext, seed: ast.expr, derived_names: set[str]
    ) -> bool:
        """Whether a seed expression traces to a derivation helper."""
        if isinstance(seed, ast.Call):
            callee = module.call_name(seed)
            return callee is not None and callee.split(".")[-1] in _SEED_DERIVERS
        if isinstance(seed, ast.Name):
            return seed.id in derived_names
        return False


class NoAssertRule(Rule):
    """RPR003 — invariants raise typed errors, never bare ``assert``.

    ``python -O`` strips every ``assert`` statement, so an invariant
    guarded by one silently stops being checked exactly when someone
    runs the scheduler "optimized" in production.  Library invariants
    must raise the typed errors from :mod:`repro.core.errors`
    (``InvariantViolationError`` for internal consistency checks), which
    survive any interpreter flag and map to the CLI's exit-code
    contract.
    """

    code = "RPR003"
    name = "no-bare-assert"
    rationale = "asserts vanish under python -O; typed errors do not"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag every ``assert`` statement."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module,
                    node,
                    "bare assert is stripped under python -O — raise a typed "
                    "error from repro.core.errors instead",
                )


class OrderedSerializationRule(Rule):
    """RPR004 — serialized output is produced in a defined order.

    Journals, checkpoints, and traces are compared byte-for-byte across
    runs (crash/resume equivalence, workers-1-vs-N diffs), so the
    modules that write them must not let unordered collections pick the
    output order: set iteration order varies across processes (string
    hash randomization), and ``json.dumps`` without ``sort_keys=True``
    emits keys in whatever insertion order the producing code happened
    to use.  Iterate sets through ``sorted(...)`` and always pass
    ``sort_keys=True`` when serializing.
    """

    code = "RPR004"
    name = "ordered-serialization"
    rationale = "byte-identical journals need deterministic iteration and key order"

    def applies_to(self, module: ModuleContext) -> bool:
        """Only modules that write serialized/journaled output."""
        return matches_suffix(module.key, SERIALIZATION_PATHS + self.extra_paths)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag unordered set iteration and unsorted ``json.dump(s)``."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = module.call_name(node)
                if name in ("json.dump", "json.dumps") and not self._sorts_keys(node):
                    yield self.finding(
                        module,
                        node,
                        f"{name}() without sort_keys=True makes byte output "
                        "depend on dict insertion order — pass sort_keys=True",
                    )
            for iterable in self._iteration_sources(node):
                if self._is_set_expression(module, iterable):
                    yield self.finding(
                        module,
                        iterable,
                        "iterating a set in a serialization path has no "
                        "defined order — wrap the set in sorted(...)",
                    )

    @staticmethod
    def _sorts_keys(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False

    @staticmethod
    def _iteration_sources(node: ast.AST) -> list[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return [node.iter]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return [generator.iter for generator in node.generators]
        return []

    @staticmethod
    def _is_set_expression(module: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return module.call_name(node) in ("set", "frozenset")
        return False


class BroadExceptRule(Rule):
    """RPR005 — no handler broad enough to swallow corruption errors.

    ``except:`` / ``except Exception`` around persistence or replay
    code silently eats :class:`~repro.core.errors.JournalCorruptError`
    and :class:`~repro.core.errors.CheckpointMismatchError` — the two
    errors whose entire purpose is refusing to resume from state that
    cannot be trusted.  Catch the specific errors a call site can
    actually handle; let everything else propagate to the CLI's typed
    exit-code handler.
    """

    code = "RPR005"
    name = "no-broad-except"
    rationale = "broad handlers swallow JournalCorruptError/CheckpointMismatchError"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag bare ``except:`` and ``except (Base)Exception``."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except swallows JournalCorruptError/"
                    "CheckpointMismatchError — catch specific errors",
                )
                continue
            caught = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expression in caught:
                if module.qualified_name(expression) in ("Exception", "BaseException"):
                    yield self.finding(
                        module,
                        expression,
                        f"except {module.qualified_name(expression)} swallows "
                        "JournalCorruptError/CheckpointMismatchError — catch "
                        "specific errors",
                    )


#: Hot scheduling paths where every telemetry emit must sit behind an
#: explicit enabled-guard (the zero-cost-when-off contract).
TELEMETRY_GUARDED_PATHS = ("repro/core/", "repro/grid/")

#: Recording methods whose mere invocation builds argument tuples and
#: label dicts — overhead the disabled path must never pay per call.
_TELEMETRY_EMIT_METHODS = ("count", "observe", "set_gauge", "event", "emit")

#: Receiver-name fragments identifying a telemetry-ish object
#: (``telemetry.count``, ``decisions.emit``, ``self._telemetry.event``).
_TELEMETRY_RECEIVERS = ("telemetry", "decisions", "obs")


class GuardedTelemetryRule(Rule):
    """RPR006 — hot-path telemetry emits sit behind an enabled-guard.

    Every recording method already no-ops when telemetry is disabled,
    but the *call itself* still allocates: argument tuples, label dicts,
    formatted values.  In the per-slot/per-job loops of ``repro/core``
    and ``repro/grid`` that overhead is exactly what the zero-cost-
    when-off contract forbids, so an emit there must be lexically inside
    one of the accepted guard shapes:

    * an ``if`` whose test reads ``.enabled`` (or a local name assigned
      from one, e.g. ``record_decisions = decisions.enabled``) or calls
      ``telemetry_enabled()``;
    * a function whose *first* statement is such a test ending in
      ``return``/``raise`` (the early-return guard idiom).

    ``span()`` is deliberately exempt: it returns the shared no-op
    singleton and is used at per-batch/per-iteration granularity, never
    inside the hot scan loops.
    """

    code = "RPR006"
    name = "guarded-telemetry"
    rationale = "zero-cost-when-off: hot-path emits must be behind enabled-guards"

    def applies_to(self, module: ModuleContext) -> bool:
        """Only the hot scheduling paths (plus test-supplied extras)."""
        if matches_suffix(module.key, self.extra_paths):
            return True
        return any(module.key.startswith(prefix) for prefix in TELEMETRY_GUARDED_PATHS)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag telemetry emits reachable while telemetry is disabled."""
        guard_names = self._guard_names(module)
        yield from self._visit(module, module.tree, False, guard_names)

    def _visit(
        self,
        module: ModuleContext,
        node: ast.AST,
        guarded: bool,
        guard_names: set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (
                guarded
                or self._has_early_return_guard(module, node, guard_names)
            )
            for child in node.body:
                yield from self._visit(module, child, inner, guard_names)
            return
        if isinstance(node, ast.If):
            # A test that consults ``enabled`` marks both branches as
            # deliberate; the disabled branch of an inverted guard never
            # contains emits in practice, and leniency beats false
            # positives in a gating linter.
            branch = guarded or self._mentions_enabled(module, node.test, guard_names)
            for child in node.body:
                yield from self._visit(module, child, branch, guard_names)
            for child in node.orelse:
                yield from self._visit(module, child, branch, guard_names)
            return
        if not guarded and isinstance(node, ast.Call):
            name = module.call_name(node)
            if name is not None and self._is_emit(name):
                yield self.finding(
                    module,
                    node,
                    f"unguarded telemetry emit {name}() in a hot path — wrap "
                    "it in `if telemetry.enabled:`",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child, guarded, guard_names)

    @staticmethod
    def _is_emit(name: str) -> bool:
        parts = name.split(".")
        if parts[-1] not in _TELEMETRY_EMIT_METHODS or len(parts) < 2:
            return False
        return any(
            fragment in part.lower()
            for part in parts[:-1]
            for fragment in _TELEMETRY_RECEIVERS
        )

    def _guard_names(self, module: ModuleContext) -> set[str]:
        """Local names assigned from an ``.enabled`` read."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not self._mentions_enabled(module, node.value, names):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _mentions_enabled(
        module: ModuleContext, expression: ast.expr, guard_names: set[str]
    ) -> bool:
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                return True
            if isinstance(node, ast.Name) and node.id in guard_names:
                return True
            if isinstance(node, ast.Call):
                name = module.call_name(node)
                if name is not None and name.split(".")[-1] == "telemetry_enabled":
                    return True
        return False

    def _has_early_return_guard(
        self,
        module: ModuleContext,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        guard_names: set[str],
    ) -> bool:
        body = function.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]  # skip the docstring
        if not body or not isinstance(body[0], ast.If):
            return False
        guard = body[0]
        if not self._mentions_enabled(module, guard.test, guard_names):
            return False
        return any(
            isinstance(statement, (ast.Return, ast.Raise)) for statement in guard.body
        )


#: The per-module rule set, in code order.  The engine's full default
#: set additionally includes the whole-program flow rules — see
#: :data:`repro.lint.engine.DEFAULT_RULES`.
ALL_RULES: tuple[type[Rule], ...] = (
    EntropyRule,
    DerivedSeedRule,
    NoAssertRule,
    OrderedSerializationRule,
    BroadExceptRule,
    GuardedTelemetryRule,
)


def rules_by_code() -> dict[str, type[Rule]]:
    """Map rule code -> rule class, RPR0xx and RPR1xx alike.

    Codes of both families resolve uniformly, so ``--select`` and
    suppression bookkeeping never special-case the flow rules.
    """
    from repro.lint.flowrules import FLOW_RULES

    return {rule.code: rule for rule in ALL_RULES + FLOW_RULES}
