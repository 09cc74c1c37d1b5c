"""Whole-program flow rules: RPR101–RPR104.

RPR101 and RPR102 are :class:`~repro.lint.base.ProjectRule` subclasses —
they need the cross-module call graph.  RPR103 and RPR104 inspect one
module at a time (a ship-site or an ``open()`` call and everything that
feeds it sit in the same function), so they stay plain module rules and
run everywhere without a project build.

Every rule is conservative in the same direction: a construct the
analysis cannot resolve statically produces **no finding** (dynamic
dispatch never crashes the linter and never fabricates a violation),
while the constructs it *can* resolve are checked strictly.  The known
conservatisms are catalogued in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.base import Finding, ModuleContext, ProjectRule, Rule
from repro.lint.graph import CallGraph, FunctionInfo
from repro.lint.project import Project, ProjectModule

__all__ = [
    "FLOW_RULES",
    "ExceptionContractRule",
    "ForkSafetyRule",
    "ResourceLifecycleRule",
    "SharedStateRule",
    "WORKER_ENTRY_POINTS",
]

#: Declared worker entry points: functions shipped to worker processes
#: by the parallel engines.  Everything statically reachable from these
#: runs under fork/spawn and must not depend on parent-process state.
WORKER_ENTRY_POINTS = (
    # ParallelRunner iteration shards (plain / traced / checkpoint-hole).
    "repro.sim.experiment._run_span",
    "repro.sim.experiment._run_span_traced",
    "repro.sim.experiment._run_indices",
    # Chaos-engine supervised span task (pool-shipped callable).
    "repro.chaos.proc.CrashOnceSpanTask.__call__",
)

#: Module-key prefixes exempt from RPR101.  The observability layer
#: *is* per-process mutable context by contract: each worker installs
#: its own telemetry/clock and ships the result back as a trace shard
#: (see ``_run_span_traced``), so its module-level active-context slots
#: are intentional — divergence is reconciled by the trace merger.
SHARED_STATE_ALLOWLIST = ("repro/obs/",)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "reverse",
        "update",
        "__setitem__",
    }
)

#: Builtin exception names the public surface may not raise untyped.
#: KeyError/IndexError/TypeError stay allowed — they are the idiomatic
#: contract of mapping lookups and argument-type checks — as do the
#: OSError family (real I/O failures) and control-flow exceptions.
_DENIED_BUILTIN_RAISES = frozenset(
    {
        "BaseException",
        "Exception",
        "ValueError",
        "RuntimeError",
        "ArithmeticError",
        "ZeroDivisionError",
        "AssertionError",
    }
)


def _local_bindings(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally inside a function (params, assigns, loops...).

    ``global``-declared names are *excluded*: assigning one rebinds
    module state, which is exactly what RPR101 exists to catch.
    """
    bound: set[str] = set()
    globals_declared: set[str] = set()
    arguments = node.args
    for arg in [
        *arguments.posonlyargs,
        *arguments.args,
        *arguments.kwonlyargs,
    ]:
        bound.add(arg.arg)
    if arguments.vararg:
        bound.add(arguments.vararg.arg)
    if arguments.kwarg:
        bound.add(arguments.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            globals_declared.update(child.names)
        elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                child.targets if isinstance(child, ast.Assign) else [child.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    # Only Store-context names bind: the base of a
                    # subscript/attribute store (``STATE['k'] = 1``)
                    # loads an existing name, it does not create one.
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        bound.add(leaf.id)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(child.target):
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                    bound.add(leaf.id)
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    for leaf in ast.walk(item.optional_vars):
                        if isinstance(leaf, ast.Name):
                            bound.add(leaf.id)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child is not node:
                bound.add(child.name)
        elif isinstance(child, ast.comprehension):
            for leaf in ast.walk(child.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
    return bound - globals_declared


def _root_name(node: ast.expr) -> ast.Name | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


@dataclass
class SharedStateRule(ProjectRule):
    """RPR101: worker-reachable code must not write module-level state.

    A worker process forks (or re-imports) the module tree; any write to
    a module-level name inside worker-reachable code diverges silently
    between processes and breaks the worker-count-invariance guarantee.
    State must travel explicitly — parameters in, return values out.
    """

    code = "RPR101"
    name = "no-shared-state-in-workers"
    rationale = (
        "worker-reachable code writing module-level state diverges per "
        "process and breaks worker-count invariance"
    )

    #: Additional entry points (dotted qualnames) — for fixture tests.
    extra_entry_points: tuple[str, ...] = field(default=())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Flag module-level state writes in worker-reachable functions."""
        graph = CallGraph.build(project)
        roots = list(WORKER_ENTRY_POINTS) + list(self.extra_entry_points)
        witness = graph.reachable(roots)
        for qualname in sorted(witness):
            info = graph.functions[qualname]
            if any(
                info.module.key.startswith(prefix)
                for prefix in SHARED_STATE_ALLOWLIST
            ):
                continue
            yield from self._check_function(info, witness[qualname])

    def _check_function(self, info: FunctionInfo, root: str) -> Iterator[Finding]:
        module = info.module
        node = info.node
        locals_ = _local_bindings(node)

        def is_module_level(name: str) -> bool:
            if name in locals_ or name == "self":
                return False
            return (
                name in module.module_names
                or name in module.imports
                or name in module.classes
            )

        # One-hop aliases: ``entries = SOME_GLOBAL`` makes writes
        # through ``entries`` writes to module state.
        aliases: set[str] = set()
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Name)
                and is_module_level(child.value.id)
            ):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)

        def written_root(target: ast.expr) -> str | None:
            """Module-level name a store target writes through, if any."""
            if isinstance(target, ast.Name):
                # Plain rebinds only count under an explicit ``global``
                # (otherwise the name is local); _local_bindings already
                # removed global-declared names from ``locals_``.
                declared_global = any(
                    isinstance(g, ast.Global) and target.id in g.names
                    for g in ast.walk(node)
                )
                if declared_global:
                    return target.id
                return None
            root = _root_name(target)
            if root is None:
                return None
            if is_module_level(root.id) or root.id in aliases:
                return root.id
            return None

        def finding_for(statement: ast.AST, name: str, action: str) -> Finding:
            return Finding(
                path=module.path,
                line=getattr(statement, "lineno", 1),
                col=getattr(statement, "col_offset", 0),
                code=self.code,
                message=(
                    f"worker-reachable function '{info.qualname}' (reached "
                    f"from entry '{root}') {action} module-level state "
                    f"'{name}'; pass state explicitly instead of sharing it"
                ),
            )

        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    name = written_root(target)
                    if name is not None:
                        yield finding_for(child, name, "writes")
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                name = written_root(child.target)
                if name is not None:
                    yield finding_for(child, name, "writes")
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    name = written_root(target)
                    if name is not None:
                        yield finding_for(child, name, "deletes")
            elif isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    mutation_root = _root_name(func.value)
                    if mutation_root is not None and (
                        is_module_level(mutation_root.id)
                        or mutation_root.id in aliases
                    ):
                        yield finding_for(
                            child,
                            mutation_root.id,
                            f"mutates (.{func.attr}())",
                        )


@dataclass
class ExceptionContractRule(ProjectRule):
    """RPR102: the public surface raises typed errors only.

    Functions exported via ``__all__`` — and everything they reach —
    form the package's API.  Callers are entitled to catch
    ``SchedulingError``; an untyped ``ValueError``/``RuntimeError``
    escaping that surface silently bypasses every structured handler
    (worker marshalling, chaos recovery, the CLI's error reporting).
    """

    code = "RPR102"
    name = "typed-errors-at-public-surface"
    rationale = (
        "untyped ValueError/RuntimeError escaping __all__-exported "
        "functions bypasses the SchedulingError contract"
    )

    #: Additional root qualnames (dotted) — for fixture tests.
    extra_roots: tuple[str, ...] = field(default=())

    def _public_roots(self, project: Project, graph: CallGraph) -> list[str]:
        roots: list[str] = list(self.extra_roots)
        for module in project.sorted_modules():
            for exported in module.exports or ():
                symbol = project.resolve_symbol(f"{module.name}.{exported}")
                if symbol is None:
                    continue
                if symbol.kind == "function":
                    roots.append(f"{symbol.module.name}.{symbol.local_name}")
                elif symbol.kind == "class":
                    info = symbol.module.classes[symbol.local_name]
                    for method in info.methods:
                        roots.append(
                            f"{symbol.module.name}.{symbol.local_name}.{method}"
                        )
        return roots

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Flag untyped builtin raises reachable from the public API."""
        graph = CallGraph.build(project)
        witness = graph.reachable(self._public_roots(project, graph))
        for qualname in sorted(witness):
            info = graph.functions[qualname]
            for child in ast.walk(info.node):
                if not isinstance(child, ast.Raise) or child.exc is None:
                    continue
                raised = child.exc
                if isinstance(raised, ast.Call):
                    raised = raised.func
                name = self._untyped_name(project, info.module, raised)
                if name is not None:
                    yield Finding(
                        path=info.module.path,
                        line=child.lineno,
                        col=child.col_offset,
                        code=self.code,
                        message=(
                            f"function '{qualname}' is reachable from the "
                            f"public API (via '{witness[qualname]}') but "
                            f"raises untyped {name}; raise a typed error "
                            f"from repro.core.errors instead"
                        ),
                    )

    def _untyped_name(
        self, project: Project, module: ProjectModule, raised: ast.expr
    ) -> str | None:
        """The denied builtin name raised, or ``None`` when acceptable."""
        dotted = project.resolve_expression(module, raised)
        if dotted is None:
            return None  # dynamic raise — conservative no-finding
        if project.resolve_symbol(dotted) is not None:
            return None  # project-defined (typed) exception
        terminal = dotted.rsplit(".", 1)[-1]
        if terminal in _DENIED_BUILTIN_RAISES:
            return terminal
        return None


#: Constructors whose results must not cross a process boundary, by kind.
_FORK_UNSAFE_CONSTRUCTORS = {
    "open": "file",
    "io.open": "file",
    "io.FileIO": "file",
    "io.BufferedReader": "file",
    "io.BufferedWriter": "file",
    "io.TextIOWrapper": "file",
    "tempfile.TemporaryFile": "file",
    "tempfile.NamedTemporaryFile": "file",
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Event": "lock",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
    "multiprocessing.Semaphore": "lock",
    "multiprocessing.Condition": "lock",
    "multiprocessing.Pool": "pool",
    "multiprocessing.pool.Pool": "pool",
    "concurrent.futures.ProcessPoolExecutor": "pool",
    "concurrent.futures.ThreadPoolExecutor": "pool",
    "concurrent.futures.process.ProcessPoolExecutor": "pool",
    "concurrent.futures.thread.ThreadPoolExecutor": "pool",
    "multiprocessing.Pipe": "pipe",
    "multiprocessing.connection.Pipe": "pipe",
    "multiprocessing.Queue": "pipe",
}

def _flatten_literals(expressions: list[ast.expr]) -> list[ast.expr]:
    """Expand container literals so their elements are judged directly.

    ``pool.map(fn, [handle])`` ships ``handle`` just as surely as
    ``pool.submit(fn, handle)`` — one level of ``Tuple``/``List``/``Set``
    literal is looked through (nested literals recurse).
    """
    flat: list[ast.expr] = []
    for expr in expressions:
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            flat.extend(_flatten_literals(expr.elts))
        else:
            flat.append(expr)
    return flat


#: Pool methods whose arguments are pickled and shipped to workers.
_POOL_SHIP_METHODS = frozenset(
    {"submit", "map", "starmap", "apply", "apply_async", "imap", "imap_unordered"}
)


@dataclass
class ForkSafetyRule(Rule):
    """RPR103: no files/locks/pools/pipes shipped to worker processes.

    File objects, locks, pools and pipe ends are process-local: pickled
    through a pool or handed to ``Process(args=...)`` they either fail
    loudly or (worse) arrive as divergent copies.
    """

    code = "RPR103"
    name = "fork-safe-worker-arguments"
    rationale = (
        "files/locks/pools captured in worker arguments or closures are "
        "process-local and break (or silently diverge) when shipped"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag fork-unsafe locals shipped to worker processes."""
        for node in module.tree.body:
            yield from self._check_scope(module, node)

    def _check_scope(self, module: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(module, node)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._check_scope(module, child)

    def _qualified(self, module: ModuleContext, expr: ast.expr) -> str | None:
        return module.qualified_name(expr)

    def _check_function(
        self, module: ModuleContext, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # kind of every local bound to a fork-unsafe constructor result.
        unsafe: dict[str, str] = {}
        pools: set[str] = set()
        local_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda] = {}

        def constructor_kind(value: ast.expr) -> str | None:
            if not isinstance(value, ast.Call):
                return None
            qualified = self._qualified(module, value.func)
            if qualified is None:
                return None
            return _FORK_UNSAFE_CONSTRUCTORS.get(qualified)

        def bind(target: ast.expr, kind: str) -> None:
            if isinstance(target, ast.Name):
                unsafe[target.id] = kind
                if kind == "pool":
                    pools.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind(element, kind)

        for child in ast.walk(function):
            if isinstance(child, ast.Assign):
                kind = constructor_kind(child.value)
                if kind is not None:
                    for target in child.targets:
                        bind(target, kind)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    kind = constructor_kind(item.context_expr)
                    if kind is not None and item.optional_vars is not None:
                        bind(item.optional_vars, kind)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not function:
                    local_defs[child.name] = child

        def unsafe_argument(expr: ast.expr) -> str | None:
            """A description of the argument when it is fork-unsafe."""
            direct = constructor_kind(expr)
            if direct is not None:
                return f"a fresh {direct} object"
            if isinstance(expr, ast.Name):
                if expr.id in unsafe:
                    return f"{expr.id!r} (a {unsafe[expr.id]})"
                if expr.id in local_defs:
                    captured = self._captured_unsafe(local_defs[expr.id], unsafe)
                    if captured is not None:
                        name, kind = captured
                        return f"closure {expr.id!r} capturing {name!r} (a {kind})"
            if isinstance(expr, ast.Lambda):
                captured = self._captured_unsafe(expr, unsafe)
                if captured is not None:
                    name, kind = captured
                    return f"a lambda capturing {name!r} (a {kind})"
            return None

        def ship_arguments(call: ast.Call) -> tuple[str, list[ast.expr]] | None:
            """(site kind, shipped expressions) for worker-ship calls."""
            func = call.func
            # pool.submit/map/... on a known pool local.
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _POOL_SHIP_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in pools
            ):
                shipped = _flatten_literals(
                    [*call.args, *(kw.value for kw in call.keywords)]
                )
                return "pool", shipped
            qualified = self._qualified(module, func)
            if qualified in ("multiprocessing.Process", "multiprocessing.process.Process", "Process"):
                resolved = module.imports.get("Process")
                if qualified == "Process" and resolved not in (
                    "multiprocessing.Process",
                    "multiprocessing.process.Process",
                ):
                    return None
                shipped = []
                for keyword in call.keywords:
                    if keyword.arg in ("target", "args", "kwargs"):
                        shipped.extend(_flatten_literals([keyword.value]))
                shipped.extend(_flatten_literals(call.args))
                return "process", shipped
            return None

        for child in ast.walk(function):
            if not isinstance(child, ast.Call):
                continue
            site = ship_arguments(child)
            if site is None:
                continue
            site_kind, shipped = site
            for expr in shipped:
                description = unsafe_argument(expr)
                if description is None:
                    continue
                yield self.finding(
                    module,
                    child,
                    f"ships {description} to a worker process; "
                    f"{'pool arguments are pickled per task' if site_kind == 'pool' else 'worker arguments must be process-independent'}"
                    " — pass paths/values and open process-local handles inside the worker",
                )

    @staticmethod
    def _captured_unsafe(
        definition: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        unsafe: dict[str, str],
    ) -> tuple[str, str] | None:
        """First enclosing-scope fork-unsafe name a closure reads."""
        bound: set[str] = set()
        arguments = definition.args
        for arg in [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]:
            bound.add(arg.arg)
        if arguments.vararg:
            bound.add(arguments.vararg.arg)
        if arguments.kwarg:
            bound.add(arguments.kwarg.arg)
        body = (
            definition.body
            if isinstance(definition.body, list)
            else [definition.body]
        )
        loaded: list[str] = []
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        bound.add(node.id)
                    elif isinstance(node.ctx, ast.Load):
                        loaded.append(node.id)
        for name in loaded:
            if name not in bound and name in unsafe:
                return name, unsafe[name]
        return None


#: Calls that acquire a closeable resource RPR104 tracks.
_RESOURCE_CONSTRUCTORS = (
    "open",
    "io.open",
    "tempfile.TemporaryFile",
    "tempfile.NamedTemporaryFile",
    "tempfile.SpooledTemporaryFile",
    "tempfile.TemporaryDirectory",
)


@dataclass
class ResourceLifecycleRule(Rule):
    """RPR104: every ``open()``/temp-file is closed deterministically.

    Library code must not rely on garbage collection to flush and close
    file handles — a crashed worker or a resumed checkpoint replays on
    whatever the last *flushed* byte was.  Acceptable lifecycles:
    ``with`` (directly or via ``contextlib.closing``), a ``try/finally``
    that closes the binding, handing the open handle to the caller
    (``return``/``yield`` — ownership transfers), or storing it on
    ``self`` (the owning object manages it, e.g. a sink's ``close()``).
    """

    code = "RPR104"
    name = "deterministic-resource-lifecycle"
    rationale = (
        "open()/temp-files not closed via with or try/finally leak "
        "handles and lose buffered writes on crash paths"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag resource constructors without a closing lifecycle."""
        parents: dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.call_name(node)
            if qualified not in _RESOURCE_CONSTRUCTORS:
                continue
            if self._lifecycle_ok(node, parents):
                continue
            yield self.finding(
                module,
                node,
                f"result of {qualified}() is not closed via 'with' or "
                f"try/finally (and is not returned, yielded, or stored "
                f"on self); wrap it in a 'with' block",
            )

    @staticmethod
    def _lifecycle_ok(call: ast.Call, parents: dict[int, ast.AST]) -> bool:
        parent = parents.get(id(call))
        # contextlib.closing(open(...)) / io.TextIOWrapper(open(...)):
        # step out of wrapping calls before judging the context.
        while isinstance(parent, ast.Call):
            call = parent
            parent = parents.get(id(call))
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            # self.attr = open(...): the object owns the lifecycle.
            if any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                for target in targets
            ):
                return True
            names = [
                target.id for target in targets if isinstance(target, ast.Name)
            ]
            if names:
                return ResourceLifecycleRule._closed_in_finally(
                    parent, names, parents
                )
        return False

    @staticmethod
    def _closed_in_finally(
        assign: ast.stmt, names: list[str], parents: dict[int, ast.AST]
    ) -> bool:
        """Whether a try/finally in the same function closes a name.

        Both placements of the standard idiom count: the assignment
        inside the ``try`` body, and the equally common
        assign-*then*-``try`` form where the binding is a sibling of the
        ``try`` statement.  Any ``finally`` block within the enclosing
        function that calls ``name.close()``/``name.cleanup()``
        satisfies the rule — scoping finer than that would flag correct
        code, and the rule must only lean the other way.
        """
        scope: ast.AST | None = assign
        while scope is not None and not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            scope = parents.get(id(scope))
        if scope is None:
            return False
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Try) and node.finalbody):
                continue
            for statement in node.finalbody:
                for leaf in ast.walk(statement):
                    if (
                        isinstance(leaf, ast.Call)
                        and isinstance(leaf.func, ast.Attribute)
                        and leaf.func.attr in ("close", "cleanup")
                        and isinstance(leaf.func.value, ast.Name)
                        and leaf.func.value.id in names
                    ):
                        return True
        return False


#: The flow-rule set, appended to the per-module catalog by default.
FLOW_RULES: tuple[type[Rule], ...] = (
    SharedStateRule,
    ExceptionContractRule,
    ForkSafetyRule,
    ResourceLifecycleRule,
)
