"""Engine-boundary shippability audit (R014).

Everything that crosses the parent→worker process boundary in
``repro.engine`` — the pool initializer, its ``initargs``, the callables
handed to ``pool.submit`` / ``pool.map``, and the task objects those
callables receive — must be picklable, frozen, and free of hidden
process state. This pass checks, for every ``ProcessPoolExecutor``
construction and pool dispatch site in the engine module:

* the initializer and dispatched callables are **module-level named
  functions** (bound methods, lambdas, and closures either fail to
  pickle or silently re-bind in the child);
* no ``lambda``, generator expression, or ``open()`` handle appears in
  ``initargs`` or dispatch arguments;
* every project class annotating a parameter of a worker entry function
  is a **frozen dataclass** whose fields are transitively shippable:
  immutable builtins, tuples/frozensets thereof, or further frozen
  project dataclasses. Mutable containers (``list``/``dict``/``set``/
  ``bytearray``) in those fields are flagged — a worker mutating shared
  task state breaks the bit-for-bit guarantee silently under ``fork``;
* functions reachable from worker entries (within the engine module) do
  not write module-level state, except names matching the sanctioned
  per-process payload convention (``_WORKER*``). Cross-module writes via
  the collector seams (e.g. ``repro.obs.seam.LIVE_SINK.scope``) are
  outside strict resolution and are sanctioned by design — workers
  silence obs first.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.dataflow import effects_of
from tools.repro_lint.engine import Violation
from tools.repro_lint.graph import ClassInfo, FunctionInfo, ProjectGraph

__all__ = ["BoundaryPass", "ENGINE_MODULES"]

#: Modules whose pool boundaries are audited (the only modules allowed
#: to build process pools at all, per rule R008).
ENGINE_MODULES = ("repro.engine",)

#: Annotation heads that ship safely across the pickle boundary.
_IMMUTABLE_HEADS = frozenset(
    {
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "complex",
        "None",
        "tuple",
        "frozenset",
        "Tuple",
        "FrozenSet",
        "Optional",
        "Union",
        "Literal",
        "Final",
        "Ellipsis",
    }
)

#: Annotation heads that are mutable and must not ride in a frozen task.
_MUTABLE_HEADS = frozenset(
    {"list", "dict", "set", "bytearray", "List", "Dict", "Set"}
)

#: Module-level names workers may legitimately write: the per-process
#: payload slot(s) installed by the pool initializer.
_WORKER_STATE_PREFIX = "_WORKER"

_DISPATCH_METHODS = frozenset({"submit", "map"})


def _unshippable_expr(expr: ast.expr) -> tuple[ast.AST, str] | None:
    """First pickle-hostile construct inside ``expr``, if any."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Lambda):
            return node, "a lambda"
        if isinstance(node, ast.GeneratorExp):
            return node, "a generator expression"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            return node, "an open() handle"
    return None


class BoundaryPass:
    """R014: objects crossing the pool boundary must ship cleanly."""

    name = "boundary"
    rules = {
        "R014": (
            "object crossing the ShardTask/pool-initializer boundary is "
            "not shippable"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Audit every pool boundary in :data:`ENGINE_MODULES`."""
        out: list[Violation] = []
        for module in sorted(graph.modules):
            if module not in ENGINE_MODULES:
                continue
            info = graph.modules[module]
            entries: list[str] = []
            for fn in self._module_functions(graph, module):
                for call in graph.calls_in(fn):
                    out.extend(
                        self._check_call_site(graph, fn, call, entries)
                    )
            out.extend(self._check_entries(graph, entries))
            out.extend(
                self._check_worker_globals(graph, module, entries)
            )
        return out

    def _module_functions(
        self, graph: ProjectGraph, module: str
    ) -> list[FunctionInfo]:
        return [
            fn
            for qual, fn in sorted(graph.functions.items())
            if fn.module == module
        ]

    # ------------------------------------------------------------------
    # call sites: pool construction and dispatch
    # ------------------------------------------------------------------
    def _check_call_site(
        self,
        graph: ProjectGraph,
        fn: FunctionInfo,
        call: ast.Call,
        entries: list[str],
    ) -> Iterator[Violation]:
        func = call.func
        is_pool_ctor = (
            isinstance(func, ast.Name)
            and func.id == "ProcessPoolExecutor"
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "ProcessPoolExecutor"
        )
        if is_pool_ctor:
            yield from self._check_pool_ctor(graph, fn, call, entries)
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DISPATCH_METHODS
            and not isinstance(func.value, ast.Attribute)
        ):
            # pool.submit(f, ...) / pool.map(f, ...). Non-pool receivers
            # with these method names do not occur in the engine module;
            # the R008 fence keeps it that way.
            if not call.args:
                return
            yield from self._check_dispatched(
                graph, fn, call.args[0], entries
            )
            for arg in call.args[1:]:
                bad = _unshippable_expr(arg)
                if bad is not None:
                    node, what = bad
                    yield fn.ctx.violation(
                        node,
                        "R014",
                        f"{what} passed through pool.{func.attr}() "
                        "cannot cross the process boundary",
                    )

    def _check_pool_ctor(
        self,
        graph: ProjectGraph,
        fn: FunctionInfo,
        call: ast.Call,
        entries: list[str],
    ) -> Iterator[Violation]:
        for kw in call.keywords:
            if kw.arg == "initializer":
                yield from self._check_dispatched(
                    graph, fn, kw.value, entries
                )
            elif kw.arg == "initargs":
                bad = _unshippable_expr(kw.value)
                if bad is not None:
                    node, what = bad
                    yield fn.ctx.violation(
                        node,
                        "R014",
                        f"{what} in initargs cannot cross the process "
                        "boundary",
                    )

    def _check_dispatched(
        self,
        graph: ProjectGraph,
        fn: FunctionInfo,
        expr: ast.expr,
        entries: list[str],
    ) -> Iterator[Violation]:
        if not isinstance(expr, ast.Name):
            yield fn.ctx.violation(
                expr,
                "R014",
                "callable crossing the pool boundary must be a "
                "module-level function named directly (got a "
                f"{type(expr).__name__} expression)",
            )
            return
        qual = graph.resolve_name(fn.module, expr.id)
        target = graph.functions.get(qual) if qual else None
        if target is None or target.cls is not None:
            yield fn.ctx.violation(
                expr,
                "R014",
                f"{expr.id!r} crossing the pool boundary does not "
                "resolve to a module-level function in this project",
            )
            return
        entries.append(target.qualname)

    # ------------------------------------------------------------------
    # worker entry signatures: frozen, transitively shippable tasks
    # ------------------------------------------------------------------
    def _check_entries(
        self, graph: ProjectGraph, entries: list[str]
    ) -> Iterator[Violation]:
        for qual in sorted(set(entries)):
            fn = graph.functions[qual]
            for param in fn.positional_params():
                cls = graph.param_class(fn, param)
                if cls is None:
                    continue
                yield from self._check_shippable_class(
                    graph, cls, seen=set()
                )

    def _check_shippable_class(
        self,
        graph: ProjectGraph,
        cls: ClassInfo,
        seen: set[str],
    ) -> Iterator[Violation]:
        if cls.qualname in seen:
            return
        seen.add(cls.qualname)
        if not cls.is_dataclass:
            # Plain classes (e.g. the shipped encoding) are accepted:
            # their picklability is covered by runtime round-trip tests.
            return
        if not cls.frozen:
            yield cls.ctx.violation(
                cls.node,
                "R014",
                f"{cls.name} crosses the worker boundary but is not a "
                "frozen dataclass",
            )
        for field_name, annotation in cls.fields():
            if annotation is None:
                continue
            yield from self._check_field(
                graph, cls, field_name, annotation, seen
            )

    def _check_field(
        self,
        graph: ProjectGraph,
        cls: ClassInfo,
        field_name: str,
        annotation: ast.expr,
        seen: set[str],
    ) -> Iterator[Violation]:
        for name_node, head in self._annotation_heads(
            graph, cls.module, annotation, set()
        ):
            if head in _MUTABLE_HEADS:
                yield cls.ctx.violation(
                    name_node,
                    "R014",
                    f"field {cls.name}.{field_name} carries mutable "
                    f"{head!r} across the worker boundary; use "
                    "tuple/frozenset or a frozen dataclass",
                )
            else:
                qual = graph.resolve_name(cls.module, head)
                inner = graph.classes.get(qual) if qual else None
                if inner is not None:
                    yield from self._check_shippable_class(
                        graph, inner, seen
                    )

    def _annotation_heads(
        self,
        graph: ProjectGraph,
        module: str,
        annotation: ast.expr,
        visiting: set[str],
    ) -> Iterator[tuple[ast.AST, str]]:
        """Yield ``(node, name)`` for every type name in an annotation.

        Follows module-level aliases (``_TaskCandidate = tuple[...]``)
        one level at a time, guarding against alias cycles.
        """
        for node in ast.walk(annotation):
            if not isinstance(node, ast.Name):
                continue
            name = node.id
            if name in _IMMUTABLE_HEADS:
                continue
            info = graph.modules.get(module)
            alias = info.assignments.get(name) if info else None
            if alias is not None and name not in visiting:
                yield from self._annotation_heads(
                    graph, module, alias, visiting | {name}
                )
            else:
                yield node, name

    # ------------------------------------------------------------------
    # worker-reachable module state
    # ------------------------------------------------------------------
    def _check_worker_globals(
        self, graph: ProjectGraph, module: str, entries: list[str]
    ) -> Iterator[Violation]:
        info = graph.modules[module]
        module_names = set(info.assignments) | set(info.imports)
        reach = graph.reachable(
            sorted(set(entries)), within_modules=(module,)
        )
        for qual in sorted(reach):
            fn = graph.functions[qual]
            effects = effects_of(
                fn.node, module_level_names=module_names
            )
            for name, site in effects.global_writes:
                if name.startswith(_WORKER_STATE_PREFIX):
                    continue
                yield fn.ctx.violation(
                    site,
                    "R014",
                    f"worker-reachable {fn.qualname}() writes "
                    f"module-level state {name!r}; per-process payload "
                    f"must live under {_WORKER_STATE_PREFIX}* names",
                )
