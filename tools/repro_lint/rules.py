"""The repro-specific lint rules (R001–R009).

Each rule is a small object with a ``code``, a one-line ``summary``, and
a ``check(ctx)`` generator yielding :class:`Violation` objects. Scoping
conventions (which files a rule applies to) live inside each rule and
are documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import Protocol

from tools.repro_lint.engine import FileContext, Violation

__all__ = [
    "ALL_RULES",
    "Rule",
    "EndpointConstructionRule",
    "MutableDefaultRule",
    "PublicApiRule",
    "DunderAllRule",
    "WallClockRule",
    "TimeImportRule",
    "ProfilingImportRule",
    "ProcessPoolRule",
    "MultiprocessingPrimitiveRule",
    "is_type_checking",
]

#: Module that owns canonical Endpoint construction (exempt from R001).
_ENDPOINT_MODULE = "repro.temporal.endpoint"

#: Call names whose result is a fresh mutable container (R002).
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}

#: Core mining packages where wall-clock reads are banned (R005).
_CORE_PREFIXES = ("repro.core", "repro.temporal")

#: Packages where *any* raw ``time`` import is banned (R006): all core
#: and observability timing must flow through the injectable
#: ``repro.obs.clock`` — including throttle paths in ``repro.obs``
#: itself, so ``ManualClock`` tests can drive heartbeats.
_OBS_CLOCK_PREFIXES = ("repro.core", "repro.obs")

#: The one module allowed to touch ``time`` directly (R006): it *is*
#: the injection seam.
_CLOCK_MODULE = "repro.obs.clock"

#: Packages where profiling imports are banned (R007): profiling is a
#: harness concern, installed from outside via ``repro.obs.profile``.
_NO_PROFILING_PREFIXES = ("repro.core", "repro.baselines")

#: Top-level module names R007 bans inside the mining packages.
_PROFILING_MODULES = frozenset(
    {"cProfile", "profile", "pstats", "tracemalloc"}
)

#: The one module allowed to construct a process pool (R008).
_ENGINE_MODULE = "repro.engine"

#: Modules allowed to construct multiprocessing queues/pipes (R009):
#: the live telemetry bus and the engine that wires it to workers.
_MP_ALLOWED_MODULES = ("repro.obs.live", "repro.engine")

#: ``multiprocessing`` primitives R009 bans elsewhere.
_MP_PRIMITIVES = frozenset(
    {"Queue", "SimpleQueue", "JoinableQueue", "Pipe", "Manager"}
)


class Rule(Protocol):
    """Interface every lint rule implements."""

    code: str
    summary: str

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations found in ``ctx``."""
        ...


def _called_name(node: ast.Call) -> str | None:
    """The simple name being called, for ``f(...)`` and ``m.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class EndpointConstructionRule:
    """R001 — ``Endpoint(...)`` may only be built by the canonical encoder.

    A hand-built endpoint can violate canonical occurrence numbering or
    kind ordering without crashing, silently corrupting mined patterns.
    Production code must obtain endpoints from
    ``repro.temporal.endpoint`` (``endpoint_sequence_of``,
    ``EncodedDatabase.decode_token``, ``Endpoint.parse``) or derive them
    from an existing endpoint via ``._replace``. Tests are exempt: they
    construct raw endpoints on purpose to probe validation.
    """

    code = "R001"
    summary = "direct Endpoint(...) construction outside the canonical encoder"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``Endpoint(...)`` call expressions in non-exempt files."""
        if ctx.is_test or ctx.module == _ENDPOINT_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _called_name(node) == "Endpoint":
                yield ctx.violation(
                    node,
                    self.code,
                    "direct Endpoint(...) construction; go through "
                    "repro.temporal.endpoint (encoder, decode_token, parse, "
                    "or ._replace on an existing endpoint)",
                )


class MutableDefaultRule:
    """R002 — no mutable default arguments, anywhere.

    ``def f(x=[])`` shares one list across calls; the same applies to
    dict/set displays, comprehensions, and mutable-container factory
    calls used as defaults.
    """

    code = "R002"
    summary = "mutable default argument"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag mutable expressions used as parameter defaults."""
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.violation(
                        default,
                        self.code,
                        "mutable default argument; default to None and "
                        "build the container inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and _called_name(node) in _MUTABLE_FACTORIES
        )


def _is_public_name(name: str) -> bool:
    return not name.startswith("_")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


class PublicApiRule:
    """R003 — public API in ``src/repro`` is annotated and documented.

    Every public module-level function, public class, and public method
    must carry complete parameter annotations, a return annotation, and
    a docstring. Dunder methods and ``@overload`` stubs are exempt.
    """

    code = "R003"
    summary = "public function/class missing annotations or docstring"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Check top-level defs and one level of class bodies."""
        if not ctx.in_repro_src or ctx.is_test:
            return
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public_name(node.name):
                    yield from self._check_function(ctx, node, method=False)
            elif isinstance(node, ast.ClassDef) and _is_public_name(node.name):
                if ast.get_docstring(node) is None:
                    yield ctx.violation(
                        node,
                        self.code,
                        f"public class {node.name!r} has no docstring",
                    )
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if _is_dunder(item.name) or not _is_public_name(item.name):
                        continue
                    yield from self._check_function(ctx, item, method=True)

    def _check_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        method: bool,
    ) -> Iterator[Violation]:
        decorators = _decorator_names(node)
        if "overload" in decorators:
            return
        kind = "method" if method else "function"
        if ast.get_docstring(node) is None:
            yield ctx.violation(
                node,
                self.code,
                f"public {kind} {node.name!r} has no docstring",
            )
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if method and "staticmethod" not in decorators and positional:
            positional = positional[1:]  # self / cls
        unannotated = [
            arg.arg
            for arg in (
                positional
                + list(args.kwonlyargs)
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            )
            if arg.annotation is None
        ]
        if unannotated:
            yield ctx.violation(
                node,
                self.code,
                f"public {kind} {node.name!r} has unannotated "
                f"parameter(s): {', '.join(unannotated)}",
            )
        if node.returns is None:
            yield ctx.violation(
                node,
                self.code,
                f"public {kind} {node.name!r} has no return annotation",
            )


def is_type_checking(test: ast.expr) -> bool:
    """True for the test of an ``if TYPE_CHECKING:`` block (the bare name
    or ``typing.TYPE_CHECKING``)."""
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class DunderAllRule:
    """R004 — ``__all__`` exists and matches the module's public names.

    Every ``src/repro`` module must define a literal ``__all__``; every
    public top-level function/class must be listed in it, and every
    listed name must actually be defined (or imported) at top level.
    Public constants and type aliases may stay out of ``__all__``.

    A package with lazy exports (:mod:`repro._lazy`) imports its names
    only under ``if TYPE_CHECKING:`` and serves them through the
    mapping it hands to ``lazy_exports`` when it binds its module-level
    ``__getattr__``. Such an import defines a name only when that
    mapping serves the name from the module it is imported from, so a
    name missing from the mapping (which would raise ``AttributeError``
    at runtime) is still reported.
    """

    code = "R004"
    summary = "__all__ missing or inconsistent with public names"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Compare ``__all__`` against top-level definitions."""
        if not ctx.in_repro_src or ctx.is_test:
            return
        exported, all_node = self._find_all(ctx.tree)
        if all_node is None:
            yield Violation(
                path=ctx.path,
                line=1,
                col=0,
                code=self.code,
                message="module defines no literal __all__",
            )
            return
        defined = self._top_level_names(ctx.tree) | self._lazy_names(ctx.tree)
        public_defs = {
            node.name
            for node in ctx.tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and _is_public_name(node.name)
        }
        for name in sorted(public_defs - exported):
            yield ctx.violation(
                all_node,
                self.code,
                f"public name {name!r} is defined but missing from __all__",
            )
        for name in sorted(exported - defined):
            yield ctx.violation(
                all_node,
                self.code,
                f"__all__ exports {name!r} which is not defined at top level",
            )

    @staticmethod
    def _find_all(tree: ast.Module) -> tuple[set[str], ast.stmt | None]:
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(value, (ast.List, ast.Tuple)):
                        names = {
                            elt.value
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        }
                        return names, node
                    return set(), node
        return set(), None

    @staticmethod
    def _lazy_names(tree: ast.Module) -> set[str]:
        """Names imported under ``if TYPE_CHECKING:`` that the module's
        ``__getattr__`` mapping serves from the same module."""
        served: set[tuple[str, str]] = set()
        for node in tree.body:
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and any(
                    isinstance(name, ast.Name) and name.id == "__getattr__"
                    for target in node.targets
                    for name in ast.walk(target)
                )
            ):
                continue
            for arg in node.value.args:
                if not isinstance(arg, ast.Dict):
                    continue
                for key, value in zip(arg.keys, arg.values):
                    if isinstance(key, ast.Constant) and isinstance(
                        value, (ast.Tuple, ast.List)
                    ):
                        served.update(
                            (key.value, elt.value)
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                        )
        return {
            alias.name
            for node in tree.body
            if isinstance(node, ast.If) and is_type_checking(node.test)
            for stmt in node.body
            if isinstance(stmt, ast.ImportFrom) and not stmt.level
            for alias in stmt.names
            if alias.asname in (None, alias.name)
            and (stmt.module, alias.name) in served
        }

    @staticmethod
    def _top_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        names.update(
                            elt.id
                            for elt in target.elts
                            if isinstance(elt, ast.Name)
                        )
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            elif isinstance(node, ast.Import):
                names.update(
                    (alias.asname or alias.name).split(".")[0]
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                names.update(
                    alias.asname or alias.name for alias in node.names
                )
        return names


class WallClockRule:
    """R005 — no wall-clock ``time.time()`` in core mining code.

    Timing belongs to the harness; the miners account elapsed time at
    their public boundary with the monotonic ``time.perf_counter``.
    ``time.time()`` inside ``repro.core`` / ``repro.temporal`` is either
    dead instrumentation or a nondeterminism hazard.
    """

    code = "R005"
    summary = "wall-clock time.time() in core mining code"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``time.time()`` calls and ``from time import time``."""
        if ctx.module is None or not ctx.module.startswith(_CORE_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "time"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    yield ctx.violation(
                        node,
                        self.code,
                        "time.time() in core mining code; timing belongs "
                        "to the harness (use time.perf_counter at miner "
                        "boundaries)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    yield ctx.violation(
                        node,
                        self.code,
                        "importing wall-clock time() into core mining code",
                    )


class TimeImportRule:
    """R006 — no raw ``time`` imports in ``repro.core`` or ``repro.obs``.

    The miners' boundary timing goes through the injectable
    :mod:`repro.obs.clock` (so tests can drive a manual clock and traces
    share one time base). A raw ``import time`` in ``repro.core``
    bypasses that seam — use ``repro.obs.clock.now()`` instead. The
    observability layer itself is held to the same bar: every throttle
    path (the live telemetry bus's frames and renders) must be drivable
    by :class:`~repro.obs.clock.ManualClock` tests, so only
    ``repro.obs.clock`` — the seam — may touch ``time``. Stricter than
    R005: R005 bans only wall-clock ``time.time()`` (and also covers
    ``repro.temporal``); R006 bans the module import itself.
    """

    code = "R006"
    summary = "raw time import in repro.core/repro.obs (use repro.obs.clock)"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``import time`` and ``from time import ...``."""
        if ctx.module is None or not ctx.module.startswith(
            _OBS_CLOCK_PREFIXES
        ):
            return
        if ctx.module == _CLOCK_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "time":
                        yield ctx.violation(
                            node,
                            self.code,
                            "raw 'import time' in repro.core/repro.obs; "
                            "route timing through the injectable "
                            "repro.obs.clock",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                yield ctx.violation(
                    node,
                    self.code,
                    "raw 'from time import ...' in repro.core/repro.obs; "
                    "route timing through the injectable repro.obs.clock",
                )


class ProfilingImportRule:
    """R007 — no raw profiling imports inside the mining packages.

    ``cProfile``/``profile``/``pstats``/``tracemalloc`` inside
    ``repro.core`` or ``repro.baselines`` would put measurement overhead
    (and a second opinion about *how* to measure) on the hot path the
    measurements are supposed to describe. Profiling is installed from
    outside: :func:`repro.obs.profile.profile_scope` attaches per-phase
    profiles through the span tracer, and
    :func:`repro.harness.metrics.measure` owns tracemalloc. Like the
    other rules, a deliberate exception is declared inline with
    ``# repro-lint: ignore[R007]``.
    """

    code = "R007"
    summary = "raw profiling import in mining code (use repro.obs.profile)"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag imports of profiling modules in ``repro.core``/baselines."""
        if ctx.module is None or not ctx.module.startswith(
            _NO_PROFILING_PREFIXES
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _PROFILING_MODULES:
                        yield ctx.violation(
                            node,
                            self.code,
                            f"raw '{alias.name}' import in mining code; "
                            "profiling is installed from outside via "
                            "repro.obs.profile / repro.harness.metrics",
                        )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module is not None
                and node.module.split(".")[0] in _PROFILING_MODULES
            ):
                yield ctx.violation(
                    node,
                    self.code,
                    f"raw 'from {node.module} import ...' in mining code; "
                    "profiling is installed from outside via "
                    "repro.obs.profile / repro.harness.metrics",
                )


class ProcessPoolRule:
    """R008 — process pools may only be built by :mod:`repro.engine`.

    The sharded engine is the single owner of worker-process lifecycle:
    it shadows inherited observability handles in each shard's scope,
    hands each worker the parent's encoding once, and merges per-shard
    results so the determinism guarantee (and the exact-counter perf
    gate) holds. A ``ProcessPoolExecutor`` constructed anywhere else
    would bypass all of that — route parallelism through
    :func:`repro.engine.mine_sharded` / :class:`repro.engine.ShardedMiner`
    instead. Tests are exempt; a deliberate exception is declared inline
    with ``# repro-lint: ignore[R008]``.
    """

    code = "R008"
    summary = "ProcessPoolExecutor built outside repro.engine"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``ProcessPoolExecutor(...)`` calls outside the engine."""
        if ctx.is_test or ctx.module == _ENGINE_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node) == "ProcessPoolExecutor"
            ):
                yield ctx.violation(
                    node,
                    self.code,
                    "ProcessPoolExecutor built outside repro.engine; "
                    "route parallel mining through repro.engine "
                    "(mine_sharded / ShardedMiner)",
                )


class MultiprocessingPrimitiveRule:
    """R009 — mp queues/pipes only in :mod:`repro.obs.live` + engine.

    The live telemetry bus and the sharded engine jointly own the one
    cross-process channel in this codebase (a manager queue shipped to
    workers through the pool initializer, drained from the result loop).
    A ``multiprocessing`` ``Queue``/``SimpleQueue``/``JoinableQueue``/
    ``Pipe``/``Manager`` constructed anywhere else would create a second,
    unmanaged channel — outside the engine's worker lifecycle, invisible
    to the zero-cost-when-disabled A/B gate, and a deadlock hazard at
    interpreter shutdown. Route streaming through the bus
    (:func:`repro.obs.observe` ``live=``) instead. Tests are
    exempt; a deliberate exception is declared inline with
    ``# repro-lint: ignore[R009]``.
    """

    code = "R009"
    summary = (
        "multiprocessing queue/pipe built outside repro.obs.live/"
        "repro.engine"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag mp primitive construction outside the allowed modules."""
        if ctx.is_test or ctx.module in _MP_ALLOWED_MODULES:
            return
        mp_aliases: set[str] = set()
        direct_names: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        mp_aliases.add(
                            alias.asname or alias.name.split(".")[0]
                        )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module is not None
                and node.module.split(".")[0] == "multiprocessing"
            ):
                for alias in node.names:
                    if alias.name in _MP_PRIMITIVES:
                        direct_names[alias.asname or alias.name] = alias.name
        if not mp_aliases and not direct_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            primitive: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MP_PRIMITIVES
                and isinstance(func.value, ast.Name)
                and func.value.id in mp_aliases
            ):
                primitive = func.attr
            elif isinstance(func, ast.Name) and func.id in direct_names:
                primitive = direct_names[func.id]
            if primitive is not None:
                yield ctx.violation(
                    node,
                    self.code,
                    f"multiprocessing.{primitive}(...) outside "
                    "repro.obs.live/repro.engine; stream through the "
                    "live telemetry bus (obs.observe(live=...)) instead",
                )


#: The registry the engine runs, in code order.
ALL_RULES: tuple[Rule, ...] = (
    EndpointConstructionRule(),
    MutableDefaultRule(),
    PublicApiRule(),
    DunderAllRule(),
    WallClockRule(),
    TimeImportRule(),
    ProfilingImportRule(),
    ProcessPoolRule(),
    MultiprocessingPrimitiveRule(),
)
