"""Project graph: modules, imports, classes, functions, and call edges.

The multi-pass analyzer (``tools.repro_lint.passes``) needs a view wider
than one file: which module a name comes from, which class a method
belongs to, what a call expression resolves to, and which functions are
reachable from a seed set. This module builds that view from nothing but
the stdlib ``ast`` — the same zero-dependency bar as the line rules.

Resolution is deliberately **conservative**: a call is given project
targets only when the receiver is statically known (a local definition,
an imported module/class/function, ``self``, a class name, or a
parameter whose annotation names a project class). Everything else
resolves to the empty set. Passes that prefer recall over precision
(the contracts/span coverage audit) can opt into *optimistic* attribute
resolution, where ``x.mine(...)`` matches every project method named
``mine``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from tools.repro_lint.engine import FileContext, build_context

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_graph",
    "build_graph_from_sources",
]


def _decorator_name(dec: ast.expr) -> str | None:
    """The rightmost simple name of a decorator expression."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _dataclass_frozen(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is_dataclass, frozen=True)`` from the decorator list."""
    for dec in node.decorator_list:
        name = _decorator_name(dec)
        if name != "dataclass":
            continue
        if not isinstance(dec, ast.Call):
            return True, False
        for kw in dec.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                return True, bool(kw.value.value)
        return True, False
    return False, False


@dataclass
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    decorators: frozenset[str]

    @property
    def params(self) -> tuple[str, ...]:
        """Parameter names in call order (including ``self``/``cls``)."""
        args = self.node.args
        ordered = [a.arg for a in args.posonlyargs + args.args]
        ordered.extend(a.arg for a in args.kwonlyargs)
        return tuple(ordered)

    @property
    def is_method(self) -> bool:
        """True when defined inside a class body."""
        return self.cls is not None

    @property
    def is_static(self) -> bool:
        """True for ``@staticmethod`` methods."""
        return "staticmethod" in self.decorators

    def positional_params(self) -> tuple[str, ...]:
        """Params mapped to positional call arguments (``self`` dropped)."""
        args = self.node.args
        ordered = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and not self.is_static and ordered:
            ordered = ordered[1:]
        return tuple(ordered)

    def self_param(self) -> str | None:
        """Name of the receiver parameter (``self``), when there is one."""
        if not self.is_method or self.is_static:
            return None
        args = self.node.args
        ordered = [a.arg for a in args.posonlyargs + args.args]
        return ordered[0] if ordered else None

    def annotation_of(self, param: str) -> ast.expr | None:
        """The annotation AST node for ``param`` (``None`` if absent)."""
        args = self.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        ):
            if arg.arg == param:
                return arg.annotation
        return None


@dataclass
class ClassInfo:
    """One class, with its methods and dataclass facts."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    is_dataclass: bool
    frozen: bool
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def fields(self) -> list[tuple[str, ast.expr | None]]:
        """Dataclass-style annotated class attributes, in body order."""
        out: list[tuple[str, ast.expr | None]] = []
        for item in self.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                if isinstance(item.annotation, ast.Name) and (
                    item.annotation.id == "ClassVar"
                ):
                    continue
                if (
                    isinstance(item.annotation, ast.Subscript)
                    and isinstance(item.annotation.value, ast.Name)
                    and item.annotation.value.id == "ClassVar"
                ):
                    continue
                out.append((item.target.id, item.annotation))
        return out


@dataclass
class ModuleInfo:
    """One parsed module: its context, imports, and top-level names."""

    name: str
    ctx: FileContext
    #: local name -> dotted target ("pkg.mod" or "pkg.mod.attr").
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level assigned names -> the assigned expression (aliases).
    assignments: dict[str, ast.expr] = field(default_factory=dict)


def _import_bindings(node: ast.Import | ast.ImportFrom) -> dict[str, str]:
    """``{local name: dotted target}`` for one import statement."""
    if isinstance(node, ast.Import):
        return {
            alias.asname or alias.name.split(".")[0]: (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            for alias in node.names
        }
    if not node.module or node.level:
        return {}  # relative imports are not used in this repo
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for alias in node.names
    }


class ProjectGraph:
    """Cross-module index over a set of parsed python sources."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._by_method_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, ctx: FileContext) -> None:
        """Index one parsed module (no-op for non-``src`` files)."""
        if ctx.module is None:
            return
        info = ModuleInfo(name=ctx.module, ctx=ctx)
        for node in ctx.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                info.imports.update(_import_bindings(node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.assignments[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    info.assignments[node.target.id] = node.value
        # Imports inside functions (a lazily loaded module) resolve
        # calls too; a module-level binding of the same name wins.
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        for local, target in _import_bindings(inner).items():
                            info.imports.setdefault(local, target)
        self.modules[ctx.module] = info
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(ctx, node)

    def _add_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> FunctionInfo:
        assert ctx.module is not None
        prefix = f"{ctx.module}.{cls}." if cls else f"{ctx.module}."
        info = FunctionInfo(
            qualname=prefix + node.name,
            module=ctx.module,
            name=node.name,
            cls=cls,
            node=node,
            ctx=ctx,
            decorators=frozenset(
                name
                for dec in node.decorator_list
                if (name := _decorator_name(dec)) is not None
            ),
        )
        self.functions[info.qualname] = info
        if cls is not None:
            self._by_method_name.setdefault(node.name, []).append(
                info.qualname
            )
        return info

    def _add_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        assert ctx.module is not None
        is_dc, frozen = _dataclass_frozen(node)
        cls = ClassInfo(
            qualname=f"{ctx.module}.{node.name}",
            module=ctx.module,
            name=node.name,
            node=node,
            ctx=ctx,
            is_dataclass=is_dc,
            frozen=frozen,
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[item.name] = self._add_function(
                    ctx, item, cls=node.name
                )
        self.classes[cls.qualname] = cls

    # ------------------------------------------------------------------
    # name and call resolution
    # ------------------------------------------------------------------
    def resolve_name(self, module: str, name: str) -> str | None:
        """Resolve a bare name in ``module`` to a project qualname.

        Checks local definitions first, then the import table, then
        module-level aliases (``alias = RealName``). Returns ``None``
        for names that do not land on a project function, class, or
        module.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        direct = f"{module}.{name}"
        if direct in self.functions or direct in self.classes:
            return direct
        target = info.imports.get(name)
        if target is not None:
            if (
                target in self.functions
                or target in self.classes
                or target in self.modules
            ):
                return target
            return None
        alias = info.assignments.get(name)
        if isinstance(alias, ast.Name):
            if alias.id != name:
                return self.resolve_name(module, alias.id)
        return None

    def _annotation_class(
        self, module: str, annotation: ast.expr | None
    ) -> ClassInfo | None:
        """The project class a parameter annotation names, if any.

        Handles ``Cls``, ``mod.Cls``, ``Optional[Cls]``, and the quoted
        forward-reference form ``"Cls"``.
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(
                    annotation.value, mode="eval"
                ).body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            if isinstance(base, ast.Name) and base.id in (
                "Optional",
                "Annotated",
            ):
                inner = annotation.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self._annotation_class(module, inner)
            return None
        if isinstance(annotation, ast.Name):
            qual = self.resolve_name(module, annotation.id)
            return self.classes.get(qual) if qual else None
        if isinstance(annotation, ast.Attribute) and isinstance(
            annotation.value, ast.Name
        ):
            mod_target = self.resolve_name(module, annotation.value.id)
            if mod_target in self.modules:
                return self.classes.get(f"{mod_target}.{annotation.attr}")
        return None

    def param_class(
        self, fn: FunctionInfo, param: str
    ) -> ClassInfo | None:
        """The project class ``param`` is annotated with, if any."""
        return self._annotation_class(fn.module, fn.annotation_of(param))

    def resolve_call(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        *,
        optimistic: bool = False,
    ) -> list[str]:
        """Project qualnames a call expression may target.

        Strict resolution covers: bare names (local defs / imports),
        ``self.method(...)``, ``mod.func(...)`` and ``mod.Cls(...)`` for
        imported modules, ``Cls.method(...)`` for known classes, method
        calls on parameters with project-class annotations, and class
        construction (mapped to ``__init__`` when defined). With
        ``optimistic=True``, an otherwise-unresolved attribute call
        additionally matches every project method of that name.
        """
        func = call.func
        out: list[str] = []
        if isinstance(func, ast.Name):
            qual = self.resolve_name(caller.module, func.id)
            if qual is not None:
                out.extend(self._callable_targets(qual))
        elif isinstance(func, ast.Attribute):
            out.extend(self._resolve_attr_call(caller, func))
            if not out and optimistic:
                out.extend(self._by_method_name.get(func.attr, []))
        return out

    def _resolve_attr_call(
        self, caller: FunctionInfo, func: ast.Attribute
    ) -> list[str]:
        if not isinstance(func.value, ast.Name):
            return []
        recv = func.value.id
        # self.method(...)
        if caller.cls is not None and recv == caller.self_param():
            cls = self.classes.get(f"{caller.module}.{caller.cls}")
            if cls is not None and func.attr in cls.methods:
                return [cls.methods[func.attr].qualname]
            return []
        # param.method(...) through the parameter annotation
        if recv in caller.params:
            cls = self.param_class(caller, recv)
            if cls is not None and func.attr in cls.methods:
                return [cls.methods[func.attr].qualname]
            return []
        # mod.func(...) / Cls.method(...)
        qual = self.resolve_name(caller.module, recv)
        if qual is None:
            return []
        if qual in self.modules:
            return self._callable_targets(f"{qual}.{func.attr}")
        cls = self.classes.get(qual)
        if cls is not None and func.attr in cls.methods:
            return [cls.methods[func.attr].qualname]
        return []

    def _callable_targets(self, qual: str) -> list[str]:
        """Map a resolved qualname to function targets (class → init)."""
        if qual in self.functions:
            return [qual]
        cls = self.classes.get(qual)
        if cls is not None:
            init = cls.methods.get("__init__")
            return [init.qualname] if init is not None else []
        return []

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def calls_in(self, fn: FunctionInfo) -> Iterator[ast.Call]:
        """Every call expression in ``fn``'s body (including nested defs)."""
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield node

    def reachable(
        self,
        seeds: Iterable[str],
        *,
        within_modules: Sequence[str] | None = None,
        optimistic: bool = False,
    ) -> set[str]:
        """Function qualnames reachable from ``seeds`` via resolved calls.

        Seeds missing from the graph are ignored (a pass's production
        seed list may name functions a trimmed fixture graph lacks).
        ``within_modules`` restricts *traversal and results* to the given
        module prefixes — the scoping tool for "merge paths only".
        """
        prefixes = tuple(within_modules) if within_modules else None

        def in_scope(qual: str) -> bool:
            if prefixes is None:
                return True
            module = self.functions[qual].module
            return any(
                module == p or module.startswith(p + ".") for p in prefixes
            )

        seen: set[str] = set()
        stack = [s for s in seeds if s in self.functions and in_scope(s)]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = self.functions[qual]
            for call in self.calls_in(fn):
                for target in self.resolve_call(
                    fn, call, optimistic=optimistic
                ):
                    if target not in seen and in_scope(target):
                        stack.append(target)
        return seen


def build_graph_from_sources(
    sources: Iterable[tuple[str | Path, str]],
) -> ProjectGraph:
    """Build a graph from in-memory ``(path, source)`` pairs (tests)."""
    graph = ProjectGraph()
    for path, source in sources:
        graph.add_module(build_context(Path(path), source))
    return graph


def build_graph(paths: Iterable[str | Path]) -> ProjectGraph:
    """Build a graph from ``.py`` files under the given paths."""
    from tools.repro_lint.engine import iter_python_files

    graph = ProjectGraph()
    for file_path in iter_python_files(paths):
        graph.add_module(build_context(file_path, file_path.read_text()))
    return graph
