"""Package layering audit (R021).

``ptpminer mine`` loads only the modules a mine runs because the
dependency between the miner and its observability layer points one
way. The search core — ``repro.core``, ``repro.model``,
``repro.temporal`` and ``repro.io`` — reaches ``repro.obs`` only
through :data:`CORE_OBS_MODULES`: the clock, the span tracer, the
metrics registry, the search recorder and the named collector seams.
The recorder, and :func:`repro.obs.observe` in the package
``__init__``, find installed collectors on those seams, so neither
imports a collector module when it loads. A core import of a collector
module (``live``, ``costmodel``, ``provenance``), of the ledger, or of
the ``repro.obs`` package itself would load it into every mine again,
and through provenance's import of ``repro.core.pruning`` bring back
the core ↔ obs import cycle.

Two checks, over every non-test ``repro`` module:

* a module of a :data:`CORE_PACKAGES` package imports from
  ``repro.obs`` only :data:`CORE_OBS_MODULES`, wherever the import
  runs (module level or inside a function);
* each of :data:`SEAM_READERS` imports no :data:`COLLECTOR_MODULES`
  module at module level (inside a function it may: it then runs only
  when that collector is in use).

Imports under ``if TYPE_CHECKING:`` never run and are not checked.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.engine import FileContext, Violation
from tools.repro_lint.graph import ProjectGraph
from tools.repro_lint.rules import is_type_checking

__all__ = [
    "COLLECTOR_MODULES",
    "CORE_OBS_MODULES",
    "CORE_PACKAGES",
    "LayeringPass",
    "SEAM_READERS",
]

#: Packages that form the search core.
CORE_PACKAGES = ("repro.core", "repro.model", "repro.temporal", "repro.io")

#: The ``repro.obs`` modules the search core may import.
CORE_OBS_MODULES = frozenset({"clock", "trace", "metrics", "recorder", "seam"})

#: Modules that look collectors up by seam and must not load them.
SEAM_READERS = frozenset({"repro.obs", "repro.obs.recorder"})

#: Collector modules: each loads only when one of its collectors is built.
COLLECTOR_MODULES = frozenset({"live", "costmodel", "provenance"})

_OBS = "repro.obs"


def _in_core(module: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in CORE_PACKAGES
    )


def _imports(
    node: ast.AST, *, module_level: bool
) -> Iterator[ast.Import | ast.ImportFrom]:
    """The import statements in ``node`` that run: none under ``if
    TYPE_CHECKING:``, and with ``module_level`` none in a function."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
        return
    if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    if isinstance(node, ast.If) and is_type_checking(node.test):
        children: list[ast.stmt] | Iterator[ast.AST] = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _imports(child, module_level=module_level)


def _obs_modules(
    node: ast.Import | ast.ImportFrom, ctx: FileContext
) -> Iterator[str]:
    """The ``repro.obs`` modules ``node`` imports, by their name in the
    package (``""`` for the package itself)."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            # Relative: resolve against the importing module's package.
            package = (ctx.module or "").split(".")
            if not ctx.path.endswith("__init__.py"):
                package.pop()
            package = package[: len(package) - node.level + 1]
            base = ".".join([*package, base] if base else package)
        if base.startswith(_OBS + "."):
            targets = [base]
        else:
            targets = [f"{base}.{alias.name}" for alias in node.names]
    for target in targets:
        if target == _OBS:
            yield ""
        elif target.startswith(_OBS + "."):
            yield target.split(".")[2]


class LayeringPass:
    """R021: the search core imports repro.obs one way, through its seams."""

    name = "layering"
    rules = {
        "R021": (
            "search core imports a repro.obs module beyond its seams, or a "
            "seam reader imports a collector module at module level"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Audit every non-test repro module."""
        out: list[Violation] = []
        for module in sorted(graph.modules):
            ctx = graph.modules[module].ctx
            if not ctx.in_repro_src or ctx.is_test:
                continue
            if _in_core(module):
                out.extend(self._core(ctx))
            if module in SEAM_READERS:
                out.extend(self._seam_reader(ctx))
        return out

    def _core(self, ctx: FileContext) -> Iterator[Violation]:
        for node in _imports(ctx.tree, module_level=False):
            for name in _obs_modules(node, ctx):
                if name not in CORE_OBS_MODULES:
                    what = f"repro.obs.{name}" if name else "the repro.obs package"
                    yield ctx.violation(
                        node,
                        "R021",
                        f"{ctx.module} imports {what}; the search core "
                        "reaches repro.obs only through "
                        f"{', '.join(sorted(CORE_OBS_MODULES))}",
                    )

    def _seam_reader(self, ctx: FileContext) -> Iterator[Violation]:
        for node in _imports(ctx.tree, module_level=True):
            for name in _obs_modules(node, ctx):
                if name in COLLECTOR_MODULES:
                    yield ctx.violation(
                        node,
                        "R021",
                        f"{ctx.module} imports collector module "
                        f"repro.obs.{name} at module level; find the "
                        "installed collector on its repro.obs.seam seam",
                    )
