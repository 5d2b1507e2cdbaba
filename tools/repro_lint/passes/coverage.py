"""Contracts / observability coverage audit (R016).

The mining entry points are the seams users and the harness actually
call; each must carry *some* machine-checked self-description — either
a runtime contract (``repro.contracts.check`` / ``@contract``) or a
trace span (``repro.obs.trace.span``) — somewhere on its call path.
An entry point with neither is invisible to both the contract gate and
the run reports, which is how silent regressions start.

Coverage is computed with *optimistic* reachability (an unresolved
``x.mine(...)`` matches every project method named ``mine``): for a
coverage audit, recall beats precision — a false "covered" is cheaper
than a false alarm on a function that routes through a dispatch table.
"""

from __future__ import annotations

import ast

from tools.repro_lint.engine import Violation
from tools.repro_lint.graph import FunctionInfo, ProjectGraph

__all__ = ["CoveragePass", "ENTRY_POINT_NAMES", "ENTRY_POINT_MODULES"]

#: Function names that count as mining entry points when defined in an
#: entry-point module (module-level or as public methods).
ENTRY_POINT_NAMES = frozenset(
    {
        "mine",
        "mine_weighted",
        "mine_top_k",
        "mine_sharded",
        "plan",
        "plan_root",
        "search_shard",
        "expand",
    }
)

#: Module prefixes whose entry points are audited.
ENTRY_POINT_MODULES = ("repro.core", "repro.engine")

#: Call names that prove contract or span coverage.
_COVERAGE_CALLS = frozenset({"span", "check", "contract"})


def _has_marker(fn: FunctionInfo) -> bool:
    """True when ``fn`` itself contains a contract or span marker."""
    for dec in fn.node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else None
        )
        if name == "contract":
            return True
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _COVERAGE_CALLS:
            return True
    return False


class CoveragePass:
    """R016: every mining entry point reaches a contract or a span."""

    name = "coverage"
    rules = {
        "R016": (
            "mining entry point lacks contract and span coverage on "
            "every reachable path"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Audit the entry points present in ``graph``."""
        out: list[Violation] = []
        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            if not self._is_entry_point(fn):
                continue
            reach = graph.reachable([qual], optimistic=True)
            if any(
                _has_marker(graph.functions[r]) for r in sorted(reach)
            ):
                continue
            out.append(
                fn.ctx.violation(
                    fn.node,
                    "R016",
                    f"entry point {fn.qualname}() reaches no "
                    "contracts.check/@contract or obs span; add one so "
                    "the contract gate and run reports can see it",
                )
            )
        return out

    def _is_entry_point(self, fn: FunctionInfo) -> bool:
        if fn.name not in ENTRY_POINT_NAMES:
            return False
        if fn.cls is not None and fn.cls.startswith("_"):
            return False
        return any(
            fn.module == prefix or fn.module.startswith(prefix + ".")
            for prefix in ENTRY_POINT_MODULES
        )
