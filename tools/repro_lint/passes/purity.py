"""Shared-encoding purity audit (R015).

``PTPMiner.plan`` encodes the database and builds the pair tables once,
in the parent, and every shard's ``PTPMiner.expand`` searches them. On
the serial executor the shards of a run share one copy, so a shard that
wrote to the encoding or the pair tables would change the next shard's
search — and the merged result would depend on the deal. This pass
rules that out by *inference*: starting from the declared consumer
entry points, it tracks each protected parameter through the call graph
(strict resolution only) and flags

* any direct mutation of a protected parameter (attribute / item
  stores, ``del``, mutating method calls such as ``.append`` /
  ``.update`` — see :data:`tools.repro_lint.dataflow.MUTATING_METHODS`),
  including through simple local aliases (``m = param``); and
* mutations in callees the parameter is passed into, propagated
  positionally and by keyword until the worklist fixes.

Unresolvable calls receiving a protected parameter are *not* flagged
(strict resolution prefers precision); the runtime bit-for-bit
equivalence tests remain the backstop for those edges.
"""

from __future__ import annotations

import ast

from tools.repro_lint.dataflow import effects_of
from tools.repro_lint.engine import Violation
from tools.repro_lint.graph import ProjectGraph

__all__ = ["CACHE_CONSUMERS", "PurityPass"]

#: (function qualname, protected parameter names). These are the seams
#: that read what the root plan built, or the input it was built from.
CACHE_CONSUMERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "repro.core.ptpminer.PTPMiner.plan_root",
        ("db", "weights"),
    ),
    (
        "repro.core.ptpminer.PTPMiner.search_shard",
        ("mining_db", "weights", "candidates"),
    ),
    (
        "repro.core.ptpminer.PTPMiner.expand",
        ("encoded", "pairs", "weights", "candidates"),
    ),
    (
        "repro.engine._run_shard",
        ("task",),
    ),
)


class PurityPass:
    """R015: the shared root-plan structures may only meet pure readers."""

    name = "purity"
    rules = {
        "R015": (
            "shared root-plan structure is mutated by an inferred-impure "
            "consumer"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Chase every protected parameter to a fixpoint."""
        out: list[Violation] = []
        worklist: list[tuple[str, str]] = [
            (qual, param)
            for qual, params in CACHE_CONSUMERS
            if qual in graph.functions
            for param in params
        ]
        seen: set[tuple[str, str]] = set(worklist)
        while worklist:
            qual, param = worklist.pop()
            fn = graph.functions[qual]
            if param not in fn.params:
                continue
            effects = effects_of(fn.node)
            for site in effects.mutated_params.get(param, []):
                out.append(
                    fn.ctx.violation(
                        site.node,
                        "R015",
                        f"{fn.qualname}() mutates shared root-plan "
                        f"parameter {param!r} ({site.why}); its consumers "
                        "must be pure readers",
                    )
                )
            for callee_qual, callee_param in self._flows(
                graph, qual, param
            ):
                key = (callee_qual, callee_param)
                if key not in seen:
                    seen.add(key)
                    worklist.append(key)
        out.sort(key=lambda v: (v.path, v.line, v.col))
        return out

    def _flows(
        self, graph: ProjectGraph, qual: str, param: str
    ) -> list[tuple[str, str]]:
        """(callee, callee-param) pairs the protected value flows into."""
        fn = graph.functions[qual]
        flows: list[tuple[str, str]] = []
        for call in graph.calls_in(fn):
            positions = [
                i
                for i, arg in enumerate(call.args)
                if isinstance(arg, ast.Name) and arg.id == param
            ]
            keywords = [
                kw.arg
                for kw in call.keywords
                if kw.arg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id == param
            ]
            if not positions and not keywords:
                continue
            for target_qual in graph.resolve_call(fn, call):
                target = graph.functions[target_qual]
                callee_params = target.positional_params()
                for pos in positions:
                    if pos < len(callee_params):
                        flows.append((target_qual, callee_params[pos]))
                for kw_name in keywords:
                    if kw_name in target.params:
                        flows.append((target_qual, kw_name))
        return flows
