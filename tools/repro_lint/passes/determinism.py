"""Determinism audit (R010–R013).

The engine's core guarantee (DESIGN §12) is that sharded mining is
bit-for-bit identical to serial mining for any worker count. Everything
downstream of the per-shard results — counter merges, metrics
absorption, live-frame aggregation, trace re-emission — must therefore
be insensitive to shard *arrival order*. This pass walks the functions
reachable from those merge seams and flags constructs whose result
depends on an unordered iteration order:

* **R010** — iterating a set / dict view and *emitting in that order*
  (``.append`` / ``.extend`` / ``.insert`` / ``yield``). Keyed stores
  (``d[k] = ...``) are order-independent and not flagged.
* **R013** — order-sensitive numeric accumulation over an unordered
  source: ``total += x`` inside such a loop (float addition is not
  associative), or ``sum(...)`` over an unordered collection. Clearly
  integral values (``int(...)``, ``len(...)``, int literals) are exempt
  — int addition commutes exactly.

Two further rules apply to the whole ``repro`` package, not just merge
paths:

* **R011** — calls through the process-global ``random`` RNG. Global
  RNG state is invisible cross-module and unseeded by default; the
  sanctioned pattern is an explicit ``random.Random(seed)`` instance.
* **R012** — ``id()`` or ``hash()`` inside a sort key. ``id()`` varies
  per process; ``hash()`` of str/bytes varies per ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.dataflow import unordered_names, unordered_reason
from tools.repro_lint.engine import FileContext, Violation
from tools.repro_lint.graph import FunctionInfo, ProjectGraph

__all__ = ["DeterminismPass", "MERGE_MODULES", "MERGE_SEEDS"]

#: Functions on the shard-result merge path. Everything reachable from
#: these (within :data:`MERGE_MODULES`) is held to order-insensitivity.
MERGE_SEEDS = (
    "repro.engine.mine_sharded",
    "repro.obs.ObsHandles.absorb",
    "repro.core.pruning.PruneCounters.merge",
    "repro.core.pruning.PruneCounters.publish",
    "repro.obs.metrics.MetricsRegistry.absorb",
    "repro.obs.metrics.MetricsRegistry.absorb_snapshot",
    "repro.obs.costmodel.CostCollector.absorb",
    "repro.obs.provenance.ProvenanceCollector.absorb",
    "repro.obs.live.LiveAggregator.ingest",
    "repro.obs.live.LiveAggregator.summary",
    "repro.obs.live.LiveAggregator.eta_s",
    "repro.obs.live.LiveAggregator.stragglers",
    "repro.obs.live.LiveAggregator.maybe_render",
)

#: Modules the merge-path traversal may enter. Deliberately excludes the
#: serial search core (``repro.core.ptpminer``), whose set iterations
#: feed keyed, order-independent accumulation and are exercised by the
#: bit-for-bit equivalence tests directly.
MERGE_MODULES = (
    "repro.engine",
    "repro.obs",
    "repro.core.pruning",
    "repro.obs.metrics",
    "repro.obs.live",
    "repro.obs.trace",
    "repro.obs.costmodel",
    "repro.obs.provenance",
)

_EMITTING_METHODS = frozenset({"append", "extend", "insert"})
_SORT_CALLS = frozenset({"sorted", "min", "max"})
_UNSEEDED_OK = frozenset({"Random"})


def _is_int_like(expr: ast.expr) -> bool:
    """True when ``expr`` is statically known to be an int."""
    if isinstance(expr, ast.Constant) and type(expr.value) is int:
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("int", "len")
    return False


class DeterminismPass:
    """R010–R013: order-dependence hazards in and around merge paths."""

    name = "determinism"
    rules = {
        "R010": (
            "unordered iteration feeds ordered emission on a merge path"
        ),
        "R011": "process-global random RNG used in repro code",
        "R012": "id()/hash() used in a sort key",
        "R013": (
            "order-sensitive accumulation over an unordered source on a "
            "merge path"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Run the audit over ``graph``; returns raw (unsuppressed) hits."""
        found: dict[tuple[str, int, int, str], Violation] = {}
        merge_fns = graph.reachable(
            MERGE_SEEDS, within_modules=MERGE_MODULES
        )
        for qual in sorted(merge_fns):
            fn = graph.functions[qual]
            for violation in self._scan_merge_function(fn):
                key = (
                    violation.path,
                    violation.line,
                    violation.col,
                    violation.code,
                )
                found.setdefault(key, violation)
        out = list(found.values())
        for module in sorted(graph.modules):
            info = graph.modules[module]
            if not info.ctx.in_repro_src or info.ctx.is_test:
                continue
            out.extend(self._scan_global_random(info.ctx, info.imports))
            out.extend(self._scan_sort_keys(info.ctx))
        return out

    # ------------------------------------------------------------------
    # R010 / R013 — merge-path order sensitivity
    # ------------------------------------------------------------------
    def _scan_merge_function(
        self, fn: FunctionInfo
    ) -> Iterator[Violation]:
        derived = unordered_names(fn.node)
        for loop in ast.walk(fn.node):
            if not isinstance(loop, ast.For):
                continue
            reason = unordered_reason(loop.iter, derived)
            if reason is None:
                continue
            yield from self._scan_loop_body(fn, loop, reason)
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                reason = unordered_reason(node.args[0], derived)
                if reason is not None:
                    yield fn.ctx.violation(
                        node,
                        "R013",
                        f"sum() over {reason} in merge-reachable "
                        f"{fn.qualname}(); float addition is "
                        "order-sensitive — sort the source first",
                    )

    def _scan_loop_body(
        self, fn: FunctionInfo, loop: ast.For, reason: str
    ) -> Iterator[Violation]:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EMITTING_METHODS
                ):
                    yield fn.ctx.violation(
                        node,
                        "R010",
                        f".{node.func.attr}() inside a loop over {reason} "
                        f"in merge-reachable {fn.qualname}(); emission "
                        "order is unspecified — iterate sorted(...)",
                    )
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    yield fn.ctx.violation(
                        node,
                        "R010",
                        f"yield inside a loop over {reason} in "
                        f"merge-reachable {fn.qualname}(); emission order "
                        "is unspecified — iterate sorted(...)",
                    )
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
                    and isinstance(
                        node.target, (ast.Name, ast.Attribute)
                    )
                    and not _is_int_like(node.value)
                ):
                    yield fn.ctx.violation(
                        node,
                        "R013",
                        f"accumulation inside a loop over {reason} in "
                        f"merge-reachable {fn.qualname}(); float addition "
                        "is order-sensitive — iterate sorted(...) or "
                        "accumulate exactly",
                    )

    # ------------------------------------------------------------------
    # R011 — process-global random
    # ------------------------------------------------------------------
    def _scan_global_random(
        self, ctx: FileContext, imports: dict[str, str]
    ) -> Iterator[Violation]:
        rng_modules = {
            local for local, target in imports.items() if target == "random"
        }
        rng_funcs = {
            local: target
            for local, target in imports.items()
            if target.startswith("random.")
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in rng_modules
                and func.attr not in _UNSEEDED_OK
            ):
                name = f"{func.value.id}.{func.attr}"
            elif (
                isinstance(func, ast.Name)
                and func.id in rng_funcs
                and rng_funcs[func.id].split(".")[-1] not in _UNSEEDED_OK
            ):
                name = rng_funcs[func.id]
            else:
                continue
            yield ctx.violation(
                node,
                "R011",
                f"{name}() uses the process-global RNG; construct an "
                "explicit random.Random(seed) and thread it through",
            )

    # ------------------------------------------------------------------
    # R012 — id()/hash() in sort keys
    # ------------------------------------------------------------------
    def _scan_sort_keys(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sort = (
                isinstance(func, ast.Name) and func.id in _SORT_CALLS
            ) or (
                isinstance(func, ast.Attribute) and func.attr == "sort"
            )
            if not is_sort:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                for inner in ast.walk(kw.value):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in ("id", "hash")
                    ):
                        yield ctx.violation(
                            inner,
                            "R012",
                            f"{inner.func.id}() in a sort key: the order "
                            "varies per process/hash seed — key on "
                            "stable value fields instead",
                        )
