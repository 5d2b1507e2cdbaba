"""Collector record-path audit (R019).

P-TPMiner's search reaches every collector — metrics, cost,
provenance, a shard's live sink — through one recorder
(:mod:`repro.obs.recorder`). That one
path is what keeps the disabled search free (one hoisted ``rec`` local,
one ``is not None`` guard per event) and sharded snapshots mergeable
bit-for-bit with serial runs. A collector ``record_*`` call anywhere
else opens a second path: a collector built inline records into an
object nobody snapshots, and a hook beside the recorder puts the
search back in the business of knowing which collectors exist.

This pass flags, in every non-test ``repro`` module outside
:data:`RECORDING_MODULES`, any call to a method whose name starts with
``record_`` — the recording surface of every collector
(``CostCollector.record_root``, ``ProvenanceCollector.record_emitted``
/ ``record_pruned`` / ``record_pruned_label``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.engine import FileContext, Violation
from tools.repro_lint.graph import ProjectGraph

__all__ = ["RECORDING_MODULES", "RecorderPass"]

#: The modules allowed to call a collector's recording methods.
RECORDING_MODULES = frozenset({"repro.obs.recorder"})

_RECORD_PREFIX = "record_"


class RecorderPass:
    """R019: collector records flow only through the search recorder."""

    name = "recorder"
    rules = {
        "R019": (
            "collector record_* call outside repro.obs.recorder"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Audit every non-test repro module outside the allowlist."""
        out: list[Violation] = []
        for module in sorted(graph.modules):
            ctx = graph.modules[module].ctx
            if not ctx.in_repro_src or ctx.is_test:
                continue
            if module in RECORDING_MODULES:
                continue
            out.extend(self._scan_module(ctx))
        return out

    def _scan_module(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith(_RECORD_PREFIX)
            ):
                yield ctx.violation(
                    node,
                    "R019",
                    f".{node.func.attr}() outside repro.obs.recorder; "
                    "report a search event to the recorder (the hoisted "
                    "`rec` local) so it fans out to whichever collectors "
                    "are installed",
                )
