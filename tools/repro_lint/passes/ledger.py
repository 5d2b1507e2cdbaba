"""Run-ledger write-path audit (R018, R020).

The run ledger (:mod:`repro.obs.ledger`) is append-only and
schema-versioned; those guarantees only hold if every write goes
through :meth:`repro.obs.ledger.RunLedger.append`, which validates the
entry shape and appends exactly one JSON line. A stray ``open(...,
"a")`` elsewhere in the package could write unvalidated lines, truncate
the file, or fork the schema silently — the history/diff tooling would
then misread every later run.

This pass flags, in every non-test ``repro`` module except
``repro.obs.ledger`` itself:

* ``open(path, "w"/"a"/"x"/"+")`` and ``path.open(...)`` in a write
  mode where the path expression mentions a ledger (an identifier or
  string constant containing ``"ledger"``);
* ``.write_text(...)`` / ``.write_bytes(...)`` on such a receiver.

Read-mode opens are fine — ``RunLedger.entries()`` is convenience, not
a choke point — and unrelated writes (reports, traces, metrics) never
match. The heuristic is name-based by design: ledger paths in this
codebase always flow through ``ledger_dir``/``ledger_path`` variables
or the literal ``ledger.jsonl`` filename.

R020 guards the layer above the file: entries appended to a ledger
must be assembled by :func:`repro.obs.ledger.build_entry`, which stamps
the schema version and normalises the cost block. A dict literal
passed straight to ``.append(...)`` on a ledger receiver would freeze
whatever fields the call site happened to write — a schema bump would
silently miss such entries, and ``entries()`` would then warn on (or
misread) them forever. Flagged in the same modules R018 scans.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.engine import FileContext, Violation
from tools.repro_lint.graph import ProjectGraph

__all__ = ["LedgerPass", "LEDGER_MODULE"]

#: The one module allowed to write ledger files.
LEDGER_MODULE = "repro.obs.ledger"

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _mentions_ledger(expr: ast.expr) -> bool:
    """True when any identifier or string in ``expr`` names a ledger."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "ledger" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and (
            "ledger" in node.attr.lower()
        ):
            return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "ledger" in node.value.lower()
        ):
            return True
    return False


def _write_mode(call: ast.Call, *, mode_arg_index: int) -> bool:
    """True when an ``open``-style call's mode is a constant write mode.

    Dynamic mode expressions are not guessed at — the repo convention
    is literal modes, and a false negative beats flagging reads.
    """
    mode_expr: ast.expr | None = None
    if len(call.args) > mode_arg_index:
        mode_expr = call.args[mode_arg_index]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_expr = kw.value
    if not (
        isinstance(mode_expr, ast.Constant)
        and isinstance(mode_expr.value, str)
    ):
        return False
    return any(flag in mode_expr.value for flag in "wax+")


class LedgerPass:
    """R018/R020: ledger writes flow through the append/build_entry API."""

    name = "ledger"
    rules = {
        "R018": (
            "ledger file written outside the repro.obs.ledger append API"
        ),
        "R020": (
            "ledger entry built as a dict literal instead of build_entry"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Audit every non-test repro module except the ledger itself."""
        out: list[Violation] = []
        for module in sorted(graph.modules):
            info = graph.modules[module]
            ctx = info.ctx
            if not ctx.in_repro_src or ctx.is_test:
                continue
            if module == LEDGER_MODULE:
                continue
            out.extend(self._scan_module(ctx))
        return out

    def _scan_module(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "open"
                and node.args
                and _write_mode(node, mode_arg_index=1)
                and _mentions_ledger(node.args[0])
            ):
                yield ctx.violation(
                    node,
                    "R018",
                    "ledger path opened for writing outside "
                    "repro.obs.ledger; append entries through "
                    "RunLedger.append() so the file stays append-only "
                    "and schema-validated",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "open"
                and _write_mode(node, mode_arg_index=0)
                and _mentions_ledger(func.value)
            ):
                yield ctx.violation(
                    node,
                    "R018",
                    "ledger path .open()ed for writing outside "
                    "repro.obs.ledger; append entries through "
                    "RunLedger.append() so the file stays append-only "
                    "and schema-validated",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _WRITE_METHODS
                and _mentions_ledger(func.value)
            ):
                yield ctx.violation(
                    node,
                    "R018",
                    f".{func.attr}() on a ledger path outside "
                    "repro.obs.ledger rewrites the file wholesale; "
                    "append entries through RunLedger.append()",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "append"
                and _mentions_ledger(func.value)
                and node.args
                and isinstance(node.args[0], (ast.Dict, ast.DictComp))
            ):
                yield ctx.violation(
                    node,
                    "R020",
                    "dict literal appended to a ledger; assemble the "
                    "entry with repro.obs.ledger.build_entry() so the "
                    "schema version and cost block stay consistent",
                )
