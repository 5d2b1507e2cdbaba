"""repro-lint — repo-specific static analysis for the P-TPMiner codebase.

The generic gates (ruff, mypy) cannot see *domain* invariants, so this
package checks the rules that keep the paper's correctness arguments
machine-enforced. Two layers:

**Per-file rules (R001–R009)** — one ``FileContext`` at a time:
``R001`` no hand-built ``Endpoint(...)`` outside the canonical encoder;
``R002`` no mutable default arguments; ``R003`` public ``src/repro``
API is fully annotated and documented; ``R004`` ``__all__`` present and
consistent; ``R005`` no wall-clock time in core mining code; ``R006``
no raw ``time`` imports in ``repro.core``/``repro.obs`` (the clock seam
owns it); ``R007`` no profiling imports in mining code; ``R008``
process pools only in ``repro.engine``; ``R009`` multiprocessing
primitives only in the telemetry bus and the engine.

**Project-graph passes (R010–R017)** — deep mode (``--deep``,
``make lint-deep``), over a module/import/call graph of ``src/repro``:
``R010`` unordered iteration feeding ordered emission on merge paths;
``R011`` process-global ``random`` use; ``R012`` ``id()``/``hash()`` in
sort keys; ``R013`` order-sensitive accumulation over unordered sources
on merge paths; ``R014`` engine-boundary shippability (frozen picklable
tasks, module-level worker callables, no hidden worker state); ``R015``
root-plan consumers must be inferred-pure readers; ``R016`` mining
entry points carry contract or span coverage; ``R017`` suppression
hygiene (unused/expired/malformed/unscoped).

Suppressions are rule-scoped and may expire::

    total += x  # repro-lint: R013 until=PR8
    ep = Endpoint("A", 1, START)  # repro-lint: ignore[R001]   (legacy)

``until=PRn`` expires when :data:`CURRENT_PR` reaches ``n``; an ISO
date (``until=2026-12-31``) expires the day after. Expired or malformed
suppressions stop suppressing and are reported by R017. See
``docs/static-analysis.md`` for the full catalog and policy.

Run ``python -m tools.repro_lint src tests`` for the fast per-file
gate, or add ``--deep --format text|json|sarif`` for the full analyzer.
Exit status 0 means clean, 1 means findings, 2 means usage error.
"""

from __future__ import annotations

from tools.repro_lint.engine import (
    CURRENT_PR,
    FileContext,
    Suppression,
    Violation,
    lint_paths,
    lint_source,
    main,
)
from tools.repro_lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "CURRENT_PR",
    "FileContext",
    "Rule",
    "Suppression",
    "Violation",
    "lint_paths",
    "lint_source",
    "main",
]
