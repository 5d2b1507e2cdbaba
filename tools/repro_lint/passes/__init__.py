"""Project-wide analysis passes (rule IDs R010+).

Unlike the line rules in :mod:`tools.repro_lint.rules`, which see one
:class:`~tools.repro_lint.engine.FileContext` at a time, a pass sees the
whole :class:`~tools.repro_lint.graph.ProjectGraph` and can reason about
reachability, call targets, and cross-module structure. Passes are run
by :mod:`tools.repro_lint.driver` in deep mode only (``--deep`` /
``make lint-deep``).

The suppression audit (R017) is special: it must observe which
suppressions actually fired, so the driver runs it *after* suppression
filtering — see :func:`tools.repro_lint.passes.suppressions.audit`.
"""

from __future__ import annotations

from tools.repro_lint.passes.boundary import BoundaryPass
from tools.repro_lint.passes.coverage import CoveragePass
from tools.repro_lint.passes.determinism import DeterminismPass
from tools.repro_lint.passes.layering import LayeringPass
from tools.repro_lint.passes.ledger import LedgerPass
from tools.repro_lint.passes.purity import PurityPass
from tools.repro_lint.passes.recorder import RecorderPass
from tools.repro_lint.passes.suppressions import SUPPRESSION_RULES, audit

__all__ = [
    "ALL_PASSES",
    "PASS_RULES",
    "audit",
    "BoundaryPass",
    "CoveragePass",
    "DeterminismPass",
    "LayeringPass",
    "LedgerPass",
    "PurityPass",
    "RecorderPass",
]

#: Graph passes in execution order. R017 (suppression audit) is not in
#: this list — the driver invokes :func:`audit` after filtering.
ALL_PASSES = (
    DeterminismPass(),
    BoundaryPass(),
    PurityPass(),
    CoveragePass(),
    LedgerPass(),
    RecorderPass(),
    LayeringPass(),
)

#: code -> one-line summary for every deep rule, R017 included. The
#: driver merges this with the line-rule catalog for SARIF metadata and
#: the meta-tests assert docs/tests/fixtures against it.
PASS_RULES: dict[str, str] = {
    code: summary
    for p in ALL_PASSES
    for code, summary in p.rules.items()
}
PASS_RULES.update(SUPPRESSION_RULES)
