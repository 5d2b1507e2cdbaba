"""repro.perf — machine-readable performance baselines + regression gate.

The paper's contribution is *efficiency*, so the repo keeps a committed
performance baseline (``BENCH_PTPMINER.jsonl`` at the repository root:
a run ledger of one entry per ``quick``-matrix cell) and tooling to
regenerate and compare it:

:mod:`repro.perf.workloads`
    The fixed, deterministic workload matrix (dataset x support x
    miner cells) every baseline run executes.
:mod:`repro.perf.baseline`
    Measures a matrix — timing and memory in **separate** runs, since
    tracemalloc inflates timed code — into one run-ledger entry per
    cell (:mod:`repro.obs.ledger`).
:mod:`repro.perf.compare`
    Judges a fresh run against a baseline, cell by cell, with
    noise-aware thresholds: search counters must match exactly (the
    miners are deterministic), wall time and peak memory get per-class
    relative tolerances, and findings render as a markdown regression
    report.
:mod:`repro.perf.cli`
    ``run`` / ``compare`` / ``update-baseline`` subcommands, reachable
    as ``python -m repro.perf`` or ``ptpminer perf ...``. CI's
    perf-smoke job runs ``compare`` on the quick matrix and fails on
    regression.

Every export is imported on first access (:mod:`repro._lazy`), so the
run ledger's ``import repro.perf.compare`` loads no workload, harness or
miner module.

See ``docs/observability.md`` for how to read reports and ``DESIGN.md``
for the baseline-update policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.perf.baseline import BASELINE_FILENAME, run_matrix
    from repro.perf.compare import (
        ComparisonResult,
        Finding,
        Tolerance,
        compare_reports,
        environment_fingerprint,
        render_markdown,
    )
    from repro.perf.workloads import MATRICES, WorkloadCell, matrix_cells

__all__ = [
    "BASELINE_FILENAME",
    "ComparisonResult",
    "Finding",
    "MATRICES",
    "Tolerance",
    "WorkloadCell",
    "compare_reports",
    "environment_fingerprint",
    "matrix_cells",
    "render_markdown",
    "run_matrix",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.baseline": ("BASELINE_FILENAME", "run_matrix"),
    "repro.perf.compare": (
        "ComparisonResult", "Finding", "Tolerance", "compare_reports",
        "environment_fingerprint", "render_markdown",
    ),
    "repro.perf.workloads": ("MATRICES", "WorkloadCell", "matrix_cells"),
})
