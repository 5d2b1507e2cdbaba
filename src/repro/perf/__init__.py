"""repro.perf — machine-readable performance baselines + regression gate.

The paper's contribution is *efficiency*, so the repo keeps a committed,
schema-versioned performance baseline (``BENCH_PTPMINER.json`` at the
repository root) and tooling to regenerate and compare it:

:mod:`repro.perf.workloads`
    The fixed, deterministic workload matrix (dataset x support x
    miner cells) every baseline run executes.
:mod:`repro.perf.baseline`
    Runs a matrix — timing and memory in **separate** runs, since
    tracemalloc inflates timed code — and serialises the
    schema-versioned report with an environment fingerprint.
:mod:`repro.perf.compare`
    Diffs a fresh run against a baseline with noise-aware thresholds:
    search counters must match exactly (the miners are deterministic),
    wall time and peak memory get per-class relative tolerances, and
    findings render as a markdown regression report.
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
    from repro.perf.baseline import (
        BASELINE_FILENAME,
        SCHEMA_VERSION,
        load_report,
        run_matrix,
        write_report,
    )
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
    "SCHEMA_VERSION",
    "Tolerance",
    "WorkloadCell",
    "compare_reports",
    "environment_fingerprint",
    "load_report",
    "matrix_cells",
    "render_markdown",
    "run_matrix",
    "write_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.baseline": (
        "BASELINE_FILENAME", "SCHEMA_VERSION", "load_report", "run_matrix",
        "write_report",
    ),
    "repro.perf.compare": (
        "ComparisonResult", "Finding", "Tolerance", "compare_reports",
        "environment_fingerprint", "render_markdown",
    ),
    "repro.perf.workloads": ("MATRICES", "WorkloadCell", "matrix_cells"),
})
