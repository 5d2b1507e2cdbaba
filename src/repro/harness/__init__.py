"""Experiment harness: measurement, sweeps, table and figure rendering.

Every export is imported on first access (:mod:`repro._lazy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.harness.figures import ascii_chart
    from repro.harness.metrics import RunMetrics, measure
    from repro.harness.runner import (
        ExperimentRunner,
        MinerSpec,
        SweepResult,
        write_rows_csv,
    )
    from repro.harness.tables import render_table
    from repro.harness.timeline import render_pattern, render_sequence

__all__ = [
    "measure",
    "RunMetrics",
    "ExperimentRunner",
    "MinerSpec",
    "SweepResult",
    "render_table",
    "ascii_chart",
    "render_sequence",
    "render_pattern",
    "write_rows_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.harness.figures": ("ascii_chart",),
    "repro.harness.metrics": ("RunMetrics", "measure"),
    "repro.harness.runner": (
        "ExperimentRunner", "MinerSpec", "SweepResult", "write_rows_csv",
    ),
    "repro.harness.tables": ("render_table",),
    "repro.harness.timeline": ("render_pattern", "render_sequence"),
})
