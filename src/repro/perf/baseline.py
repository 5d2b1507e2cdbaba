"""Run a workload matrix and serialise the performance report.

Per cell, two **separate** runs (see the measurement-hygiene note on
:func:`repro.harness.metrics.measure`):

1. a *timing* run with ``track_memory=False`` — tracemalloc hooks every
   allocation and inflates allocation-heavy mining code noticeably, so
   the wall time a baseline records must never come from a traced run;
2. a *memory* run with ``track_memory=True`` for peak additional heap.

Search counters are read from both runs and must agree exactly — the
miners are deterministic, so a mismatch means nondeterminism crept into
the stack and the report must not be trusted (the runner raises).

Report shape (schema-versioned; see ``BENCH_PTPMINER.json``)::

    {
      "schema": 1,
      "kind": "repro-bench",
      "matrix": "quick",
      "environment": {"python": "3.11.7", ...},
      "cells": [
        {"cell": "sparse120/sup0.1/ptpminer", "dataset": "sparse", ...,
         "wall_s": 0.031, "peak_mib": 1.42, "patterns": 36,
         "counters": {"nodes_expanded": 83, ...}},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any, Optional, Union

from repro.harness.metrics import measure
from repro.io._utf8 import load_json_object
from repro.model.database import ESequenceDatabase
from repro.perf.compare import environment_fingerprint
from repro.perf.workloads import WorkloadCell, build_database, matrix_cells

__all__ = [
    "BASELINE_FILENAME",
    "SCHEMA_VERSION",
    "append_report_to_ledger",
    "environment_fingerprint",
    "load_report",
    "run_cell",
    "run_matrix",
    "stderr_progress",
    "write_report",
]

#: Schema version stamped into every report this module writes.
SCHEMA_VERSION = 1

#: Canonical committed-baseline filename (lives at the repository root).
BASELINE_FILENAME = "BENCH_PTPMINER.json"


def run_cell(
    cell: WorkloadCell, db: Optional[ESequenceDatabase] = None
) -> dict[str, Any]:
    """Measure one cell; returns its report row.

    ``db`` lets callers share one generated database across the cells
    that use it (the matrix runner does); when omitted the cell's
    dataset is generated fresh.
    """
    if db is None:
        db = build_database(cell)
    # Timing run: no tracemalloc, no registry — the leanest path.
    timed = measure(lambda: cell.mine(db), track_memory=False)
    # Memory run: separate, so tracemalloc never pollutes wall_s above.
    traced = measure(lambda: cell.mine(db), track_memory=True)
    counters = dict(timed.result.counters.as_dict())
    if counters != traced.result.counters.as_dict():
        raise RuntimeError(
            f"nondeterministic search counters in cell {cell.cell_id}: "
            "timing and memory runs disagree"
        )
    peak = traced.peak_mem_mb
    return {
        "cell": cell.cell_id,
        "dataset": cell.dataset,
        "num_sequences": cell.num_sequences,
        "min_sup": cell.min_sup,
        "miner": cell.miner,
        "workers": cell.workers,
        "wall_s": round(timed.elapsed_s, 6),
        "peak_mib": None if peak is None else round(peak, 3),
        "patterns": len(timed.result.patterns),
        "counters": counters,
    }


def run_matrix(
    matrix: str = "quick",
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Execute every cell of ``matrix``; return the full report dict.

    ``progress`` (e.g. ``lambda msg: print(msg, file=sys.stderr)``)
    receives one line per completed cell.
    """
    cells = matrix_cells(matrix)
    databases: dict[tuple[str, int], ESequenceDatabase] = {}
    rows: list[dict[str, Any]] = []
    for cell in cells:
        key = (cell.dataset, cell.num_sequences)
        if key not in databases:
            databases[key] = build_database(cell)
        row = run_cell(cell, databases[key])
        rows.append(row)
        if progress is not None:
            progress(
                f"{row['cell']}: {row['wall_s']:.3f}s, "
                f"{row['peak_mib']} MiB, {row['patterns']} patterns"
            )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro-bench",
        "matrix": matrix,
        "environment": environment_fingerprint(),
        "cells": rows,
    }


def write_report(
    report: Mapping[str, Any], path: Union[str, Path]
) -> None:
    """Serialise a report as stable, diff-friendly indented JSON."""
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: Union[str, Path]) -> dict[str, Any]:
    """Load and sanity-check a serialised report.

    Raises ``ValueError`` on a missing/garbled file or a schema this
    code does not understand, so ``compare`` failures are actionable.
    """
    try:
        return load_json_object(
            path, "repro-bench report", kind="repro-bench",
            schema=SCHEMA_VERSION,
        )
    except FileNotFoundError:
        raise ValueError(
            f"no benchmark report at {path} "
            f"(generate one with 'python -m repro.perf update-baseline')"
        ) from None


def append_report_to_ledger(
    report: Mapping[str, Any], ledger_dir: Union[str, Path]
) -> list[dict[str, Any]]:
    """Append one run-ledger entry per cell of a bench report.

    This is how ``BENCH_PTPMINER.json`` gains a *trajectory*: every
    ``perf run``/``compare`` invoked with ``--ledger-dir`` lands its
    cells in the persistent ledger, and ``ptpminer history`` then
    trends each cell across runs (the cell id is folded into the config
    fingerprint, so every cell forms its own group). Dataset digests
    are computed by regenerating each cell's database — generation is
    deterministic under the registered seeds, so the digest matches a
    ``mine --ledger-dir`` run over the same generated file. Returns the
    appended entries in cell order.
    """
    # Imported here, not at module level: repro.obs.ledger imports
    # repro.perf.compare for its tolerances, so a module-level import
    # back into repro.perf would be circular.
    from repro.obs.ledger import RunLedger, build_entry, dataset_digest

    cells_by_id = {
        cell.cell_id: cell for cell in matrix_cells(report["matrix"])
    }
    digests: dict[tuple[str, int], str] = {}
    ledger = RunLedger(ledger_dir)
    appended: list[dict[str, Any]] = []
    environment = dict(report.get("environment", {}))
    for row in report["cells"]:
        cell = cells_by_id.get(row["cell"])
        if cell is not None:
            key = (cell.dataset, cell.num_sequences)
            if key not in digests:
                digests[key] = dataset_digest(build_database(cell))
            digest = digests[key]
        else:  # a cell the current matrix no longer defines
            digest = f"cell:{row['cell']}"
        entry = build_entry(
            dataset_digest=digest,
            miner=row["miner"],
            min_sup=row["min_sup"],
            mode="tp",
            workers=int(row.get("workers", 1)),
            extra_config={"cell": row["cell"], "matrix": report["matrix"]},
            environment=environment,
            wall_s=float(row["wall_s"]),
            patterns=int(row["patterns"]),
            counters=row["counters"],
        )
        appended.append(ledger.append(entry))
    return appended


def stderr_progress(message: str) -> None:
    """Per-cell progress sink printing to stderr (the CLI default)."""
    print(message, file=sys.stderr, flush=True)
