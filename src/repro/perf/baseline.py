"""Measure a workload matrix into run-ledger entries.

Per cell, two **separate** runs (see the measurement-hygiene note on
:func:`repro.harness.metrics.measure`):

1. a *timing* run with ``track_memory=False`` — tracemalloc hooks every
   allocation and inflates allocation-heavy mining code noticeably, so
   the wall time a baseline records must never come from a traced run;
2. a *memory* run with ``track_memory=True`` for peak additional heap.

Search counters are read from both runs and must agree exactly — the
miners are deterministic, so a mismatch means nondeterminism crept into
the stack and the run must not be trusted (the runner raises).

Each cell becomes one run-ledger entry
(:func:`repro.obs.ledger.build_entry`): its cell id and matrix folded
into the config, the dataset digest, ``wall_s``, ``peak_mib``, the
pattern count and the counters. The committed baseline,
``BENCH_PTPMINER.jsonl``, is a ledger of one such entry per ``quick``
cell, so ``ptpminer history`` and ``diff`` read it like any other.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from typing import Any, Optional, Union

from repro.harness.metrics import measure
from repro.model.database import ESequenceDatabase
from repro.obs.ledger import RunLedger, build_entry, dataset_digest
from repro.perf.workloads import WorkloadCell, build_database, matrix_cells

__all__ = [
    "BASELINE_FILENAME",
    "run_cell",
    "run_matrix",
    "stderr_progress",
    "write_baseline",
]

#: Canonical committed-baseline ledger (lives at the repository root).
BASELINE_FILENAME = "BENCH_PTPMINER.jsonl"


def run_cell(
    cell: WorkloadCell,
    db: Optional[ESequenceDatabase] = None,
    *,
    matrix: str,
) -> dict[str, Any]:
    """Measure one cell of ``matrix``; returns its run-ledger entry.

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
    return build_entry(
        dataset_digest=dataset_digest(db),
        miner=cell.miner,
        min_sup=cell.min_sup,
        mode="tp",
        workers=cell.workers,
        extra_config={"cell": cell.cell_id, "matrix": matrix},
        wall_s=round(timed.elapsed_s, 6),
        peak_mib=None if peak is None else round(peak, 3),
        patterns=len(timed.result.patterns),
        counters=counters,
    )


def run_matrix(
    matrix: str = "quick",
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> list[dict[str, Any]]:
    """Measure every cell of ``matrix``; one entry per cell, in order.

    ``progress`` (e.g. ``lambda msg: print(msg, file=sys.stderr)``)
    receives one line per completed cell.
    """
    databases: dict[tuple[str, int], ESequenceDatabase] = {}
    entries: list[dict[str, Any]] = []
    for cell in matrix_cells(matrix):
        key = (cell.dataset, cell.num_sequences)
        if key not in databases:
            databases[key] = build_database(cell)
        entry = run_cell(cell, databases[key], matrix=matrix)
        entries.append(entry)
        if progress is not None:
            progress(
                f"{cell.cell_id}: {entry['wall_s']:.3f}s, "
                f"{entry.get('peak_mib')} MiB, {entry['patterns']} patterns"
            )
    return entries


def write_baseline(
    entries: Iterable[Mapping[str, Any]], path: Union[str, Path]
) -> Path:
    """Replace the ledger at ``path`` with ``entries``; returns its file.

    The entries are appended to a new ledger beside the old one, which
    then takes its place whole, so a baseline never holds two runs of a
    cell.
    """
    target = RunLedger(path).path
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
        replacement = RunLedger(scratch)
        for entry in entries:
            replacement.append(entry)
        os.replace(replacement.path, target)
    return target


def stderr_progress(message: str) -> None:
    """Per-cell progress sink printing to stderr (the CLI default)."""
    print(message, file=sys.stderr, flush=True)
