"""The fixed workload matrices behind the performance baselines.

A *cell* is one measured configuration: a registered synthetic dataset
(truncated to a fixed sequence count), one absolute support setting, and
one miner. Every knob is pinned — datasets come from
:func:`repro.datagen.standard_dataset` with their registered seeds, so a
cell's search counters are bit-for-bit deterministic across machines and
only its wall time and peak memory vary with hardware.

Matrices:

``quick``
    The CI gate and the committed ``BENCH_PTPMINER.jsonl``: sparse and
    dense synthetic workloads at 2–3 supports, P-TPMiner plus all four
    baselines. The sparse cells reuse the 120-sequence workload of the
    CI metrics-snapshot job (``benchmarks/ci_metrics_snapshot.py``), so
    the two artifacts describe the same run shape. The brute-force
    miner is exponential in sequence length and is therefore excluded
    from the dense cells (and from the lowest sparse support) to keep
    the whole matrix under a couple of minutes.
``tiny``
    A seconds-fast matrix for tests and smoke runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro import miners
from repro.core.config import MinerConfig
from repro.core.ptpminer import MiningResult
from repro.datagen import standard_dataset
from repro.model.database import ESequenceDatabase

__all__ = [
    "MATRICES",
    "WorkloadCell",
    "build_database",
    "matrix_cells",
]


@dataclass(frozen=True, slots=True)
class WorkloadCell:
    """One deterministic (dataset, support, miner) measurement point.

    ``workers`` selects the sharded engine (``workers > 1`` implies the
    process executor); the merged result's counters equal the serial
    run's exactly, so the counter-agreement gate applies unchanged.
    """

    dataset: str
    num_sequences: int
    min_sup: float
    miner: str
    workers: int = 1

    def __post_init__(self) -> None:
        if self.miner not in miners.available():
            raise ValueError(
                f"unknown miner {self.miner!r}; "
                f"known: {sorted(miners.available())}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def cell_id(self) -> str:
        """Stable key used to match cells across baseline and fresh runs.

        The ``/wN`` suffix only appears for parallel cells so every
        pre-existing baseline cell id is unchanged.
        """
        base = (
            f"{self.dataset}{self.num_sequences}"
            f"/sup{self.min_sup:g}/{self.miner}"
        )
        return base if self.workers == 1 else f"{base}/w{self.workers}"

    def build_miner(self) -> Any:
        """A fresh miner instance configured for this cell."""
        return miners.build(
            self.miner,
            MinerConfig(min_sup=self.min_sup),
            workers=self.workers,
        )

    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Run this cell's miner on ``db`` (always a fresh instance)."""
        result: MiningResult = self.build_miner().mine(db)
        return result


def _grid(
    dataset: str,
    num_sequences: int,
    supports: tuple[float, ...],
    miners: tuple[str, ...],
) -> Iterator[WorkloadCell]:
    for min_sup in supports:
        for miner in miners:
            yield WorkloadCell(dataset, num_sequences, min_sup, miner)


_ALL_MINERS = ("ptpminer", "tprefixspan", "hdfs", "ieminer", "bruteforce")
_FAST_MINERS = ("ptpminer", "tprefixspan", "hdfs", "ieminer")

#: Registered matrices, by name. Cells are ordered (cheap datasets
#: first) and cell ids are unique within a matrix.
MATRICES: dict[str, tuple[WorkloadCell, ...]] = {
    "quick": (
        # Sparse: the CI metrics-snapshot workload (sparse @ 120
        # sequences, min_sup 0.10) plus two higher supports; brute
        # force only where its enumeration stays a few seconds.
        *_grid("sparse", 120, (0.1,), _FAST_MINERS),
        *_grid("sparse", 120, (0.2, 0.4), _ALL_MINERS),
        # Dense: heavy overlap drives projection/counting cost; the
        # verification-based baselines are already ~100x slower here at
        # moderate supports, so keep supports high and skip brute force.
        *_grid("dense", 40, (0.5, 0.6), _FAST_MINERS),
        # Sharded engine: same sparse workload through the process
        # executor, gating both the exact shard-merge (counters must
        # equal the serial cell's) and parallel-dispatch overhead.
        WorkloadCell("sparse", 120, 0.2, "ptpminer", workers=2),
    ),
    "tiny": (
        *_grid("tiny", 60, (0.4,), ("ptpminer", "tprefixspan")),
    ),
}


def matrix_cells(name: str) -> tuple[WorkloadCell, ...]:
    """The cells of a registered matrix (``KeyError``-free lookup)."""
    try:
        return MATRICES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload matrix {name!r}; known: {sorted(MATRICES)}"
        ) from None


def build_database(cell: WorkloadCell) -> ESequenceDatabase:
    """Generate the cell's dataset (deterministic under registered seeds)."""
    return standard_dataset(
        cell.dataset, num_sequences=cell.num_sequences
    )
