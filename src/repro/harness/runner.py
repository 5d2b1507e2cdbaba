"""Sweep runner: execute miners over parameter grids, collect rows.

The benchmark files are thin: they declare which dataset, which miners,
and which sweep axis an experiment uses, and delegate the mechanics
(measurement, row assembly, table + figure rendering) to
:class:`ExperimentRunner`. Every experiment's output is also persisted as
rows so `EXPERIMENTS.md` can quote them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.harness.figures import ascii_chart
from repro.harness.metrics import measure
from repro.harness.tables import render_table
from repro.model.database import ESequenceDatabase

__all__ = ["MinerSpec", "ExperimentRunner", "SweepResult", "write_rows_csv"]


@dataclass(frozen=True, slots=True)
class MinerSpec:
    """A named miner factory: ``build(param)`` returns an object with
    ``.mine(db)``; ``param`` is the current sweep value (e.g. min_sup)."""

    name: str
    build: Callable[[float], object]


@dataclass(slots=True)
class SweepResult:
    """All rows of one experiment sweep."""

    experiment: str
    x_name: str
    rows: list[dict] = field(default_factory=list)

    def series(self, y_name: str) -> dict[str, list[tuple[float, float]]]:
        """Extract ``{miner: [(x, y), ...]}`` for charting."""
        out: dict[str, list[tuple[float, float]]] = {}
        for row in self.rows:
            out.setdefault(row["miner"], []).append(
                (row[self.x_name], row[y_name])
            )
        return out

    def table(self, columns: Sequence[str] | None = None) -> str:
        """Render the rows as an ASCII table (all columns by default)."""
        return render_table(self.rows, columns, title=self.experiment)

    def chart(self, y_name: str, *, log_y: bool = True, **kwargs: Any) -> str:
        """Render one metric as an ASCII figure."""
        return ascii_chart(
            self.series(y_name),
            title=f"{self.experiment}: {y_name} vs {self.x_name}",
            x_label=self.x_name,
            y_label=y_name,
            log_y=log_y,
            **kwargs,
        )


class ExperimentRunner:
    """Run miners across a sweep of one parameter on given databases."""

    def __init__(self, experiment: str, x_name: str = "min_sup") -> None:
        self.experiment = experiment
        self.x_name = x_name
        self.result = SweepResult(experiment, x_name)

    def run_point(
        self,
        db: ESequenceDatabase,
        x_value: float,
        miners: Iterable[MinerSpec],
        *,
        track_memory: bool = False,
    ) -> list[dict]:
        """Run every miner at one sweep point, appending result rows.

        Every row carries a ``config_fingerprint`` column — the
        :func:`repro.obs.ledger.config_fingerprint` over the database's
        content digest, the spec name, its built config, and the built
        miner's worker count — so sweep rows are directly joinable
        against run-ledger entries for the same configuration. A sharded
        sweep point is a spec whose ``build`` returns a sharded miner,
        e.g. ``miners.build("ptpminer", min_sup=s, workers=2)``.
        """
        from repro.obs.ledger import config_fingerprint, dataset_digest

        db_digest = dataset_digest(db)
        new_rows = []
        for spec in miners:
            miner = spec.build(x_value)
            built_config = getattr(miner, "config", None)
            metrics = measure(
                lambda m=miner: m.mine(db), track_memory=track_memory
            )
            mining = metrics.result
            row = {
                "miner": spec.name,
                self.x_name: x_value,
                "dataset": db.name,
                "config_fingerprint": config_fingerprint(
                    dataset_digest=db_digest,
                    miner=spec.name,
                    min_sup=getattr(built_config, "min_sup", x_value),
                    mode=getattr(built_config, "mode", None),
                    workers=getattr(miner, "workers", 1),
                ),
                "runtime_s": round(metrics.elapsed_s, 4),
                "patterns": len(mining.patterns),
            }
            if track_memory:
                peak = metrics.peak_mem_mb
                row["peak_mem_mb"] = (
                    None if peak is None else round(peak, 3)
                )
            row.update(mining.counters.as_dict())
            self.result.rows.append(row)
            new_rows.append(row)
        return new_rows

    def sweep(
        self,
        db: ESequenceDatabase,
        x_values: Sequence[float],
        miners: Sequence[MinerSpec],
        **kwargs: Any,
    ) -> SweepResult:
        """Run the full grid ``x_values x miners`` on one database."""
        for x_value in x_values:
            self.run_point(db, x_value, miners, **kwargs)
        return self.result


def write_rows_csv(result: SweepResult, path: str | Path) -> None:
    """Export a sweep's rows as CSV (for external plotting tools).

    Columns are the union of all row keys in first-seen order; missing
    cells are left empty.
    """
    import csv

    columns: dict[str, None] = {}
    for row in result.rows:
        for key in row:
            columns.setdefault(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(result.rows)
