"""The benchmark's workloads and how each one's input is made from a seed.

Every workload is one ``ptpminer mine`` configuration on one synthetic
database from :func:`repro.datagen.standard_dataset`. The database is
drawn once, at the dataset's registered generator seed; the benchmark's
``--seed`` then shuffles the sequence order and shifts every sequence by
its own time offset. Both transforms change every line of the input
file, but neither changes what is mined: supports count sequences and
patterns are arrangements, so every seed mines the same patterns with
the same supports and the same search effort.

Why not hand ``--seed`` to the generator itself: it also draws the
planted template patterns, and their sizes set the search effort. Over
eight generator seeds of ``sparse`` at 3000 sequences and min-sup 0.03
the search created 162,663 to 275,807 states and took 3.2 to 5.0 s on a
2-vCPU Linux VM, a spread of seeds no useful regression bound absorbs.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Workload", "cli_args", "make_input"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset, a size, and a mine configuration.

    ``expected_patterns`` and ``expected_digest`` are the serial
    reference result (:func:`repro.obs.provenance.patterns_digest`),
    which every seed must reproduce.
    """

    name: str
    dataset: str
    sequences: int
    min_sup: float
    mode: str
    workers: int
    why: str
    expected_patterns: int
    expected_digest: str

    @property
    def sharded(self) -> bool:
        """True when the workload runs through :mod:`repro.engine`."""
        return self.workers > 1


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sparse-deep",
            dataset="sparse",
            sequences=3000,
            min_sup=0.03,
            mode="tp",
            workers=1,
            why=(
                "narrow deep TP search: projection and counting dominate "
                "mine, parse is small, engine and obs are bypassed"
            ),
            expected_patterns=247,
            expected_digest="853a871689e4516b",
        ),
        Workload(
            name="hybrid-sharded",
            dataset="hybrid",
            sequences=2000,
            min_sup=0.05,
            mode="htp",
            workers=2,
            why=(
                "the only run through repro.engine (2 process workers) "
                "and repro.obs collectors, as a --ledger-dir mine"
            ),
            expected_patterns=215,
            expected_digest="7bb85a6ec1c67af4",
        ),
    )
}


def make_input(workload: Workload, seed: int):  # -> ESequenceDatabase
    """The database ``ptpminer mine`` reads for ``(workload, seed)``.

    Deterministic in ``seed``: the sequence order is a seeded shuffle
    and each sequence moves by a seeded offset in ``[100, 1000)`` time
    units, so timestamps stay integers of similar width for every seed.
    """
    from repro.datagen import standard_dataset
    from repro.model.database import ESequenceDatabase

    base = standard_dataset(workload.dataset, num_sequences=workload.sequences)
    rng = random.Random(seed)
    order = list(range(len(base)))
    rng.shuffle(order)
    return ESequenceDatabase(
        (base[sid].shifted(rng.randrange(100, 1000)) for sid in order),
        name=base.name,
    )


def cli_args(
    workload: Workload, input_path: str, out_path: str, ledger_dir: str
) -> list[str]:
    """The ``ptpminer mine`` command line for one timed run.

    ``--top 1`` keeps stdout small (``--top 0`` prints every pattern);
    only the sharded workload appends to a run ledger.
    """
    args = [
        sys.executable, "-m", "repro.cli", "mine", input_path,
        "--min-sup", repr(workload.min_sup),
        "--mode", workload.mode,
        "--workers", str(workload.workers),
        "--top", "1",
        "--out", out_path,
    ]
    if workload.sharded:
        args += ["--ledger-dir", ledger_dir]
    return args
