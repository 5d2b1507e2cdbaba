"""Workload generators: synthetic (QUEST-style) and real-data simulators.

Every export is imported on first access (:mod:`repro._lazy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datagen.asl import generate_asl
    from repro.datagen.clinical import generate_clinical
    from repro.datagen.library import generate_library
    from repro.datagen.stock import generate_stock
    from repro.datagen.synthetic import (
        STANDARD_DATASETS,
        SyntheticConfig,
        SyntheticGenerator,
        standard_dataset,
    )

__all__ = [
    "SyntheticConfig",
    "SyntheticGenerator",
    "standard_dataset",
    "STANDARD_DATASETS",
    "generate_asl",
    "generate_clinical",
    "generate_library",
    "generate_stock",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datagen.asl": ("generate_asl",),
    "repro.datagen.clinical": ("generate_clinical",),
    "repro.datagen.library": ("generate_library",),
    "repro.datagen.stock": ("generate_stock",),
    "repro.datagen.synthetic": (
        "STANDARD_DATASETS", "SyntheticConfig", "SyntheticGenerator",
        "standard_dataset",
    ),
})
