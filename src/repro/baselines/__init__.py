"""Baseline miners the paper compares against, plus the brute-force oracle.

Every export is imported on first access (:mod:`repro._lazy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.bruteforce import BruteForceMiner
    from repro.baselines.hdfs import HDFSMiner
    from repro.baselines.ieminer import IEMiner
    from repro.baselines.tprefixspan import TPrefixSpanMiner

__all__ = [
    "TPrefixSpanMiner",
    "IEMiner",
    "HDFSMiner",
    "BruteForceMiner",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.bruteforce": ("BruteForceMiner",),
    "repro.baselines.hdfs": ("HDFSMiner",),
    "repro.baselines.ieminer": ("IEMiner",),
    "repro.baselines.tprefixspan": ("TPrefixSpanMiner",),
})
