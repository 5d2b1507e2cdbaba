"""The paper's contribution: P-TPMiner and its companions.

Every export is imported on first access (:mod:`repro._lazy`), so
importing one module of this package does not load the others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.closed import filter_closed, filter_maximal
    from repro.core.counting import PairTables, symbol_document_frequency
    from repro.core.probabilistic import ProbabilisticTPMiner
    from repro.core.pruning import PruneCounters, PruningConfig
    from repro.core.ptpminer import MiningResult, PTPMiner, mine
    from repro.core.rules import TemporalRule, generate_rules

__all__ = [
    "PTPMiner",
    "mine",
    "MiningResult",
    "ProbabilisticTPMiner",
    "PruningConfig",
    "PruneCounters",
    "PairTables",
    "symbol_document_frequency",
    "filter_closed",
    "filter_maximal",
    "TemporalRule",
    "generate_rules",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.closed": ("filter_closed", "filter_maximal"),
    "repro.core.counting": ("PairTables", "symbol_document_frequency"),
    "repro.core.probabilistic": ("ProbabilisticTPMiner",),
    "repro.core.pruning": ("PruneCounters", "PruningConfig"),
    "repro.core.ptpminer": ("MiningResult", "PTPMiner", "mine"),
    "repro.core.rules": ("TemporalRule", "generate_rules"),
})
