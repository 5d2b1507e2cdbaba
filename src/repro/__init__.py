"""repro — P-TPMiner: mining temporal patterns in interval-based data.

A complete, production-quality reproduction of

    Yi-Cheng Chen, Wen-Chih Peng, Suh-Yin Lee.
    "Mining temporal patterns in interval-based data." ICDE 2016.

The library mines frequent **temporal patterns** (arrangements of
interval events, capturing their full pairwise Allen-relation structure)
and **hybrid temporal patterns** (arrangements mixing interval and point
events) from e-sequence databases, via the paper's endpoint
representation and pruning techniques. Baseline miners (TPrefixSpan,
IEMiner, H-DFS, brute force), workload generators, I/O formats, and a
benchmark harness reproducing every evaluation table/figure are included.

Quickstart
----------
>>> import repro
>>> db = repro.ESequenceDatabase.from_event_lists(
...     [[(0, 4, "fever"), (2, 6, "rash")],
...      [(0, 3, "fever"), (1, 5, "rash")]]
... )
>>> result = repro.mine(db, min_sup=1.0)
>>> print(result.patterns[0].pattern)
(fever+) (fever-)

Every name below is imported on first use (PEP 562; see
:mod:`repro._lazy`): ``import repro`` loads no subpackage, and
``from repro import PTPMiner`` loads the miner and what it runs, not
the baselines, generators, harness or observability collectors.

See ``examples/`` for realistic scenarios and ``DESIGN.md`` for the
architecture and experiment map.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro import contracts, obs
    from repro.core.closed import filter_closed, filter_maximal
    from repro.core.probabilistic import ProbabilisticTPMiner
    from repro.core.pruning import PruningConfig
    from repro.core.ptpminer import MiningResult, PTPMiner, mine
    from repro.core.rules import TemporalRule, generate_rules
    from repro.model.database import DatabaseStats, ESequenceDatabase
    from repro.model.event import IntervalEvent, point_event
    from repro.model.pattern import PatternWithSupport, TemporalPattern
    from repro.model.sequence import ESequence
    from repro.model.uncertain import UncertainESequenceDatabase
    from repro.temporal.allen import (
        AllenRelation,
        compose,
        relate,
        relate_general,
    )
    from repro.temporal.endpoint import Endpoint, EndpointSequence
    from repro.temporal.relation_matrix import ArrangementPattern

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # runtime contracts & observability
    "contracts",
    "obs",
    # data model
    "IntervalEvent",
    "point_event",
    "ESequence",
    "ESequenceDatabase",
    "DatabaseStats",
    "UncertainESequenceDatabase",
    # temporal algebra & representations
    "AllenRelation",
    "relate",
    "relate_general",
    "compose",
    "Endpoint",
    "EndpointSequence",
    "ArrangementPattern",
    # patterns & mining
    "TemporalPattern",
    "PatternWithSupport",
    "PTPMiner",
    "ProbabilisticTPMiner",
    "PruningConfig",
    "MiningResult",
    "mine",
    "filter_closed",
    "filter_maximal",
    "TemporalRule",
    "generate_rules",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro": ("contracts", "obs"),
    "repro.core.closed": ("filter_closed", "filter_maximal"),
    "repro.core.probabilistic": ("ProbabilisticTPMiner",),
    "repro.core.pruning": ("PruningConfig",),
    "repro.core.ptpminer": ("MiningResult", "PTPMiner", "mine"),
    "repro.core.rules": ("TemporalRule", "generate_rules"),
    "repro.model.database": ("DatabaseStats", "ESequenceDatabase"),
    "repro.model.event": ("IntervalEvent", "point_event"),
    "repro.model.pattern": ("PatternWithSupport", "TemporalPattern"),
    "repro.model.sequence": ("ESequence",),
    "repro.model.uncertain": ("UncertainESequenceDatabase",),
    "repro.temporal.allen": (
        "AllenRelation", "compose", "relate", "relate_general",
    ),
    "repro.temporal.endpoint": ("Endpoint", "EndpointSequence"),
    "repro.temporal.relation_matrix": ("ArrangementPattern",),
})
