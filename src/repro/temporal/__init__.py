"""Temporal algebra: Allen relations, endpoint and matrix representations.

Every export is imported on first access (:mod:`repro._lazy`), so the
miner's endpoint encoding loads without the Allen algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.temporal.allen import (
        ALL_RELATIONS,
        BASE_RELATIONS,
        AllenRelation,
        compose,
        relate,
        relate_general,
    )
    from repro.temporal.endpoint import (
        FINISH,
        POINT,
        START,
        EncodedDatabase,
        Endpoint,
        EndpointSequence,
        endpoint_sequence_of,
    )
    from repro.temporal.relation_matrix import (
        ArrangementPattern,
        InconsistentArrangementError,
    )

__all__ = [
    "AllenRelation",
    "relate",
    "relate_general",
    "compose",
    "ALL_RELATIONS",
    "BASE_RELATIONS",
    "Endpoint",
    "EndpointSequence",
    "EncodedDatabase",
    "endpoint_sequence_of",
    "START",
    "FINISH",
    "POINT",
    "ArrangementPattern",
    "InconsistentArrangementError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.temporal.allen": (
        "ALL_RELATIONS", "BASE_RELATIONS", "AllenRelation", "compose",
        "relate", "relate_general",
    ),
    "repro.temporal.endpoint": (
        "FINISH", "POINT", "START", "EncodedDatabase", "Endpoint",
        "EndpointSequence", "endpoint_sequence_of",
    ),
    "repro.temporal.relation_matrix": (
        "ArrangementPattern", "InconsistentArrangementError",
    ),
})
