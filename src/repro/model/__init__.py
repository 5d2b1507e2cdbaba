"""Data model: events, e-sequences, databases, patterns, uncertainty.

Every export is imported on first access (:mod:`repro._lazy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.model.database import DatabaseStats, ESequenceDatabase
    from repro.model.event import IntervalEvent, point_event
    from repro.model.pattern import PatternWithSupport, TemporalPattern
    from repro.model.sequence import ESequence
    from repro.model.uncertain import UncertainESequenceDatabase

__all__ = [
    "IntervalEvent",
    "point_event",
    "ESequence",
    "ESequenceDatabase",
    "DatabaseStats",
    "TemporalPattern",
    "PatternWithSupport",
    "UncertainESequenceDatabase",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.database": ("DatabaseStats", "ESequenceDatabase"),
    "repro.model.event": ("IntervalEvent", "point_event"),
    "repro.model.pattern": ("PatternWithSupport", "TemporalPattern"),
    "repro.model.sequence": ("ESequence",),
    "repro.model.uncertain": ("UncertainESequenceDatabase",),
})
