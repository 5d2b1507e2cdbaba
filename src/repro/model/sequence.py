"""E-sequences: the per-entity containers of event intervals.

An **e-sequence** is the record of one observed entity (one patient, one
signing session, one library patron, one trading day): a finite multiset of
:class:`~repro.model.event.IntervalEvent` objects. Events are stored in the
canonical order ``(start, finish, label)`` so two e-sequences with the same
multiset of events compare equal and serialize identically.

Duplicate event types are allowed — the same label may occur several times in
one sequence (two fever episodes). The mining layer distinguishes the
occurrences through *occurrence indices* assigned in canonical order (the
k-th event with label ``e`` is occurrence ``k`` of ``e``); see
:mod:`repro.temporal.endpoint`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from operator import attrgetter
from typing import Optional

from repro.model.event import IntervalEvent, Timestamp

__all__ = ["ESequence"]

#: The canonical event order as a sort key: the same order as
#: :class:`IntervalEvent`'s ``<``, without a Python-level call per
#: comparison.
_CANONICAL = attrgetter("start", "finish", "label")


class ESequence:
    """An immutable, canonically ordered sequence of event intervals.

    Parameters
    ----------
    events:
        Any iterable of :class:`IntervalEvent`; stored sorted by
        ``(start, finish, label)``.
    sid:
        Optional sequence identifier. Databases assign dense integer sids
        automatically when ``None``.

    Examples
    --------
    >>> from repro.model.event import IntervalEvent
    >>> seq = ESequence([IntervalEvent(0, 5, "A"), IntervalEvent(2, 8, "B")])
    >>> len(seq)
    2
    >>> seq.span
    (0, 8)
    """

    __slots__ = ("_events", "sid", "_hash")

    def __init__(
        self,
        events: Iterable[IntervalEvent],
        sid: Optional[int] = None,
    ) -> None:
        evs = list(events)
        for ev in evs:
            if not isinstance(ev, IntervalEvent):
                raise TypeError(f"ESequence expects IntervalEvent items, got {ev!r}")
        evs.sort(key=_CANONICAL)
        self._events: tuple[IntervalEvent, ...] = tuple(evs)
        self.sid = sid
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[IntervalEvent, ...]:
        """The events in canonical ``(start, finish, label)`` order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[IntervalEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> IntervalEvent:
        return self._events[index]

    def __bool__(self) -> bool:
        return bool(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ESequence):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._events)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(ev) for ev in self._events)
        tag = "" if self.sid is None else f"sid={self.sid}, "
        return f"ESequence({tag}<{inner}>)"

    # ------------------------------------------------------------------
    # descriptive statistics
    # ------------------------------------------------------------------
    @property
    def span(self) -> tuple[Timestamp, Timestamp]:
        """``(earliest start, latest finish)`` over all events.

        Raises :class:`ValueError` on an empty sequence.
        """
        if not self._events:
            raise ValueError("span of an empty e-sequence is undefined")
        lo = min(ev.start for ev in self._events)
        hi = max(ev.finish for ev in self._events)
        return (lo, hi)

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of event labels appearing in the sequence."""
        return frozenset(ev.label for ev in self._events)

    def label_counts(self) -> Counter:
        """Multiplicity of each label (for duplicate-type statistics)."""
        return Counter(ev.label for ev in self._events)

    @property
    def has_duplicates(self) -> bool:
        """``True`` when some label occurs more than once."""
        counts = self.label_counts()
        return bool(counts) and max(counts.values()) > 1

    @property
    def has_point_events(self) -> bool:
        """``True`` when the sequence contains an instantaneous event."""
        return any(ev.is_point for ev in self._events)

    def interval_events(self) -> tuple[IntervalEvent, ...]:
        """Only the positive-duration events."""
        return tuple(ev for ev in self._events if ev.is_interval)

    def point_events(self) -> tuple[IntervalEvent, ...]:
        """Only the instantaneous events."""
        return tuple(ev for ev in self._events if ev.is_point)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def shifted(self, delta: Timestamp) -> "ESequence":
        """Translate every event by ``delta`` (arrangement-preserving)."""
        return ESequence((ev.shifted(delta) for ev in self._events), sid=self.sid)

    def scaled(self, factor: Timestamp) -> "ESequence":
        """Scale every event's endpoints by ``factor > 0``."""
        return ESequence((ev.scaled(factor) for ev in self._events), sid=self.sid)

    def normalized(self) -> "ESequence":
        """Translate so the earliest start sits at time 0."""
        if not self._events:
            return self
        lo, _ = self.span
        return self.shifted(-lo)

    def restricted_to(self, labels: Iterable[str]) -> "ESequence":
        """Keep only events whose label is in ``labels``."""
        keep = frozenset(labels)
        return ESequence(
            (ev for ev in self._events if ev.label in keep), sid=self.sid
        )

    def with_sid(self, sid: int) -> "ESequence":
        """Return a copy carrying the given sequence id."""
        clone = ESequence.__new__(ESequence)
        clone._events = self._events
        clone.sid = sid
        clone._hash = None
        return clone

    def occurrence_indexed(self) -> list[tuple[IntervalEvent, int]]:
        """Pair each event with its occurrence index among same-label events.

        Occurrence indices start at 1 and follow canonical event order, so
        they are deterministic for a given multiset of events. The mining
        layer relies on this to disambiguate duplicate event types.
        """
        seen: Counter = Counter()
        out: list[tuple[IntervalEvent, int]] = []
        for ev in self._events:
            seen[ev.label] += 1
            out.append((ev, seen[ev.label]))
        return out
