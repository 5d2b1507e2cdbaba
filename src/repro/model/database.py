"""E-sequence databases.

A database is the unit of mining: an ordered collection of
:class:`~repro.model.sequence.ESequence` records with dense integer sequence
ids. The class also carries the derived statistics every miner and the
experiment harness need (alphabet, size distributions, duplicate/point-event
prevalence) and support-threshold arithmetic shared by all algorithms.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = ["ESequenceDatabase", "DatabaseStats"]


@dataclass(frozen=True, slots=True)
class DatabaseStats:
    """Descriptive statistics of a database (rows of the paper's Table 1)."""

    num_sequences: int
    num_events: int
    alphabet_size: int
    avg_events_per_sequence: float
    max_events_per_sequence: int
    avg_duration: float
    point_event_fraction: float
    duplicate_sequence_fraction: float

    def as_row(self) -> dict[str, object]:
        """Flatten to a plain dict for table rendering."""
        return {
            "sequences": self.num_sequences,
            "events": self.num_events,
            "|Sigma|": self.alphabet_size,
            "avg_len": round(self.avg_events_per_sequence, 2),
            "max_len": self.max_events_per_sequence,
            "avg_dur": round(self.avg_duration, 2),
            "point_frac": round(self.point_event_fraction, 3),
            "dup_frac": round(self.duplicate_sequence_fraction, 3),
        }


class ESequenceDatabase:
    """An immutable collection of e-sequences with dense sids.

    Parameters
    ----------
    sequences:
        Iterable of :class:`ESequence`. Each stored sequence is re-tagged
        with its position as ``sid`` so sids are always ``0..n-1``.
    name:
        Optional human-readable dataset name (used by the harness tables).

    Examples
    --------
    >>> from repro.model.event import IntervalEvent
    >>> db = ESequenceDatabase([
    ...     ESequence([IntervalEvent(0, 3, "A")]),
    ...     ESequence([IntervalEvent(1, 2, "B")]),
    ... ])
    >>> len(db)
    2
    >>> db.absolute_support(0.5)
    1
    """

    __slots__ = ("_sequences", "name")

    def __init__(self, sequences: Iterable[ESequence], name: str = "") -> None:
        seqs: list[ESequence] = []
        for i, seq in enumerate(sequences):
            if not isinstance(seq, ESequence):
                raise TypeError(f"expected ESequence, got {seq!r}")
            seqs.append(seq.with_sid(i))
        self._sequences: tuple[ESequence, ...] = tuple(seqs)
        self.name = name

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def sequences(self) -> tuple[ESequence, ...]:
        """All sequences, sid-ordered."""
        return self._sequences

    def __len__(self) -> int:
        return len(self._sequences)

    def __iter__(self) -> Iterator[ESequence]:
        return iter(self._sequences)

    def __getitem__(self, sid: int) -> ESequence:
        return self._sequences[sid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ESequenceDatabase):
            return NotImplemented
        return self._sequences == other._sequences

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"ESequenceDatabase({len(self)} sequences{tag})"

    # ------------------------------------------------------------------
    # support arithmetic
    # ------------------------------------------------------------------
    def absolute_support(self, min_sup: float) -> int:
        """Convert a support threshold to an absolute sequence count.

        ``min_sup`` may be a relative frequency in ``(0, 1]`` or an absolute
        count ``>= 1``; either way the result is clamped to at least 1 so an
        empty database never yields a zero threshold.
        """
        if min_sup <= 0:
            raise ValueError(f"min_sup must be positive, got {min_sup}")
        if min_sup <= 1:
            return max(1, math.ceil(min_sup * len(self)))
        if min_sup != int(min_sup):
            raise ValueError(
                f"absolute min_sup must be an integer, got {min_sup}"
            )
        return int(min_sup)

    def require_mode(self, mode: str) -> None:
        """Raise unless this database is minable in ``mode``.

        ``"tp"`` mining rejects databases containing point events (strip
        them with :meth:`without_point_events` or mine with
        ``mode="htp"``). This is the single home of the check every
        miner used to duplicate at the top of its ``mine()``.
        """
        if mode != "tp":
            return
        for seq in self._sequences:
            if seq.has_point_events:
                raise ValueError(
                    "database contains point events; mine with "
                    'mode="htp" or strip them with '
                    "db.without_point_events()"
                )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def alphabet(self) -> frozenset[str]:
        """The union of all sequence alphabets."""
        out: set[str] = set()
        for seq in self._sequences:
            out.update(seq.alphabet)
        return frozenset(out)

    def label_document_frequency(self) -> Counter:
        """Number of sequences each label appears in (1-pattern supports)."""
        df: Counter = Counter()
        for seq in self._sequences:
            df.update(seq.alphabet)
        return df

    def stats(self) -> DatabaseStats:
        """Compute the descriptive statistics used in dataset tables."""
        n = len(self._sequences)
        if n == 0:
            return DatabaseStats(0, 0, 0, 0.0, 0, 0.0, 0.0, 0.0)
        lengths = [len(seq) for seq in self._sequences]
        events = [ev for seq in self._sequences for ev in seq]
        num_events = len(events)
        points = sum(1 for ev in events if ev.is_point)
        dups = sum(1 for seq in self._sequences if seq.has_duplicates)
        avg_dur = (
            sum(ev.duration for ev in events) / num_events if num_events else 0.0
        )
        return DatabaseStats(
            num_sequences=n,
            num_events=num_events,
            alphabet_size=len(self.alphabet),
            avg_events_per_sequence=num_events / n,
            max_events_per_sequence=max(lengths, default=0),
            avg_duration=avg_dur,
            point_event_fraction=points / num_events if num_events else 0.0,
            duplicate_sequence_fraction=dups / n,
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def filter_sequences(
        self, predicate: Callable[[ESequence], bool]
    ) -> "ESequenceDatabase":
        """Keep sequences satisfying ``predicate`` (sids are re-densified)."""
        return ESequenceDatabase(
            (seq for seq in self._sequences if predicate(seq)), name=self.name
        )

    def restricted_to(self, labels: Iterable[str]) -> "ESequenceDatabase":
        """Project every sequence onto the given label set, dropping empties."""
        keep = frozenset(labels)
        projected = (seq.restricted_to(keep) for seq in self._sequences)
        return ESequenceDatabase(
            (seq for seq in projected if len(seq) > 0), name=self.name
        )

    def without_point_events(self) -> "ESequenceDatabase":
        """Strip instantaneous events (strict TP-mode preprocessing).

        Empty sequences are dropped too. A database with neither comes
        back as itself: the result would equal it, and it is immutable.
        """
        if all(seq and not seq.has_point_events for seq in self._sequences):
            return self
        kept = (
            ESequence(seq.interval_events(), sid=seq.sid)
            for seq in self._sequences
        )
        return ESequenceDatabase(
            (seq for seq in kept if len(seq) > 0), name=self.name
        )

    def sample(self, k: int, *, seed: int = 0) -> "ESequenceDatabase":
        """Deterministic pseudo-random sample of ``k`` sequences."""
        import random

        if k >= len(self):
            return self
        rng = random.Random(seed)
        picked = rng.sample(range(len(self)), k)
        picked.sort()
        return ESequenceDatabase(
            (self._sequences[i] for i in picked), name=self.name
        )

    def replicated(self, factor: int) -> "ESequenceDatabase":
        """Concatenate ``factor`` copies (the scalability-experiment knob).

        Replication preserves relative supports exactly, which is why the
        literature uses it to grow ``|D|`` without changing the pattern set.
        """
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        out: list[ESequence] = []
        for _ in range(factor):
            out.extend(self._sequences)
        return ESequenceDatabase(out, name=self.name)

    @classmethod
    def from_event_lists(
        cls,
        rows: Iterable[Iterable[tuple[float, float, str]]],
        name: str = "",
    ) -> "ESequenceDatabase":
        """Build a database from nested ``(start, finish, label)`` triples."""
        return cls(
            (
                ESequence(IntervalEvent.from_tuple(t) for t in row)
                for row in rows
            ),
            name=name,
        )
