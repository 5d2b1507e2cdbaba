"""Event-interval primitives.

The atomic object of interval-based sequential pattern mining is the
*event interval* (called an "interval event" or "event interval" in the
literature): a labelled closed interval ``(label, start, finish)`` on a
totally ordered time domain with ``start <= finish``.

Two flavours exist:

* **interval-based events** — ``start < finish``; the event persists over a
  duration (a fever, a stock rally, a held gesture);
* **point-based events** — ``start == finish``; the event is instantaneous
  (an alarm, a trade, a tap).

Pure *temporal patterns* (type 1 in the paper) are defined over
interval-based events only; *hybrid temporal patterns* (type 2) admit both.
:class:`IntervalEvent` represents both flavours uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["IntervalEvent", "format_time", "point_event"]

#: Type alias for timestamps. Integers are preferred for exactness but any
#: totally ordered numeric type works.
Timestamp = float


def format_time(value: Timestamp) -> str:
    """A timestamp written exactly: integral values as integers, others
    by ``repr``.

    The one rule for showing a time, in event strings and in every file
    format that writes times as text, so distinct times never print
    alike (``1700000000`` and ``1700000001`` stay apart).

    >>> format_time(3), format_time(2.0), format_time(0.1)
    ('3', '2', '0.1')
    """
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(value)


@dataclass(frozen=True, slots=True, order=True)
class IntervalEvent:
    """A labelled event interval ``[start, finish]``.

    Instances are immutable, hashable, and totally ordered by
    ``(start, finish, label)`` — the canonical order used throughout the
    library so that e-sequences have a deterministic layout.

    Parameters
    ----------
    start:
        Beginning timestamp of the event.
    finish:
        Ending timestamp; must satisfy ``finish >= start``.
    label:
        The event type (symbol) drawn from the database alphabet.

    Examples
    --------
    >>> fever = IntervalEvent(3, 9, "fever")
    >>> fever.duration
    6
    >>> fever.is_point
    False
    >>> IntervalEvent(5, 5, "alarm").is_point
    True
    """

    start: Timestamp
    finish: Timestamp
    label: str

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError(
                f"event {self.label!r} has finish < start "
                f"({self.finish} < {self.start})"
            )
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"event label must be a non-empty string, got {self.label!r}")

    @property
    def is_point(self) -> bool:
        """``True`` when the event is instantaneous (``start == finish``)."""
        return self.start == self.finish

    @property
    def is_interval(self) -> bool:
        """``True`` when the event has positive duration."""
        return self.start < self.finish

    @property
    def duration(self) -> Timestamp:
        """Length of the interval (zero for point events)."""
        return self.finish - self.start

    def shifted(self, delta: Timestamp) -> "IntervalEvent":
        """Return a copy translated by ``delta`` time units."""
        return IntervalEvent(self.start + delta, self.finish + delta, self.label)

    def scaled(self, factor: Timestamp) -> "IntervalEvent":
        """Return a copy with both endpoints multiplied by ``factor``.

        ``factor`` must be positive so that temporal order is preserved.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return IntervalEvent(self.start * factor, self.finish * factor, self.label)

    def overlaps_time(self, other: "IntervalEvent") -> bool:
        """``True`` when the two closed intervals share at least one instant."""
        return self.start <= other.finish and other.start <= self.finish

    def contains_time(self, t: Timestamp) -> bool:
        """``True`` when instant ``t`` falls inside the closed interval."""
        return self.start <= t <= self.finish

    def as_tuple(self) -> tuple[Timestamp, Timestamp, str]:
        """Return the plain ``(start, finish, label)`` triple."""
        return (self.start, self.finish, self.label)

    @classmethod
    def from_tuple(cls, triple: tuple[Any, Any, Any]) -> "IntervalEvent":
        """Build an event from a ``(start, finish, label)`` triple."""
        start, finish, label = triple
        return cls(start, finish, str(label))

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.label}@{format_time(self.start)}"
        return (
            f"{self.label}[{format_time(self.start)},"
            f"{format_time(self.finish)}]"
        )


def point_event(t: Timestamp, label: str) -> IntervalEvent:
    """Convenience constructor for an instantaneous event at time ``t``."""
    return IntervalEvent(t, t, label)
