"""Native text format for e-sequence databases and pattern lists.

Database format — one e-sequence per line, events separated by ``;``,
each event ``label,start,finish`` (a point event has ``start == finish``):

.. code-block:: text

    # name: my-dataset
    fever,3,9;cough,5,5;rash,7,12
    fever,0,4

Lines starting with ``#`` are comments; ``# name:`` in the header names
the database. Labels may not contain ``,``, ``;`` or newlines (enforced
at write time). Timestamps are written exactly: as integers when
integral, otherwise by ``repr``; an integer reads back as an exact
``int`` of any size. SPMF and CSV use the same number reader.

Pattern-list format — one pattern per line, ``support<TAB>pattern`` using
the :meth:`TemporalPattern.__str__` syntax:

.. code-block:: text

    412	(A+ B+) (A-) (B-)
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.io._utf8 import open_utf8
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.pattern import PatternWithSupport, TemporalPattern
from repro.model.sequence import ESequence

__all__ = [
    "write_database",
    "read_database",
    "write_patterns",
    "read_patterns",
]

_FORBIDDEN = (",", ";", "\n", "\r")


def _format_time(value: float) -> str:
    """A timestamp as every format writes it, exactly: integral values
    as integers, others by ``repr``."""
    return str(int(value)) if float(value).is_integer() else repr(value)


def write_database(db: ESequenceDatabase, path: str | os.PathLike) -> None:
    """Write ``db`` to ``path`` in the native text format."""
    with open(path, "w", encoding="utf-8") as handle:
        if db.name:
            handle.write(f"# name: {db.name}\n")
        for seq in db:
            parts = []
            for ev in seq:
                if any(ch in ev.label for ch in _FORBIDDEN):
                    raise ValueError(
                        f"label {ev.label!r} contains a reserved character"
                    )
                parts.append(
                    f"{ev.label},{_format_time(ev.start)},"
                    f"{_format_time(ev.finish)}"
                )
            handle.write(";".join(parts) + "\n")


def _parse_number(text: str) -> float:
    """A number as every format reads it: an integer literal exactly
    (an ``int`` of any size); anything else as a float, which becomes
    an ``int`` when integral."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        return int(value) if value.is_integer() else value


def _parse_events(line: str) -> list[IntervalEvent]:
    """The events of one sequence line."""
    events = []
    for chunk in line.split(";"):
        fields = chunk.split(",")
        if len(fields) != 3:
            raise ValueError(f"malformed event {chunk!r}")
        label, start_text, finish_text = fields
        events.append(
            IntervalEvent(
                _parse_number(start_text), _parse_number(finish_text), label
            )
        )
    return events


def read_database(path: str | os.PathLike) -> ESequenceDatabase:
    """Read a database written by :func:`write_database`."""
    name = ""
    sequences: list[ESequence] = []
    with open_utf8(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                sequences.append(ESequence([]))
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("name:"):
                    name = body[len("name:"):].strip()
                continue
            try:
                events = _parse_events(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            sequences.append(ESequence(events))
    return ESequenceDatabase(sequences, name=name)


def write_patterns(
    patterns: Iterable[PatternWithSupport], path: str | os.PathLike
) -> None:
    """Write a pattern list as ``support<TAB>pattern`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for item in patterns:
            handle.write(f"{item.support}\t{item.pattern}\n")


def _parse_pattern_line(line: str) -> PatternWithSupport:
    support_text, _, pattern_text = line.partition("\t")
    if not pattern_text:
        raise ValueError("expected 'support<TAB>pattern'")
    pattern = TemporalPattern.parse(pattern_text)
    if not pattern.is_complete:
        # Mined patterns are complete, so the line was cut short.
        raise ValueError(f"incomplete pattern {pattern_text!r}")
    return PatternWithSupport(pattern, _parse_number(support_text))


def read_patterns(path: str | os.PathLike) -> list[PatternWithSupport]:
    """Read a pattern list written by :func:`write_patterns`.

    A pattern with an interval left open is rejected: every pattern
    :func:`write_patterns` writes is a mined, complete one.
    """
    out: list[PatternWithSupport] = []
    with open_utf8(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(_parse_pattern_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return out
