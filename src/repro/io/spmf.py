"""SPMF-compatible interval-sequence format.

SPMF (the reference open-source pattern-mining library) encodes sequences
as whitespace-separated integers with ``-1`` ending each itemset and
``-2`` ending the sequence. Its time-interval algorithms use event
triples; we follow that convention:

.. code-block:: text

    @CONVERTED_FROM_INTERVALS
    @ITEM=0=fever
    @ITEM=1=cough
    0 3 9 -1 1 5 5 -1 -2

Each itemset is one event: ``<label-id> <start> <finish> -1``; ``-2``
terminates the sequence line. ``@ITEM`` header lines map integer ids back
to labels (SPMF's standard label-mapping convention), so the format
round-trips label names exactly. Times are written and read as in the
native text format (:mod:`repro.io.text_format`), so they round-trip
exactly too.
"""

from __future__ import annotations

import os

from repro.io._utf8 import open_utf8
from repro.io.text_format import _format_time, _parse_number
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = ["write_spmf", "read_spmf"]


def write_spmf(db: ESequenceDatabase, path: str | os.PathLike) -> None:
    """Write ``db`` in the SPMF interval format."""
    labels = sorted(db.alphabet)
    ids = {label: i for i, label in enumerate(labels)}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("@CONVERTED_FROM_INTERVALS\n")
        if db.name:
            handle.write(f"@NAME={db.name}\n")
        for label, idx in sorted(ids.items(), key=lambda kv: kv[1]):
            handle.write(f"@ITEM={idx}={label}\n")
        for seq in db:
            parts: list[str] = []
            for ev in seq:
                parts.append(
                    f"{ids[ev.label]} {_format_time(ev.start)} "
                    f"{_format_time(ev.finish)} -1"
                )
            parts.append("-2")
            handle.write(" ".join(parts) + "\n")


def _parse_item(line: str) -> tuple[int, str]:
    """The ``(id, label)`` of an ``@ITEM=<id>=<label>`` line."""
    parts = line.split("=", 2)
    if len(parts) != 3:
        raise ValueError(f"expected '@ITEM=<id>=<label>', got {line!r}")
    return int(parts[1]), parts[2]


def _parse_events(line: str, labels: dict[int, str]) -> list[IntervalEvent]:
    """The events of one ``... -1 -2`` sequence line."""
    tokens = line.split()
    if tokens[-1] != "-2":
        raise ValueError("sequence line must end with -2")
    events = []
    fields: list[str] = []
    for token in tokens[:-1]:
        if token != "-1":
            fields.append(token)
            continue
        if len(fields) != 3:
            raise ValueError(
                f"expected '<id> <start> <finish> -1', got {fields}"
            )
        label_id = int(fields[0])
        if label_id not in labels:
            raise ValueError(f"unknown item id {label_id}")
        events.append(
            IntervalEvent(
                _parse_number(fields[1]),
                _parse_number(fields[2]),
                labels[label_id],
            )
        )
        fields = []
    if fields:
        raise ValueError(f"trailing tokens {fields} before -2")
    return events


def read_spmf(path: str | os.PathLike) -> ESequenceDatabase:
    """Read a database written by :func:`write_spmf`."""
    labels: dict[int, str] = {}
    name = ""
    sequences: list[ESequence] = []
    with open_utf8(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("@ITEM="):
                    label_id, label = _parse_item(line)
                    labels[label_id] = label
                elif line.startswith("@NAME="):
                    name = line[len("@NAME="):]
                elif not line.startswith("@"):
                    sequences.append(ESequence(_parse_events(line, labels)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return ESequenceDatabase(sequences, name=name)
