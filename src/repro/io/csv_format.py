"""Long-format CSV for e-sequence databases.

One row per event with a header — the layout relational exports and
spreadsheet users expect:

.. code-block:: text

    sid,label,start,finish
    0,fever,3,9
    0,cough,5,5
    1,fever,0,4

Sequence ids must be non-negative integers; gaps are allowed on read
(sequences absent from the file come back empty up to the max sid, which
preserves alignment with external per-sid metadata).
"""

from __future__ import annotations

import csv
import os

from repro.io._utf8 import open_utf8
from repro.io.text_format import _parse_number
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = ["write_csv", "read_csv"]

_HEADER = ("sid", "label", "start", "finish")


def write_csv(db: ESequenceDatabase, path: str | os.PathLike) -> None:
    """Write ``db`` to ``path`` as long-format CSV."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for seq in db:
            for ev in seq:
                writer.writerow([seq.sid, ev.label, ev.start, ev.finish])


def _parse_row(row: list[str]) -> tuple[int, IntervalEvent]:
    if len(row) != 4:
        raise ValueError("expected 4 columns")
    sid = int(row[0])
    if sid < 0:
        raise ValueError(f"negative sid {sid}")
    return sid, IntervalEvent(
        _parse_number(row[2]), _parse_number(row[3]), row[1]
    )


def read_csv(path: str | os.PathLike, name: str = "") -> ESequenceDatabase:
    """Read a database written by :func:`write_csv` (or any file with the
    same ``sid,label,start,finish`` header)."""
    rows: dict[int, list[IntervalEvent]] = {}
    max_sid = -1
    with open_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != _HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(_HEADER)!r}, "
                f"got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                sid, event = _parse_row(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            max_sid = max(max_sid, sid)
            rows.setdefault(sid, []).append(event)
    sequences = [
        ESequence(rows.get(sid, [])) for sid in range(max_sid + 1)
    ]
    return ESequenceDatabase(sequences, name=name)
