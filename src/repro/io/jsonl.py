"""JSON-lines format for e-sequence databases.

One JSON object per line. An optional first line carries metadata:

.. code-block:: text

    {"_meta": {"name": "asl-sim", "format": "repro-esequences-v1"}}
    {"events": [[3, 9, "fever"], [5, 5, "cough"]]}
    {"events": []}

Events are ``[start, finish, label]`` triples. This is the interchange
format for feeding databases to/from other tooling (pandas, jq, etc.).
"""

from __future__ import annotations

import json
import os

from repro.io._utf8 import open_utf8
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = ["write_jsonl", "read_jsonl", "FORMAT_TAG"]

FORMAT_TAG = "repro-esequences-v1"


def write_jsonl(db: ESequenceDatabase, path: str | os.PathLike) -> None:
    """Write ``db`` to ``path`` as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        meta = {"_meta": {"name": db.name, "format": FORMAT_TAG}}
        handle.write(json.dumps(meta) + "\n")
        for seq in db:
            record = {
                "events": [[ev.start, ev.finish, ev.label] for ev in seq]
            }
            handle.write(json.dumps(record) + "\n")


def read_jsonl(path: str | os.PathLike) -> ESequenceDatabase:
    """Read a database written by :func:`write_jsonl`."""
    name = ""
    sequences: list[ESequence] = []
    with open_utf8(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            record = json.loads(line)
            if "_meta" in record:
                meta = record["_meta"]
                if meta.get("format") not in (None, FORMAT_TAG):
                    raise ValueError(
                        f"{path}:{line_no}: unsupported format tag "
                        f"{meta.get('format')!r}"
                    )
                name = meta.get("name", "")
                continue
            if "events" not in record:
                raise ValueError(
                    f"{path}:{line_no}: record lacks an 'events' field"
                )
            sequences.append(
                ESequence(
                    IntervalEvent(start, finish, label)
                    for start, finish, label in record["events"]
                )
            )
    return ESequenceDatabase(sequences, name=name)
