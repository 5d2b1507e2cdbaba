"""Reading input files as UTF-8 text, with errors that name the file."""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any, Optional, TextIO

__all__ = ["load_json_object", "open_utf8"]


@contextmanager
def open_utf8(
    path: str | os.PathLike, newline: Optional[str] = None
) -> Iterator[TextIO]:
    """Open ``path`` for reading as UTF-8 text.

    Bytes that are not UTF-8 raise ``ValueError("<path>:<line>: not
    valid UTF-8")``, in the style of the readers' other malformed-input
    errors, instead of a codec error that names neither.
    """
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                # No multi-byte character holds a newline byte, so the
                # bad line is the first to lose bytes decoded alone.
                line = next(
                    number
                    for number, data in enumerate(raw, start=1)
                    if data.decode("utf-8", "ignore").encode() != data
                )
            raise ValueError(f"{path}:{line}: not valid UTF-8") from exc


def load_json_object(
    path: str | os.PathLike,
    what: str,
    *,
    kind: Optional[str] = None,
    schema: Optional[int] = None,
) -> dict[str, Any]:
    """Load a JSON file that holds one object, a ``what`` (e.g. "cost
    profile"), checking its ``kind``/``schema`` stamps when given.

    Every way the file can be wrong raises a ``ValueError`` naming
    ``path``: bad UTF-8, truncated or garbage JSON, a value that is not
    an object, and a different ``kind`` or ``schema``. A missing or
    unreadable file raises ``OSError``, which names it too.
    """
    with open_utf8(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"unparseable {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"{path}: expected a {what} object, got {type(data).__name__}"
        )
    if kind is not None and data.get("kind") != kind:
        raise ValueError(
            f"{path} is not a {what} "
            f"(kind {data.get('kind')!r}, expected {kind!r})"
        )
    if schema is not None and data.get("schema") != schema:
        raise ValueError(
            f"{path} has schema {data.get('schema')!r}; "
            f"this tool understands schema {schema}"
        )
    return data
