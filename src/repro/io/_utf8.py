"""Reading input files as UTF-8 text, with errors that name the line."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Optional, TextIO

__all__ = ["open_utf8"]


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
