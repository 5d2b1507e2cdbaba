"""Line decoding and per-file warning dedup for the tolerant JSONL readers.

The observability stack has three append-only JSONL readers that skip
undecodable lines and warn about it: :func:`repro.obs.trace.read_trace`,
:func:`repro.obs.live.read_live_log`, and
:meth:`repro.obs.ledger.RunLedger.entries`. All three decode lines
through :func:`json_lines`. Each used to warn on every call, so joining sources — ``build_run_report`` reads the same live log
once for the summary and once for the shard lanes, ``history`` iterates
a ledger repeatedly — repeated the identical warning for the identical
file. The readers now route through :func:`warn_once`, which keys on
the *resolved path* plus warning category and fires exactly once per
file per process.

A truncated tail is still reported the first time any reader meets it;
the dedup only suppresses the re-reads that follow. :func:`reset`
clears the memory (tests isolate through it; long-lived processes may
call it to re-arm after log rotation).
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Iterator
from typing import Any

__all__ = ["json_lines", "reset", "warn_once"]

#: Files already warned about: ``(resolved path, category name)``.
_seen: set[tuple[str, str]] = set()


def warn_once(
    path: os.PathLike[str] | str,
    message: str,
    category: type[Warning] = UserWarning,
    *,
    stacklevel: int = 3,
) -> bool:
    """Emit ``message`` unless this file already warned this category.

    Returns whether the warning fired. ``stacklevel`` defaults to 3 so
    the warning points at the *reader's caller* (this helper adds one
    frame over a direct ``warnings.warn``). The key resolves symlinks
    and relative paths, so the same file reached two ways still warns
    once.
    """
    try:
        resolved = os.path.realpath(os.fspath(path))
    except (OSError, TypeError):
        resolved = str(path)
    key = (resolved, category.__name__)
    if key in _seen:
        return False
    _seen.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)
    return True


def reset() -> None:
    """Forget every warned file (test isolation; log rotation re-arm)."""
    _seen.clear()


def json_lines(path: os.PathLike[str] | str) -> Iterator[Any]:
    """Each non-blank line of a JSONL file, parsed.

    A line that is not UTF-8 JSON comes back as ``None``, which no
    reader accepts, so it counts as one undecodable line. That includes
    bad UTF-8: a truncated tail can split a multi-byte character.
    """
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    yield json.loads(line)
            except ValueError:  # UnicodeDecodeError is a ValueError
                yield None
