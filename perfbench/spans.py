"""The benchmark's own span recorder, kept in memory and written at exit.

Spans wrap the benchmark's calls into the program's public functions;
nothing inside the program is instrumented. Events use the repository's
trace JSONL shape, so ``python -m repro.obs.chrometrace`` renders them::

    {"ev": "B", "span": 3, "parent": 1, "name": "io.read", "ts": 0.12, "run": "..."}
    {"ev": "E", "span": 3, "name": "io.read", "ts": 0.15, "dur": 0.03}

Counts recorded at a span's boundary are stored on its begin event, the
event whose attributes the Chrome exporter shows.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Any

__all__ = ["Recorder", "self_times"]

_BEGIN_KEYS = frozenset({"ev", "span", "parent", "name", "ts", "run"})


class Recorder:
    """Collects spans of one run; every begin event carries ``run_id``."""

    def __init__(self, run_id: str, origin: float | None = None) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter() if origin is None else origin
        self.events: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the body as span ``name``; yields the begin event.

        Store counts on the yielded dict to record them at this span.
        """
        begin: dict[str, Any] = {
            "ev": "B",
            "span": self._next_id,
            "parent": self._stack[-1]["span"] if self._stack else None,
            "name": name,
            "ts": 0.0,
            "run": self.run_id,
            **attrs,
        }
        self._next_id += 1
        self.events.append(begin)
        self._stack.append(begin)
        started = time.perf_counter()
        begin["ts"] = started - self.origin
        try:
            yield begin
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.events.append(
                {
                    "ev": "E",
                    "span": begin["span"],
                    "name": name,
                    "ts": ended - self.origin,
                    "dur": ended - started,
                }
            )

    def find(self, name: str) -> dict[str, Any]:
        """The begin event of the first span called ``name``."""
        return next(
            ev for ev in self.events if ev["ev"] == "B" and ev["name"] == name
        )

    def durations(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = {}
        for event in self.events:
            if event["ev"] == "E":
                out[event["name"]] = out.get(event["name"], 0.0) + event["dur"]
        return out

    def counts(self) -> dict[str, dict[str, Any]]:
        """The counts recorded at each span, by span name."""
        return {
            ev["name"]: {
                key: value
                for key, value in ev.items()
                if key not in _BEGIN_KEYS
            }
            for ev in self.events
            if ev["ev"] == "B"
        }

    def write_jsonl(self, path: str) -> None:
        """Write every event, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")


def self_times(events: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name: duration minus what its children cover.

    A child's interval is clipped to its parent's, and overlapping
    children count once, so the result is never negative.
    """
    begins = {ev["span"]: ev for ev in events if ev["ev"] == "B"}
    intervals: dict[Any, tuple[float, float]] = {}
    for event in events:
        if event["ev"] == "E" and event["span"] in begins:
            start = begins[event["span"]]["ts"]
            intervals[event["span"]] = (start, start + event["dur"])
    children: dict[Any, list[tuple[float, float]]] = {}
    for span_id, begin in begins.items():
        parent = begin.get("parent")
        if parent in intervals and span_id in intervals:
            lo, hi = intervals[parent]
            start, end = intervals[span_id]
            start, end = max(start, lo), min(end, hi)
            if end > start:
                children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for span_id, (start, end) in intervals.items():
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, [])):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        name = begins[span_id]["name"]
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
