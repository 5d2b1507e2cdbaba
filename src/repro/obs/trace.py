"""Span-based tracing for the mining stack.

A *span* is a named, timed region of work — ``span("encode")`` around
database encoding, ``span("project")`` around one projection step — and
spans nest, forming the trace tree of a mining run. Instrumented code
opens spans with the :func:`span` context manager or the :func:`traced`
decorator; where the events go is decided by the installed *tracer*:

* :class:`TraceCollector` keeps events in memory (tests, ad-hoc
  inspection);
* :class:`JsonlTraceWriter` streams one JSON object per span start/end
  to a file — the format the CLI's ``--trace FILE`` emits and
  :func:`read_trace` parses back.

**Zero-cost when off**: with no tracer *and* no metrics registry
installed, :func:`span` yields immediately — no clock read, no
allocation. When a :class:`~repro.obs.metrics.MetricsRegistry` is active,
every span additionally accumulates its duration into the
``phase_seconds[phase=<name>]`` counter, so phase breakdowns work with
``--metrics-out`` alone (no trace file needed). All timestamps come from
the injectable :mod:`repro.obs.clock`.

Event format (one dict / JSONL line per event)::

    {"ev": "B", "span": 3, "parent": 1, "name": "project", "ts": 0.12, ...attrs}
    {"ev": "E", "span": 3, "name": "project", "ts": 0.15, "dur": 0.03}

``"err"`` appears on the end event when the span exited via an
exception (the exception type name); the exception always propagates.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Optional, Protocol, TextIO, TypeVar, Union, overload

from repro.obs import clock as _clock
from repro.obs import seam
from repro.obs.warnonce import json_lines, warn_once

__all__ = [
    "JsonlTraceWriter",
    "TraceCollector",
    "Tracer",
    "active_tracer",
    "current_span_id",
    "read_trace",
    "set_tracer",
    "span",
    "traced",
    "use_tracer",
]


class Tracer(Protocol):
    """Anything that can receive span events (plain dicts)."""

    def emit(self, event: dict[str, Any]) -> None:
        """Consume one span start/end event."""
        ...


class TraceCollector:
    """In-memory tracer: keeps every event, with span-pairing helpers."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        """Append one event."""
        self.events.append(event)

    def finished(self, name: Optional[str] = None) -> list[dict[str, Any]]:
        """End events (optionally only for spans called ``name``)."""
        return [
            ev
            for ev in self.events
            if ev["ev"] == "E" and (name is None or ev["name"] == name)
        ]

    def span_names(self) -> list[str]:
        """Names of all started spans, in start order."""
        return [ev["name"] for ev in self.events if ev["ev"] == "B"]

    def tree_depths(self) -> dict[int, int]:
        """Map span id -> nesting depth (roots at 0), from parent links."""
        depths: dict[int, int] = {}
        parents = {
            ev["span"]: ev["parent"] for ev in self.events if ev["ev"] == "B"
        }
        for span_id, parent in parents.items():
            depth = 0
            while parent is not None:
                depth += 1
                parent = parents.get(parent)
            depths[span_id] = depth
        return depths


class JsonlTraceWriter:
    """Tracer streaming one compact JSON object per event to a handle."""

    def __init__(self, handle: TextIO, *, close_handle: bool = False) -> None:
        self._handle = handle
        self._close_handle = close_handle

    @classmethod
    def open(cls, path: Union[str, Path]) -> "JsonlTraceWriter":
        """Create a writer owning a fresh file at ``path``."""
        return cls(
            Path(path).open("w", encoding="utf-8"), close_handle=True
        )

    def emit(self, event: dict[str, Any]) -> None:
        """Write one event as a JSONL line."""
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        """Flush, and close the handle if this writer opened it."""
        self._handle.flush()
        if self._close_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        """Context-manager support (closes on exit)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the writer."""
        self.close()


def read_trace(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into its event dicts, tolerantly.

    Undecodable lines — typically the truncated tail of a killed run —
    are skipped with a single :class:`UserWarning` naming the count
    instead of a crash, so ``ptpminer report`` and the Chrome-trace
    exporter work on partial traces. Lines that decode to something
    other than an object are treated the same way. The warning fires
    once per *file* per process (:mod:`repro.obs.warnonce`), so joined
    readers re-reading the same trace do not repeat it.
    """
    events: list[dict[str, Any]] = []
    bad = 0
    for event in json_lines(path):
        if isinstance(event, dict):
            events.append(event)
        else:
            bad += 1
    if bad:
        warn_once(
            path,
            f"{path}: skipped {bad} undecodable trace line(s) "
            "(truncated or corrupt run?)",
            UserWarning,
        )
    return events


# The seams every span reads (the metrics registry's for the
# phase_seconds counter), bound here because span() runs once per
# search node and extension.
_TRACER = seam.TRACER
_METRICS = seam.METRICS
_span_stack: list[int] = []
_next_id = 1


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _TRACER.active()


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or ``None`` at the trace root.

    :mod:`repro.engine` uses this as the parent link when re-emitting a
    worker's span events into the parent trace, so shard subtrees hang
    off the span that dispatched them.
    """
    return _span_stack[-1] if _span_stack else None


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` process-wide (``None`` turns tracing off)."""
    _TRACER.install(tracer)


def use_tracer(tracer: Tracer) -> AbstractContextManager[Tracer]:
    """Scope-install a tracer; restores the previous one on exit."""
    return _TRACER.scope(tracer)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Open a named span around a block of work.

    Emits start/end events to the active tracer (if any) and adds the
    span's duration to the active metrics registry's
    ``phase_seconds[phase=<name>]`` counter (if any). With neither
    installed this is a no-op. Exception-safe: the end event always
    fires, tagged with the exception type, and the exception propagates.
    """
    global _next_id
    tracer = _TRACER.active()
    registry = _METRICS.active()
    if tracer is None and registry is None:
        yield
        return
    started = _clock.now()
    span_id = _next_id
    _next_id += 1
    if tracer is not None:
        event: dict[str, Any] = {
            "ev": "B",
            "span": span_id,
            "parent": _span_stack[-1] if _span_stack else None,
            "name": name,
            "ts": round(started, 9),
        }
        event.update(attrs)
        tracer.emit(event)
    _span_stack.append(span_id)
    error: Optional[str] = None
    try:
        yield
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        _span_stack.pop()
        ended = _clock.now()
        if tracer is not None:
            end_event: dict[str, Any] = {
                "ev": "E",
                "span": span_id,
                "name": name,
                "ts": round(ended, 9),
                "dur": round(ended - started, 9),
            }
            if error is not None:
                end_event["err"] = error
            tracer.emit(end_event)
        if registry is not None:
            registry.counter("phase_seconds", phase=name).inc(
                ended - started
            )


_F = TypeVar("_F", bound=Callable[..., Any])


@overload
def traced(name_or_func: _F) -> _F: ...


@overload
def traced(
    name_or_func: Optional[str] = None,
) -> Callable[[_F], _F]: ...


def traced(
    name_or_func: Union[str, Callable[..., Any], None] = None,
) -> Any:
    """Decorator form of :func:`span`.

    Use bare (``@traced``, span named after the function) or with an
    explicit name (``@traced("encode")``). When no tracer or registry is
    installed the wrapper falls straight through to the function.
    """

    def decorate(
        func: Callable[..., Any], span_name: Optional[str] = None
    ) -> Callable[..., Any]:
        label = span_name if span_name is not None else func.__qualname__

        @wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _TRACER.active() is None and _METRICS.active() is None:
                return func(*args, **kwargs)
            with span(label):
                return func(*args, **kwargs)

        return wrapper

    if callable(name_or_func):
        return decorate(name_or_func)
    text_name = name_or_func

    def bind(func: Callable[..., Any]) -> Callable[..., Any]:
        return decorate(func, text_name)

    return bind
