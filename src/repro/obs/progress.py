"""Throttled search-progress heartbeats.

A long mining run is a silent depth-first search; this module gives it a
pulse. The search calls :meth:`ProgressReporter.tick` once per expanded
node and the run calls :meth:`ProgressReporter.finish` once (nothing
runs unless a reporter is installed), and the reporter emits a
:class:`ProgressEvent` every ``every_nodes`` nodes *or* every
``min_interval_s`` seconds, whichever comes first. Events carry
ETA-free *rate* statistics (nodes/s, prune rate, patterns found, current
frontier depth) — honest signals of whether a run is progressing or
stuck, without pretending the search-tree size is predictable.

Consume events with a callback, or let the default formatter print
single stderr lines (what the CLI's ``--progress`` flag does)::

    [progress] nodes=12000 (8432/s) depth=5 patterns=140 pruned=43.1% of 27910
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Optional, TextIO

from repro.obs import clock as _clock
from repro.obs.seam import CollectorSeam

__all__ = [
    "ProgressEvent",
    "ProgressReporter",
    "active_reporter",
    "format_event",
    "set_reporter",
    "use_reporter",
]


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One heartbeat of a running search."""

    nodes: int
    elapsed_s: float
    nodes_per_s: float
    depth: int
    patterns: int
    candidates: int
    pruned: int
    final: bool = False

    @property
    def prune_rate(self) -> float:
        """Fraction of considered candidates/branches pruned so far."""
        return self.pruned / self.candidates if self.candidates else 0.0


def format_event(event: ProgressEvent) -> str:
    """Render one heartbeat as the CLI's single stderr line."""
    tag = "done" if event.final else "progress"
    return (
        f"[{tag}] nodes={event.nodes} ({event.nodes_per_s:,.0f}/s) "
        f"depth={event.depth} patterns={event.patterns} "
        f"pruned={event.prune_rate:.1%} of {event.candidates}"
    )


class ProgressReporter:
    """Throttle per-node ticks into periodic :class:`ProgressEvent`\\ s.

    Parameters
    ----------
    callback:
        Receives each emitted event. Defaults to printing
        :func:`format_event` lines to ``stream``.
    every_nodes:
        Emit at least every N ticks.
    min_interval_s:
        Also emit when this much (injectable-clock) time has passed
        since the last emission, even if fewer than N nodes ran.
    stream:
        Target of the default callback (``sys.stderr`` when ``None``).
    """

    def __init__(
        self,
        callback: Optional[Callable[[ProgressEvent], None]] = None,
        *,
        every_nodes: int = 5000,
        min_interval_s: float = 1.0,
        stream: Optional[TextIO] = None,
    ) -> None:
        if every_nodes < 1:
            raise ValueError("every_nodes must be >= 1")
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be >= 0")
        self.every_nodes = every_nodes
        self.min_interval_s = min_interval_s
        self._callback = callback
        self._stream = stream
        self.events_emitted = 0
        self._nodes = 0
        self._started: Optional[float] = None
        self._last_emit_time = 0.0
        self._last_emit_nodes = 0

    def tick(
        self, *, depth: int, patterns: int, candidates: int, pruned: int
    ) -> None:
        """Record one search node; emit a heartbeat when due."""
        now = _clock.now()
        if self._started is None:
            self._started = now
            self._last_emit_time = now
        self._nodes += 1
        due_nodes = self._nodes - self._last_emit_nodes >= self.every_nodes
        due_time = now - self._last_emit_time >= self.min_interval_s
        if due_nodes or due_time:
            self._emit(
                now,
                nodes=self._nodes,
                depth=depth,
                patterns=patterns,
                candidates=candidates,
                pruned=pruned,
                final=False,
            )

    def finish(
        self, *, nodes: int, depth: int, patterns: int, candidates: int,
        pruned: int,
    ) -> None:
        """Emit the final heartbeat (always fires if any node ticked).

        ``nodes`` is the run's total, not the ticks this reporter saw: a
        sharded run's workers never tick the parent's reporter.
        """
        if self._started is None:
            return
        self._emit(
            _clock.now(),
            nodes=nodes,
            depth=depth,
            patterns=patterns,
            candidates=candidates,
            pruned=pruned,
            final=True,
        )

    def _emit(
        self,
        now: float,
        *,
        nodes: int,
        depth: int,
        patterns: int,
        candidates: int,
        pruned: int,
        final: bool,
    ) -> None:
        assert self._started is not None
        elapsed = now - self._started
        event = ProgressEvent(
            nodes=nodes,
            elapsed_s=elapsed,
            nodes_per_s=nodes / elapsed if elapsed > 0 else 0.0,
            depth=depth,
            patterns=patterns,
            candidates=candidates,
            pruned=pruned,
            final=final,
        )
        self._last_emit_time = now
        self._last_emit_nodes = self._nodes
        self.events_emitted += 1
        if self._callback is not None:
            self._callback(event)
        else:
            stream = self._stream if self._stream is not None else sys.stderr
            print(format_event(event), file=stream)


# Installation seam: one shared implementation (repro.obs.seam) behind
# the module's established public names.
_seam: CollectorSeam[ProgressReporter] = CollectorSeam(ProgressReporter)


def active_reporter() -> Optional[ProgressReporter]:
    """The installed reporter, or ``None`` when progress is off."""
    return _seam.active()


def set_reporter(reporter: Optional[ProgressReporter]) -> None:
    """Install ``reporter`` process-wide (``None`` turns progress off)."""
    _seam.install(reporter)


def use_reporter(
    reporter: Optional[ProgressReporter] = None,
) -> AbstractContextManager[ProgressReporter]:
    """Scope-install a reporter (a default stderr one when omitted);
    restores the previous one on exit."""
    return _seam.scope(reporter)
