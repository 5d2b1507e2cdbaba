"""The observability layer's single injectable clock.

Every timestamp the ``repro`` stack records — miner ``elapsed`` fields,
span durations, live heartbeats — is read through this module, not
through ``time`` directly. That buys two things:

* **Determinism in tests.** Installing a :class:`ManualClock` makes
  timing-dependent behaviour (span durations, heartbeat throttling,
  reported ``elapsed``) exactly reproducible.
* **A clean mining core.** Lint rule R006 bans raw ``time`` imports in
  ``repro.core``; the core reads monotonic time via :func:`now` only, so
  all clock policy lives in one place.

The default clock is :func:`time.perf_counter` — monotonic, which is the
only sound choice for durations (wall clocks jump; see lint rule R005).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

__all__ = [
    "ManualClock",
    "clock_scope",
    "get_clock",
    "now",
    "set_clock",
]

#: A clock is any zero-argument callable returning monotonic seconds.
ClockFn = Callable[[], float]

_clock: ClockFn = time.perf_counter


def now() -> float:
    """Monotonic seconds from the currently installed clock."""
    return _clock()


def get_clock() -> ClockFn:
    """The currently installed clock callable."""
    return _clock


def set_clock(clock: ClockFn | None) -> None:
    """Install ``clock`` process-wide (``None`` restores the default)."""
    global _clock
    _clock = clock if clock is not None else time.perf_counter


@contextmanager
def clock_scope(clock: ClockFn) -> Iterator[ClockFn]:
    """Temporarily install ``clock``, restoring the previous one on exit."""
    previous = _clock
    set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(previous)


class ManualClock:
    """A hand-advanced clock for deterministic timing tests.

    >>> clock = ManualClock()
    >>> with clock_scope(clock):
    ...     t0 = now()
    ...     clock.advance(1.5)
    ...     round(now() - t0, 3)
    1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def __call__(self) -> float:
        """Current manual time (makes the instance a valid clock)."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += seconds
