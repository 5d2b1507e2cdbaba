"""Measurement utilities for the experiment harness.

Wraps a mining call with wall-clock timing and Python-heap peak-memory
tracking (``tracemalloc``), returning a flat :class:`RunMetrics` record
the table/figure renderers consume. Peak memory is the *additional* bytes
allocated during the call — the quantity the paper's memory figure plots
(the candidate sets / projected databases), not the interpreter baseline.
Timing flows through the injectable :mod:`repro.obs.clock`.

The harness only measures. A caller that wants a collector installs it
around the call with the observability layer's own scopes::

    with obs.observe(metrics=True, cost=True) as handles:
        m = measure(lambda: miner.mine(db))
    snapshot = handles.registry.snapshot()

(or :func:`repro.obs.profile.profile_scope` for a per-phase profile).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs import clock as _obs_clock

__all__ = ["RunMetrics", "measure"]


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """One measured run of a callable.

    ``peak_mem_bytes`` is ``None`` when memory tracking was off — the
    renderers show "—" rather than a misleading ``0``.
    """

    result: Any
    elapsed_s: float
    peak_mem_bytes: Optional[int]

    @property
    def peak_mem_mb(self) -> Optional[float]:
        """Peak additional heap in MiB (``None`` when untracked)."""
        if self.peak_mem_bytes is None:
            return None
        return self.peak_mem_bytes / (1024 * 1024)


def measure(
    fn: Callable[[], Any], *, track_memory: bool = True
) -> RunMetrics:
    """Run ``fn`` once, measuring wall time and peak heap growth.

    ``track_memory=False`` skips tracemalloc (which itself slows
    allocation-heavy code noticeably) for pure-runtime experiments;
    ``peak_mem_bytes`` is then ``None``, not ``0``.

    Measurement hygiene:

    * Collectors installed around the call (``obs.observe(...)``)
      allocate inside the tracemalloc window while instrumented code
      runs, so their own few KiB count toward ``peak_mem_bytes``, and
      they add per-candidate work to ``elapsed_s``. A timing or memory
      *baseline* must come from an un-instrumented run, which is what
      :mod:`repro.perf` does.
    * If tracemalloc is *already tracing* when ``measure`` is called
      (nested ``measure``, or an enclosing
      :func:`~repro.obs.profile.profile_scope`), the inner call reuses
      the outer trace: it resets the peak, measures growth relative to
      the current heap, and leaves tracemalloc running on exit.
    * With a sharded callable on the process executor,
      ``peak_mem_bytes`` only tracks the parent process's heap — worker
      allocations are invisible to tracemalloc.
    """
    if not track_memory:
        started = _obs_clock.now()
        result = fn()
        return RunMetrics(result, _obs_clock.now() - started, None)
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    started = _obs_clock.now()
    try:
        result = fn()
        elapsed = _obs_clock.now() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return RunMetrics(result, elapsed, max(0, peak - base))
