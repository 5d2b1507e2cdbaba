"""Measurement utilities for the experiment harness.

Wraps a mining call with wall-clock timing and Python-heap peak-memory
tracking (``tracemalloc``), returning a flat :class:`RunMetrics` record
the table/figure renderers consume. Peak memory is the *additional* bytes
allocated during the call — the quantity the paper's memory figure plots
(the candidate sets / projected databases), not the interpreter baseline.
Timing flows through the injectable :mod:`repro.obs.clock`, and the
``collect_*`` flags install fresh collectors for the call through one
:func:`repro.obs.observe` scope so sweeps can attach per-run
observability snapshots to their rows.
"""

from __future__ import annotations

import tracemalloc
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs as _obs
from repro.obs import clock as _obs_clock

__all__ = ["RunMetrics", "measure"]


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """One measured run of a callable.

    ``peak_mem_bytes`` is ``None`` when memory tracking was off — the
    renderers show "—" rather than a misleading ``0``. ``obs`` holds the
    run's metrics snapshot when ``collect_obs=True``, else ``None``.
    ``profile`` holds the serialised per-phase profile
    (``ProfileReport.as_dict()``) when ``collect_profile=True``.
    ``workers`` is measurement provenance: how many engine workers the
    measured callable was configured with (1 for sequential runs) —
    sweeps surface it as a column so parallel and serial rows are never
    conflated. ``live_summary`` holds the live telemetry bus's final
    :meth:`~repro.obs.live.LiveAggregator.summary` (per-shard lanes,
    shard imbalance, stragglers) when ``collect_live=True`` and the
    measured callable actually ran the sharded engine, else ``None``.
    ``cost_profile`` holds the per-root / per-level search cost snapshot
    (:meth:`~repro.obs.costmodel.CostCollector.snapshot`) when
    ``collect_cost=True``; callables that never run the instrumented
    search leave its ``roots``/``levels`` empty. ``config_fingerprint``
    is provenance stamped by the caller (see
    :func:`repro.obs.ledger.config_fingerprint`) so measured rows can
    be joined against ledger entries; ``measure`` never computes it.
    ``provenance`` holds the pattern provenance / prune-decision snapshot
    (:meth:`~repro.obs.provenance.ProvenanceCollector.snapshot`) when
    ``collect_provenance=True``; callables that never run the
    instrumented search leave its ``patterns``/``pruned`` maps empty.
    ``plan`` is provenance like ``config_fingerprint``: the shard-plan
    summary (:func:`repro.obs.planner.plan_summary`) the measured
    callable mined under, when the caller built one — sweeps surface
    its predicted imbalance next to the realized one.
    """

    result: Any
    elapsed_s: float
    peak_mem_bytes: Optional[int]
    obs: Optional[dict[str, Any]] = None
    profile: Optional[dict[str, Any]] = None
    workers: int = 1
    live_summary: Optional[dict[str, Any]] = None
    cost_profile: Optional[dict[str, Any]] = None
    config_fingerprint: Optional[str] = None
    provenance: Optional[dict[str, Any]] = None
    plan: Optional[dict[str, Any]] = None

    @property
    def peak_mem_mb(self) -> Optional[float]:
        """Peak additional heap in MiB (``None`` when untracked)."""
        if self.peak_mem_bytes is None:
            return None
        return self.peak_mem_bytes / (1024 * 1024)


def measure(
    fn: Callable[[], Any],
    *,
    track_memory: bool = True,
    collect_obs: bool = False,
    collect_profile: bool = False,
    collect_live: bool = False,
    collect_cost: bool = False,
    collect_provenance: bool = False,
    workers: int = 1,
    fingerprint: Optional[str] = None,
    plan: Optional[dict[str, Any]] = None,
) -> RunMetrics:
    """Run ``fn`` once, measuring wall time and peak heap growth.

    ``track_memory=False`` skips tracemalloc (which itself slows
    allocation-heavy code noticeably) for pure-runtime experiments;
    ``peak_mem_bytes`` is then ``None``, not ``0``. ``collect_obs``,
    ``collect_cost`` and ``collect_provenance`` install a fresh
    :class:`~repro.obs.metrics.MetricsRegistry`,
    :class:`~repro.obs.costmodel.CostCollector` and
    :class:`~repro.obs.provenance.ProvenanceCollector` around the call
    in one :func:`repro.obs.observe` scope and return their snapshots in
    :attr:`RunMetrics.obs`, :attr:`RunMetrics.cost_profile` and
    :attr:`RunMetrics.provenance`; sharded callables merge worker
    snapshots into them through the engine, bit-for-bit equal to a
    serial run's. ``collect_profile=True`` scopes a per-phase
    :class:`~repro.obs.profile.PhaseProfiler` (memory attribution on iff
    ``track_memory``) outside those and returns its serialised report in
    :attr:`RunMetrics.profile`. ``collect_live=True`` adds a silent
    (``render=False``) live telemetry collector to the same
    :func:`repro.obs.observe` scope — if the callable runs
    :func:`repro.engine.mine_sharded`, :attr:`RunMetrics.live_summary`
    carries the final lane summary (shard imbalance, stragglers), else
    ``None``.

    Measurement hygiene — how the flags interact:

    * ``collect_obs=True`` with ``track_memory=True`` installs the
      registry *outside* the tracemalloc window, so the registry's own
      allocations (counter/histogram dicts) **do** count toward
      ``peak_mem_bytes`` while instrumented code runs. The effect is a
      few KiB — negligible next to candidate sets, but not zero; a
      memory *baseline* must therefore come from a plain
      ``track_memory=True`` run with both collection flags off, which is
      exactly what :mod:`repro.perf` enforces by timing and
      memory-measuring in separate, un-instrumented runs.
    * ``collect_profile=True`` inflates ``elapsed_s`` (cProfile hooks
      every call; tracemalloc every allocation) — profile numbers
      attribute cost, they are not benchmark timings.
    * ``collect_cost=True`` adds per-candidate recording inside the
      search (a dict update per frequent candidate); the cost is small
      but real, so benchmark timings keep it off, same as the registry.
    * ``collect_provenance=True`` records every emitted pattern's
      support set and every prune decision — the heaviest of the
      collectors by memory (one entry per candidate), so benchmark
      timings keep it off too.
    * If tracemalloc is *already tracing* when ``measure`` is called
      (nested ``measure``, or an enclosing
      :func:`~repro.obs.profile.profile_scope`), the inner call reuses
      the outer trace: it resets the peak, measures growth relative to
      the current heap, and leaves tracemalloc running on exit.

    ``workers`` is pure provenance: it does not change how ``fn`` runs
    (the callable itself decides that, e.g. via
    :func:`repro.engine.mine_sharded`), it only stamps the returned
    :attr:`RunMetrics.workers` so downstream rows carry the setting.
    ``fingerprint`` is provenance the same way — it is stamped onto
    :attr:`RunMetrics.config_fingerprint` unchanged. Note that with
    ``workers > 1`` and a process executor, ``peak_mem_bytes`` only
    tracks the parent process's heap — worker allocations are invisible
    to tracemalloc.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    profiler = None
    # Outermost first: the profiler wraps the collectors, and the
    # tracemalloc window is innermost.
    with ExitStack() as stack:
        if collect_profile:
            from repro.obs.profile import profile_scope

            profiler = stack.enter_context(profile_scope(memory=track_memory))
        handles = stack.enter_context(
            _obs.observe(
                metrics=collect_obs or None,
                live=(
                    _obs.LiveCollector(_obs.LiveConfig(render=False))
                    if collect_live
                    else None
                ),
                cost=collect_cost or None,
                provenance=collect_provenance or None,
            )
        )
        result, elapsed, peak_mem = _run_measured(fn, track_memory)
    return RunMetrics(
        result,
        elapsed,
        peak_mem,
        handles.registry.snapshot() if handles.registry is not None else None,
        profiler.report().as_dict() if profiler is not None else None,
        workers,
        handles.live.summary if handles.live is not None else None,
        cost_profile=(
            handles.cost.snapshot() if handles.cost is not None else None
        ),
        config_fingerprint=fingerprint,
        provenance=(
            handles.provenance.snapshot()
            if handles.provenance is not None
            else None
        ),
        plan=plan,
    )


def _run_measured(
    fn: Callable[[], Any], track_memory: bool
) -> tuple[Any, float, Optional[int]]:
    """Call ``fn``: its result, wall seconds and peak heap growth."""
    if not track_memory:
        started = _obs_clock.now()
        result = fn()
        return result, _obs_clock.now() - started, None
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
    return result, elapsed, max(0, peak - base)
