"""repro.obs — observability for the mining stack.

Tracing, metrics, and search-progress instrumentation, built with the
same **zero-cost-when-disabled** discipline as :mod:`repro.contracts`:
nothing is installed by default, instrumented code guards every
recording site with one local ``None`` check, and enabling is always
explicit and scoped.

Submodules
----------
:mod:`repro.obs.clock`
    The single injectable monotonic clock every timestamp flows through.
:mod:`repro.obs.trace`
    Span-based tracing (``span()`` context manager, ``@traced``
    decorator, JSONL exporter, in-memory collector).
:mod:`repro.obs.metrics`
    Registry of named counters, gauges, and fixed-bucket histograms with
    a JSON-able snapshot.
:mod:`repro.obs.progress`
    Throttled search heartbeats (every N nodes or T seconds).
:mod:`repro.obs.live`
    Live shard telemetry bus for sharded runs: worker-side
    :class:`~repro.obs.live.LiveSink` heartbeats fed by the search
    recorder, parent-side :class:`~repro.obs.live.LiveAggregator`
    lanes/ETA/stragglers (CLI ``mine --live``).
:mod:`repro.obs.costmodel`
    Per-root / per-level search cost attribution: which search-tree
    roots the time, states, and prune work go to, merged
    deterministically across shards (CLI ``mine --cost-profile``).
:mod:`repro.obs.provenance`
    Pattern provenance and prune-decision audit: per emitted pattern
    the supporting sids plus one witness embedding each, per killed
    candidate the prune site/level/root, merged deterministically
    across shards (CLI ``mine --provenance``, ``ptpminer explain`` /
    ``why-not`` / ``diff --patterns``).
:mod:`repro.obs.recorder`
    The one path from P-TPMiner's search to every collector above: one
    recorder per search, the only caller of ``record_*`` methods.
:mod:`repro.obs.seam`
    The :class:`~repro.obs.seam.CollectorSeam` primitive behind every
    module-global sink (metrics, progress, live, costmodel,
    provenance): ``active()``, ``install()``, and scoped ``scope()``
    defined exactly once.
:mod:`repro.obs.ledger`
    Persistent append-only run ledger with config/environment
    fingerprints and cross-run regression diffing (imported on
    demand; CLI ``mine --ledger-dir``, ``ptpminer history``/``diff``).
:mod:`repro.obs.planner`
    Predictive shard planning: dataset/workload profiler, per-root
    cost forecasts calibrated from ledger history (static-feature
    fallback), LPT vs round-robin assignment comparison, and the
    post-run plan-vs-actual calibration record (imported on demand;
    CLI ``ptpminer plan``, ``mine --shard-strategy predicted``).
:mod:`repro.obs.warnonce`
    Once-per-file warning dedup shared by every reader that skips
    garbage lines (trace, live log, ledger), so joined sources don't
    repeat the same corruption warning.
:mod:`repro.obs.chrometrace`
    Chrome trace-event / Perfetto exporter for JSONL span traces
    (imported on demand; run as ``python -m repro.obs.chrometrace``).
:mod:`repro.obs.runreport`
    Unified run reports joining a trace, metrics snapshot, and live
    frame log (imported on demand; CLI ``ptpminer report``).
:mod:`repro.obs.report`
    Renders a snapshot as per-phase / per-depth summary tables
    (imported on demand; run as ``python -m repro.obs.report``).
:mod:`repro.obs.profile`
    Per-phase profiling hooks: one ``cProfile`` profile per top-level
    phase span, a collapsed-stack ("folded") exporter for flamegraph
    tooling, and a tracemalloc-based per-phase allocation attributor
    (imported on demand; render with ``python -m repro.obs.profile``).

Enabling
--------
>>> from repro import obs
>>> with obs.observe(metrics=True) as handles:
...     pass  # any mining call here records into handles.registry
>>> sorted(handles.registry.snapshot())
['counters', 'gauges', 'histograms']

:func:`observe` also takes ``tracer``, ``reporter``, ``live``,
``cost`` and ``provenance``; the CLI and the engine's shard runner
install through it, and so does any caller of the harness's
``measure()``, which only measures. Each module's ``use_*()`` installs
one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.obs import (
    clock,
    costmodel,
    live,
    metrics,
    progress,
    provenance,
    seam,
    trace,
)
from repro.obs.costmodel import CostCollector, use_collector
from repro.obs.live import LiveCollector, LiveConfig, use_live
from repro.obs.provenance import ProvenanceCollector
from repro.obs.seam import CollectorSeam
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.progress import ProgressReporter, use_reporter
from repro.obs.trace import (
    JsonlTraceWriter,
    TraceCollector,
    span,
    traced,
    use_tracer,
)

__all__ = [
    "CollectorSeam",
    "CostCollector",
    "JsonlTraceWriter",
    "LiveCollector",
    "LiveConfig",
    "MetricsRegistry",
    "ObsHandles",
    "ProgressReporter",
    "ProvenanceCollector",
    "TraceCollector",
    "clock",
    "costmodel",
    "live",
    "metrics",
    "observe",
    "progress",
    "provenance",
    "seam",
    "span",
    "trace",
    "traced",
    "use_collector",
    "use_live",
    "use_registry",
    "use_reporter",
    "use_tracer",
]


@dataclass(frozen=True, slots=True)
class ObsHandles:
    """A bundle of collectors: what :func:`observe` installed.

    A sharded run moves through one bundle: the parent reads
    :meth:`active` and ships :meth:`kinds` to its workers, each shard
    searches under ``observe(**kinds)`` and ships :meth:`snapshot` home,
    and the parent folds each in with one :meth:`absorb` call.
    """

    registry: Optional[MetricsRegistry] = None
    tracer: Optional[trace.Tracer] = None
    reporter: Optional[ProgressReporter] = None
    live: Optional[LiveCollector] = None
    cost: Optional[CostCollector] = None
    provenance: Optional[ProvenanceCollector] = None

    @classmethod
    def active(cls) -> "ObsHandles":
        """The collectors installed right now."""
        return cls(*(active() for _factory, _install, active in _KINDS))

    def kinds(self) -> dict[str, bool]:
        """:func:`observe` arguments for fresh collectors of these kinds.

        Every other kind is turned off — progress and live always, since
        only the parent reports them. Plain booleans, so a shard's scope
        pickles.
        """
        return {
            "metrics": self.registry is not None,
            "tracer": self.tracer is not None,
            "reporter": False,
            "live": False,
            "cost": self.cost is not None,
            "provenance": self.provenance is not None,
        }

    def snapshot(self) -> dict[str, Any]:
        """Every held collector's snapshot, keyed by kind (JSON-able)."""
        out: dict[str, Any] = {}
        if self.registry is not None:
            out["metrics"] = self.registry.snapshot()
        if isinstance(self.tracer, TraceCollector):
            out["trace"] = self.tracer.events
        if self.cost is not None:
            out["cost"] = self.cost.snapshot()
        if self.provenance is not None:
            out["provenance"] = self.provenance.snapshot()
        return out

    def absorb(
        self,
        snapshot: Mapping[str, Any],
        shard: int,
        parent_span: Optional[int],
    ) -> None:
        """Fold one shard's :meth:`snapshot` into these collectors.

        Trace events are re-emitted with span ids rewritten to
        ``"shard<i>:<id>"``, and parent links to spans the shard did not
        open — ``None`` roots, or stale ids inherited through ``fork`` —
        re-hung under ``parent_span``, so the trace stays one tree.
        Metrics are absorbed under the ``shard.`` prefix; cost and
        provenance merge as keyed unions over disjoint roots.
        """
        events = snapshot.get("trace", ())
        if self.tracer is not None and events:
            own = {event["span"] for event in events}
            for event in events:
                rewritten = dict(event)
                rewritten["span"] = f"shard{shard}:{event['span']}"
                if "parent" in rewritten:
                    parent = event["parent"]
                    rewritten["parent"] = (
                        f"shard{shard}:{parent}" if parent in own
                        else parent_span
                    )
                self.tracer.emit(rewritten)
        if self.registry is not None and "metrics" in snapshot:
            self.registry.absorb_snapshot(snapshot["metrics"], prefix="shard.")
        if self.cost is not None and "cost" in snapshot:
            self.cost.absorb(snapshot["cost"])
        if self.provenance is not None and "provenance" in snapshot:
            self.provenance.absorb(snapshot["provenance"])


#: ``(factory, install, active)`` per kind, in :func:`observe`'s
#: argument order (metrics, tracer, reporter, live, cost, provenance).
_KINDS: tuple[
    tuple[Callable[[], Any], Callable[[Any], None], Callable[[], Any]], ...
] = (
    (MetricsRegistry, metrics.set_registry, metrics.active_registry),
    (TraceCollector, trace.set_tracer, trace.active_tracer),
    (ProgressReporter, progress.set_reporter, progress.active_reporter),
    (LiveCollector, live.set_live, live.active_live),
    (CostCollector, costmodel.set_collector, costmodel.active_collector),
    (ProvenanceCollector, provenance.set_collector, provenance.active_collector),
)


@contextmanager
def observe(
    *,
    metrics: Union[MetricsRegistry, bool, None] = None,
    tracer: Union[trace.Tracer, bool, None] = None,
    reporter: Union[ProgressReporter, bool, None] = None,
    live: Union[LiveCollector, bool, None] = None,
    cost: Union[CostCollector, bool, None] = None,
    provenance: Union[ProvenanceCollector, bool, None] = None,
) -> Iterator[ObsHandles]:
    """Install any combination of observability sinks for a scope.

    For each kind, ``True`` installs a fresh instance (a
    :class:`MetricsRegistry`, an in-memory :class:`TraceCollector`, a
    default stderr :class:`ProgressReporter`, a :class:`LiveCollector`
    rendering to stderr, a :class:`CostCollector`, a
    :class:`ProvenanceCollector`), an instance installs that instance,
    ``False`` turns the kind off for the scope (shadowing whatever is
    installed around it), and ``None`` leaves it as it is. Everything is
    restored on exit. The yielded :class:`ObsHandles` holds what this
    call installed (``None`` for kinds it left alone or turned off).
    """
    sinks: list[Any] = [
        factory() if value is True else value
        for value, (factory, _install, _active) in zip(
            (metrics, tracer, reporter, live, cost, provenance), _KINDS
        )
    ]
    previous = [active() for _factory, _install, active in _KINDS]
    try:
        for sink, (_factory, install, _active) in zip(sinks, _KINDS):
            if sink is not None:
                install(None if sink is False else sink)
        yield ObsHandles(*(None if sink is False else sink for sink in sinks))
    finally:
        for sink, before, (_factory, install, _active) in zip(
            sinks, previous, _KINDS
        ):
            if sink is not None:
                install(before)
