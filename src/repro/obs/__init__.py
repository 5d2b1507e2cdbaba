"""repro.obs — observability for the mining stack.

Tracing, metrics, and live-progress instrumentation, built with the
same **zero-cost-when-disabled** discipline as :mod:`repro.contracts`:
nothing is installed by default, instrumented code guards every
recording site with one local ``None`` check, and enabling is always
explicit and scoped.

Submodules
----------
Nothing here is imported until it is used: every export resolves on
first access (PEP 562; :mod:`repro._lazy`), and a mine loads only the
clock, trace, metrics, recorder and seam modules (with
:mod:`~repro.obs.warnonce`). The collector modules — live, costmodel,
provenance — load when one of their collectors is built, for example
by ``observe(cost=True)``; the rest load when a command uses them.

:mod:`repro.obs.clock`
    The single injectable monotonic clock every timestamp flows through.
:mod:`repro.obs.trace`
    Span-based tracing (``span()`` context manager, ``@traced``
    decorator, JSONL exporter, in-memory collector).
:mod:`repro.obs.metrics`
    Registry of named counters, gauges, and fixed-bucket histograms with
    a JSON-able snapshot.
:mod:`repro.obs.live`
    The one run heartbeat, a live shard telemetry bus: worker-side
    :class:`~repro.obs.live.LiveSink` heartbeats fed by the search
    recorder, parent-side :class:`~repro.obs.live.LiveAggregator`
    lanes/ETA/stragglers (CLI ``mine --live``, alias ``--progress``;
    loaded in live mode only).
:mod:`repro.obs.costmodel`
    Per-root / per-level search cost attribution: which search-tree
    roots the time, states, and prune work go to, merged
    deterministically across shards (CLI ``mine --cost-profile``, and
    every ``--ledger-dir`` mine; loaded then only).
:mod:`repro.obs.provenance`
    Pattern provenance and prune-decision audit: per emitted pattern
    the supporting sids plus one witness embedding each, per killed
    candidate the prune site/level/root, merged deterministically
    across shards (CLI ``mine --provenance``, ``ptpminer explain`` /
    ``why-not`` / ``diff --patterns``; loaded then only).
:mod:`repro.obs.recorder`
    The one path from P-TPMiner's search to every collector above: one
    recorder per search, the only caller of ``record_*`` methods. It
    finds the installed collectors on their seams and imports no
    collector module.
:mod:`repro.obs.seam`
    One named :class:`~repro.obs.seam.CollectorSeam` per collector kind
    (``METRICS``, ``TRACER``, ``LIVE``, ``LIVE_SINK``, ``COST``,
    ``PROVENANCE``): where each installed collector is found, with
    ``active()``, ``install()`` and scoped ``scope()`` defined once.
    Each collector module's ``active_*``/``set_*``/``use_*`` names wrap
    its seam.
:mod:`repro.obs.ledger`
    Persistent append-only run ledger with config/environment
    fingerprints, the result-set digest (``patterns_digest``), and
    cross-run regression diffing (imported on demand; CLI ``mine
    --ledger-dir``, ``ptpminer history``/``diff``).
:mod:`repro.obs.warnonce`
    Once-per-file warning dedup shared by every reader that skips
    garbage lines (trace, live log, ledger), so joined sources don't
    repeat the same corruption warning.
:mod:`repro.obs.chrometrace`
    Chrome trace-event / Perfetto exporter for JSONL span traces
    (imported on demand; run as ``python -m repro.obs.chrometrace``).
:mod:`repro.obs.runreport`
    The one renderer of a run's artifacts: joins a trace, metrics
    snapshot (per-phase / per-depth search tables included), live frame
    log, cost profile and provenance snapshot (imported on demand; CLI
    ``ptpminer report``).
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

:func:`observe` also takes ``tracer``, ``live``, ``cost`` and
``provenance``; the CLI and the engine's shard runner
install through it, and so does any caller of the harness's
``measure()``, which only measures. Each module's ``use_*()`` installs
one. :func:`observe` and :class:`ObsHandles` read and restore every
kind through its named seam, so they import a collector's module only
to build a fresh collector of that kind.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

from repro._lazy import lazy_exports
from repro.obs import seam

if TYPE_CHECKING:
    from repro.obs import (
        clock,
        costmodel,
        live,
        metrics,
        provenance,
        trace,
    )
    from repro.obs.costmodel import CostCollector, use_collector
    from repro.obs.live import LiveCollector, LiveConfig, use_live
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.provenance import ProvenanceCollector
    from repro.obs.seam import CollectorSeam
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
    "ProvenanceCollector",
    "TraceCollector",
    "clock",
    "costmodel",
    "live",
    "metrics",
    "observe",
    "provenance",
    "seam",
    "span",
    "trace",
    "traced",
    "use_collector",
    "use_live",
    "use_registry",
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
    live: Optional[LiveCollector] = None
    cost: Optional[CostCollector] = None
    provenance: Optional[ProvenanceCollector] = None

    @classmethod
    def active(cls) -> "ObsHandles":
        """The collectors installed right now."""
        return cls(*(kind.active() for kind, _module, _class in _KINDS))

    def kinds(self) -> dict[str, bool]:
        """:func:`observe` arguments for fresh collectors of these kinds.

        Every other kind is turned off — live always, since only the
        parent reports it. Plain booleans, so a shard's scope pickles.
        """
        return {
            "metrics": self.registry is not None,
            "tracer": self.tracer is not None,
            "live": False,
            "cost": self.cost is not None,
            "provenance": self.provenance is not None,
        }

    def snapshot(self) -> dict[str, Any]:
        """Every held collector's snapshot, keyed by kind (JSON-able)."""
        from repro.obs import trace as obs_trace

        out: dict[str, Any] = {}
        if self.registry is not None:
            out["metrics"] = self.registry.snapshot()
        if isinstance(self.tracer, obs_trace.TraceCollector):
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


#: ``(seam, module, class)`` per kind, in :func:`observe`'s argument
#: order (metrics, tracer, live, cost, provenance): where the kind is
#: installed, and the collector class ``True`` builds a fresh one of.
#: The class's module is imported only then.
_KINDS: tuple[tuple[seam.CollectorSeam[Any], str, str], ...] = (
    (seam.METRICS, "repro.obs.metrics", "MetricsRegistry"),
    (seam.TRACER, "repro.obs.trace", "TraceCollector"),
    (seam.LIVE, "repro.obs.live", "LiveCollector"),
    (seam.COST, "repro.obs.costmodel", "CostCollector"),
    (seam.PROVENANCE, "repro.obs.provenance", "ProvenanceCollector"),
)


@contextmanager
def observe(
    *,
    metrics: Union[MetricsRegistry, bool, None] = None,
    tracer: Union[trace.Tracer, bool, None] = None,
    live: Union[LiveCollector, bool, None] = None,
    cost: Union[CostCollector, bool, None] = None,
    provenance: Union[ProvenanceCollector, bool, None] = None,
) -> Iterator[ObsHandles]:
    """Install any combination of observability sinks for a scope.

    For each kind, ``True`` installs a fresh instance (a
    :class:`MetricsRegistry`, an in-memory :class:`TraceCollector`, a
    :class:`LiveCollector` rendering to stderr, a :class:`CostCollector`, a
    :class:`ProvenanceCollector`), an instance installs that instance,
    ``False`` turns the kind off for the scope (shadowing whatever is
    installed around it), and ``None`` leaves it as it is. Everything is
    restored on exit. The yielded :class:`ObsHandles` holds what this
    call installed (``None`` for kinds it left alone or turned off).
    """
    sinks: list[Any] = [
        getattr(importlib.import_module(module), name)()
        if value is True
        else value
        for value, (_kind, module, name) in zip(
            (metrics, tracer, live, cost, provenance), _KINDS
        )
    ]
    previous = [kind.active() for kind, _module, _class in _KINDS]
    try:
        for sink, (kind, _module, _class) in zip(sinks, _KINDS):
            if sink is not None:
                kind.install(None if sink is False else sink)
        yield ObsHandles(*(None if sink is False else sink for sink in sinks))
    finally:
        for sink, before, (kind, _module, _class) in zip(
            sinks, previous, _KINDS
        ):
            if sink is not None:
                kind.install(before)


__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs": (
        "clock", "costmodel", "live", "metrics", "provenance", "trace",
    ),
    "repro.obs.costmodel": ("CostCollector", "use_collector"),
    "repro.obs.live": ("LiveCollector", "LiveConfig", "use_live"),
    "repro.obs.metrics": ("MetricsRegistry", "use_registry"),
    "repro.obs.provenance": ("ProvenanceCollector",),
    "repro.obs.seam": ("CollectorSeam",),
    "repro.obs.trace": (
        "JsonlTraceWriter", "TraceCollector", "span", "traced", "use_tracer",
    ),
})
