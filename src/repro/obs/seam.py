"""The named collector seams: where every installed collector is found.

Every opt-in observability collector — the metrics registry, the
tracer, the live collector and a shard's live sink, the cost collector,
the provenance collector — is installed on one named
:class:`CollectorSeam` defined here: :data:`METRICS`, :data:`TRACER`,
:data:`LIVE`, :data:`LIVE_SINK`, :data:`COST` and :data:`PROVENANCE`.
``active()`` returns the installed instance or ``None``, ``install()``
installs one process-wide, and ``scope()`` installs one and restores
the previous one on exit.

Because the seams live here and not in the collector modules, readers
find the installed collectors without importing a collector's module:
P-TPMiner's search reads them once per search through
:mod:`repro.obs.recorder` and guards every event with a single
``is not None`` branch (the :mod:`repro.contracts` discipline), and
:func:`repro.obs.observe` reads and restores them all. A collector
module is imported only when something builds one of its collectors.

Each collector module keeps its established public wrappers over its
seam (``active_registry``/``set_registry``/``use_registry``,
``active_collector``, ``use_sink``, …), so callers never need the
seam objects themselves.

Workers never inherit a seam's state usefully across a ``fork`` — the
engine scopes private collectors per shard, shadowing inherited ones;
see :mod:`repro.engine`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Generic, Iterator, Optional, TypeVar

if TYPE_CHECKING:
    from repro.obs.costmodel import CostCollector
    from repro.obs.live import LiveCollector, LiveSink
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.provenance import ProvenanceCollector
    from repro.obs.trace import Tracer

__all__ = [
    "COST",
    "CollectorSeam",
    "LIVE",
    "LIVE_SINK",
    "METRICS",
    "PROVENANCE",
    "TRACER",
]

T = TypeVar("T")


class CollectorSeam(Generic[T]):
    """One process-wide installation point for a collector kind."""

    __slots__ = ("_active",)

    def __init__(self) -> None:
        self._active: Optional[T] = None

    def active(self) -> Optional[T]:
        """The installed collector, or ``None`` when collection is off."""
        return self._active

    def install(self, collector: Optional[T]) -> None:
        """Install ``collector`` process-wide (``None`` turns it off)."""
        self._active = collector

    @contextmanager
    def scope(self, collector: T) -> Iterator[T]:
        """Install ``collector`` for a scope.

        Restores whatever was installed before on exit, so scopes nest.
        """
        previous = self._active
        self.install(collector)
        try:
            yield collector
        finally:
            self.install(previous)


METRICS: CollectorSeam[MetricsRegistry] = CollectorSeam()
TRACER: CollectorSeam[Tracer] = CollectorSeam()
LIVE: CollectorSeam[LiveCollector] = CollectorSeam()
#: The sink of the shard searching right now (none outside a shard).
LIVE_SINK: CollectorSeam[Optional[LiveSink]] = CollectorSeam()
COST: CollectorSeam[CostCollector] = CollectorSeam()
PROVENANCE: CollectorSeam[ProvenanceCollector] = CollectorSeam()
