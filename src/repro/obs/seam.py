"""The shared collector-installation seam.

Every opt-in observability collector in this package — the metrics
registry, the progress reporter, the live collector and a shard's live
sink, the cost collector, the provenance collector — hangs off the same
three-function surface: ``active_*()``
returns the installed instance or ``None``, ``set_*()`` installs one
process-wide, and ``use_*()`` scope-installs a fresh (or given)
instance and restores the previous one on exit. P-TPMiner's search
reads them once per search, through :mod:`repro.obs.recorder`, and
guards every event with a single ``is not None`` branch, so the
disabled path costs one branch (the :mod:`repro.contracts`
discipline).

This module is that surface, written once: each collector module owns a
private :class:`CollectorSeam` and re-exports thin wrappers under its
established public names (``active_registry``/``active_collector``,
…), so callers never see the seam object itself and the per-module
APIs stay exactly as they were.

Workers never inherit a seam's state usefully across a ``fork`` — the
engine scopes private collectors per shard, shadowing inherited ones;
see :mod:`repro.engine`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

__all__ = ["CollectorSeam"]

T = TypeVar("T")


class CollectorSeam(Generic[T]):
    """One module-global installation point for a collector type.

    ``factory`` builds the default instance :meth:`scope` installs when
    called without an argument (e.g. the collector class itself).
    """

    __slots__ = ("_active", "_factory")

    def __init__(self, factory: Callable[[], T]) -> None:
        self._active: Optional[T] = None
        self._factory = factory

    def active(self) -> Optional[T]:
        """The installed collector, or ``None`` when collection is off."""
        return self._active

    def install(self, collector: Optional[T]) -> None:
        """Install ``collector`` process-wide (``None`` turns it off)."""
        self._active = collector

    @contextmanager
    def scope(self, collector: Optional[T] = None) -> Iterator[T]:
        """Scope-install a collector (a fresh one by default).

        Restores whatever was installed before on exit, so scopes nest.
        """
        fresh = collector if collector is not None else self._factory()
        previous = self._active
        self.install(fresh)
        try:
            yield fresh
        finally:
            self.install(previous)
