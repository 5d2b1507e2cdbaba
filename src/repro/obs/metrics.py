"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

Dependency-free (no prometheus client) and **zero-cost when off**: no
registry is installed by default, :func:`active_registry` returns ``None``
and instrumented code skips all recording behind a single local check —
the same discipline as :mod:`repro.contracts`. Install one per run with
:func:`use_registry` or ``obs.observe(metrics=True)`` (the CLI's
``--metrics-out`` does exactly that, and so do callers of the harness's
``measure()``), then serialise :meth:`MetricsRegistry.snapshot` as
JSON.

Naming
------
Metrics are identified by a name plus optional string-able labels:
``registry.counter("search.states_by_depth", depth=3)``. Snapshot keys
render as ``name[k=v,...]`` with labels sorted, so snapshots diff
cleanly across runs.

A registry accumulates for as long as it is installed; for per-run
snapshots install a fresh registry per run (the convention everywhere in
this repo).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from contextlib import AbstractContextManager
from typing import Any, Optional, Union

from repro.obs import seam

__all__ = [
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram buckets for durations in seconds (upper bounds).
DURATION_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_LabelKey = tuple[tuple[str, str], ...]
_MetricKey = tuple[str, str, _LabelKey]  # (kind, name, labels)


class Counter:
    """A monotonically increasing value (float so weights/seconds fit)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


class Gauge:
    """A point-in-time value that can move in both directions."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are the inclusive upper bounds, in increasing order; an
    implicit overflow bucket catches everything above the last bound. An
    observation equal to a bound lands in that bound's bucket (the
    ``le`` convention).
    """

    __slots__ = ("bounds", "bucket_counts", "overflow", "count", "total")

    def __init__(self, buckets: Sequence[float] = DURATION_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect_left(self.bounds, value)
        if idx == len(self.bounds):
            self.overflow += 1
        else:
            self.bucket_counts[idx] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form: per-bucket counts plus count/sum/mean."""
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["inf"] = self.overflow
        return {
            "buckets": buckets,
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else None,
        }


_Metric = Union[Counter, Gauge, Histogram]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}[{inner}]"


class MetricsRegistry:
    """Get-or-create store of named metrics with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._metrics: dict[_MetricKey, _Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        key = ("counter", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Counter())
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``name`` + ``labels``."""
        key = ("gauge", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Gauge())
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DURATION_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram registered under ``name`` + ``labels``.

        ``buckets`` only applies on first creation; later calls return
        the existing histogram unchanged.
        """
        key = ("histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Histogram(buckets))
        assert isinstance(metric, Histogram)
        return metric

    def absorb(
        self, totals: Mapping[str, float], *, prefix: str = ""
    ) -> None:
        """Add a mapping of totals (e.g. ``PruneCounters.as_dict()``)
        into same-named counters, optionally prefixed."""
        for name, value in sorted(totals.items()):
            self.counter(prefix + name).inc(float(value))

    def absorb_snapshot(
        self, snapshot: Mapping[str, Any], *, prefix: str = ""
    ) -> None:
        """Merge another registry's :meth:`snapshot` into this one.

        The merge seam for :mod:`repro.engine`: each shard worker runs
        with a private registry and ships its snapshot home, where the
        parent absorbs it under a ``shard.`` prefix. Counters add;
        colliding gauges keep the **maximum** of all absorbed values —
        a deterministic merge regardless of shard completion order
        (under the process executor shards finish in any order, so
        last-write-wins would make snapshots flap between runs);
        histograms are reconstructed bound-for-bound and their counts
        added. Rendered keys (``name[k=v,...]``) are kept verbatim
        apart from the prefix, so absorbed metrics stay diffable
        without re-parsing labels.
        """
        # Iterate sorted so absorption is insensitive to the producer's
        # dict insertion order, not just to per-key independence.
        for key, value in sorted(snapshot.get("counters", {}).items()):
            self.counter(prefix + key).inc(float(value))
        for key, value in sorted(snapshot.get("gauges", {}).items()):
            gauge_key: _MetricKey = ("gauge", prefix + key, ())
            existing = self._metrics.get(gauge_key)
            incoming = float(value)
            if isinstance(existing, Gauge):
                if incoming > existing.value:
                    existing.set(incoming)
            else:
                self.gauge(prefix + key).set(incoming)
        for key, data in sorted(snapshot.get("histograms", {}).items()):
            buckets: Mapping[str, int] = data.get("buckets", {})
            bounds = sorted(
                float(k[3:]) for k in buckets if k.startswith("le_")
            )
            if not bounds:
                continue
            hist = self.histogram(prefix + key, buckets=bounds)
            for bound_key, count in buckets.items():
                if bound_key == "inf":
                    hist.overflow += int(count)
                    continue
                bound = float(bound_key[3:])
                idx = bisect_left(hist.bounds, bound)
                if idx < len(hist.bounds) and hist.bounds[idx] == bound:
                    hist.bucket_counts[idx] += int(count)
                else:
                    # Bounds drifted between shards; don't lose the count.
                    hist.overflow += int(count)
            hist.count += int(data.get("count", 0))
            hist.total += float(data.get("sum", 0.0))

    def snapshot(self) -> dict[str, Any]:
        """Everything recorded so far, as a JSON-serialisable dict.

        Shape: ``{"counters": {key: value}, "gauges": {key: value},
        "histograms": {key: {...}}}`` with keys rendered by name + sorted
        labels. Integral counter/gauge values come back as ``int`` so
        snapshots compare cleanly against integer totals.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        for (kind, name, labels), metric in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            key = _render_key(name, labels)
            if isinstance(metric, Counter):
                counters[key] = _tidy(metric.value)
            elif isinstance(metric, Gauge):
                gauges[key] = _tidy(metric.value)
            else:
                histograms[key] = metric.as_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def _tidy(value: float) -> float:
    """Render integer-valued floats as ints (JSON readability)."""
    return int(value) if float(value).is_integer() else value


# The established public names over the named seam (repro.obs.seam).
def active_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when metrics are off."""
    return seam.METRICS.active()


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Install ``registry`` process-wide (``None`` turns metrics off)."""
    seam.METRICS.install(registry)


def use_registry(
    registry: Optional[MetricsRegistry] = None,
) -> AbstractContextManager[MetricsRegistry]:
    """Scope-install a registry (a fresh one by default); restores on exit."""
    return seam.METRICS.scope(
        MetricsRegistry() if registry is None else registry
    )
