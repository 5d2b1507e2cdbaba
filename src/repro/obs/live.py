"""Live shard telemetry bus: the run heartbeat, streamed from the shards.

Since the sharded engine silences worker observability on fork and only
ships it home *after* each shard completes, a long parallel run used to
be a black box: no progress, no ETA, no way to see a straggler shard
until the whole pool drained. This module is the fix — a lightweight
telemetry bus that streams worker heartbeats to the parent **during**
the run:

* :class:`LiveSink` lives worker-side. The engine installs one around
  each shard's search on the ``LIVE_SINK`` seam of :mod:`repro.obs.seam`,
  and the search recorder
  (:mod:`repro.obs.recorder`) reports each finished root candidate to
  it (:meth:`LiveSink.root_done`). The sink throttles those events
  through the injectable :mod:`repro.obs.clock` and publishes compact
  :class:`LiveFrame` payloads (shard id, roots done / total, patterns
  found, cumulative prune-counter totals, rss) onto whatever
  ``publish`` callable it was built with — a direct function for the
  serial executor, the ``put`` of a queue from the process pool's own
  ``multiprocessing`` context for the process executor.
* :class:`LiveAggregator` lives parent-side and is drained from the
  engine's result-collection loop (no extra thread) through
  :func:`aggregate`. It merges frames into per-shard *lanes*, enforces
  monotonic progress, computes a global ETA from per-root expansion
  rates, and flags **stragglers** — shards whose throughput falls below
  ``straggler_factor`` × the median lane throughput.

The bus keeps the repository's zero-cost-when-disabled discipline: it
is never constructed unless a :class:`LiveCollector` is installed
(``obs.observe(live=...)``, which CLI ``--live`` and its alias
``--progress`` use, on one worker too, and harness
callers wrap around ``measure()``), and workers install no sink
otherwise. All throttling reads :func:`repro.obs.clock.now`, so
:class:`~repro.obs.clock.ManualClock` tests can drive heartbeats
deterministically (lint rule R006 bans raw ``time`` imports here).

Frame logs (CLI ``--live-log``) are JSONL, one frame per line, and are
read back tolerantly (:func:`read_live_log`) so ``ptpminer report`` can
parse logs from killed runs.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, TextIO, Union

from repro.obs import clock as _clock
from repro.obs import seam
from repro.obs.warnonce import json_lines, warn_once

__all__ = [
    "LiveAggregator",
    "LiveCollector",
    "LiveConfig",
    "LiveFrame",
    "LiveSink",
    "ShardLane",
    "active_live",
    "aggregate",
    "imbalance",
    "read_live_log",
    "set_live",
    "use_live",
]


def _read_rss_mb() -> Optional[float]:
    """Resident set size of this process in MiB (``None`` if unknown).

    Uses ``resource.getrusage`` — ``ru_maxrss`` is KiB on Linux — so the
    bus stays dependency-free. Platforms without ``resource`` report
    ``None`` rather than guessing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage <= 0:  # pragma: no cover - defensive
        return None
    return usage / 1024.0


@dataclass(frozen=True, slots=True)
class LiveFrame:
    """One heartbeat from one shard, as published on the bus.

    ``counters`` carries the shard's *cumulative*
    :meth:`~repro.core.pruning.PruneCounters.as_dict` totals at emission
    time (cumulative, not deltas, so frames are idempotent to re-ingest
    and late/duplicated frames cannot corrupt the aggregate). ``ts`` is
    the publishing process's :func:`repro.obs.clock.now` and
    ``start_ts`` the shard's start on the same clock (``None`` in logs
    written before it existed); lane rates are computed only from
    same-shard timestamp deltas, so differing clock origins across
    worker processes cannot skew them.
    """

    shard: int
    ts: float
    roots_done: int
    roots_total: int
    patterns: int
    counters: Mapping[str, float] = field(default_factory=dict)
    rss_mb: Optional[float] = None
    final: bool = False
    start_ts: Optional[float] = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (what ``--live-log`` writes, one per line)."""
        return {
            "shard": self.shard,
            "ts": self.ts,
            "roots_done": self.roots_done,
            "roots_total": self.roots_total,
            "patterns": self.patterns,
            "counters": dict(self.counters),
            "rss_mb": self.rss_mb,
            "final": self.final,
            "start_ts": self.start_ts,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LiveFrame":
        """Rebuild a frame from :meth:`as_dict` output (log lines, bus)."""
        return cls(
            shard=int(payload["shard"]),
            ts=float(payload["ts"]),
            roots_done=int(payload["roots_done"]),
            roots_total=int(payload["roots_total"]),
            patterns=int(payload["patterns"]),
            counters=dict(payload.get("counters") or {}),
            rss_mb=(
                None
                if payload.get("rss_mb") is None
                else float(payload["rss_mb"])
            ),
            final=bool(payload.get("final", False)),
            start_ts=(
                None
                if payload.get("start_ts") is None
                else float(payload["start_ts"])
            ),
        )


@dataclass(frozen=True, slots=True)
class LiveConfig:
    """Tuning knobs for live mode.

    ``interval_s`` throttles both worker heartbeats and parent-side
    rendering (injectable-clock seconds). ``straggler_factor`` is the
    ``k`` in the straggler rule *throughput < k · median lane
    throughput*. ``render=False`` keeps the bus silent (frames are still
    aggregated into the collector's summary);
    ``stream=None`` renders to stderr. ``log_path`` appends every
    ingested frame to a JSONL log for ``ptpminer report``.
    """

    interval_s: float = 0.5
    straggler_factor: float = 0.5
    render: bool = True
    stream: Optional[TextIO] = None
    log_path: Optional[str] = None

    def __post_init__(self) -> None:
        """Validate the throttle interval and straggler factor."""
        if self.interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be > 0")


class LiveSink:
    """Worker-side publisher: throttle finished roots into frames.

    Built by the engine in the worker (or inline for the serial
    executor) with the shard's identity and a ``publish`` callable that
    accepts one :meth:`LiveFrame.as_dict` payload. Frames cross the
    process boundary as plain dicts so the bus never depends on class
    pickling compatibility.
    """

    def __init__(
        self,
        shard: int,
        roots_total: int,
        publish: Callable[[dict[str, Any]], None],
        *,
        min_interval_s: float = 0.5,
    ) -> None:
        if roots_total < 0:
            raise ValueError("roots_total must be >= 0")
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be >= 0")
        self.shard = shard
        self.roots_total = roots_total
        self.roots_done = 0
        self.min_interval_s = min_interval_s
        self.frames_published = 0
        self._publish = publish
        self._start_ts = _clock.now()
        self._last_emit: Optional[float] = None

    def root_done(
        self, patterns: int, counters: Mapping[str, float]
    ) -> None:
        """One more root candidate of the shard is finished.

        ``patterns`` and ``counters`` are the shard's totals so far.
        Emits a frame for the first finished root and then at most once
        per ``min_interval_s`` (injectable-clock) seconds. The last
        root's frame is :meth:`finish`'s job, so a fast shard publishes
        exactly two frames (one, if it has a single root) and a lane
        never ends on two complete frames.
        """
        self.roots_done += 1
        if self.roots_done >= self.roots_total:
            return
        now = _clock.now()
        if (
            self._last_emit is not None
            and now - self._last_emit < self.min_interval_s
        ):
            return
        self._emit(now, patterns, counters, final=False)

    def finish(
        self, patterns: int, counters: Mapping[str, float]
    ) -> None:
        """Publish the shard's final frame, every root done (always
        emitted, never throttled)."""
        self.roots_done = self.roots_total
        self._emit(_clock.now(), patterns, counters, final=True)

    def _emit(
        self,
        now: float,
        patterns: int,
        counters: Mapping[str, float],
        *,
        final: bool,
    ) -> None:
        frame = LiveFrame(
            shard=self.shard,
            ts=now,
            roots_done=self.roots_done,
            roots_total=self.roots_total,
            patterns=patterns,
            counters=dict(counters),
            rss_mb=_read_rss_mb(),
            final=final,
            start_ts=self._start_ts,
        )
        self._last_emit = now
        self.frames_published += 1
        self._publish(frame.as_dict())


@dataclass(slots=True)
class ShardLane:
    """Parent-side merged state of one shard's frames."""

    shard: int
    roots_total: int = 0
    roots_done: int = 0
    patterns: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    rss_mb: Optional[float] = None
    frames: int = 0
    final: bool = False

    @property
    def busy_s(self) -> float:
        """Seconds from the shard's start to this lane's last frame.

        The start is the frames' ``start_ts``, or the first frame's
        ``ts`` in logs that predate it.
        """
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts

    @property
    def rate_roots_per_s(self) -> Optional[float]:
        """Roots expanded per second, from same-shard timestamp deltas.

        ``None`` until the lane has both progress and elapsed time.
        """
        busy = self.busy_s
        if busy <= 0 or self.roots_done <= 0:
            return None
        return self.roots_done / busy

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready lane summary (one row of ``summary()['shards']``)."""
        return {
            "roots_done": self.roots_done,
            "roots_total": self.roots_total,
            "patterns": self.patterns,
            "busy_s": round(self.busy_s, 6),
            "rate_roots_per_s": (
                None
                if self.rate_roots_per_s is None
                else round(self.rate_roots_per_s, 6)
            ),
            "rss_mb": self.rss_mb,
            "frames": self.frames,
            "final": self.final,
        }


def imbalance(loads: Sequence[float]) -> Optional[float]:
    """Max/mean over positive loads (``None`` below two positive).

    The one shard-imbalance figure, for live lanes' busy time and
    trace shard spans alike: 1.0 means perfectly balanced, 2.0 means
    the slowest shard carries twice the mean.
    """
    positive = [load for load in loads if load > 0]
    if len(positive) < 2:
        return None
    mean = sum(positive) / len(positive)
    if mean <= 0:
        return None
    return round(max(positive) / mean, 6)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class LiveAggregator:
    """Parent-side merge of shard frames into lanes, ETA, and stragglers.

    Drained from the engine's result-collection loop — :meth:`ingest`
    one frame at a time, no thread. Progress is **monotonic**: a stale
    or re-delivered frame can never move a lane backwards. Straggler
    detection compares each lane's per-root throughput against the
    median across lanes (``straggler_factor`` × median, at least two
    measurable lanes required), which is exactly the skew signature of
    level-1 fan-out sharding: a handful of frequent root symbols
    dominating one shard's runtime.
    """

    def __init__(
        self,
        config: Optional[LiveConfig] = None,
        *,
        shard_totals: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.config = config if config is not None else LiveConfig()
        self.lanes: dict[int, ShardLane] = {}
        self.frames_ingested = 0
        # Root totals are ints; their sum is order-independent.
        self._expected_total = (
            sum(shard_totals.values()) if shard_totals else None  # repro-lint: R013
        )
        if shard_totals:
            for shard, total in sorted(shard_totals.items()):
                self.lanes[shard] = ShardLane(
                    shard=shard, roots_total=total
                )
        self._last_render: Optional[float] = None
        self._last_line: Optional[str] = None
        self._called_out: set[int] = set()
        self._log_handle: Optional[TextIO] = None

    # -- ingestion -----------------------------------------------------
    def ingest(
        self, frame: Union[LiveFrame, Mapping[str, Any]]
    ) -> LiveFrame:
        """Merge one frame (dict payloads accepted) into its lane."""
        if not isinstance(frame, LiveFrame):
            frame = LiveFrame.from_dict(frame)
        lane = self.lanes.get(frame.shard)
        if lane is None:
            lane = ShardLane(shard=frame.shard)
            self.lanes[frame.shard] = lane
        lane.roots_total = max(lane.roots_total, frame.roots_total)
        lane.roots_done = max(lane.roots_done, frame.roots_done)
        lane.patterns = max(lane.patterns, frame.patterns)
        if frame.counters:
            for key, value in frame.counters.items():
                lane.counters[key] = max(
                    lane.counters.get(key, 0.0), float(value)
                )
        start = frame.ts if frame.start_ts is None else frame.start_ts
        if lane.first_ts is None or start < lane.first_ts:
            lane.first_ts = start
        if lane.last_ts is None or frame.ts > lane.last_ts:
            lane.last_ts = frame.ts
        if frame.rss_mb is not None:
            lane.rss_mb = (
                frame.rss_mb
                if lane.rss_mb is None
                else max(lane.rss_mb, frame.rss_mb)
            )
        lane.frames += 1
        lane.final = lane.final or frame.final
        self.frames_ingested += 1
        if self._log_handle is not None:
            self._log_handle.write(
                json.dumps(frame.as_dict(), separators=(",", ":")) + "\n"
            )
        return frame

    # -- derived state -------------------------------------------------
    def _lanes_in_shard_order(self) -> list[ShardLane]:
        """Lanes in ascending shard id.

        Float accumulations over lanes must iterate this, not
        ``self.lanes.values()``: lane insertion order follows frame
        arrival order, which varies run to run, and float addition is
        not associative.
        """
        return [lane for _, lane in sorted(self.lanes.items())]

    @property
    def roots_total(self) -> int:
        """Total root candidates across all lanes (plan-time if known)."""
        observed = sum(lane.roots_total for lane in self.lanes.values())
        if self._expected_total is not None:
            return max(self._expected_total, observed)
        return observed

    @property
    def roots_done(self) -> int:
        """Root candidates expanded so far, across all lanes (monotonic)."""
        return sum(lane.roots_done for lane in self.lanes.values())

    @property
    def patterns(self) -> int:
        """Patterns found so far, across all lanes."""
        return sum(lane.patterns for lane in self.lanes.values())

    def eta_s(self) -> Optional[float]:
        """Seconds until done, from summed per-root lane expansion rates.

        ``None`` until at least one lane has a measurable rate. Finished
        lanes stop contributing rate (their work is done), so the ETA
        tracks the still-running lanes — the stragglers.
        """
        remaining = self.roots_total - self.roots_done
        if remaining <= 0:
            return 0.0
        rate = 0.0
        for lane in self._lanes_in_shard_order():
            lane_rate = lane.rate_roots_per_s
            if lane_rate is not None and not lane.final:
                rate += lane_rate
        if rate <= 0:
            return None
        return remaining / rate

    def stragglers(self) -> list[int]:
        """Shards whose throughput < ``straggler_factor`` × median.

        Needs at least two lanes with measurable rates; a single lane
        has no peers to fall behind.
        """
        rates = {
            lane.shard: rate
            for lane in self.lanes.values()
            if (rate := lane.rate_roots_per_s) is not None
        }
        if len(rates) < 2:
            return []
        median = _median(list(rates.values()))
        if median <= 0:
            return []
        cutoff = self.config.straggler_factor * median
        return sorted(
            shard for shard, rate in rates.items() if rate < cutoff
        )

    def summary(self) -> dict[str, Any]:
        """JSON-ready run summary: global progress, lanes, imbalance.

        ``shard_imbalance`` is max/mean lane busy-time (1.0 = perfectly
        balanced; ``None`` until two lanes have busy time).
        """
        stragglers = self.stragglers()
        shards = {
            str(shard): {
                **lane.as_dict(),
                "straggler": shard in stragglers,
            }
            for shard, lane in sorted(self.lanes.items())
        }
        eta = self.eta_s()
        return {
            "roots_done": self.roots_done,
            "roots_total": self.roots_total,
            "patterns": self.patterns,
            "frames": self.frames_ingested,
            "eta_s": None if eta is None else round(eta, 6),
            "stragglers": stragglers,
            "shard_imbalance": imbalance(
                [lane.busy_s for lane in self._lanes_in_shard_order()]
            ),
            "shards": shards,
        }

    # -- rendering -----------------------------------------------------
    def render_line(self) -> str:
        """One-line view: global progress, ETA, per-shard lanes.

        Lane markers: ``*`` flags a straggler, ``+`` a finished shard.
        """
        total = self.roots_total
        done = self.roots_done
        pct = f"{done / total:.0%}" if total else "—"
        eta = self.eta_s()
        eta_text = "—" if eta is None else f"{eta:.1f}s"
        stragglers = set(self.stragglers())
        lanes = " ".join(
            f"s{lane.shard} {lane.roots_done}/{lane.roots_total}"
            + ("+" if lane.final else "*" if lane.shard in stragglers else "")
            for _, lane in sorted(self.lanes.items())
        )
        return (
            f"[live] roots {done}/{total} ({pct}) eta {eta_text} "
            f"patterns={self.patterns} | {lanes}"
        )

    def maybe_render(self, *, force: bool = False) -> None:
        """Render a lane line (and any new straggler callouts), throttled.

        Rendering is throttled by ``config.interval_s`` through the
        injectable clock; ``force=True`` (the engine's final call)
        bypasses the throttle but prints only a line that differs from
        the last one printed, so a run never ends on a repeated line. A
        straggler callout is printed at most once per shard. With
        ``config.render`` off this is a no-op.
        """
        if not self.config.render:
            return
        now = _clock.now()
        if (
            not force
            and self._last_render is not None
            and now - self._last_render < self.config.interval_s
        ):
            return
        line = self.render_line()
        if force and line == self._last_line:
            return
        self._last_render = now
        self._last_line = line
        stream = (
            self.config.stream
            if self.config.stream is not None
            else sys.stderr
        )
        print(line, file=stream)
        for shard in self.stragglers():
            if shard in self._called_out:
                continue
            self._called_out.add(shard)
            lane = self.lanes[shard]
            rate = lane.rate_roots_per_s
            rates = [
                r
                for peer in self.lanes.values()
                if (r := peer.rate_roots_per_s) is not None
            ]
            median = _median(rates) if rates else 0.0
            print(
                f"[live] straggler: shard {shard} at "
                f"{0.0 if rate is None else rate:.2f} roots/s "
                f"(< {self.config.straggler_factor:.2f}x median "
                f"{median:.2f} roots/s)",
                file=stream,
            )

    # -- frame log -----------------------------------------------------
    def open_log(self) -> None:
        """Start appending ingested frames to ``config.log_path`` (JSONL)."""
        if self.config.log_path is None or self._log_handle is not None:
            return
        self._log_handle = Path(self.config.log_path).open(
            "w", encoding="utf-8"
        )

    def close_log(self) -> None:
        """Flush and close the frame log, if one was opened."""
        if self._log_handle is not None:
            self._log_handle.flush()
            self._log_handle.close()
            self._log_handle = None


def read_live_log(path: Union[str, Path]) -> list[LiveFrame]:
    """Parse a ``--live-log`` JSONL file back into frames, tolerantly.

    Undecodable lines — the truncated tail of a killed run, editor
    garbage — are skipped with a single :class:`UserWarning` naming the
    count, never a crash, so ``ptpminer report`` works on partial runs.
    The warning fires once per *file* per process
    (:mod:`repro.obs.warnonce`): ``build_run_report`` reads the same
    live log for the summary and again for the shard lanes, and used to
    warn twice about the same truncated tail.
    """
    frames: list[LiveFrame] = []
    bad = 0
    for payload in json_lines(path):
        try:
            frames.append(LiveFrame.from_dict(payload))
        except (ValueError, KeyError, TypeError):
            bad += 1
    if bad:
        warn_once(
            path,
            f"{path}: skipped {bad} undecodable live-log line(s) "
            "(truncated or corrupt run?)",
            UserWarning,
        )
    return frames


@dataclass(slots=True)
class LiveCollector:
    """The installable handle live mode hangs off.

    Holds the :class:`LiveConfig` before the run and receives the final
    :meth:`~LiveAggregator.summary` dict after it (:func:`aggregate`);
    ``summary`` stays ``None`` when no sharded run happened in scope.
    """

    config: LiveConfig = field(default_factory=LiveConfig)
    summary: Optional[dict[str, Any]] = None


@contextmanager
def aggregate(
    collector: LiveCollector, shard_totals: Mapping[int, int]
) -> Iterator[Callable[[dict[str, Any]], None]]:
    """Aggregate one sharded run's frames for ``collector``.

    Yields the ``on_frame`` callable the engine feeds each shard's
    frames to. Opens the frame log, ingests and renders each frame, and
    on exit forces the final render, closes the log and stores the run's
    summary on ``collector``. (With live mode off the engine does not
    call this, and does not import this module.)
    """
    aggregator = LiveAggregator(collector.config, shard_totals=shard_totals)
    aggregator.open_log()

    def on_frame(payload: dict[str, Any]) -> None:
        aggregator.ingest(payload)
        aggregator.maybe_render()

    try:
        yield on_frame
    finally:
        aggregator.maybe_render(force=True)
        aggregator.close_log()
        collector.summary = aggregator.summary()


# The public names over the named seams (repro.obs.seam.LIVE, LIVE_SINK).
def active_live() -> Optional[LiveCollector]:
    """The installed live collector, or ``None`` when live mode is off."""
    return seam.LIVE.active()


def set_live(collector: Optional[LiveCollector]) -> None:
    """Install ``collector`` process-wide (``None`` turns live mode off)."""
    seam.LIVE.install(collector)


def use_live(
    collector: Union[LiveCollector, LiveConfig, None] = None,
) -> AbstractContextManager[LiveCollector]:
    """Scope-install a live collector (a fresh one by default).

    A bare :class:`LiveConfig` is wrapped in a fresh collector.
    """
    if isinstance(collector, LiveConfig):
        collector = LiveCollector(config=collector)
    return seam.LIVE.scope(LiveCollector() if collector is None else collector)
