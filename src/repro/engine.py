"""Parallel sharded mining engine.

The engine parallelizes P-TPMiner by sharding its **level-1 fan-out**:
the parent process runs the root of the search exactly once
(:meth:`~repro.core.ptpminer.PTPMiner.plan` — validation, point
pruning, encoding, pair tables, and the root candidate gather with full
root-node accounting), deals the root candidates into serializable
:class:`ShardTask`s (:func:`plan_shards`: LPT over each root's
``support * supporters``), and hands each shard to a worker that
expands only its candidates' subtrees over the parent's encoding and
pair tables (:meth:`~repro.core.ptpminer.PTPMiner.expand`). Per-shard
patterns, :class:`~repro.core.pruning.PruneCounters`, and
observability data are then merged into a single
:class:`~repro.core.ptpminer.MiningResult`.

Determinism guarantee
---------------------
The merged result's pattern list — patterns *and* supports, in the
canonical result order — is identical to the sequential miner's, for any
worker count and any shard partition. So are the merged counters: the
parent accounts the root node once, workers skip root accounting and sum
only their subtrees, and subtree accounting is independent across root
candidates, so ``parent + Σ shards`` reproduces the serial counters
exactly. ``perf compare``'s exact counter gate therefore holds with
``workers > 1``.

Executors
---------
``serial``
    Runs every shard in-process, sequentially, over one shared
    encoding and pair tables. The default (and the debugging surface:
    pure Python stack traces, no pickling).
``process``
    Runs shards on a :class:`concurrent.futures.ProcessPoolExecutor`.
    The parent's encoding and pair tables reach each worker once,
    through the pool initializer: ``fork`` passes them without
    pickling, ``spawn`` and ``forkserver`` pickle them once per worker.
    Tasks themselves stay small. This module is the **only** place in
    the repository allowed to construct a process pool (lint rule R008).

Observability merge semantics
-----------------------------
The parent reads its collectors as one :class:`~repro.obs.ObsHandles`
bundle and ships their kinds to the workers; every shard, on either
executor, searches under ``obs.observe(**kinds)`` — fresh private
collectors and no live collector, never the parent's — and ships
them home as one snapshot (``ShardResult.obs``). The parent folds each
in, in shard order, with one :meth:`~repro.obs.ObsHandles.absorb` call:

* trace events are re-emitted with span ids rewritten to
  ``"shard<i>:<id>"`` and orphan parents re-hung under the engine's
  dispatching span, so ``--trace`` files stay a single well-formed tree;
* metrics snapshots are absorbed under the ``shard.`` prefix
  (:meth:`~repro.obs.metrics.MetricsRegistry.absorb_snapshot`):
  counters add across shards, histograms merge bound-for-bound;
* cost and provenance snapshots merge as keyed unions over disjoint
  roots, bit-for-bit equal to a serial run's.

It also records one ``engine.shard_elapsed_s[shard=<i>]`` gauge per
shard.

Live telemetry
--------------
With a :class:`~repro.obs.live.LiveCollector` installed
(``obs.observe(live=...)`` — what the CLI's ``--live`` uses), worker
heartbeats stream to the parent **during** the run over the
:mod:`repro.obs.live` bus: each shard searches with a
:class:`~repro.obs.live.LiveSink` installed, the search recorder
reports every finished root candidate to it, the sink publishes
throttled frames, and the parent feeds them to
:func:`repro.obs.live.aggregate` from its result-collection loop (a
``multiprocessing`` manager queue for the process executor, a direct
callback for the serial one). The bus is never constructed unless a
collector is installed.

Shard failures
--------------
A shard that raises, or whose worker process dies, fails the whole run
with a :class:`RuntimeError` naming the shard index and its root
candidates, chained from the original exception.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as _queue
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager, ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro import contracts, obs
from repro.core.config import MinerConfig
from repro.core.counting import PairTables
from repro.core.pruning import PruneCounters
from repro.core.ptpminer import (
    MiningResult,
    PTPMiner,
    RootCandidates,
    _run_snapshot,
)
from repro.model.database import ESequenceDatabase
from repro.model.pattern import PatternWithSupport
from repro.obs import clock as obs_clock
from repro.obs import seam
from repro.obs import trace as obs_trace
from repro.temporal.endpoint import EncodedDatabase, token_name

if TYPE_CHECKING:
    from repro.obs.live import LiveSink

__all__ = [
    "EXECUTORS",
    "ShardResult",
    "ShardTask",
    "ShardedMiner",
    "mine_sharded",
    "plan_shards",
]

#: Valid executor names (``"auto"`` resolves by worker count).
EXECUTORS = ("auto", "serial", "process")

#: One root candidate shipped to a worker:
#: ``((ext_kind, sym, pocc), (weight, (sid, ...)))``.
_TaskCandidate = tuple[tuple[int, int, int], tuple[float, tuple[int, ...]]]


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One worker's slice of the level-1 fan-out. Frozen and picklable.

    The encoding and pair tables the shard searches are *not* part of
    the task — the parent's reach each worker process once, through the
    pool initializer; tasks carry only the shard's root candidates plus
    enough configuration to rebuild the miner identically.
    """

    shard: int
    num_shards: int
    config: MinerConfig
    threshold: float
    candidates: tuple[_TaskCandidate, ...]

    def candidate_map(self) -> RootCandidates:
        """Rebuild the ``candidate -> (weight, sids)`` map the search eats."""
        return {
            cand: (weight, list(sids))
            for cand, (weight, sids) in self.candidates
        }


@dataclass(slots=True)
class ShardResult:
    """What one shard sends home to be merged."""

    shard: int
    patterns: list[PatternWithSupport]
    counters: PruneCounters
    elapsed: float = 0.0
    #: The shard's collectors, one snapshot
    #: (:meth:`repro.obs.ObsHandles.snapshot`), folded into the parent's
    #: with :meth:`repro.obs.ObsHandles.absorb`.
    obs: dict[str, Any] = field(default_factory=dict)


def _candidate_name(
    cand: tuple[int, int, int], labels: Sequence[str]
) -> str:
    """The display name of a root candidate, e.g. ``"A+"``, ``"B#2-"``.

    Matches the names the cost model records per root
    (``sym = label_id * 3 + kind``); uses the shared
    :func:`~repro.temporal.endpoint.token_name` formatter rather than
    constructing endpoints outside the encoder.
    """
    _ext, sym, pocc = cand
    return token_name(labels[sym // 3], pocc, sym % 3)


def plan_shards(
    root: RootCandidates,
    config: MinerConfig,
    threshold: float,
    num_shards: int,
) -> list[ShardTask]:
    """Deal the root candidates into at most ``num_shards`` tasks.

    The deal is LPT (longest processing time first, Graham 1969): each
    candidate, heaviest first, goes to the least-loaded shard. A
    candidate's cost is ``support * supporters`` (``weight *
    len(sids)``), a static proxy for its subtree's size read off the
    candidate map itself. Ties break on the candidate tuple, so the
    deal is deterministic, and each shard lists its candidates in
    canonical (sorted) order.

    Shards are never empty: with fewer candidates than shards you get
    fewer tasks. The deal has no effect on the merged result, only on
    load balance (see the module docstring's determinism guarantee).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    count = min(num_shards, len(root))
    if count == 0:
        return []

    def cost(item: _TaskCandidate) -> float:
        _cand, (weight, sids) = item
        return weight * len(sids)

    candidates = sorted(
        (
            (cand, (weight, tuple(sids)))
            for cand, (weight, sids) in root.items()
        ),
        key=lambda item: (-cost(item), item[0]),
    )
    buckets: list[list[_TaskCandidate]] = [[] for _ in range(count)]
    heap = [(0.0, shard) for shard in range(count)]
    for item in candidates:
        load, shard = heapq.heappop(heap)
        buckets[shard].append(item)
        heapq.heappush(heap, (load + cost(item), shard))
    return [
        ShardTask(
            shard=shard,
            num_shards=count,
            config=config,
            threshold=threshold,
            candidates=tuple(sorted(bucket)),
        )
        for shard, bucket in enumerate(buckets)
    ]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process payload installed by :func:`_init_payload_inline`.
_WORKER_PAYLOAD: dict[str, Any] = {}

#: Receives one live frame (a :meth:`repro.obs.live.LiveFrame.as_dict`).
_OnFrame = Callable[[dict[str, Any]], None]


def _run_shard(task: ShardTask) -> ShardResult:
    """Expand one shard (runs inside a worker process, or in-process)."""
    encoded: EncodedDatabase = _WORKER_PAYLOAD["encoded"]
    pairs: Optional[PairTables] = _WORKER_PAYLOAD["pairs"]
    weights: list[float] = _WORKER_PAYLOAD["weights"]
    publish: Optional[_OnFrame] = _WORKER_PAYLOAD["live_publish"]
    sink: Optional[LiveSink] = None
    if publish is not None:
        # Live mode only: the bus's module loads when it is used.
        from repro.obs import live

        sink = live.LiveSink(
            task.shard,
            len(task.candidates),
            publish,
            min_interval_s=_WORKER_PAYLOAD["live_interval"],
        )
    miner = PTPMiner.from_config(task.config)
    started = obs_clock.now()
    # Private collectors even on the serial executor: the parent's stay
    # shadowed during the search and the snapshot comes home through
    # ShardResult, so both executors merge identically.
    kinds = _WORKER_PAYLOAD["kinds"]
    with obs.observe(**kinds) as handles, seam.LIVE_SINK.scope(sink):
        patterns, counters = miner.expand(
            encoded, pairs, weights, task.threshold, task.candidate_map()
        )
    elapsed = obs_clock.now() - started
    return ShardResult(
        shard=task.shard,
        patterns=patterns,
        counters=counters,
        elapsed=elapsed,
        obs=handles.snapshot(),
    )


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def _collect(
    tasks: list[ShardTask],
    result_of: Callable[[ShardTask], ShardResult],
    labels: Sequence[str],
) -> list[ShardResult]:
    """Each task's result, in task order; a failing shard is named.

    Its error becomes a :class:`RuntimeError` naming the shard index
    and root candidates, chained from the original — a shard's own
    exception, or the pool's ``BrokenProcessPool`` when a worker died.
    """
    results: list[ShardResult] = []
    for task in tasks:
        try:
            results.append(result_of(task))
        except Exception as exc:
            roots = ", ".join(
                _candidate_name(cand, labels) for cand, _ in task.candidates
            )
            raise RuntimeError(
                f"shard {task.shard} (roots {roots}) failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return results


def _run_serial(
    tasks: list[ShardTask],
    encoded: EncodedDatabase,
    pairs: Optional[PairTables],
    weights: Sequence[float],
    kinds: dict[str, bool],
    on_frame: Optional[_OnFrame],
    live_interval: float,
) -> list[ShardResult]:
    """Run every shard in-process, sequentially, over one encoding."""
    _init_payload_inline(
        encoded, pairs, weights, kinds, on_frame, live_interval
    )
    try:
        return _collect(tasks, _run_shard, encoded.labels)
    finally:
        # Drop the payload so stale encodings are not kept alive.
        _WORKER_PAYLOAD.clear()


def _run_process(
    tasks: list[ShardTask],
    encoded: EncodedDatabase,
    pairs: Optional[PairTables],
    weights: Sequence[float],
    workers: int,
    kinds: dict[str, bool],
    on_frame: Optional[_OnFrame],
    live_interval: float,
) -> list[ShardResult]:
    """Run shards on a process pool, handing each worker the encoding once.

    Every task is submitted up front. In live mode the parent drains
    heartbeat frames off a manager queue *while* the shards run — the
    telemetry bus needs no extra thread, just this loop's blocking
    ``get(timeout=...)``.
    """
    with ExitStack() as stack:
        frames: Any = None
        if on_frame is not None:
            # Manager-queue proxies survive the executor's pickling
            # initargs; plain mp.Queue does not.
            frames = stack.enter_context(multiprocessing.Manager()).Queue()
        # The one sanctioned process-pool construction site (lint rule R008).
        pool = stack.enter_context(
            ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)),
                initializer=_init_payload_inline,
                initargs=(
                    encoded,
                    pairs,
                    weights,
                    kinds,
                    None if frames is None else frames.put,
                    live_interval,
                ),
            )
        )
        futures = {task.shard: pool.submit(_run_shard, task) for task in tasks}
        # In live mode, drain until every shard is done and the queue is
        # empty: a finished shard has queued all its frames.
        poll_s = max(0.05, live_interval / 2)
        while on_frame is not None:
            finished = all(future.done() for future in futures.values())
            try:
                payload = frames.get_nowait() if finished else frames.get(
                    timeout=poll_s
                )
            except _queue.Empty:
                if finished:
                    break
                continue
            on_frame(payload)
        return _collect(
            tasks, lambda task: futures[task.shard].result(), encoded.labels
        )


# ----------------------------------------------------------------------
# the engine entry points
# ----------------------------------------------------------------------
def _check_options(workers: int, executor: str) -> None:
    """Reject a bad worker count or executor."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )


def mine_sharded(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    workers: int = 1,
    executor: str = "auto",
) -> MiningResult:
    """Mine ``db`` with the sharded engine.

    Returns a result whose patterns, supports, and counters are
    identical to ``PTPMiner.from_config(config).mine(db)`` for every
    ``workers`` value (see the module docstring for why). ``executor``
    is one of :data:`EXECUTORS`; ``"auto"`` picks ``serial`` for one
    worker and ``process`` otherwise. An installed live collector
    streams shard telemetry during the run (see the module docstring);
    the determinism guarantee is unaffected — live mode only changes
    *when* progress is visible, never what is mined. The roots are
    dealt to shards by :func:`plan_shards`.
    """
    _check_options(workers, executor)
    resolved = (
        ("serial" if workers == 1 else "process")
        if executor == "auto"
        else executor
    )
    miner = PTPMiner.from_config(config)
    threshold = float(db.absolute_support(config.min_sup))
    weights = [1.0] * len(db)
    handles = obs.ObsHandles.active()
    started = obs_clock.now()
    with obs_trace.span(
        "mine",
        miner="P-TPMiner",
        mode=config.mode,
        sequences=len(db),
        workers=workers,
        executor=resolved,
    ):
        _, encoded, pairs, counters, root = miner.plan(
            db, weights, threshold
        )
        tasks = plan_shards(root, config, threshold, workers)
        live = handles.live
        parent_span = obs_trace.current_span_id()
        aggregating: AbstractContextManager[Optional[_OnFrame]]
        if live is None:
            aggregating = nullcontext(None)
        else:
            from repro.obs.live import aggregate

            aggregating = aggregate(
                live, {task.shard: len(task.candidates) for task in tasks}
            )
        with aggregating as on_frame:
            interval = 0.5 if live is None else live.config.interval_s
            with obs_trace.span("shards", count=len(tasks)):
                if not tasks:
                    shard_results: list[ShardResult] = []
                elif resolved == "serial":
                    shard_results = _run_serial(
                        tasks,
                        encoded,
                        pairs,
                        weights,
                        handles.kinds(),
                        on_frame,
                        interval,
                    )
                else:
                    shard_results = _run_process(
                        tasks,
                        encoded,
                        pairs,
                        weights,
                        workers,
                        handles.kinds(),
                        on_frame,
                        interval,
                    )
            with obs_trace.span("merge", shards=len(shard_results)):
                patterns: list[PatternWithSupport] = []
                for result in sorted(shard_results, key=lambda r: r.shard):
                    patterns.extend(result.patterns)
                    counters.merge(result.counters)
                    handles.absorb(result.obs, result.shard, parent_span)
                    if handles.registry is not None:
                        handles.registry.gauge(
                            "engine.shard_elapsed_s", shard=result.shard
                        ).set(result.elapsed)
                patterns.sort(key=PatternWithSupport.sort_key)
    if contracts.checking:
        counters.check_consistency()
        miner._oracle_check(db, weights, threshold, patterns)
    elapsed = obs_clock.now() - started
    return MiningResult(
        patterns=patterns,
        threshold=threshold,
        db_size=len(db),
        elapsed=elapsed,
        counters=counters,
        metrics=_run_snapshot(
            handles.registry,
            counters,
            patterns=len(patterns),
            elapsed=elapsed,
            db_size=len(db),
            threshold=threshold,
        ),
        miner="P-TPMiner",
        params={
            **config.describe(),
            "workers": workers,
            "executor": resolved,
            "shards": len(tasks),
        },
    )


def _init_payload_inline(
    encoded: EncodedDatabase,
    pairs: Optional[PairTables],
    weights: Sequence[float],
    kinds: dict[str, bool],
    live_publish: Optional[_OnFrame],
    live_interval: float,
) -> None:
    """Payload setup; the serial executor's, and each pool worker's.

    ``encoded`` and ``pairs`` are the parent's, from
    :meth:`~repro.core.ptpminer.PTPMiner.plan`; every shard searches
    them read-only. ``kinds`` (:meth:`repro.obs.ObsHandles.kinds`) is
    what every shard installs around its search in :func:`_run_shard`;
    that scope also shadows any collector a forked child inherited.
    ``live_publish`` (live mode only) feeds the shard's frames to the
    parent aggregator: inline on the serial path, which has no queue; a
    manager-queue ``put`` in a pool worker.
    """
    _WORKER_PAYLOAD["encoded"] = encoded
    _WORKER_PAYLOAD["pairs"] = pairs
    _WORKER_PAYLOAD["weights"] = list(weights)
    _WORKER_PAYLOAD["kinds"] = kinds
    _WORKER_PAYLOAD["live_publish"] = live_publish
    _WORKER_PAYLOAD["live_interval"] = live_interval


class ShardedMiner:
    """P-TPMiner behind the sharded engine; satisfies the Miner protocol.

    A drop-in for :class:`~repro.core.ptpminer.PTPMiner` whose
    :meth:`mine` runs the engine instead of the sequential search —
    with an identical result, per the determinism guarantee.
    """

    def __init__(
        self,
        min_sup: float = 0.1,
        *,
        workers: int = 1,
        executor: str = "auto",
        config: Optional[MinerConfig] = None,
        **kwargs: Any,
    ) -> None:
        if config is not None:
            if kwargs:
                raise TypeError(
                    "pass either config= or individual miner options, "
                    "not both"
                )
            self.config = config
        else:
            self.config = MinerConfig.from_kwargs(min_sup=min_sup, **kwargs)
        # Checked at construction too, where the CLI turns a bad option
        # into an ``error:`` line and exit 2.
        _check_options(workers, executor)
        self.workers = workers
        self.executor = executor

    @classmethod
    def from_config(
        cls,
        config: MinerConfig,
        *,
        workers: int = 1,
        executor: str = "auto",
    ) -> "ShardedMiner":
        """Build from a ready-made :class:`MinerConfig`."""
        return cls(config=config, workers=workers, executor=executor)

    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` through :func:`mine_sharded`."""
        return mine_sharded(
            db,
            self.config,
            workers=self.workers,
            executor=self.executor,
        )
