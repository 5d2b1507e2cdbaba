"""Parallel sharded mining engine.

The engine parallelizes P-TPMiner by sharding its **level-1 fan-out**:
the parent process runs the root of the search exactly once
(:meth:`~repro.core.ptpminer.PTPMiner.plan_root` — validation, point
pruning, encoding, pair tables, and the root candidate gather with full
root-node accounting), partitions the root candidates into serializable
:class:`ShardTask`s, and hands each shard to a worker that expands only
its candidates' subtrees
(:meth:`~repro.core.ptpminer.PTPMiner.search_shard`). Per-shard
patterns, :class:`~repro.core.pruning.PruneCounters`, and observability
data are then merged into a single :class:`~repro.core.ptpminer.MiningResult`.

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
    Runs every shard in-process, sequentially. The default (and the
    debugging surface: pure Python stack traces, no pickling).
``process``
    Runs shards on a :class:`concurrent.futures.ProcessPoolExecutor`.
    The database is shipped once per worker via the pool initializer;
    tasks themselves stay small. This module is the **only** place in
    the repository allowed to construct a process pool (lint rule R008).

Observability merge semantics
-----------------------------
The parent reads its collectors as one :class:`~repro.obs.ObsHandles`
bundle and ships their kinds to the workers; every shard, on either
executor, searches under ``obs.observe(**kinds)`` — fresh private
collectors and no progress reporter, never the parent's — and ships
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
shard (the harness's ``shard_imbalance`` column derives from them) and
sends the run's one final progress heartbeat from the merged counters.

Live telemetry
--------------
``mine_sharded(live=...)`` (or an installed
:func:`repro.obs.live.use_live` scope — what the CLI's ``--live`` and
the harness's ``collect_live=True`` use) streams worker heartbeats to
the parent **during** the run over the :mod:`repro.obs.live` bus:
workers publish throttled frames from a per-root-candidate hook, the
parent drains them from its result-collection loop (a ``multiprocessing``
manager queue for the process executor, a direct callback for the
serial one), and a :class:`~repro.obs.live.LiveAggregator` merges them
into per-shard lanes with a global ETA and straggler callouts. The bus
is never constructed unless live mode is requested — the disabled path
costs one ``None`` check per run.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as _queue
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro import contracts, obs
from repro.core.config import SHARD_STRATEGIES, MinerConfig
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
from repro.obs import live as obs_live
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.temporal.endpoint import token_name

__all__ = [
    "EXECUTORS",
    "SHARD_STRATEGIES",
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

    The database itself is *not* part of the task — it is shipped once
    per worker process through the pool initializer; tasks carry only
    the shard's root candidates plus enough configuration to rebuild the
    miner identically.
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

    Matches the names the cost model records per root and the planner
    forecasts against (``sym = label_id * 3 + kind``); uses the shared
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
    *,
    strategy: str = "roundrobin",
    costs: Optional[dict[str, float]] = None,
    labels: Optional[Sequence[str]] = None,
) -> list[ShardTask]:
    """Partition the root candidates into at most ``num_shards`` tasks.

    With the default ``"roundrobin"`` strategy, candidates are dealt in
    canonical (sorted) order, which spreads the heavy low-index prefixes
    across shards. With ``"predicted"``, candidates are placed
    heaviest-first onto the least-loaded shard (LPT) using the per-root
    forecasts in ``costs`` (root name -> predicted cost, as produced by
    :mod:`repro.obs.planner`); ``labels`` (the database's sorted
    alphabet) is then required to map candidates to their names. Roots
    missing from ``costs`` — or every root, when no plan is supplied —
    fall back to ``support * supporter_count``, a zero-cost static proxy
    computable from the candidate map alone.

    Either way, empty shards are never produced; with fewer candidates
    than shards you get fewer tasks. The partition has no effect on the
    merged result — only on load balance (see the module docstring's
    determinism guarantee).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {SHARD_STRATEGIES}, got {strategy!r}"
        )
    ordered = sorted(root)
    count = min(num_shards, len(ordered))
    if count == 0:
        return []
    buckets: list[list[_TaskCandidate]] = [[] for _ in range(count)]
    if strategy == "roundrobin":
        for index, cand in enumerate(ordered):
            weight, sids = root[cand]
            buckets[index % count].append((cand, (weight, tuple(sids))))
    else:
        if labels is None:
            raise ValueError(
                "strategy='predicted' needs labels to name root candidates"
            )
        forecasts = costs or {}

        def cost_of(cand: tuple[int, int, int]) -> float:
            weight, sids = root[cand]
            forecast = forecasts.get(_candidate_name(cand, labels))
            if forecast is not None:
                return max(float(forecast), 0.0)
            return float(weight) * len(sids)

        heap = [(0.0, shard) for shard in range(count)]
        heapq.heapify(heap)
        # LPT: heaviest candidate first, onto the least-loaded shard;
        # ties break on the candidate tuple so the deal is deterministic.
        for cand in sorted(ordered, key=lambda c: (-cost_of(c), c)):
            load, shard = heapq.heappop(heap)
            weight, sids = root[cand]
            buckets[shard].append((cand, (weight, tuple(sids))))
            heapq.heappush(heap, (load + cost_of(cand), shard))
        for bucket in buckets:
            bucket.sort()
        # All-zero forecasts can pile everything on shard 0; drop the
        # resulting empty buckets to keep the no-empty-shards invariant.
        buckets = [bucket for bucket in buckets if bucket]
    return [
        ShardTask(
            shard=shard,
            num_shards=count,
            config=config,
            threshold=threshold,
            candidates=tuple(bucket),
        )
        for shard, bucket in enumerate(buckets)
    ]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process payload installed by :func:`_init_worker`.
_WORKER_PAYLOAD: dict[str, Any] = {}


def _init_worker(
    db: ESequenceDatabase,
    weights: Sequence[float],
    kinds: dict[str, bool],
    live_queue: Optional[Any] = None,
    live_interval: float = 0.5,
) -> None:
    """Pool initializer: receive the database once, silence inherited live.

    ``kinds`` (:meth:`repro.obs.ObsHandles.kinds`) is what every shard
    installs around its search in :func:`_run_shard`; that scope also
    shadows any collector a forked child inherited. ``live_queue`` (a
    manager-queue proxy, present only in live mode) is where the
    worker's :class:`~repro.obs.live.LiveSink` publishes heartbeat
    frames.
    """
    obs_live.set_live(None)
    _init_payload_inline(
        db,
        weights,
        kinds,
        live_publish=None if live_queue is None else live_queue.put,
        live_interval=live_interval,
    )


def _run_shard(task: ShardTask) -> ShardResult:
    """Expand one shard (runs inside a worker process, or in-process)."""
    db: ESequenceDatabase = _WORKER_PAYLOAD["db"]
    weights: list[float] = _WORKER_PAYLOAD["weights"]
    publish = _WORKER_PAYLOAD.get("live_publish")
    sink = (
        None
        if publish is None
        else obs_live.LiveSink(
            task.shard,
            len(task.candidates),
            publish,
            min_interval_s=_WORKER_PAYLOAD.get("live_interval", 0.5),
        )
    )
    miner = PTPMiner.from_config(task.config)
    started = obs_clock.now()
    # Private collectors even on the serial executor: the parent's stay
    # shadowed during the search and the snapshot comes home through
    # ShardResult, so both executors merge identically.
    with obs.observe(**_WORKER_PAYLOAD["kinds"]) as handles:
        patterns, counters = miner.search_shard(
            db,
            weights,
            task.threshold,
            task.candidate_map(),
            on_root=None if sink is None else sink.on_root,
        )
    if sink is not None:
        sink.finish(
            len(patterns),
            {k: float(v) for k, v in counters.as_dict().items()},
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
def _run_serial(tasks: list[ShardTask]) -> list[ShardResult]:
    """Run every shard in-process, sequentially."""
    return [_run_shard(task) for task in tasks]


def _run_process(
    tasks: list[ShardTask],
    db: ESequenceDatabase,
    weights: Sequence[float],
    workers: int,
    kinds: dict[str, bool],
    live_queue: Optional[Any] = None,
    live_interval: float = 0.5,
    on_frame: Optional[Callable[[dict[str, Any]], None]] = None,
) -> list[ShardResult]:
    """Run shards on a process pool, shipping the database once per worker.

    In live mode (``live_queue`` + ``on_frame`` given) the shards are
    submitted individually and the parent drains heartbeat frames off
    the queue *while* waiting for results — the telemetry bus needs no
    extra thread, just this loop's blocking ``get(timeout=...)``.
    """
    # The one sanctioned process-pool construction site (lint rule R008).
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=_init_worker,
        initargs=(db, weights, kinds, live_queue, live_interval),
    ) as pool:
        if live_queue is None or on_frame is None:
            return list(pool.map(_run_shard, tasks))
        futures = [pool.submit(_run_shard, task) for task in tasks]
        pending = set(futures)
        poll_s = max(0.05, live_interval / 2)
        while pending:
            try:
                payload = live_queue.get(timeout=poll_s)
            except _queue.Empty:
                pass
            else:
                on_frame(payload)
            pending = {f for f in pending if not f.done()}
        while True:  # drain whatever arrived after the last result
            try:
                payload = live_queue.get_nowait()
            except _queue.Empty:
                break
            on_frame(payload)
        return [future.result() for future in futures]


# ----------------------------------------------------------------------
# the engine entry points
# ----------------------------------------------------------------------
def _resolve_live(
    live: Union[None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"],
) -> Optional[obs_live.LiveCollector]:
    """Normalize ``mine_sharded``'s ``live=`` argument to a collector.

    ``None`` defers to the installed :func:`repro.obs.live.use_live`
    scope (so the CLI and harness can enable live mode without plumbing
    an argument through every layer); ``False`` forces it off even with
    a scope installed; ``True`` / a config / a collector turn it on.
    """
    if live is None:
        return obs_live.active_live()
    if live is False:
        return None
    if live is True:
        return obs_live.LiveCollector()
    if isinstance(live, obs_live.LiveConfig):
        return obs_live.LiveCollector(config=live)
    if isinstance(live, obs_live.LiveCollector):
        return live
    raise TypeError(
        "live must be None, a bool, a LiveConfig, or a LiveCollector; "
        f"got {type(live).__name__}"
    )


def mine_sharded(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    workers: int = 1,
    executor: str = "auto",
    live: Union[
        None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
    ] = None,
    shard_strategy: str = "roundrobin",
    plan: Optional[dict[str, Any]] = None,
) -> MiningResult:
    """Mine ``db`` with the sharded engine.

    Returns a result whose patterns, supports, and counters are
    identical to ``PTPMiner.from_config(config).mine(db)`` for every
    ``workers`` value (see the module docstring for why). ``executor``
    is one of :data:`EXECUTORS`; ``"auto"`` picks ``serial`` for one
    worker and ``process`` otherwise. ``live`` streams shard telemetry
    during the run (see the module docstring); the determinism guarantee
    is unaffected — live mode only changes *when* progress is visible,
    never what is mined.

    ``shard_strategy`` picks the deal (:data:`SHARD_STRATEGIES`):
    ``"predicted"`` places root candidates by forecast cost (LPT),
    reading per-root forecasts from ``plan`` — a
    :func:`repro.obs.planner.build_plan` PlanReport — when one is
    supplied, else from the static ``support * supporters`` fallback.
    Because the merge is order-independent, any strategy (with or
    without a plan, with an arbitrarily wrong plan) yields a bit-for-bit
    identical result; the strategy only moves wall time between shards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if shard_strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"shard_strategy must be one of {SHARD_STRATEGIES}, "
            f"got {shard_strategy!r}"
        )
    resolved = (
        ("serial" if workers == 1 else "process")
        if executor == "auto"
        else executor
    )
    collector = _resolve_live(live)
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
        mining_db, counters, root = miner.plan_root(db, weights, threshold)
        plan_costs: Optional[dict[str, float]] = None
        plan_labels: Optional[tuple[str, ...]] = None
        if shard_strategy == "predicted":
            if plan is not None:
                plan_costs = {
                    str(name): float(entry.get("predicted_cost", 0.0))
                    for name, entry in dict(plan.get("roots", {})).items()
                    if isinstance(entry, dict)
                }
            # Same sorted alphabet the encoder interns, so candidate
            # names line up with the plan's root names.
            plan_labels = tuple(sorted(mining_db.alphabet))
        tasks = plan_shards(
            root,
            config,
            threshold,
            workers,
            strategy=shard_strategy,
            costs=plan_costs,
            labels=plan_labels,
        )
        aggregator: Optional[obs_live.LiveAggregator] = None
        on_frame: Optional[Callable[[dict[str, Any]], None]] = None
        if collector is not None:
            aggregator = obs_live.LiveAggregator(
                collector.config,
                shard_totals={
                    task.shard: len(task.candidates) for task in tasks
                },
            )
            collector.aggregator = aggregator
            aggregator.open_log()

            def _on_frame(
                payload: dict[str, Any],
                _agg: obs_live.LiveAggregator = aggregator,
            ) -> None:
                _agg.ingest(payload)
                _agg.maybe_render()

            on_frame = _on_frame
        manager: Optional[Any] = None
        try:
            parent_span = obs_trace.current_span_id()
            with obs_trace.span("shards", count=len(tasks)):
                if not tasks:
                    shard_results: list[ShardResult] = []
                elif resolved == "serial":
                    # In-process: point the payload at this run's data.
                    _init_payload_inline(
                        mining_db,
                        weights,
                        handles.kinds(),
                        live_publish=on_frame,
                        live_interval=(
                            collector.config.interval_s
                            if collector is not None
                            else 0.5
                        ),
                    )
                    try:
                        shard_results = _run_serial(tasks)
                    finally:
                        _clear_payload()
                else:
                    live_queue: Optional[Any] = None
                    if on_frame is not None:
                        # Manager-queue proxies survive the executor's
                        # pickling initargs; plain mp.Queue does not.
                        manager = multiprocessing.Manager()
                        live_queue = manager.Queue()
                    shard_results = _run_process(
                        tasks,
                        mining_db,
                        weights,
                        workers,
                        handles.kinds(),
                        live_queue=live_queue,
                        live_interval=(
                            collector.config.interval_s
                            if collector is not None
                            else 0.5
                        ),
                        on_frame=on_frame,
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
        finally:
            if manager is not None:
                manager.shutdown()
            if aggregator is not None:
                aggregator.maybe_render(force=True)
                aggregator.close_log()
                if collector is not None:
                    collector.summary = aggregator.summary()
    obs_recorder.run_done(counters)
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
            "shard_strategy": shard_strategy,
        },
    )


def _init_payload_inline(
    db: ESequenceDatabase,
    weights: Sequence[float],
    kinds: dict[str, bool],
    *,
    live_publish: Optional[Callable[[dict[str, Any]], None]] = None,
    live_interval: float = 0.5,
) -> None:
    """Payload setup; the serial executor's, and each pool worker's.

    ``live_publish`` feeds frames to the parent aggregator: inline on
    the serial path, which has no queue; a manager-queue ``put`` in a
    pool worker.
    """
    _WORKER_PAYLOAD["db"] = db
    _WORKER_PAYLOAD["weights"] = list(weights)
    _WORKER_PAYLOAD["kinds"] = kinds
    _WORKER_PAYLOAD["live_publish"] = live_publish
    _WORKER_PAYLOAD["live_interval"] = live_interval


def _clear_payload() -> None:
    """Drop the inline payload so stale databases are not kept alive."""
    _WORKER_PAYLOAD.clear()


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
        live: Union[
            None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
        ] = None,
        shard_strategy: str = "roundrobin",
        plan: Optional[dict[str, Any]] = None,
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
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"shard_strategy must be one of {SHARD_STRATEGIES}, "
                f"got {shard_strategy!r}"
            )
        self.workers = workers
        self.executor = executor
        self.live = live
        self.shard_strategy = shard_strategy
        self.plan = plan

    @classmethod
    def from_config(
        cls,
        config: MinerConfig,
        *,
        workers: int = 1,
        executor: str = "auto",
        live: Union[
            None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
        ] = None,
        shard_strategy: str = "roundrobin",
        plan: Optional[dict[str, Any]] = None,
    ) -> "ShardedMiner":
        """Build from a ready-made :class:`MinerConfig`."""
        return cls(
            config=config,
            workers=workers,
            executor=executor,
            live=live,
            shard_strategy=shard_strategy,
            plan=plan,
        )

    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` through :func:`mine_sharded`."""
        return mine_sharded(
            db,
            self.config,
            workers=self.workers,
            executor=self.executor,
            live=self.live,
            shard_strategy=self.shard_strategy,
            plan=self.plan,
        )
