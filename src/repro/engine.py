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
shard and sends the run's one final progress heartbeat from the merged
counters.

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
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

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
#: Per-worker-process payload installed by :func:`_init_payload_inline`.
_WORKER_PAYLOAD: dict[str, Any] = {}

#: Receives one live frame (a :meth:`repro.obs.live.LiveFrame.as_dict`).
_OnFrame = Callable[[dict[str, Any]], None]


def _run_shard(task: ShardTask) -> ShardResult:
    """Expand one shard (runs inside a worker process, or in-process)."""
    db: ESequenceDatabase = _WORKER_PAYLOAD["db"]
    weights: list[float] = _WORKER_PAYLOAD["weights"]
    publish: Optional[_OnFrame] = _WORKER_PAYLOAD["live_publish"]
    sink = (
        None
        if publish is None
        else obs_live.LiveSink(
            task.shard,
            len(task.candidates),
            publish,
            min_interval_s=_WORKER_PAYLOAD["live_interval"],
        )
    )
    miner = PTPMiner.from_config(task.config)
    started = obs_clock.now()
    # Private collectors even on the serial executor: the parent's stay
    # shadowed during the search and the snapshot comes home through
    # ShardResult, so both executors merge identically.
    kinds = _WORKER_PAYLOAD["kinds"]
    with obs.observe(**kinds) as handles, obs_live.use_sink(sink):
        patterns, counters = miner.search_shard(
            db, weights, task.threshold, task.candidate_map()
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
    db: ESequenceDatabase,
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
            labels = sorted(db.alphabet)
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
    db: ESequenceDatabase,
    weights: Sequence[float],
    kinds: dict[str, bool],
    on_frame: Optional[_OnFrame],
    live_interval: float,
) -> list[ShardResult]:
    """Run every shard in-process, sequentially."""
    _init_payload_inline(db, weights, kinds, on_frame, live_interval)
    try:
        return _collect(tasks, _run_shard, db)
    finally:
        # Drop the payload so stale databases are not kept alive.
        _WORKER_PAYLOAD.clear()


def _run_process(
    tasks: list[ShardTask],
    db: ESequenceDatabase,
    weights: Sequence[float],
    workers: int,
    kinds: dict[str, bool],
    on_frame: Optional[_OnFrame],
    live_interval: float,
) -> list[ShardResult]:
    """Run shards on a process pool, shipping the database once per worker.

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
                    db,
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
        return _collect(tasks, lambda task: futures[task.shard].result(), db)


# ----------------------------------------------------------------------
# the engine entry points
# ----------------------------------------------------------------------
def mine_sharded(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    workers: int = 1,
    executor: str = "auto",
    shard_strategy: str = "roundrobin",
    plan: Optional[dict[str, Any]] = None,
) -> MiningResult:
    """Mine ``db`` with the sharded engine.

    Returns a result whose patterns, supports, and counters are
    identical to ``PTPMiner.from_config(config).mine(db)`` for every
    ``workers`` value (see the module docstring for why). ``executor``
    is one of :data:`EXECUTORS`; ``"auto"`` picks ``serial`` for one
    worker and ``process`` otherwise. An installed live collector
    streams shard telemetry during the run (see the module docstring);
    the determinism guarantee is unaffected — live mode only changes
    *when* progress is visible, never what is mined.

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
        live = handles.live
        parent_span = obs_trace.current_span_id()
        with obs_live.aggregate(
            live, {task.shard: len(task.candidates) for task in tasks}
        ) as on_frame:
            interval = 0.5 if live is None else live.config.interval_s
            with obs_trace.span("shards", count=len(tasks)):
                if not tasks:
                    shard_results: list[ShardResult] = []
                elif resolved == "serial":
                    shard_results = _run_serial(
                        tasks,
                        mining_db,
                        weights,
                        handles.kinds(),
                        on_frame,
                        interval,
                    )
                else:
                    shard_results = _run_process(
                        tasks,
                        mining_db,
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
    live_publish: Optional[_OnFrame],
    live_interval: float,
) -> None:
    """Payload setup; the serial executor's, and each pool worker's.

    ``kinds`` (:meth:`repro.obs.ObsHandles.kinds`) is what every shard
    installs around its search in :func:`_run_shard`; that scope also
    shadows any collector a forked child inherited. ``live_publish``
    (live mode only) feeds the shard's frames to the parent aggregator:
    inline on the serial path, which has no queue; a manager-queue
    ``put`` in a pool worker.
    """
    _WORKER_PAYLOAD["db"] = db
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
        self.shard_strategy = shard_strategy
        self.plan = plan

    @classmethod
    def from_config(
        cls,
        config: MinerConfig,
        *,
        workers: int = 1,
        executor: str = "auto",
        shard_strategy: str = "roundrobin",
        plan: Optional[dict[str, Any]] = None,
    ) -> "ShardedMiner":
        """Build from a ready-made :class:`MinerConfig`."""
        return cls(
            config=config,
            workers=workers,
            executor=executor,
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
            shard_strategy=self.shard_strategy,
            plan=self.plan,
        )
