"""P-TPMiner: the paper's algorithm.

P-TPMiner discovers the two pattern types of the paper — temporal patterns
(``mode="tp"``) and hybrid temporal patterns (``mode="htp"``) — by a
depth-first, PrefixSpan-style search over the endpoint representation:

1. every e-sequence is losslessly converted to an endpoint sequence
   (:mod:`repro.temporal.endpoint`), reducing interval arrangements to
   plain sequence/itemset structure;
2. the search grows pattern prefixes token by token, by **S-extension**
   (open a new pointset) and **I-extension** (grow the current pointset in
   canonical token order), so every canonical pattern is generated exactly
   once;
3. validity is enforced *during generation*: a finish token is only ever
   appended when its interval is open in the prefix and the canonical
   duplicate-numbering constraint holds — no post-hoc validation scans
   (this is the structural advantage over TPrefixSpan);
4. support is counted incrementally through projection states
   (:mod:`repro.core.projection`); and
5. three pruning techniques (:mod:`repro.core.pruning`) cut candidates
   and branches before any projection work.

Support is *weighted*: each sequence carries a weight (1.0 by default),
and a pattern's support is the total weight of sequences containing it.
The probabilistic extension (:mod:`repro.core.probabilistic`) reuses the
identical search with existence probabilities as weights, so expected-
support mining is exactly as fast as deterministic mining — the property
bench F7 measures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import contracts
from repro.core.config import MinerConfig
from repro.core.counting import PairRows, PairTables
from repro.core.projection import (
    EMPTY_STATE,
    NO_FINISH,
    State,
    check_state,
    dedupe_states,
)
from repro.core.pruning import PruneCounters, PruningConfig
from repro.model.database import POINT_EVENTS_IN_TP, ESequenceDatabase
from repro.model.pattern import PatternWithSupport, TemporalPattern
from repro.model.sequence import ESequence
from repro.obs import clock as obs_clock
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.temporal.endpoint import FINISH, START, EncodedDatabase, KeptLabels

__all__ = ["PTPMiner", "MiningResult", "mine"]

# A candidate extension: (ext_kind, sym, pocc); ext_kind 0 = I, 1 = S.
_Candidate = tuple[int, int, int]

#: One gathered root candidate with its support weight and supporter sids
#: — the unit :mod:`repro.engine` shards the level-1 fan-out by.
RootCandidates = dict[_Candidate, tuple[float, list[int]]]
_I_EXT, _S_EXT = 0, 1
_EPS = 1e-9


def _run_snapshot(
    registry: Optional[MetricsRegistry],
    counters: PruneCounters,
    *,
    patterns: int,
    elapsed: float,
    db_size: int,
    threshold: float,
) -> dict[str, Any]:
    """Finalize one run's observability snapshot (``{}`` when obs is off).

    Mirrors the :class:`PruneCounters` totals into ``search.*`` counters
    — so the snapshot's prune accounting equals the ``counters`` field
    by construction — and records run-level gauges next to whatever the
    search already streamed into the registry.
    """
    if registry is None:
        return {}
    registry.absorb(
        {name: float(value) for name, value in counters.as_dict().items()},
        prefix="search.",
    )
    registry.gauge("run.patterns").set(patterns)
    registry.gauge("run.elapsed_s").set(elapsed)
    registry.gauge("run.db_size").set(db_size)
    registry.gauge("run.threshold").set(threshold)
    return registry.snapshot()


@dataclass(slots=True)
class MiningResult:
    """Outcome of one mining run.

    Attributes
    ----------
    patterns:
        Complete frequent patterns with their supports, in the canonical
        result order (:meth:`PatternWithSupport.sort_key`), so results of
        different miners compare with plain ``==``.
    threshold:
        The absolute support threshold actually applied.
    db_size:
        Number of sequences mined.
    elapsed:
        Wall-clock seconds spent inside the miner.
    counters:
        Search-effort accounting (:class:`PruneCounters`).
    miner / params:
        Provenance for harness tables.
    metrics:
        Observability snapshot of the run
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`): phase
        timings, per-depth/per-length search shape, and the ``search.*``
        mirror of ``counters``. Empty (``{}``) unless a metrics registry
        was active during the run — the zero-cost-when-off default.
    """

    patterns: list[PatternWithSupport]
    threshold: float
    db_size: int
    elapsed: float
    counters: PruneCounters
    miner: str = "P-TPMiner"
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.patterns)

    def pattern_set(self) -> frozenset[TemporalPattern]:
        """The bare pattern set (for cross-miner agreement checks)."""
        return frozenset(item.pattern for item in self.patterns)

    def as_dict(self) -> dict[TemporalPattern, float]:
        """Mapping pattern -> support."""
        return {item.pattern: item.support for item in self.patterns}

    def top(self, k: int) -> list[PatternWithSupport]:
        """The ``k`` highest-support patterns."""
        return self.patterns[:k]


class PTPMiner:
    """Mine frequent temporal / hybrid temporal patterns.

    Parameters
    ----------
    min_sup:
        Relative support in ``(0, 1]`` or absolute count ``> 1``.
    mode:
        ``"tp"`` for pure interval patterns (point events are rejected —
        strip them with
        :meth:`~repro.model.database.ESequenceDatabase.without_point_events`
        first), ``"htp"`` to admit point events and mine hybrid patterns.
    pruning:
        Which pruning techniques run (default: all three).
    max_tokens:
        Optional cap on pattern length in endpoint tokens.
    max_size:
        Optional cap on pattern size in event occurrences.
    max_span:
        Optional time constraint: a sequence supports a pattern only if
        it has an embedding whose endpoints all fall within a window of
        ``max_span`` original time units. (Plain mining is
        arrangement-only; ``max_span`` re-introduces duration semantics
        for domains where "A overlaps B a year apart" is meaningless.)

    Examples
    --------
    >>> from repro.model.database import ESequenceDatabase
    >>> db = ESequenceDatabase.from_event_lists(
    ...     [[(0, 4, "A"), (2, 6, "B")], [(0, 3, "A"), (1, 5, "B")]]
    ... )
    >>> result = PTPMiner(min_sup=1.0).mine(db)
    >>> sorted(str(p.pattern) for p in result.patterns)
    ['(A+) (A-)', '(A+) (B+) (A-) (B-)', '(B+) (B-)']
    """

    def __init__(
        self,
        min_sup: float = 0.1,
        *,
        mode: str = "tp",
        pruning: PruningConfig = PruningConfig.all(),
        max_tokens: Optional[int] = None,
        max_size: Optional[int] = None,
        max_span: Optional[float] = None,
    ) -> None:
        # All argument validation lives in MinerConfig.__post_init__.
        self.config = MinerConfig(
            min_sup=min_sup,
            mode=mode,
            pruning=pruning,
            max_tokens=max_tokens,
            max_size=max_size,
            max_span=max_span,
        )

    @classmethod
    def from_config(cls, config: MinerConfig) -> "PTPMiner":
        """Build a miner from a :class:`~repro.core.config.MinerConfig`.

        P-TPMiner supports the full configuration surface, so this never
        rejects a valid config (the baselines' ``from_config`` do).
        """
        miner = cls.__new__(cls)
        miner.config = config
        return miner

    @property
    def min_sup(self) -> float:
        """Support threshold (relative in ``(0, 1]`` or absolute)."""
        return self.config.min_sup

    @property
    def mode(self) -> str:
        """``"tp"`` or ``"htp"``."""
        return self.config.mode

    @property
    def pruning(self) -> PruningConfig:
        """Active pruning techniques."""
        return self.config.pruning

    @property
    def max_tokens(self) -> Optional[int]:
        """Optional cap on pattern length in endpoint tokens."""
        return self.config.max_tokens

    @property
    def max_size(self) -> Optional[int]:
        """Optional cap on pattern size in event occurrences."""
        return self.config.max_size

    @property
    def max_span(self) -> Optional[float]:
        """Optional embedding time-window constraint."""
        return self.config.max_span

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` with unit sequence weights."""
        threshold = float(db.absolute_support(self.min_sup))
        return self.mine_weighted(db, [1.0] * len(db), threshold)

    def mine_weighted(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> MiningResult:
        """Mine with per-sequence weights and an absolute weight threshold.

        With unit weights this is ordinary support; with existence
        probabilities it is expected support (see
        :mod:`repro.core.probabilistic`).
        """
        self._validate_weighted(db, weights, threshold)
        started = obs_clock.now()
        counters = PruneCounters()
        with obs_trace.span(
            "mine", miner="P-TPMiner", mode=self.mode, sequences=len(db)
        ):
            _, encoded, pairs = self._prepare(
                db, weights, threshold, counters
            )
            with obs_trace.span("search"):
                patterns = self._search(
                    encoded, weights, [float(threshold)], pairs, counters
                )
            patterns.sort(key=PatternWithSupport.sort_key)
        if contracts.checking:
            counters.check_consistency()
            self._oracle_check(db, weights, float(threshold), patterns)
        elapsed = obs_clock.now() - started
        return MiningResult(
            patterns=patterns,
            threshold=threshold,
            db_size=len(db),
            elapsed=elapsed,
            counters=counters,
            metrics=_run_snapshot(
                obs_metrics.active_registry(),
                counters,
                patterns=len(patterns),
                elapsed=elapsed,
                db_size=len(db),
                threshold=threshold,
            ),
            miner="P-TPMiner",
            params=self.config.describe(),
        )

    @staticmethod
    def _validate_weighted(
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> None:
        """Shared input validation for weighted mining entry points."""
        if len(weights) != len(db):
            raise ValueError(
                f"got {len(weights)} weights for {len(db)} sequences"
            )
        if any(w < 0 for w in weights):
            raise ValueError("sequence weights must be non-negative")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")

    def _prepare(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        counters: PruneCounters,
        *,
        point_prune: bool = True,
    ) -> tuple[Optional[KeptLabels], EncodedDatabase, Optional[PairTables]]:
        """Shared pre-search pipeline: point prune, encode, pair tables.

        Point pruning only decides which labels stay; the encoder skips
        every other event as it encodes, so no pruned copy of ``db`` is
        built. Its pass over the events also rejects a point event in a
        ``"tp"`` mine; without it, :meth:`ESequenceDatabase.require_mode`
        does. Returns the kept labels (``None`` when point pruning did
        not run) with the encoding and pair tables. ``point_prune=False``
        is for :meth:`search_shard`, whose database :meth:`plan_root`
        already pruned, and whose pruning the parent already accounted.
        """
        keep: Optional[KeptLabels] = None
        if point_prune and self.pruning.point:
            with obs_trace.span("prune", technique="point"):
                keep = self._point_prune(
                    db, weights, threshold, counters, tp=self.mode == "tp"
                )
        else:
            db.require_mode(self.mode)
        with obs_trace.span("encode"):
            encoded = EncodedDatabase(db, keep)
        if self.pruning.pair:
            with obs_trace.span("pair_tables"):
                pairs: Optional[PairTables] = PairTables(encoded, weights)
        else:
            pairs = None
        return keep, encoded, pairs

    # ------------------------------------------------------------------
    # sharded execution hooks (used by repro.engine)
    # ------------------------------------------------------------------
    def plan(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> tuple[
        Optional[KeptLabels],
        EncodedDatabase,
        Optional[PairTables],
        PruneCounters,
        RootCandidates,
    ]:
        """Run the root of the search once: the parent half of sharding.

        Validates inputs, applies point pruning, encodes, builds the
        pair tables, and gathers the level-1 (root) candidate extensions
        with full root-node accounting. Returns the labels point pruning
        kept (``None`` when it is off), the encoding and pair tables
        (which every shard's :meth:`expand` searches), the parent's
        share of the final merged
        :class:`~repro.core.pruning.PruneCounters`, and the candidate
        map :mod:`repro.engine` partitions into ``ShardTask``s.

        The candidate map may be empty — when the root postfix branch
        bound already proves no pattern can be frequent — in which case
        there is nothing to shard.
        """
        self._validate_weighted(db, weights, threshold)
        counters = PruneCounters()
        keep, encoded, pairs = self._prepare(db, weights, threshold, counters)
        plan_out: list[RootCandidates] = []
        with obs_trace.span("plan_root"):
            self._search(
                encoded,
                weights,
                [float(threshold)],
                pairs,
                counters,
                root_plan_out=plan_out,
            )
        root = plan_out[0] if plan_out else {}
        return keep, encoded, pairs, counters, root

    def plan_root(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
    ) -> tuple[ESequenceDatabase, PruneCounters, RootCandidates]:
        """:meth:`plan`, returning the point-pruned database in place of
        the kept labels, the encoding and the pair tables."""
        keep, _encoded, _pairs, counters, root = self.plan(
            db, weights, threshold
        )
        if keep is not None and counters.pruned_point_labels:
            db = _kept_events(db, keep)
        return db, counters, root

    def search_shard(
        self,
        mining_db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        candidates: RootCandidates,
    ) -> tuple[list[PatternWithSupport], PruneCounters]:
        """:meth:`expand` a shard from the database :meth:`plan_root`
        returned, encoding it and building its pair tables first.

        ``candidates`` must be a subset of that plan's root candidate
        map. The engine does not call this: its shards expand the
        parent's encoding and pair tables, which :meth:`plan` returns.
        """
        _, encoded, pairs = self._prepare(
            mining_db, weights, threshold, PruneCounters(), point_prune=False
        )
        return self.expand(encoded, pairs, weights, threshold, candidates)

    def expand(
        self,
        encoded: EncodedDatabase,
        pairs: Optional[PairTables],
        weights: Sequence[float],
        threshold: float,
        candidates: RootCandidates,
    ) -> tuple[list[PatternWithSupport], PruneCounters]:
        """Expand a shard of root candidates: the worker half of sharding.

        ``encoded`` and ``pairs`` must be what :meth:`plan` built and
        ``candidates`` a subset of its root candidate map. Skips point
        pruning and root-node accounting — both already accounted by
        the parent — and returns this shard's unsorted patterns plus its
        share of the counters. The search only reads ``encoded`` and
        ``pairs``, so every shard of a run can share one copy (lint rule
        R015 checks that nothing writes to them).
        """
        counters = PruneCounters()
        with obs_trace.span("search", shard_candidates=len(candidates)):
            patterns = self._search(
                encoded,
                weights,
                [float(threshold)],
                pairs,
                counters,
                root_candidates=candidates,
            )
        return patterns, counters

    def mine_top_k(
        self,
        db: ESequenceDatabase,
        k: int,
        *,
        min_size: int = 1,
        min_sup: float = 1.0,
    ) -> MiningResult:
        """Mine the ``k`` highest-support complete patterns.

        Uses dynamic threshold raising: once ``k`` qualifying patterns
        (``size >= min_size``) are on the heap, the search threshold
        jumps to the k-th best support, pruning everything that cannot
        enter the top-k. Ties at the k-th support are broken by the
        canonical result order, so the output matches the first ``k``
        rows of an exhaustive mine.

        ``min_sup`` is an absolute floor (defaults to support 1).
        """
        import heapq

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        started = obs_clock.now()
        counters = PruneCounters()
        weights = [1.0] * len(db)
        threshold_box = [float(min_sup)]
        heap: list[float] = []

        def on_emit(pattern: TemporalPattern, support: float) -> None:
            if pattern.size < min_size:
                return
            heapq.heappush(heap, support)
            if len(heap) > k:
                heapq.heappop(heap)
            if len(heap) == k:
                threshold_box[0] = max(threshold_box[0], heap[0])

        with obs_trace.span(
            "mine", miner="P-TPMiner(top-k)", mode=self.mode, k=k
        ):
            _, encoded, pairs = self._prepare(
                db, weights, threshold_box[0], counters
            )
            with obs_trace.span("search"):
                patterns = self._search(
                    encoded, weights, threshold_box, pairs, counters,
                    on_emit=on_emit,
                )
        if contracts.checking:
            # No oracle check: the moving threshold has no fixed answer.
            counters.check_consistency()
        qualifying = [
            item
            for item in patterns
            if item.pattern.size >= min_size
            and item.support + _EPS >= threshold_box[0]
        ]
        qualifying.sort(key=PatternWithSupport.sort_key)
        result = qualifying[:k]
        elapsed = obs_clock.now() - started
        return MiningResult(
            patterns=result,
            threshold=threshold_box[0],
            db_size=len(db),
            elapsed=elapsed,
            counters=counters,
            metrics=_run_snapshot(
                obs_metrics.active_registry(),
                counters,
                patterns=len(result),
                elapsed=elapsed,
                db_size=len(db),
                threshold=threshold_box[0],
            ),
            miner="P-TPMiner(top-k)",
            params={
                "k": k,
                "min_size": min_size,
                "mode": self.mode,
                "pruning": self.pruning.describe(),
                "max_span": self.max_span,
            },
        )

    # ------------------------------------------------------------------
    # runtime contracts
    # ------------------------------------------------------------------
    #: Oracle cross-check size caps: the brute-force miner is exponential
    #: in sequence length, so the pruning-soundness contract only fires on
    #: inputs it can enumerate quickly.
    _ORACLE_MAX_SEQUENCES = 16
    _ORACLE_MAX_SEQ_EVENTS = 7
    _ORACLE_MAX_TOTAL_EVENTS = 48

    def _oracle_check(
        self,
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        patterns: list[PatternWithSupport],
    ) -> None:
        """Contract: pruning soundness against the brute-force oracle.

        On small unit-weight inputs, the pruned search must return
        exactly the pattern set (and supports) that exhaustive
        enumeration finds — i.e. no pruning path ever dropped a valid
        frequent pattern, and nothing spurious was emitted. Skipped when
        the input is too large to enumerate or uses features the oracle
        does not model (non-unit weights, ``max_tokens``, ``max_span``).
        """
        if self.max_tokens is not None or self.max_span is not None:
            return
        if threshold != int(threshold):
            return
        if any(weight != 1.0 for weight in weights):
            return
        num_sequences = len(db)
        if not 0 < num_sequences <= self._ORACLE_MAX_SEQUENCES:
            return
        sizes = [len(seq.events) for seq in db]
        if (
            max(sizes, default=0) > self._ORACLE_MAX_SEQ_EVENTS
            or sum(sizes) > self._ORACLE_MAX_TOTAL_EVENTS
        ):
            return
        from repro.baselines.bruteforce import BruteForceMiner

        absolute = int(threshold)
        # BruteForceMiner reads min_sup <= 1 as a relative frequency, so
        # express "absolute 1" as a fraction that ceils back to 1.
        min_sup = float(absolute) if absolute > 1 else 0.5 / num_sequences
        oracle = BruteForceMiner(
            min_sup, mode=self.mode, max_size=self.max_size
        ).mine(db)
        expected = {item.pattern: float(item.support) for item in oracle.patterns}
        actual = {item.pattern: float(item.support) for item in patterns}
        contracts.check(
            actual == expected,
            "pruned search disagrees with the brute-force oracle",
            details=lambda: (
                f"missing={sorted(str(p) for p in set(expected) - set(actual))[:5]}, "
                f"spurious={sorted(str(p) for p in set(actual) - set(expected))[:5]}, "
                "support_mismatches="
                f"{[(str(p), actual[p], expected[p]) for p in sorted(set(actual) & set(expected), key=str) if actual[p] != expected[p]][:5]}"
            ),
        )

    # ------------------------------------------------------------------
    # pruning 1: global point pruning
    # ------------------------------------------------------------------
    @staticmethod
    def _point_prune(
        db: ESequenceDatabase,
        weights: Sequence[float],
        threshold: float,
        counters: PruneCounters,
        *,
        tp: bool = False,
    ) -> KeptLabels:
        """The (label, flavour)s that can be frequent: the events to keep.

        Interval and point flavours of a label are counted separately
        because patterns reference them through different endpoint kinds.
        Returns the interval labels and the point labels to keep; the
        encoder drops every other event (:class:`EncodedDatabase`).
        With ``tp``, a point event raises
        :meth:`ESequenceDatabase.require_mode`'s error instead, so a TP
        mine walks the events once before it encodes.
        """
        interval_df: dict[str, float] = {}
        point_df: dict[str, float] = {}
        for seq in db:
            weight = weights[seq.sid]
            events = seq.events
            for label in {ev.label for ev in events if ev.start != ev.finish}:
                interval_df[label] = interval_df.get(label, 0.0) + weight
            for label in {ev.label for ev in events if ev.start == ev.finish}:
                point_df[label] = point_df.get(label, 0.0) + weight
        if tp and point_df:
            raise ValueError(POINT_EVENTS_IN_TP)
        keep_interval = {
            label for label, w in interval_df.items() if w + _EPS >= threshold
        }
        keep_point = {
            label for label, w in point_df.items() if w + _EPS >= threshold
        }
        counters.pruned_point_labels = (
            len(interval_df)
            - len(keep_interval)
            + len(point_df)
            - len(keep_point)
        )
        obs_recorder.labels_pruned(
            "interval", interval_df, keep_interval, threshold
        )
        obs_recorder.labels_pruned("point", point_df, keep_point, threshold)
        return keep_interval, keep_point

    # ------------------------------------------------------------------
    # the depth-first search
    # ------------------------------------------------------------------
    def _search(
        self,
        encoded: EncodedDatabase,
        weights: Sequence[float],
        threshold_box: list[float],
        pairs: Optional[PairTables],
        counters: PruneCounters,
        on_emit: Optional[Callable[[TemporalPattern, float], None]] = None,
        *,
        root_candidates: Optional[RootCandidates] = None,
        root_plan_out: Optional[list[RootCandidates]] = None,
    ) -> list[PatternWithSupport]:
        """Run the depth-first search; see the class docstring.

        The two keyword hooks exist for :mod:`repro.engine`'s level-1
        sharding and leave the serial path untouched:

        * ``root_plan_out`` — gather the root candidates (with full
          root-node accounting: node expansion, postfix branch bound,
          candidate counters), append them to the list, and return
          without descending. The parent process runs this once.
        * ``root_candidates`` — skip root gathering *and* root-node
          accounting, and expand exactly the given candidates. A worker
          runs this on its shard of the parent's plan, so summing the
          parent's and all shards' counters reproduces the serial run's
          counters bit for bit.
        """
        sequences = encoded.sequences
        postfix_prune = self.pruning.postfix
        max_span = self.max_span
        max_weight = max(weights, default=0.0)
        results: list[PatternWithSupport] = []

        # Pattern state, mutated along the DFS and restored on backtrack.
        pointsets: list[list[tuple[int, int]]] = []
        next_occ: dict[int, int] = {}
        # Open pattern occurrences as (label_id, pocc, pattern pointset
        # index), in the order they were opened: entry i is bound to
        # binds[i] of every projection state at this node.
        open_occs: list[tuple[int, int, int]] = []
        num_tokens = 0
        num_occurrences = 0

        # Observability: one recorder per search, ``None`` when no
        # collector is installed; every event below is guarded by one
        # local check, so the disabled path costs one branch (the
        # repro.contracts discipline).
        rec = obs_recorder.SearchRecorder.attach(
            encoded, weights, counters, pointsets
        )
        dedupe_stats = rec.dedupe_stats if rec is not None else None
        obs_span = obs_trace.span

        # Pair pruning's rows, built at the first node that needs them
        # and raised with a moving threshold (mine_top_k).
        pair_rows: Optional[PairRows] = None

        def pair_masks() -> tuple[int, int]:
            """Pair pruning at this node: the admissible symbols as
            ``(I-mask, S-mask)`` bit sets (:meth:`PairRows.masks`).
            Without pair pruning, and at the root, every symbol is
            admissible."""
            nonlocal pair_rows
            if pairs is None or not pointsets:
                return -1, -1
            threshold = threshold_box[0]
            if pair_rows is None or threshold < pair_rows.threshold:
                pair_rows = pairs.rows(threshold)
            elif threshold > pair_rows.threshold:
                pair_rows.raise_to(threshold)
            return pair_rows.masks(pointsets)

        def decode_pattern() -> TemporalPattern:
            return TemporalPattern(
                (
                    (encoded.decode_token((sym, pocc)) for sym, pocc in ps)
                    for ps in pointsets
                ),
                validate=False,
            )

        def gather_candidates(
            proj: list[tuple[int, tuple[State, ...]]],
            last_token: Optional[tuple[int, int]],
        ) -> dict[_Candidate, tuple[float, list[int]]]:
            """Phase 1: one scan yielding candidate -> (weight, sids).

            Point tokens need no mode check: ``_prepare`` rejects a tp
            database that holds point events. Each newly found candidate
            is counted, and pair-pruned unless its symbol's bit is set in
            its extension kind's mask.
            """
            masks = pair_masks()
            s_mask = masks[_S_EXT]
            considered = pruned = 0
            # Supporter sids per candidate (None if pair-pruned); those of
            # S-extension starts and points are collected per symbol.
            sids_of: dict[_Candidate, Optional[list[int]]] = {}
            start_sids: dict[int, Optional[list[int]]] = {}
            # Candidates rejected by the max_span window during the scan,
            # reported after it, minus any that another state *did*
            # discover (those were generated).
            span_skipped: Optional[set[_Candidate]] = (
                set() if rec is not None and max_span is not None else None
            )
            # The open occurrences a finish may close, as (i, sym, pocc).
            # Canonical duplicate rule: of the same-label occurrences
            # opened in one pattern pointset, the lowest pocc closes first.
            closable = [
                (i, lab * 3 + FINISH, pocc)
                for i, (lab, pocc, ps) in enumerate(open_occs)
                if not any(
                    olab == lab and ops == ps and opocc < pocc
                    for olab, opocc, ops in open_occs
                )
            ]
            for sid, states in proj:
                seq = sequences[sid]
                times = seq.times
                occ_finish = seq.occ_finish
                found: set[_Candidate] = set()
                if max_span is None:
                    # --- S-extension starts and points ------------------
                    # Consumed starts never lie after the frontier, so
                    # every start/point after a state's pos extends it:
                    # one walk of the last-position table from the
                    # sequence's smallest frontier serves all its states.
                    frontier = states[0][0]
                    if len(states) > 1:
                        frontier = min(st[0] for st in states)
                    for last, sym in seq.sym_last:
                        if last <= frontier:
                            break
                        if sym in start_sids:
                            sids = start_sids[sym]
                            if sids is not None:
                                sids.append(sid)
                        else:
                            start_sids[sym] = (
                                [sid] if s_mask >> sym & 1 else None
                            )
                for pos, binds, used, _min_finish, wstart in states:
                    limit = (
                        wstart + max_span
                        if max_span is not None and wstart is not None
                        else None
                    )
                    # --- finishes: each at its bound occurrence's finish
                    for i, fsym, pocc in closable:
                        fpos = occ_finish[binds[i]]
                        if fpos > pos:
                            if limit is None or times[fpos] <= limit + _EPS:
                                found.add((_S_EXT, fsym, pocc))
                        elif (
                            fpos == pos
                            and last_token is not None
                            and (fsym, pocc) > last_token
                        ):
                            found.add((_I_EXT, fsym, pocc))
                    # --- I-extension starts and points at the frontier --
                    # A one-token frontier holds just the token the state
                    # matched last: used, or a finish.
                    frontier_set = seq.occ_pointsets[pos]
                    if last_token is not None and len(frontier_set) > 1:
                        for sym, e in frontier_set:
                            if sym % 3 == FINISH:
                                continue
                            pocc = next_occ.get(sym // 3, 0) + 1
                            if (sym, pocc) <= last_token or used >> e & 1:
                                continue
                            if (
                                max_span is not None
                                and wstart is not None
                                and sym % 3 == START
                                and times[occ_finish[e]] - wstart
                                > max_span + _EPS
                            ):
                                if span_skipped is not None:
                                    span_skipped.add((_I_EXT, sym, pocc))
                                continue
                            found.add((_I_EXT, sym, pocc))
                    if max_span is None:
                        continue
                    # --- S-extension starts and points in the window ----
                    for pos2 in range(pos + 1, len(times)):
                        if limit is not None and times[pos2] > limit + _EPS:
                            break
                        window = wstart if wstart is not None else times[pos2]
                        for sym, e in seq.occ_pointsets[pos2]:
                            kind = sym % 3
                            if kind == FINISH:
                                continue
                            pocc = next_occ.get(sym // 3, 0) + 1
                            if kind == START and (
                                times[occ_finish[e]] - window > max_span + _EPS
                            ):
                                if span_skipped is not None:
                                    span_skipped.add((_S_EXT, sym, pocc))
                                continue
                            found.add((_S_EXT, sym, pocc))
                for cand in found:
                    if cand in sids_of:
                        sids = sids_of[cand]
                    else:
                        considered += 1
                        if masks[cand[0]] >> cand[1] & 1:
                            sids = sids_of[cand] = []
                        else:
                            sids = sids_of[cand] = None
                            pruned += 1
                            if rec is not None:
                                rec.pruned(
                                    "pair",
                                    num_tokens + 1,
                                    cand,
                                    threshold=threshold_box[0],
                                )
                    if sids is not None:
                        sids.append(sid)
            for sym, sids in start_sids.items():
                cand = (_S_EXT, sym, next_occ.get(sym // 3, 0) + 1)
                considered += 1
                if sids is None:
                    pruned += 1
                    if rec is not None:
                        rec.pruned(
                            "pair", num_tokens + 1, cand, threshold=threshold_box[0]
                        )
                sids_of[cand] = sids
            counters.candidates_considered += considered
            counters.pruned_pair += pruned
            if rec is not None and span_skipped:
                # Candidates no state discovered at all: window-rejected
                # everywhere, so the search never generated them.
                for cand in sorted(span_skipped):
                    if cand not in sids_of:
                        rec.pruned("max_span", num_tokens + 1, cand)
            gathered: dict[_Candidate, tuple[float, list[int]]] = {}
            for cand, sids in sids_of.items():
                if sids is not None:
                    weight = 0.0
                    for sid in sids:
                        weight += weights[sid]
                    gathered[cand] = (weight, sids)
            return gathered

        def project(
            proj_map: dict[int, tuple[State, ...]],
            cand: _Candidate,
            sids: list[int],
            close_idx: int,
        ) -> list[tuple[int, tuple[State, ...]]]:
            """Phase 2: build the projected states for one candidate.

            ``close_idx`` is, for a finish, the index into ``binds`` of
            the open occurrence it closes.
            """
            ext, sym, _pocc = cand
            kind = sym % 3
            new_proj: list[tuple[int, tuple[State, ...]]] = []
            for sid in sids:
                seq = sequences[sid]
                times = seq.times
                occ_start = seq.occ_start
                occ_finish = seq.occ_finish
                new_states: list[State] = []
                for pos, binds, used, min_finish, wstart in proj_map[sid]:
                    limit = (
                        wstart + max_span
                        if max_span is not None and wstart is not None
                        else None
                    )
                    if kind == FINISH:
                        # One candidate position: the bound occurrence's
                        # finish, at the frontier (I) or after it (S).
                        fpos = occ_finish[binds[close_idx]]
                        if ext == _I_EXT:
                            if fpos != pos:
                                continue
                        elif fpos <= pos or (
                            limit is not None and times[fpos] > limit + _EPS
                        ):
                            continue
                        rest = binds[:close_idx] + binds[close_idx + 1 :]
                        if min_finish < fpos:
                            # Postfix pruning (dead-state elimination): an
                            # embedding that moved strictly past a pending
                            # finish can never yield a complete pattern.
                            # Under it every state keeps min_finish >= pos,
                            # so only S-extensions trip this check.
                            if postfix_prune:
                                counters.pruned_dead_states += 1
                                continue
                            rest_min = min_finish
                        elif rest:
                            rest_min = min(map(occ_finish.__getitem__, rest))
                        else:
                            rest_min = NO_FINISH
                        new_states.append((fpos, rest, used, rest_min, wstart))
                        continue
                    if ext == _I_EXT:
                        occs: Sequence[int] = [
                            e
                            for s2, e in seq.occ_pointsets[pos]
                            if s2 == sym and not used >> e & 1
                        ]
                        after = pos - 1
                    else:
                        # Occurrences after the frontier are never used.
                        occs = seq.sym_occs[sym]
                        after = pos
                    for e in occs:
                        pos2 = occ_start[e]
                        if pos2 <= after:
                            continue
                        if limit is not None and times[pos2] > limit + _EPS:
                            break
                        window = wstart
                        if max_span is not None:
                            if window is None:
                                window = times[pos2]
                            if kind == START and (
                                times[occ_finish[e]] - window > max_span + _EPS
                            ):
                                continue
                        # Postfix pruning, as above (a finish AT pos2 is
                        # still reachable by I-extension).
                        if postfix_prune and min_finish < pos2:
                            counters.pruned_dead_states += 1
                            continue
                        if kind == START:
                            finish = occ_finish[e]
                            new_states.append((
                                pos2, (*binds, e), used | 1 << e,
                                finish if finish < min_finish else min_finish,
                                window,
                            ))
                        else:
                            new_states.append(
                                (pos2, binds, used | 1 << e, min_finish, window)
                            )
                deduped = dedupe_states(new_states, dedupe_stats)
                if contracts.checking:
                    for checked in deduped:
                        check_state(checked, seq)
                counters.states_created += len(deduped)
                if deduped:
                    new_proj.append((sid, deduped))
            return new_proj

        def dfs(
            proj: list[tuple[int, tuple[State, ...]]],
            last_token: Optional[tuple[int, int]],
        ) -> None:
            nonlocal num_tokens, num_occurrences
            # Sharded roots skip gathering AND root-node accounting: the
            # parent process already did both during plan().
            at_root = last_token is None
            if at_root and root_candidates is not None:
                candidates = root_candidates
            else:
                counters.nodes_expanded += 1
                if postfix_prune:
                    # O(1) branch bound: at most len(proj) sequences of at
                    # most max_weight each can support any descendant.
                    if len(proj) * max_weight + _EPS < threshold_box[0]:
                        counters.pruned_postfix_branches += 1
                        if rec is not None:
                            rec.pruned(
                                "postfix_branch",
                                num_tokens,
                                support=len(proj) * max_weight,
                                threshold=threshold_box[0],
                            )
                        return
                if (
                    self.max_tokens is not None
                    and num_tokens >= self.max_tokens
                ):
                    if rec is not None:
                        rec.pruned("max_tokens", num_tokens)
                    return
                with obs_span("extend", depth=num_tokens):
                    candidates = gather_candidates(proj, last_token)
                if rec is not None:
                    rec.gathered(num_tokens, candidates)
            if at_root and root_plan_out is not None:
                root_plan_out.append(candidates)
                return
            proj_map = dict(proj)
            for cand in sorted(candidates):
                weight, sids = candidates[cand]
                if weight + _EPS < threshold_box[0]:
                    if rec is not None:
                        rec.pruned(
                            "support",
                            num_tokens + 1,
                            cand,
                            support=_tidy(weight),
                            threshold=threshold_box[0],
                        )
                        if at_root:
                            rec.root_done()
                    continue
                ext, sym, pocc = cand
                kind = sym % 3
                lab = sym // 3
                if (
                    self.max_size is not None
                    and kind != FINISH
                    and num_occurrences >= self.max_size
                ):
                    if rec is not None:
                        rec.pruned("max_size", num_tokens + 1, cand)
                    continue
                if rec is not None:
                    # At the root this opens the subtree's cost bracket,
                    # so it precedes the candidates_frequent increment.
                    rec.frequent(num_tokens + 1, (sym, pocc) if at_root else None)
                counters.candidates_frequent += 1
                close_idx = -1  # the slot of the open occurrence a finish closes
                if kind == FINISH:
                    close_idx = [occ[:2] for occ in open_occs].index((lab, pocc))
                with obs_span(
                    "project",
                    ext="I" if ext == _I_EXT else "S",
                    depth=num_tokens + 1,
                ):
                    new_proj = project(proj_map, cand, sids, close_idx)
                if rec is not None:
                    rec.projected(num_tokens + 1, new_proj)
                # --- apply the extension to the pattern state ----------
                if ext == _S_EXT:
                    pointsets.append([(sym, pocc)])
                else:
                    pointsets[-1].append((sym, pocc))
                num_tokens += 1
                if kind == FINISH:
                    closed = open_occs.pop(close_idx)
                else:
                    next_occ[lab] = pocc
                    num_occurrences += 1
                    if kind == START:
                        open_occs.append((lab, pocc, len(pointsets) - 1))
                if not open_occs:
                    counters.patterns_emitted += 1
                    pattern = decode_pattern()
                    if contracts.checking:
                        _check_emitted_pattern(pattern, num_tokens)
                    support = _tidy(weight)
                    results.append(PatternWithSupport(pattern, support))
                    if rec is not None:
                        rec.emitted(
                            pattern, support, weight, new_proj, num_tokens
                        )
                    if on_emit is not None:
                        on_emit(pattern, weight)
                dfs(new_proj, (sym, pocc))
                # --- backtrack ------------------------------------------
                if kind == FINISH:
                    # Re-open the interval in its old slot, so binds of
                    # the states at this node line up again.
                    open_occs.insert(close_idx, closed)
                else:
                    if pocc > 1:
                        next_occ[lab] = pocc - 1
                    else:
                        del next_occ[lab]
                    num_occurrences -= 1
                    if kind == START:
                        open_occs.pop()
                num_tokens -= 1
                if ext == _S_EXT:
                    pointsets.pop()
                else:
                    pointsets[-1].pop()
                if rec is not None and at_root:
                    rec.root_done()

        root = [
            (seq.sid, (EMPTY_STATE,))
            for seq in sequences
            if seq.pointsets and weights[seq.sid] > 0
        ]
        dfs(root, None)
        if rec is not None:
            rec.finish()
        return results


def _check_emitted_pattern(pattern: TemporalPattern, num_tokens: int) -> None:
    """Contract: an emitted pattern is well-formed, complete, canonical.

    Validity-during-generation means the search should never need a
    post-hoc validation scan — this check proves it keeps that promise
    whenever runtime contracts are enabled.
    """
    try:
        TemporalPattern(pattern.pointsets, validate=True)
    except ValueError as exc:
        raise contracts.ContractViolation(
            f"emitted malformed pattern {pattern}: {exc}"
        ) from exc
    contracts.check(
        pattern.is_complete,
        "emitted pattern has unfinished intervals",
        details=lambda: str(pattern),
    )
    contracts.check(
        pattern.num_tokens == num_tokens,
        "pattern token bookkeeping out of sync with the search",
        details=lambda: f"{pattern} vs num_tokens={num_tokens}",
    )
    contracts.check(
        pattern.is_canonical,
        "emitted pattern is not in canonical form",
        details=lambda: str(pattern),
    )


def _kept_events(
    db: ESequenceDatabase, keep: KeptLabels
) -> ESequenceDatabase:
    """``db`` without the events point pruning dropped.

    Sequences are kept (possibly empty) so sids stay aligned with the
    weight vector.
    """
    keep_interval, keep_point = keep
    return ESequenceDatabase(
        (
            ESequence(
                (
                    ev
                    for ev in seq
                    if ev.label
                    in (keep_point if ev.start == ev.finish else keep_interval)
                ),
                sid=seq.sid,
            )
            for seq in db
        ),
        name=db.name,
    )


def _tidy(weight: float) -> float:
    """Render integer-valued supports as ints for readable results."""
    rounded = round(weight)
    return rounded if abs(weight - rounded) < 1e-9 else weight


def mine(
    db: ESequenceDatabase,
    min_sup: Optional[float] = None,
    *,
    config: Optional[MinerConfig] = None,
    workers: int = 1,
    **kwargs: Any,
) -> MiningResult:
    """Convenience one-call API: ``mine(db, 0.05)``.

    Accepts either a ready-made :class:`~repro.core.config.MinerConfig`
    (``mine(db, config=cfg)``) or keyword options that build one
    (``mine(db, 0.05, mode="htp")``); unknown keywords fail eagerly with
    a ``TypeError`` naming the valid options. ``workers > 1`` dispatches
    to the sharded engine (:func:`repro.engine.mine_sharded`), which
    returns the exact serial pattern set and counters.
    """
    if config is not None:
        if min_sup is not None or kwargs:
            raise TypeError(
                "pass either config= or individual miner options, not both"
            )
    else:
        if min_sup is not None:
            kwargs["min_sup"] = min_sup
        config = MinerConfig.from_kwargs(**kwargs)
    if workers == 1:
        return PTPMiner.from_config(config).mine(db)
    from repro.engine import mine_sharded

    return mine_sharded(db, config, workers=workers)
