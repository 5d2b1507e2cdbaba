"""The one path from P-TPMiner's search to every installed collector.

The search reports its events — candidates gathered, candidate
frequent / projected / pruned, pattern emitted, root done — to one
:class:`SearchRecorder`, which fans each out to whichever of the
metrics registry, cost collector, provenance collector and a shard's
live sink is installed. This module is the
only caller of a collector's ``record_*`` methods (lint rule R019), so
the miner never knows which collectors exist. :meth:`SearchRecorder.attach` returns
``None`` when none is installed; the search hoists that one local and
guards every event with one ``is not None`` branch. Spans are not
events: :func:`repro.obs.trace.span` already does nothing unheard.

Per-level search shape is tallied once, ``[nodes, candidates,
frequent, patterns, states]`` per candidate level (the pattern length
an extension would reach), and flushed when the search finishes into
the registry's per-depth counters and the cost collector's funnel.

The recorder finds the installed collectors on their named seams
(:mod:`repro.obs.seam`) and imports no collector module: a collector
that is installed was built, so its module is already loaded, and a
search with none installed loads none of them.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from typing import TYPE_CHECKING, Any, Optional

from repro import contracts
from repro.model.pattern import TemporalPattern
from repro.obs import clock as obs_clock
from repro.obs import seam

if TYPE_CHECKING:
    from repro.core.pruning import PruneCounters
    from repro.temporal.endpoint import EncodedDatabase

__all__ = ["SearchRecorder", "labels_pruned"]

#: A candidate extension ``(ext_kind, sym, pocc)``; ext kind 0 is an
#: I-extension, 1 an S-extension (as in :mod:`repro.core.ptpminer`).
_Candidate = tuple[int, int, int]
_EXT_NAMES = ("I", "S")

#: Histogram bounds for candidates discovered per search node.
_CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)

#: Slots of one level's tally; the first four are the cost funnel's
#: :data:`~repro.obs.costmodel.LEVEL_FIELDS`, in order.
_NODES, _CANDIDATES, _FREQUENT, _PATTERNS, _STATES = range(5)


class SearchRecorder:
    """Fans one search's events out to the installed collectors.

    Built once per search by :meth:`attach`. ``pointsets`` is the
    search's live pattern prefix (mutated along the DFS), read to name
    killed candidates and subtrees.
    """

    def __init__(
        self,
        encoded: EncodedDatabase,
        weights: Sequence[float],
        counters: PruneCounters,
        pointsets: Sequence[Sequence[tuple[int, int]]],
    ) -> None:
        self._encoded = encoded
        self._weights = weights
        self._counters = counters
        self._pointsets = pointsets
        self._registry = seam.METRICS.active()
        self._cost = seam.COST.active()
        self._prov = seam.PROVENANCE.active()
        self._sink = seam.LIVE_SINK.active()
        self._levels: dict[int, list[int]] = {}
        # [candidates, pair-pruned] per extension kind (registry only).
        self._by_ext = [[0, 0], [0, 0]]
        # The level-1 token whose subtree the search is inside: the
        # provenance attribution key and the cost profile's root name.
        self._root = ""
        # Start of the open root's cost bracket; None when none is open.
        self._root_t0: Optional[float] = None
        self._root_counters: dict[str, int] = {}
        #: Duplicate-state tally the projection step feeds
        #: (:func:`repro.core.projection.dedupe_states`); registry only.
        self.dedupe_stats: Optional[dict[str, int]] = (
            {} if self._registry is not None else None
        )

    @classmethod
    def attach(
        cls,
        encoded: EncodedDatabase,
        weights: Sequence[float],
        counters: PruneCounters,
        pointsets: Sequence[Sequence[tuple[int, int]]],
    ) -> Optional[SearchRecorder]:
        """A recorder for one search, or ``None`` when nothing listens."""
        if (
            seam.METRICS.active() is None
            and seam.COST.active() is None
            and seam.PROVENANCE.active() is None
            and seam.LIVE_SINK.active() is None
        ):
            return None
        return cls(encoded, weights, counters, pointsets)

    def gathered(self, depth: int, candidates: Collection[_Candidate]) -> None:
        """A node at ``depth`` gathered ``candidates`` (pair survivors)."""
        row = self._row(depth + 1)
        row[_NODES] += 1
        row[_CANDIDATES] += len(candidates)
        if self._registry is not None:
            by_ext = self._by_ext
            for ext, _sym, _pocc in candidates:
                by_ext[ext][0] += 1
            self._registry.histogram(
                "search.candidates_per_node", buckets=_CANDIDATE_BUCKETS
            ).observe(len(candidates))

    def frequent(
        self, level: int, root: Optional[tuple[int, int]] = None
    ) -> None:
        """A candidate at ``level`` passed the support check; ``root`` is
        its token when it opens a root subtree (cost bracket starts)."""
        if root is not None:
            self._root = str(self._encoded.decode_token(root))
            if self._cost is not None:
                self._root_t0 = obs_clock.now()
                self._root_counters = self._counters.as_dict()
        self._row(level)[_FREQUENT] += 1

    def projected(self, level: int, new_proj: Sequence[Any]) -> None:
        """A frequent candidate at ``level`` projected into ``new_proj``."""
        if self._registry is not None:
            self._row(level)[_STATES] += sum(len(sts) for _s, sts in new_proj)

    def pruned(
        self,
        site: str,
        level: int,
        cand: Optional[_Candidate] = None,
        *,
        support: Optional[float] = None,
        threshold: Optional[float] = None,
    ) -> None:
        """A candidate, or (``cand=None``) the current node, was killed.

        ``site`` is one of :data:`repro.core.pruning.PRUNE_SITES`. A
        killed candidate is named by the pattern it would have reached;
        a killed node by its own prefix (the root node has none, so its
        kills are not recorded).
        """
        if site == "pair" and cand is not None:
            self._by_ext[cand[0]][1] += 1
        prov = self._prov
        if prov is None:
            return
        if cand is None:
            if not self._pointsets:
                return
            text = str(self._pattern(self._pointsets))
            root = self._root
        else:
            text = self._extended(cand)
            root = (
                self._root
                if self._pointsets
                else str(self._encoded.decode_token((cand[1], cand[2])))
            )
        prov.record_pruned(
            text, site=site, level=level, root=root, support=support,
            threshold=threshold,
        )

    def emitted(
        self,
        pattern: TemporalPattern,
        support: float,
        weight: float,
        new_proj: Sequence[Any],
        level: int,
    ) -> None:
        """``pattern`` was emitted with ``new_proj`` as its projection."""
        self._row(level)[_PATTERNS] += 1
        prov = self._prov
        if prov is None:
            return
        # Every supporter survives projection of a complete pattern (no
        # pending occurrence, so dead-state elimination never fires),
        # hence new_proj carries the full support set; the first state's
        # used-set is one concrete embedding — the witness.
        sids = [sid for sid, _states in new_proj]
        if contracts.checking:
            contracts.check(
                abs(sum(self._weights[sid] for sid in sids) - weight)
                <= 1e-6,
                "recorded support set disagrees with the reported support",
                details=lambda: f"{pattern}: sids={sids}, support={weight}",
            )
        sequences = self._encoded.sequences
        labels = self._encoded.labels
        prov.record_emitted(
            str(pattern),
            support,
            sids,
            {
                sid: [
                    (labels[lab], occ)
                    for e, (lab, occ) in enumerate(sequences[sid].occ_keys)
                    if states[0][2] >> e & 1
                ]
                for sid, states in new_proj
            },
            root=self._root,
            level=level,
        )

    def root_done(self) -> None:
        """One root candidate is finished: its subtree was expanded, or
        the support check killed it (then it opened no cost bracket)."""
        if self._cost is not None and self._root_t0 is not None:
            # Each root is expanded exactly once (in one shard, or
            # serially), so merged profiles are unions, never sums.
            self._cost.record_root(
                self._root,
                obs_clock.now() - self._root_t0,
                self._root_counters,
                self._counters.as_dict(),
            )
            self._root_t0 = None
        if self._sink is not None:
            counters = self._counters
            self._sink.root_done(counters.patterns_emitted, counters.as_dict())

    def finish(self) -> None:
        """Flush the per-level tally and per-search totals, and publish
        the live sink's final frame."""
        levels = sorted(self._levels.items())
        registry = self._registry
        if registry is not None:
            for level, row in levels:
                if row[_FREQUENT]:
                    registry.counter(
                        "search.states_by_depth", depth=level
                    ).inc(row[_STATES])
                if row[_PATTERNS]:
                    registry.counter(
                        "search.patterns_by_length", tokens=level
                    ).inc(row[_PATTERNS])
            for (found, pruned), name in zip(self._by_ext, _EXT_NAMES):
                registry.counter("search.candidates", ext=name).inc(found)
                registry.counter("search.pruned_pair", ext=name).inc(pruned)
            if self.dedupe_stats:
                registry.counter("search.states_deduped").inc(
                    self.dedupe_stats.get("states_deduped", 0)
                )
        if self._cost is not None:
            # Loaded already: the installed collector is one of its own.
            from repro.obs.costmodel import COST_SCHEMA_VERSION, LEVEL_FIELDS

            self._cost.absorb({
                "schema": COST_SCHEMA_VERSION,
                "levels": {
                    str(lv): dict(zip(LEVEL_FIELDS, row)) for lv, row in levels
                },
            })
        if self._sink is not None:
            counters = self._counters
            self._sink.finish(
                counters.patterns_emitted,
                {k: float(v) for k, v in counters.as_dict().items()},
            )

    def _row(self, level: int) -> list[int]:
        row = self._levels.get(level)
        if row is None:
            row = self._levels[level] = [0, 0, 0, 0, 0]
        return row

    def _pattern(self, pointsets: Sequence[Any]) -> TemporalPattern:
        decode = self._encoded.decode_token
        return TemporalPattern(
            ((decode(tok) for tok in ps) for ps in pointsets),
            validate=False,
        )

    def _extended(self, cand: _Candidate) -> str:
        """Canonical string of the pattern ``cand`` would extend to: the
        key ``why-not`` looks a queried pattern's prefixes up by."""
        ext, sym, pocc = cand
        extended = [list(ps) for ps in self._pointsets]
        if ext == 1 or not extended:
            extended.append([(sym, pocc)])
        else:
            extended[-1].append((sym, pocc))
        return str(self._pattern(extended))


def labels_pruned(
    flavour: str,
    df: Mapping[str, float],
    keep: Collection[str],
    threshold: float,
) -> None:
    """Point pruning dropped every ``flavour`` label of ``df`` not kept.

    It runs once, in the parent (shard workers get the pruned database),
    so these records are never duplicated across shard snapshots.
    """
    prov = seam.PROVENANCE.active()
    if prov is None:
        return
    for label in sorted(set(df) - set(keep)):
        prov.record_pruned_label(label, flavour, df[label], threshold)

