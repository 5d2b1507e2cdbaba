"""Pruning configuration and accounting for P-TPMiner.

The paper's abstract promises "some pruning techniques ... to further
reduce the search space of the mining process". Our reconstruction ships
three, individually switchable for the ablation experiment (bench F5):

``point``
    *Global point pruning.* Labels whose document frequency is below the
    threshold are left out of the encoding the search runs on: by
    anti-monotonicity no pattern that mentions them can be frequent, so
    every scan afterwards is over shorter pointsets.

``pair``
    *Pair pruning.* Using the precomputed
    :class:`~repro.core.counting.PairTables`, a candidate extension token
    is discarded — before any projection work — when its sym-level pair
    bound against the tokens already in the pattern falls below the
    threshold (S-pairs against all pattern symbols for sequence
    extensions; I-pairs against the current pointset plus S-pairs against
    earlier pointsets for itemset extensions). The search evaluates the
    bound once per node, as one bit mask per extension kind
    (:meth:`~repro.core.counting.PairRows.masks`).

``postfix``
    *Postfix pruning.* Two parts: (a) an O(1) branch bound — a branch
    whose projected database cannot reach the threshold
    (``len(proj) * max_weight < threshold``) is abandoned before
    scanning; and (b) **dead-state elimination** — a projection state
    whose frontier has moved past the finish position of a pending
    (open) occurrence can never produce a complete pattern, so it is
    dropped at projection time, shrinking every subsequent postfix scan
    (see :mod:`repro.core.projection` for the soundness argument).

:class:`PruneCounters` records how often each rule fired; the ablation
bench reports these next to the runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import contracts

__all__ = ["PRUNE_SITES", "PruningConfig", "PruneCounters"]

#: Every site at which the search kills a candidate or a node, as named
#: in provenance records (:mod:`repro.obs.provenance`) and the
#: ``why-not`` CLI. The first three are the paper's pruning techniques;
#: the rest are the configured search limits.
#:
#: ``point``
#:     A (label, flavour) fell below the threshold before the search.
#: ``pair``
#:     The candidate's sym-level pair bound fell below the threshold.
#: ``postfix_branch``
#:     The O(1) branch bound abandoned the node's whole subtree.
#: ``support``
#:     The candidate's projected support fell below the threshold.
#: ``max_size`` / ``max_tokens`` / ``max_span``
#:     A configured limit excluded the candidate (``max_span`` records
#:     only candidates discovered and then window-rejected; extensions
#:     beyond the window's postfix scan are never generated at all).
PRUNE_SITES = (
    "point",
    "pair",
    "postfix_branch",
    "support",
    "max_size",
    "max_tokens",
    "max_span",
)


@dataclass(frozen=True, slots=True)
class PruningConfig:
    """Which of the three pruning techniques are active."""

    point: bool = True
    pair: bool = True
    postfix: bool = True

    @classmethod
    def none(cls) -> "PruningConfig":
        """All prunings disabled (the TPrefixSpan-like search shape)."""
        return cls(point=False, pair=False, postfix=False)

    @classmethod
    def all(cls) -> "PruningConfig":
        """All prunings enabled (the full P-TPMiner)."""
        return cls(point=True, pair=True, postfix=True)

    def describe(self) -> str:
        """Short label like ``"point+pair"`` for benchmark tables."""
        on = [
            name
            for name, flag in (
                ("point", self.point),
                ("pair", self.pair),
                ("postfix", self.postfix),
            )
            if flag
        ]
        return "+".join(on) if on else "none"


@dataclass(slots=True)
class PruneCounters:
    """Search-effort accounting exposed on every mining result."""

    nodes_expanded: int = 0
    candidates_considered: int = 0
    candidates_frequent: int = 0
    pruned_point_labels: int = 0
    pruned_pair: int = 0
    pruned_postfix_branches: int = 0
    pruned_dead_states: int = 0
    states_created: int = 0
    patterns_emitted: int = 0
    extras: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        """Flatten to a plain dict for harness tables."""
        out = {
            "nodes_expanded": self.nodes_expanded,
            "candidates_considered": self.candidates_considered,
            "candidates_frequent": self.candidates_frequent,
            "pruned_point_labels": self.pruned_point_labels,
            "pruned_pair": self.pruned_pair,
            "pruned_postfix_branches": self.pruned_postfix_branches,
            "pruned_dead_states": self.pruned_dead_states,
            "states_created": self.states_created,
            "patterns_emitted": self.patterns_emitted,
        }
        out.update(self.extras)
        return out

    def merge(self, other: "PruneCounters") -> None:
        """Add another search's accounting into this one.

        The shard-merge seam: :mod:`repro.engine` sums the parent's
        root accounting with every worker's subtree accounting, which by
        construction reproduces the serial run's counters exactly.
        """
        self.nodes_expanded += other.nodes_expanded
        self.candidates_considered += other.candidates_considered
        self.candidates_frequent += other.candidates_frequent
        self.pruned_point_labels += other.pruned_point_labels
        self.pruned_pair += other.pruned_pair
        self.pruned_postfix_branches += other.pruned_postfix_branches
        self.pruned_dead_states += other.pruned_dead_states
        self.states_created += other.states_created
        self.patterns_emitted += other.patterns_emitted
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0) + value

    def check_consistency(self) -> None:
        """Contract: the counters form a coherent account of one search.

        Intended for the end of a P-TPMiner run (the baselines populate
        only a subset of the counters). No-op unless runtime contracts
        are enabled.
        """
        if not contracts.checking:
            return
        contracts.check(
            all(value >= 0 for value in self.as_dict().values()),
            "search counters must be non-negative",
            details=self.as_dict().__repr__,
        )
        contracts.check(
            self.patterns_emitted <= self.candidates_frequent,
            "every emitted pattern stems from a frequent candidate",
            details=lambda: (
                f"emitted={self.patterns_emitted}, "
                f"frequent={self.candidates_frequent}"
            ),
        )
        contracts.check(
            self.pruned_pair <= self.candidates_considered,
            "pair pruning cannot fire more often than candidates were seen",
            details=lambda: (
                f"pruned_pair={self.pruned_pair}, "
                f"considered={self.candidates_considered}"
            ),
        )
