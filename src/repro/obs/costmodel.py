"""Per-root / per-level search cost attribution.

The paper's evidence is comparative search-space accounting, but the
:class:`~repro.core.pruning.PruneCounters` totals only say *how much*
work a run did — not *where in the search tree* it went. This module
attributes cost to the two axes the next performance arcs need:

* **roots** — for every frequent level-1 candidate (a search-tree root),
  the wall time and counter deltas (states created, nodes expanded,
  prune attributions, patterns emitted) of its entire subtree. Adaptive
  resharding and work stealing key off exactly this profile: which roots
  are heavy.
* **levels** — a per-depth candidate funnel (nodes that gathered
  candidates, candidates seen, candidates frequent, patterns emitted),
  the same shape as the paper's per-level candidate tables.

Collection follows the repo's zero-cost-when-disabled discipline
(`docs/observability.md`): :func:`active_collector` is ``None`` unless a
:class:`CostCollector` is installed, and the search reaches it only
through its :mod:`repro.obs.recorder`, which tallies the level funnel
once per search and folds it in with :meth:`CostCollector.absorb`, and
records each root subtree with :meth:`CostCollector.record_root`.

Sharding: the parent's ``plan_root`` records the root-level funnel once;
each worker records the subtrees of its disjoint root subset into a
private collector, ships :meth:`CostCollector.snapshot` home inside
``ShardResult.obs`` (one snapshot with the shard's other collectors),
and the parent merges with :meth:`CostCollector.absorb`. Because every root lives in
exactly one shard and level tallies are plain integer sums, the merged
profile is bit-for-bit identical to a serial run's for any worker count
and any shard arrival order (wall times compare equal under a frozen
:class:`~repro.obs.clock.ManualClock`; with a real clock they are the
one environment-dependent field, which is why :func:`profile_digest`
excludes them).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import AbstractContextManager
from typing import Any, Mapping, Optional

from repro.obs import seam

__all__ = [
    "COST_SCHEMA_VERSION",
    "CostCollector",
    "LEVEL_FIELDS",
    "active_collector",
    "profile_digest",
    "set_collector",
    "top_roots",
    "use_collector",
]

#: Schema stamp on every snapshot, bumped on breaking shape changes.
COST_SCHEMA_VERSION = 1

#: ``PruneCounters.as_dict`` keys attributed per root subtree. Fixed
#: order; ``candidates_considered``/``pruned_point_labels`` are omitted
#: because they are root-gather costs, not subtree costs.
_ROOT_FIELDS = (
    "nodes_expanded",
    "candidates_frequent",
    "pruned_pair",
    "pruned_postfix_branches",
    "pruned_dead_states",
    "states_created",
    "patterns_emitted",
)

#: Per-level funnel fields, in emission order.
LEVEL_FIELDS = ("nodes", "candidates", "frequent", "patterns")


class CostCollector:
    """Accumulates per-root and per-level search cost.

    :meth:`record_root` is the per-root recording surface; the level
    funnel arrives already tallied, through :meth:`absorb`. Snapshots
    are plain JSON-able dicts so they cross the engine's process
    boundary unchanged.
    """

    def __init__(self) -> None:
        self._roots: dict[str, dict[str, Any]] = {}
        self._levels: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_root(
        self,
        root: str,
        wall_s: float,
        before: Mapping[str, int],
        after: Mapping[str, int],
    ) -> None:
        """Attribute one root subtree: ``after - before`` counter deltas.

        ``before``/``after`` are ``PruneCounters.as_dict()`` snapshots
        taken around the root's expansion; only :data:`_ROOT_FIELDS`
        are kept. Each root is expanded exactly once per run, so a
        repeated ``root`` key (only possible across merges of
        overlapping runs) accumulates.
        """
        entry = self._roots.get(root)
        if entry is None:
            entry = {"wall_s": 0.0, **dict.fromkeys(_ROOT_FIELDS, 0)}
            self._roots[root] = entry
        entry["wall_s"] += wall_s
        for fld in _ROOT_FIELDS:
            entry[fld] += int(after.get(fld, 0)) - int(before.get(fld, 0))

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-able, key-sorted snapshot of everything recorded."""
        return {
            "schema": COST_SCHEMA_VERSION,
            "kind": "repro-cost",
            "roots": {
                root: {
                    "wall_s": entry["wall_s"],
                    **{fld: entry[fld] for fld in _ROOT_FIELDS},
                }
                for root, entry in sorted(self._roots.items())
            },
            "levels": {
                str(level): {fld: row[fld] for fld in LEVEL_FIELDS}
                for level, row in sorted(self._levels.items())
            },
        }

    def absorb(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot in, order-independently.

        Takes shard snapshots and the recorder's per-search level funnel
        (a snapshot with ``levels`` only). Shard snapshots cover
        disjoint root subsets, so root entries
        are a keyed union (a shared key — e.g. the parent's root-level
        funnel vs. a worker's — accumulates field-wise) and the merged
        result is identical for any arrival order. Iteration is sorted
        anyway so emission order never leaks producer order.
        """
        schema = snapshot.get("schema")
        if schema != COST_SCHEMA_VERSION:
            raise ValueError(
                f"cost snapshot schema {schema!r} != {COST_SCHEMA_VERSION}"
            )
        for root, entry in sorted(dict(snapshot.get("roots", {})).items()):
            mine = self._roots.get(root)
            if mine is None:
                mine = {"wall_s": 0.0, **dict.fromkeys(_ROOT_FIELDS, 0)}
                self._roots[root] = mine
            mine["wall_s"] += float(entry.get("wall_s", 0.0))
            for fld in _ROOT_FIELDS:
                mine[fld] += int(entry.get(fld, 0))
        for level_key, row in sorted(dict(snapshot.get("levels", {})).items()):
            level = int(level_key)
            mine_row = self._levels.get(level)
            if mine_row is None:
                mine_row = dict.fromkeys(LEVEL_FIELDS, 0)
                self._levels[level] = mine_row
            for fld in LEVEL_FIELDS:
                mine_row[fld] += int(row.get(fld, 0))


def profile_digest(snapshot: Mapping[str, Any]) -> str:
    """Short content hash of a snapshot, excluding wall times.

    Wall times are the only environment-dependent field, so two runs of
    the same configuration — serial or sharded, fast or slow machine —
    digest identically iff they explored the same search space. The
    ledger stores this digest per run; a digest shift between runs of
    one config fingerprint means the *search* changed, not the machine.
    """
    stripped = {
        "schema": snapshot.get("schema"),
        "roots": {
            root: {
                fld: value
                for fld, value in sorted(dict(entry).items())
                if fld != "wall_s"
            }
            for root, entry in sorted(dict(snapshot.get("roots", {})).items())
        },
        "levels": {
            key: dict(sorted(dict(row).items()))
            for key, row in sorted(dict(snapshot.get("levels", {})).items())
        },
    }
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def top_roots(
    snapshot: Mapping[str, Any], n: int = 5
) -> list[dict[str, Any]]:
    """The ``n`` heaviest roots: by wall time, then states, then name.

    The two tiebreakers make the ranking deterministic even when wall
    times are all equal (frozen clock) or all zero (shipped snapshots
    from a worker that never saw the parent's clock).
    """
    ranked = sorted(
        dict(snapshot.get("roots", {})).items(),
        key=lambda item: (
            -float(item[1].get("wall_s", 0.0)),
            -int(item[1].get("states_created", 0)),
            item[0],
        ),
    )
    return [
        {"root": root, **{key: entry[key] for key in sorted(entry)}}
        for root, entry in ranked[: max(n, 0)]
    ]


# ----------------------------------------------------------------------
# the public names over the named seam (repro.obs.seam.COST)
# ----------------------------------------------------------------------
def active_collector() -> Optional[CostCollector]:
    """The installed collector, or ``None`` when cost tracking is off."""
    return seam.COST.active()


def set_collector(collector: Optional[CostCollector]) -> None:
    """Install ``collector`` process-wide (``None`` turns tracking off)."""
    seam.COST.install(collector)


def use_collector(
    collector: Optional[CostCollector] = None,
) -> AbstractContextManager[CostCollector]:
    """Scope-install a collector (a fresh one by default); restores on exit."""
    return seam.COST.scope(CostCollector() if collector is None else collector)
