"""Pattern provenance and prune-decision audit.

The rest of the observability stack answers *how long* and *where the
effort went*. This module answers the query-side questions the result
set itself raises:

* **explain** — why is this pattern in the result? For every emitted
  pattern the search records its supporting sequence ids plus one
  witness occurrence per sequence: the concrete ``(label, occurrence)``
  event bindings of the embedding the projection found, i.e. evidence
  that can be checked against the raw data.
* **why-not** — why is this pattern *not* in the result? For every
  killed candidate the search records the prune site (one of
  :data:`repro.core.pruning.PRUNE_SITES`), the level (pattern length in
  tokens the candidate would have reached), and the level-1 root whose
  subtree it died in. :func:`why_not` walks the recorded candidate tree
  along the queried pattern's generation prefixes and distinguishes
  *pruned with a rule* from *never generated because a prefix died*.
* **result diff** — which prune decisions explain the difference
  between two runs? :func:`diff_patterns` joins two snapshots and
  attributes every added/removed pattern to the decision that killed it
  in the other run.

Collection follows the repo's zero-cost-when-disabled discipline
(`docs/observability.md`): :func:`active_collector` is ``None`` unless
a :class:`ProvenanceCollector` is installed, the search hoists one
local, and every recording site is guarded by a single ``is not None``
branch.

Sharding: the parent's ``plan_root`` records the root-level decisions
(point-pruned labels, root pair/span kills) once; each worker records
its disjoint root subset's subtrees into a private collector, ships
:meth:`ProvenanceCollector.snapshot` home inside ``ShardResult`` (the
same channel as metrics and cost snapshots), and the parent merges with
:meth:`ProvenanceCollector.absorb`. Every pattern and every candidate
node lives in exactly one shard, so the merge is a keyed union over
disjoint keys and the merged snapshot is bit-for-bit identical to a
serial run's for any worker count and any arrival order.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Any, Mapping, Optional, Sequence

from repro.core.pruning import PRUNE_SITES
from repro.model.pattern import TemporalPattern
from repro.obs import seam
from repro.obs.ledger import patterns_digest
from repro.temporal.endpoint import POINT

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceCollector",
    "active_collector",
    "diff_patterns",
    "explain",
    "generation_prefixes",
    "patterns_digest",
    "render_explain_markdown",
    "render_patterns_diff_markdown",
    "render_why_not_markdown",
    "use_collector",
    "why_not",
]

#: Schema stamp on every snapshot, bumped on breaking shape changes.
PROVENANCE_SCHEMA_VERSION = 1

_KNOWN_SITES = frozenset(PRUNE_SITES)


class ProvenanceCollector:
    """Accumulates emitted-pattern evidence and prune decisions.

    The recording methods are the hot-path surface: one dict store per
    event, keys are canonical pattern strings. Snapshots are plain
    JSON-able dicts so they cross the engine's process boundary
    unchanged.
    """

    def __init__(self) -> None:
        self._patterns: dict[str, dict[str, Any]] = {}
        self._pruned: dict[str, dict[str, Any]] = {}
        self._labels: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # hot-path recording
    # ------------------------------------------------------------------
    def record_emitted(
        self,
        pattern: str,
        support: float,
        sids: Sequence[int],
        witnesses: Mapping[int, Sequence[tuple[str, int]]],
        *,
        root: str,
        level: int,
    ) -> None:
        """One pattern was emitted with its support set and witnesses.

        ``witnesses`` maps each supporting sid to one concrete
        embedding: the ``(label, sequence occurrence)`` bindings of the
        events that realize the pattern in that sequence.
        """
        self._patterns[pattern] = {
            "support": support,
            "sids": sorted(int(sid) for sid in sids),
            "witnesses": {
                str(sid): [
                    [label, int(occ)] for label, occ in sorted(binding)
                ]
                for sid, binding in sorted(witnesses.items())
            },
            "root": root,
            "level": int(level),
        }

    def record_pruned(
        self,
        candidate: str,
        *,
        site: str,
        level: int,
        root: str,
        support: Optional[float] = None,
        threshold: Optional[float] = None,
    ) -> None:
        """One candidate (or one node's whole subtree) was killed.

        ``candidate`` is the canonical string of the pattern prefix the
        search would have reached; ``site`` is one of
        :data:`repro.core.pruning.PRUNE_SITES`. Each search node is
        visited at most once, so keys never collide within one run.
        """
        if site not in _KNOWN_SITES:
            raise ValueError(
                f"unknown prune site {site!r}; expected one of {PRUNE_SITES}"
            )
        self._pruned[candidate] = {
            "site": site,
            "level": int(level),
            "root": root,
            "support": support,
            "threshold": threshold,
        }

    def record_pruned_label(
        self, label: str, flavour: str, df: float, threshold: float
    ) -> None:
        """One (label, flavour) was point-pruned before the search."""
        self._labels[f"{label}/{flavour}"] = {
            "df": df,
            "threshold": threshold,
        }

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-able, key-sorted snapshot of everything recorded."""
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "kind": "repro-provenance",
            "patterns": {
                key: dict(entry)
                for key, entry in sorted(self._patterns.items())
            },
            "pruned": {
                key: dict(entry)
                for key, entry in sorted(self._pruned.items())
            },
            "labels": {
                key: dict(entry)
                for key, entry in sorted(self._labels.items())
            },
        }

    def absorb(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a shipped snapshot in, order-independently.

        Shard snapshots cover disjoint pattern/candidate keys (every
        search node lives in exactly one shard), so the merge is a keyed
        union and identical for any arrival order; a repeated key (only
        possible across merges of overlapping runs) is overwritten
        deterministically. Iteration is sorted anyway so emission order
        never leaks producer order.
        """
        schema = snapshot.get("schema")
        if schema != PROVENANCE_SCHEMA_VERSION:
            raise ValueError(
                f"provenance snapshot schema {schema!r} != "
                f"{PROVENANCE_SCHEMA_VERSION}"
            )
        for key, entry in sorted(dict(snapshot.get("patterns", {})).items()):
            self._patterns[key] = dict(entry)
        for key, entry in sorted(dict(snapshot.get("pruned", {})).items()):
            self._pruned[key] = dict(entry)
        for key, entry in sorted(dict(snapshot.get("labels", {})).items()):
            self._labels[key] = dict(entry)


# ----------------------------------------------------------------------
# querying a snapshot: explain / why-not / diff
# ----------------------------------------------------------------------
def _flat_tokens(pattern: TemporalPattern) -> list[tuple[int, Any]]:
    """``(pointset index, endpoint)`` pairs in canonical token order.

    Canonical token order *is* generation order: the search appends
    tokens in exactly this sequence (labels are interned sorted, so the
    integer token order coincides with the display order — see
    :class:`repro.temporal.endpoint.EncodedDatabase`).
    """
    return [
        (index, endpoint)
        for index, pointset in enumerate(pattern.pointsets)
        for endpoint in pointset
    ]


def _prefix_text(flat: Sequence[tuple[int, Any]]) -> str:
    """Render a token-truncation as a canonical pattern string."""
    pointsets: list[list[Any]] = []
    last_index = -1
    for index, endpoint in flat:
        if index != last_index:
            pointsets.append([])
            last_index = index
        pointsets[-1].append(endpoint)
    return str(TemporalPattern(pointsets, validate=False))


def generation_prefixes(pattern: TemporalPattern) -> list[str]:
    """Every prefix on ``pattern``'s generation path, longest first.

    The first element is the pattern's own canonical string; the last is
    its level-1 root token. These are exactly the search-tree nodes the
    DFS visits (or would visit) on the way to emitting the pattern, so
    looking them up in a snapshot's ``pruned`` map finds the decision
    that cut the path.
    """
    flat = _flat_tokens(pattern)
    return [_prefix_text(flat[:k]) for k in range(len(flat), 0, -1)]


def _parent_prefix(pattern: TemporalPattern) -> str:
    """The canonical string of ``pattern`` minus its last token."""
    flat = _flat_tokens(pattern)
    return _prefix_text(flat[:-1]) if len(flat) > 1 else ""


def _canonical(text: str) -> TemporalPattern:
    """Parse user-supplied pattern text; ``ValueError`` on malformed."""
    return TemporalPattern.parse(text).canonical()


def explain(snapshot: Mapping[str, Any], text: str) -> dict[str, Any]:
    """Explain one emitted pattern: support set, witnesses, siblings.

    Raises :class:`ValueError` when ``text`` is not parseable pattern
    syntax. A syntactically valid pattern missing from the snapshot
    yields ``{"found": False}`` — use :func:`why_not` for the reason.
    """
    pattern = _canonical(text)
    key = str(pattern)
    record = dict(snapshot.get("patterns", {})).get(key)
    report: dict[str, Any] = {
        "kind": "repro-explain",
        "pattern": key,
        "found": record is not None,
    }
    if record is None:
        return report
    report.update(
        {
            "support": record.get("support"),
            "sids": list(record.get("sids", [])),
            "witnesses": dict(record.get("witnesses", {})),
            "root": record.get("root"),
            "level": record.get("level"),
        }
    )
    parent = _parent_prefix(pattern)
    siblings: list[dict[str, Any]] = []
    pruned = dict(snapshot.get("pruned", {}))
    for cand_key in sorted(pruned):
        try:
            cand = TemporalPattern.parse(cand_key)
        except ValueError:
            continue
        if cand_key != key and _parent_prefix(cand) == parent:
            siblings.append({"candidate": cand_key, **dict(pruned[cand_key])})
    report["pruned_siblings"] = siblings
    return report


def why_not(snapshot: Mapping[str, Any], text: str) -> dict[str, Any]:
    """Why is ``text`` not in the result set this snapshot records?

    The report's ``status`` is one of:

    ``emitted``
        It *is* in the result — use :func:`explain`.
    ``label_pruned``
        A label the pattern needs was point-pruned before the search.
    ``pruned``
        The candidate itself was generated and killed; ``decision``
        carries the recorded site/level/root.
    ``prefix_pruned``
        Never generated: an ancestor on its generation path was killed
        first; ``prefix`` names it and ``decision`` the kill.
    ``never_generated``
        No recorded decision touches its generation path — the required
        arrangement does not occur in the mined database (or lies
        entirely outside every ``max_span`` window).

    Raises :class:`ValueError` when ``text`` is not parseable.
    """
    pattern = _canonical(text)
    key = str(pattern)
    report: dict[str, Any] = {"kind": "repro-whynot", "pattern": key}
    patterns = dict(snapshot.get("patterns", {}))
    if key in patterns:
        report["status"] = "emitted"
        report["support"] = dict(patterns[key]).get("support")
        return report
    labels = dict(snapshot.get("labels", {}))
    needed = sorted(
        {
            (
                endpoint.label,
                "point" if endpoint.kind == POINT else "interval",
            )
            for pointset in pattern.pointsets
            for endpoint in pointset
        }
    )
    label_hits = [
        {"label": label, "flavour": flavour, **dict(labels[f"{label}/{flavour}"])}
        for label, flavour in needed
        if f"{label}/{flavour}" in labels
    ]
    if label_hits:
        report["status"] = "label_pruned"
        report["labels"] = label_hits
        return report
    pruned = dict(snapshot.get("pruned", {}))
    for prefix in generation_prefixes(pattern):
        record = pruned.get(prefix)
        if record is not None:
            report["status"] = "pruned" if prefix == key else "prefix_pruned"
            report["prefix"] = prefix
            report["decision"] = dict(record)
            return report
    report["status"] = "never_generated"
    return report


def diff_patterns(
    snapshot_a: Mapping[str, Any], snapshot_b: Mapping[str, Any]
) -> dict[str, Any]:
    """Pattern-level diff of two provenance snapshots (b relative to a).

    Every pattern added in ``b`` is attributed to the prune decision
    that killed it in ``a`` (via :func:`why_not` against ``a``), and
    vice versa for removed patterns — so a threshold or pruning change
    reads as "these decisions changed", not just "these patterns
    changed".
    """
    patterns_a = dict(snapshot_a.get("patterns", {}))
    patterns_b = dict(snapshot_b.get("patterns", {}))
    added = [
        {
            "pattern": key,
            "support": dict(patterns_b[key]).get("support"),
            "was": why_not(snapshot_a, key),
        }
        for key in sorted(set(patterns_b) - set(patterns_a))
    ]
    removed = [
        {
            "pattern": key,
            "support": dict(patterns_a[key]).get("support"),
            "now": why_not(snapshot_b, key),
        }
        for key in sorted(set(patterns_a) - set(patterns_b))
    ]
    changed = [
        {
            "pattern": key,
            "support_a": dict(patterns_a[key]).get("support"),
            "support_b": dict(patterns_b[key]).get("support"),
        }
        for key in sorted(set(patterns_a) & set(patterns_b))
        if dict(patterns_a[key]).get("support")
        != dict(patterns_b[key]).get("support")
    ]
    return {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "kind": "repro-patterns-diff",
        "counts": {"a": len(patterns_a), "b": len(patterns_b)},
        "added": added,
        "removed": removed,
        "changed_support": changed,
    }


# ----------------------------------------------------------------------
# markdown renderers (CLI surfaces)
# ----------------------------------------------------------------------
def _render_decision(decision: Mapping[str, Any]) -> str:
    parts = [
        f"site `{decision.get('site')}`",
        f"level {decision.get('level')}",
        f"root `{decision.get('root')}`",
    ]
    if decision.get("support") is not None:
        parts.append(
            f"support {decision['support']:g} < "
            f"threshold {decision.get('threshold', 0.0):g}"
        )
    return ", ".join(parts)


def render_explain_markdown(report: Mapping[str, Any]) -> str:
    """An :func:`explain` report as a markdown document."""
    pattern = report.get("pattern")
    lines = [f"# explain `{pattern}`", ""]
    if not report.get("found"):
        lines.append(
            "Not in this run's result set. Try `ptpminer why-not` "
            "against the same provenance file."
        )
        return "\n".join(lines) + "\n"
    lines.append(
        f"- support: **{report.get('support')}** over sids "
        f"{report.get('sids')}"
    )
    lines.append(
        f"- emitted at level {report.get('level')} under root "
        f"`{report.get('root')}`"
    )
    lines += ["", "## Witnesses (one embedding per supporting sequence)", ""]
    lines.append("| sid | (label, occurrence) bindings |")
    lines.append("| ---: | --- |")
    witnesses = dict(report.get("witnesses", {}))
    for sid in sorted(witnesses, key=int):
        binding = ", ".join(
            f"{label}#{occ}" for label, occ in witnesses[sid]
        )
        lines.append(f"| {sid} | {binding} |")
    siblings = list(report.get("pruned_siblings", []))
    if siblings:
        lines += ["", "## Pruned siblings (same parent prefix)", ""]
        for sibling in siblings:
            lines.append(
                f"- `{sibling.get('candidate')}` — "
                f"{_render_decision(sibling)}"
            )
    return "\n".join(lines) + "\n"


def render_why_not_markdown(report: Mapping[str, Any]) -> str:
    """A :func:`why_not` report as a markdown document."""
    pattern = report.get("pattern")
    status = report.get("status")
    lines = [f"# why-not `{pattern}`", ""]
    if status == "emitted":
        lines.append(
            f"It **is** in the result set (support "
            f"{report.get('support')}). Use `ptpminer explain`."
        )
    elif status == "label_pruned":
        lines.append("A needed label was point-pruned before the search:")
        lines.append("")
        for hit in report.get("labels", []):
            lines.append(
                f"- `{hit.get('label')}` ({hit.get('flavour')}): document "
                f"frequency {hit.get('df'):g} < threshold "
                f"{hit.get('threshold'):g}"
            )
    elif status == "pruned":
        lines.append(
            f"The candidate was generated and killed: "
            f"{_render_decision(report.get('decision', {}))}."
        )
    elif status == "prefix_pruned":
        lines.append(
            f"Never generated: its prefix `{report.get('prefix')}` died "
            f"first — {_render_decision(report.get('decision', {}))}."
        )
    else:
        lines.append(
            "Never generated, and no recorded prune decision touches its "
            "generation path: the required arrangement does not occur in "
            "the mined database (or lies outside every max_span window)."
        )
    return "\n".join(lines) + "\n"


def render_patterns_diff_markdown(diff: Mapping[str, Any]) -> str:
    """A :func:`diff_patterns` report as a markdown document."""
    counts = dict(diff.get("counts", {}))
    lines = [
        "# Pattern-level result diff",
        "",
        f"{counts.get('a')} patterns in A, {counts.get('b')} in B.",
        "",
    ]

    def _attribution(sub: Mapping[str, Any]) -> str:
        status = sub.get("status")
        if status in ("pruned", "prefix_pruned"):
            where = (
                ""
                if status == "pruned"
                else f" via prefix `{sub.get('prefix')}`"
            )
            return (
                f"{_render_decision(sub.get('decision', {}))}{where}"
            )
        if status == "label_pruned":
            labels = ", ".join(
                f"`{hit.get('label')}`" for hit in sub.get("labels", [])
            )
            return f"label point-pruned ({labels})"
        if status == "emitted":
            return "also emitted (support changed)"
        return "never generated (arrangement absent)"

    added = list(diff.get("added", []))
    if added:
        lines += ["## Added in B", ""]
        for row in added:
            lines.append(
                f"- `{row.get('pattern')}` (support {row.get('support')}) "
                f"— in A: {_attribution(row.get('was', {}))}"
            )
        lines.append("")
    removed = list(diff.get("removed", []))
    if removed:
        lines += ["## Removed in B", ""]
        for row in removed:
            lines.append(
                f"- `{row.get('pattern')}` (support {row.get('support')}) "
                f"— in B: {_attribution(row.get('now', {}))}"
            )
        lines.append("")
    changed = list(diff.get("changed_support", []))
    if changed:
        lines += ["## Support changed", ""]
        for row in changed:
            lines.append(
                f"- `{row.get('pattern')}`: {row.get('support_a')} -> "
                f"{row.get('support_b')}"
            )
        lines.append("")
    if not (added or removed or changed):
        lines.append("Result sets are identical (patterns and supports).")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the public names over the named seam (repro.obs.seam.PROVENANCE)
# ----------------------------------------------------------------------
def active_collector() -> Optional[ProvenanceCollector]:
    """The installed collector, or ``None`` when provenance is off."""
    return seam.PROVENANCE.active()


def use_collector(
    collector: Optional[ProvenanceCollector] = None,
) -> AbstractContextManager[ProvenanceCollector]:
    """Scope-install a collector (a fresh one by default); restores on exit."""
    return seam.PROVENANCE.scope(
        ProvenanceCollector() if collector is None else collector
    )
