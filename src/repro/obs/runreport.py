"""Unified run reports: join a run's observability artifacts.

``ptpminer report`` turns the artifacts one ``mine`` run can emit — a
JSONL span trace (``--trace``), a metrics snapshot (``--metrics-out``),
a live frame log (``--live-log``), a cost profile (``--cost-profile``),
and a provenance snapshot (``--provenance``) — into one markdown (or
JSON) report: a phase table, per-shard utilization with an imbalance
figure, the prune funnel, the metrics snapshot's search tables
(projection states per DFS depth, patterns per length, gathered
candidates per extension kind), totals and histograms, straggler
callouts, the realized heaviest-roots table, and a provenance summary.
Any subset of the sources works: sections without
data are omitted and the report instead carries a ``notes`` list saying
*why* each section is absent (source not given vs. given but empty), so
a partial report is an answer, not an error. The trace and live-log
parsers tolerate the truncated tails of killed runs (see
:func:`repro.obs.trace.read_trace` /
:func:`repro.obs.live.read_live_log`), and a partial metrics snapshot
(``null`` sections, degenerate histograms, a few counters) renders
what it holds.

The phase table comes from the trace when one is given, else from the
snapshot's ``phase_seconds`` counters (seconds only: the counters hold
no span counts). The shard section prefers the live frame log (it has
roots/patterns/rss per lane); with only a trace it falls back to the
re-emitted ``shard<i>:<id>`` span durations. The prune funnel reads the
parent registry's ``search.*`` counters, which by construction mirror
:class:`repro.core.pruning.PruneCounters` totals. The search tables,
totals and histograms fold every ``shard.search.*`` entry of a sharded
snapshot into its ``search.*`` twin, so serial and sharded runs of one
config render the same search tables; ``phase_seconds`` and gauges are
never summed, since shard phases are worker time.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from typing import Any, Optional

from repro.io._utf8 import load_json_object
from repro.obs.live import (
    LiveAggregator,
    LiveConfig,
    imbalance,
    read_live_log,
)
from repro.obs.trace import read_trace

__all__ = [
    "build_run_report",
    "render_markdown",
]

#: Rows shown in the realized heaviest-roots table.
_TOP_ROOTS_SHOWN = 10

#: ``search.*`` counter suffixes in funnel order: work done, then what
#: each pruning stage removed, then what survived.
_FUNNEL_STAGES: tuple[tuple[str, str], ...] = (
    ("nodes_expanded", "search nodes expanded"),
    ("candidates_considered", "candidates considered"),
    ("pruned_point_labels", "pruned: point-label"),
    ("pruned_pair", "pruned: pair"),
    ("pruned_postfix_branches", "pruned: postfix branch"),
    ("pruned_dead_states", "pruned: dead state"),
    ("candidates_frequent", "candidates frequent"),
    ("states_created", "states created"),
    ("patterns_emitted", "patterns emitted"),
)

#: Labelled ``search.*`` counter families rendered one table each:
#: ``(family, label, report key, column, title)``.
_SEARCH_TABLES: tuple[tuple[str, str, str, str, str], ...] = (
    ("search.states_by_depth", "depth", "states_by_depth", "states",
     "Projection states per DFS depth"),
    ("search.patterns_by_length", "tokens", "patterns_by_length",
     "patterns", "Patterns emitted per length (endpoint tokens)"),
    ("search.candidates", "ext", "candidates_by_ext", "candidates",
     "Gathered candidates per extension kind (pair survivors)"),
)


def _numeric(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        return 0.0


def _family(
    counters: Mapping[str, float], name: str, label: str
) -> list[tuple[str, float]]:
    """``(label value, count)`` rows of the one-label counter family
    ``name[label=...]``, numeric label values in numeric order."""
    prefix = f"{name}[{label}="
    rows = [
        (key[len(prefix):-1], value)
        for key, value in counters.items()
        if key.startswith(prefix) and key.endswith("]")
    ]
    rows.sort(key=lambda row: (_numeric(row[0]), row[0]))
    return rows


def _fold_shards(
    section: Mapping[str, Any], merge: Callable[[Any, Any], Any]
) -> dict[str, Any]:
    """``section`` with each ``shard.search.*`` entry merged into its
    ``search.*`` twin: the parent's root gather plus the shards' subtrees
    is what a serial search records."""
    out: dict[str, Any] = {}
    for key, value in sorted(section.items()):
        if key.startswith("shard.search."):
            key = key[len("shard."):]
        out[key] = merge(out[key], value) if key in out else value
    return out


def _merge_histograms(
    a: Optional[Mapping[str, Any]], b: Optional[Mapping[str, Any]]
) -> dict[str, Any]:
    """Bucket-for-bucket sum of two histogram snapshots."""
    a, b = a or {}, b or {}
    buckets = dict(a.get("buckets") or {})
    for bucket, count in (b.get("buckets") or {}).items():
        buckets[bucket] = buckets.get(bucket, 0) + count
    return {
        "buckets": buckets,
        "count": (a.get("count") or 0) + (b.get("count") or 0),
        "sum": float(a.get("sum") or 0.0) + float(b.get("sum") or 0.0),
    }


def _bucket_bound(bucket: str) -> float:
    """Upper bound of a histogram bucket key (``le_<bound>`` or ``inf``)."""
    return _numeric(bucket[3:]) if bucket.startswith("le_") else float("inf")


def _snapshot_tables(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """The search tables, totals and histograms of a metrics snapshot.

    Tolerant of partial snapshots: ``null`` sections and degenerate
    histograms yield fewer rows, never an exception.
    """
    counters = _fold_shards(snapshot.get("counters") or {}, operator.add)
    gauges: Mapping[str, float] = snapshot.get("gauges") or {}
    histograms = _fold_shards(
        snapshot.get("histograms") or {}, _merge_histograms
    )
    tables: dict[str, Any] = {}
    for family, label, key, column, _title in _SEARCH_TABLES:
        rows = _family(counters, family, label)
        if rows:
            tables[key] = [
                {label: value, column: int(count)} for value, count in rows
            ]
    in_funnel = {f"search.{suffix}" for suffix, _label in _FUNNEL_STAGES}
    totals = [
        {"metric": key, "value": value}
        for key, value in sorted(counters.items())
        if "[" not in key and key not in in_funnel
    ] + [
        {"metric": key, "value": value}
        for key, value in sorted(gauges.items())
    ]
    if totals:
        tables["totals"] = totals
    hists = []
    for name, hist in sorted(histograms.items()):
        hist = hist or {}
        buckets: Mapping[str, int] = hist.get("buckets") or {}
        hists.append({
            "histogram": name,
            "count": hist.get("count") or 0,
            "sum": float(hist.get("sum") or 0.0),
            "buckets": [
                {"bucket": bucket, "observations": buckets[bucket]}
                for bucket in sorted(buckets, key=_bucket_bound)
            ],
        })
    if hists:
        tables["histograms"] = hists
    return tables


def _phase_table(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Aggregate main-track end events into per-phase rows.

    Shard-re-emitted spans (string ids) are excluded — they are the
    shard section's job — so totals here are parent wall-clock phases.
    """
    totals: dict[str, list[float]] = {}
    order: list[str] = []
    for event in events:
        if event.get("ev") != "E" or isinstance(event.get("span"), str):
            continue
        duration = event.get("dur")
        if not isinstance(duration, (int, float)):
            continue
        name = str(event.get("name", "?"))
        if name not in totals:
            totals[name] = []
            order.append(name)
        totals[name].append(float(duration))
    return [
        {
            "phase": name,
            "count": len(durations),
            "total_s": round(sum(durations), 6),
            "mean_s": round(sum(durations) / len(durations), 6),
        }
        for name in order
        if (durations := totals[name])
    ]


def _shards_from_trace(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Per-shard busy time from re-emitted ``shard<i>:<id>`` spans.

    A shard's busy time is the summed duration of its *root* spans —
    the re-hung ones whose parent is back in the parent trace (not a
    ``shard...`` string id) — so nested spans are not double-counted.
    """
    begin_parent: dict[str, Any] = {}
    for event in events:
        if event.get("ev") == "B" and isinstance(event.get("span"), str):
            begin_parent[str(event["span"])] = event.get("parent")
    roots: dict[int, float] = {}
    for event in events:
        span_id = event.get("span")
        if event.get("ev") != "E" or not isinstance(span_id, str):
            continue
        if not span_id.startswith("shard") or ":" not in span_id:
            continue
        if isinstance(begin_parent.get(span_id), str):
            continue  # nested under another shard span
        try:
            shard = int(span_id[len("shard"):span_id.index(":")])
        except ValueError:
            continue
        duration = event.get("dur")
        if isinstance(duration, (int, float)):
            roots[shard] = roots.get(shard, 0.0) + float(duration)
    return [
        {"shard": shard, "busy_s": round(roots[shard], 6)}
        for shard in sorted(roots)
    ]


def build_run_report(
    *,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    live_log_path: Optional[str] = None,
    cost_path: Optional[str] = None,
    provenance_path: Optional[str] = None,
) -> dict[str, Any]:
    """Join the given artifacts into one JSON-ready report dict.

    At least one source must be given, but any subset works: each
    section that cannot be built lands one line in the report's
    ``notes`` list explaining whether its source was absent or present
    but empty. Missing *files* still raise — a wrong path is a caller
    error, not a degraded run. The live log is re-aggregated
    through :class:`repro.obs.live.LiveAggregator` (rendering off) with
    the default :class:`repro.obs.live.LiveConfig`, so the report's
    straggler callouts use the same rule as the live display.

    ``cost_path`` (a ``--cost-profile`` snapshot) adds the realized
    heaviest-roots table; ``provenance_path`` a pattern/prune-record
    summary.
    """
    if not (
        trace_path
        or metrics_path
        or live_log_path
        or cost_path
        or provenance_path
    ):
        raise ValueError(
            "build_run_report needs at least one of trace_path, "
            "metrics_path, live_log_path, cost_path, provenance_path"
        )
    report: dict[str, Any] = {
        "sources": {
            "trace": trace_path,
            "metrics": metrics_path,
            "live_log": live_log_path,
            "cost": cost_path,
            "provenance": provenance_path,
        }
    }
    notes: list[str] = []
    snapshot: Optional[Mapping[str, Any]] = None
    if metrics_path is not None:
        snapshot = load_json_object(metrics_path, "metrics snapshot")
    events: list[dict[str, Any]] = []
    if trace_path is not None:
        events = read_trace(trace_path)
        phases = _phase_table(events)
        if phases:
            report["phases"] = phases
        else:
            notes.append(
                "phase table omitted: the trace has no completed "
                "main-track spans"
            )
    elif snapshot is not None:
        seconds = _family(
            snapshot.get("counters") or {}, "phase_seconds", "phase"
        )
        if seconds:
            report["phases"] = [
                {"phase": phase, "total_s": round(total, 6)}
                for phase, total in sorted(seconds, key=lambda row: -row[1])
            ]
        else:
            notes.append(
                "phase table omitted: no trace given and the metrics "
                "snapshot has no phase_seconds counters"
            )
    else:
        notes.append(
            "phase table omitted: no trace or metrics snapshot given"
        )
    if snapshot is not None:
        counters = snapshot.get("counters") or {}
        funnel = [
            {"stage": label, "count": counters[key]}
            for suffix, label in _FUNNEL_STAGES
            if (key := f"search.{suffix}") in counters
        ]
        if funnel:
            report["prune_funnel"] = funnel
        else:
            notes.append(
                "prune funnel omitted: the metrics snapshot has no "
                "search.* counters"
            )
        report.update(_snapshot_tables(snapshot))
    else:
        notes.append("prune funnel omitted: no metrics snapshot given")
    live_summary: Optional[dict[str, Any]] = None
    if live_log_path is not None:
        frames = read_live_log(live_log_path)
        aggregator = LiveAggregator(LiveConfig(render=False))
        for frame in frames:
            aggregator.ingest(frame)
        if aggregator.frames_ingested:
            live_summary = aggregator.summary()
            report["live"] = live_summary
        else:
            notes.append(
                "live summary omitted: the live log has no frames"
            )
    if live_summary is not None:
        lanes = live_summary["shards"]
        report["shards"] = [
            {"shard": int(shard), **lane} for shard, lane in lanes.items()
        ]
        report["shard_imbalance"] = live_summary["shard_imbalance"]
        report["stragglers"] = live_summary["stragglers"]
    elif events:
        shard_rows = _shards_from_trace(events)
        if shard_rows:
            report["shards"] = shard_rows
            report["shard_imbalance"] = imbalance(
                [row["busy_s"] for row in shard_rows]
            )
        else:
            notes.append(
                "shard table omitted: no live log given and the trace "
                "has no shard spans (serial run?)"
            )
    elif live_log_path is None:
        notes.append("shard table omitted: no live log or trace given")
    if cost_path is not None:
        from repro.obs import costmodel

        cost_snapshot = load_json_object(cost_path, "cost profile")
        heavy = costmodel.top_roots(cost_snapshot, _TOP_ROOTS_SHOWN)
        if heavy:
            report["heaviest_roots"] = heavy
        else:
            notes.append(
                "heaviest-roots table omitted: the cost profile "
                "records no roots"
            )
    else:
        notes.append("heaviest-roots table omitted: no cost profile given")
    if provenance_path is not None:
        prov = load_json_object(provenance_path, "provenance snapshot")
        report["provenance"] = {
            "patterns": len(dict(prov.get("patterns", {}))),
            "pruned": len(dict(prov.get("pruned", {}))),
            "labels": len(dict(prov.get("labels", {}))),
        }
    if notes:
        report["notes"] = notes
    return report


def _format_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_cell(cell) for cell in row) + " |"
        )
    return lines


def _section(
    lines: list[str],
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    """Append a ``## title`` section holding one table to ``lines``."""
    lines.extend((f"## {title}", "", *_markdown_table(headers, rows), ""))


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render a :func:`build_run_report` dict as a markdown document."""
    lines: list[str] = ["# ptpminer run report", ""]
    sources = report.get("sources", {})
    named = [
        f"{kind}: `{path}`"
        for kind, path in sources.items()
        if path is not None
    ]
    if named:
        lines.append("Sources — " + ", ".join(named))
        lines.append("")
    phases = report.get("phases")
    if phases:
        # Phases from a metrics snapshot have no count or mean.
        columns = [
            (key, header)
            for key, header in (
                ("phase", "phase"), ("count", "count"),
                ("total_s", "total (s)"), ("mean_s", "mean (s)"),
            )
            if key in phases[0]
        ]
        _section(
            lines,
            "Phases",
            [header for _key, header in columns],
            [[row[key] for key, _header in columns] for row in phases],
        )
    shards = report.get("shards")
    if shards:
        lines.append("## Shards")
        lines.append("")
        detailed = any("roots_done" in row for row in shards)
        if detailed:
            lines.extend(
                _markdown_table(
                    (
                        "shard",
                        "roots",
                        "patterns",
                        "busy (s)",
                        "rate (roots/s)",
                        "rss (MiB)",
                        "straggler",
                    ),
                    [
                        (
                            row["shard"],
                            f"{row.get('roots_done', 0)}/"
                            f"{row.get('roots_total', 0)}",
                            row.get("patterns"),
                            row.get("busy_s"),
                            row.get("rate_roots_per_s"),
                            row.get("rss_mb"),
                            bool(row.get("straggler")),
                        )
                        for row in shards
                    ],
                )
            )
        else:
            lines.extend(
                _markdown_table(
                    ("shard", "busy (s)"),
                    [(row["shard"], row.get("busy_s")) for row in shards],
                )
            )
        shard_imbalance = report.get("shard_imbalance")
        lines.append("")
        if shard_imbalance is not None:
            lines.append(
                f"Shard imbalance (max/mean busy): **{shard_imbalance:g}** "
                "(1.0 = perfectly balanced)"
            )
            lines.append("")
    stragglers = report.get("stragglers")
    if stragglers is not None:
        lines.append("## Straggler callouts")
        lines.append("")
        if stragglers:
            lane_map = {
                row["shard"]: row for row in report.get("shards", [])
            }
            for shard in stragglers:
                lane = lane_map.get(shard, {})
                rate = lane.get("rate_roots_per_s")
                rate_text = "unknown rate" if rate is None else (
                    f"{rate:g} roots/s"
                )
                lines.append(
                    f"- **shard {shard}** fell below the straggler "
                    f"threshold ({rate_text})"
                )
        else:
            lines.append("None detected.")
        lines.append("")
    heavy = report.get("heaviest_roots")
    if heavy:
        lines.append("## Heaviest roots (realized)")
        lines.append("")
        lines.extend(
            _markdown_table(
                (
                    "root",
                    "wall (s)",
                    "states",
                    "nodes expanded",
                    "patterns",
                ),
                [
                    (
                        f"`{row.get('root')}`",
                        row.get("wall_s"),
                        row.get("states_created"),
                        row.get("nodes_expanded"),
                        row.get("patterns_emitted"),
                    )
                    for row in heavy
                ],
            )
        )
        lines.append("")
    provenance = report.get("provenance")
    if provenance:
        lines.append("## Provenance summary")
        lines.append("")
        lines.append(
            f"- {provenance.get('patterns')} pattern record(s), "
            f"{provenance.get('pruned')} prune record(s), "
            f"{provenance.get('labels')} label(s)"
        )
        lines.append("")
    # Row keys double as column headers in these tables.
    tables = [
        ("Prune funnel", ("stage", "count"), report.get("prune_funnel")),
        *(
            (title, (label, column), report.get(key))
            for _family_name, label, key, column, title in _SEARCH_TABLES
        ),
        ("Totals", ("metric", "value"), report.get("totals")),
    ]
    for title, columns, rows in tables:
        if rows:
            _section(
                lines, title, columns, [[row[c] for c in columns] for row in rows]
            )
    for hist in report.get("histograms") or ():
        _section(
            lines,
            f"Histogram {hist['histogram']} "
            f"(count={hist['count']}, sum={hist['sum']:g})",
            ("bucket", "observations"),
            [(row["bucket"], row["observations"]) for row in hist["buckets"]],
        )
    live = report.get("live")
    if live:
        lines.append("## Live summary")
        lines.append("")
        lines.append(
            f"- roots: {live['roots_done']}/{live['roots_total']}, "
            f"patterns: {live['patterns']}, "
            f"frames ingested: {live['frames']}"
        )
        lines.append("")
    notes = report.get("notes")
    if notes:
        lines.append("## Notes")
        lines.append("")
        for note in notes:
            lines.append(f"- {note}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
