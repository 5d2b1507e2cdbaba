"""Unified run reports: join a run's observability artifacts.

``ptpminer report`` turns the artifacts one ``mine`` run can emit — a
JSONL span trace (``--trace``), a metrics snapshot (``--metrics-out``),
a live frame log (``--live-log``), a cost profile (``--cost-profile``),
a provenance snapshot (``--provenance``), and a shard plan
(``--plan-out``) — into one markdown (or JSON) report: a phase table,
per-shard utilization with an imbalance figure, the prune funnel,
straggler callouts, the realized heaviest-roots table (so plan-vs-shard
load reads in one place), a provenance summary, and — when both a plan
and a cost profile are given — a **Plan vs actual** section joining the
forecast against realized per-root cost (share-MAPE, rank correlation,
worst miss) and predicted against realized imbalance. Any subset of the
sources works: sections without data are omitted and the report instead
carries a ``notes`` list saying *why* each section is absent (source
not given vs. given but empty), so a partial report is an answer, not
an error. The trace and live-log parsers tolerate the truncated tails
of killed runs (see :func:`repro.obs.trace.read_trace` /
:func:`repro.obs.live.read_live_log`).

The shard section prefers the live frame log (it has roots/patterns/rss
per lane); with only a trace it falls back to the re-emitted
``shard<i>:<id>`` span durations. The prune funnel reads the parent
registry's ``search.*`` counters, which by construction mirror
:class:`repro.core.pruning.PruneCounters` totals.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
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
    plan_path: Optional[str] = None,
    straggler_factor: float = 0.5,
) -> dict[str, Any]:
    """Join the given artifacts into one JSON-ready report dict.

    At least one source must be given, but any subset works: each
    section that cannot be built lands one line in the report's
    ``notes`` list explaining whether its source was absent or present
    but empty. Missing *files* still raise — a wrong path is a caller
    error, not a degraded run. The live log is re-aggregated
    through :class:`repro.obs.live.LiveAggregator` (rendering off) with
    ``straggler_factor``, so the report's straggler callouts use the
    same rule as the live display.

    ``cost_path`` (a ``--cost-profile`` snapshot) adds the realized
    heaviest-roots table; ``provenance_path`` a pattern/prune-record
    summary; ``plan_path`` (a ``ptpminer plan`` / ``--plan-out``
    PlanReport) the predicted imbalance — and, combined with the cost
    profile, the full plan-vs-actual calibration section.
    """
    if not (
        trace_path
        or metrics_path
        or live_log_path
        or cost_path
        or provenance_path
        or plan_path
    ):
        raise ValueError(
            "build_run_report needs at least one of trace_path, "
            "metrics_path, live_log_path, cost_path, provenance_path, "
            "plan_path"
        )
    report: dict[str, Any] = {
        "sources": {
            "trace": trace_path,
            "metrics": metrics_path,
            "live_log": live_log_path,
            "cost": cost_path,
            "provenance": provenance_path,
            "plan": plan_path,
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
    else:
        notes.append("phase table omitted: no trace given")
    if snapshot is not None:
        counters = snapshot.get("counters", {})
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
    else:
        notes.append("prune funnel omitted: no metrics snapshot given")
    live_summary: Optional[dict[str, Any]] = None
    if live_log_path is not None:
        frames = read_live_log(live_log_path)
        aggregator = LiveAggregator(
            LiveConfig(render=False, straggler_factor=straggler_factor)
        )
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
    cost_snapshot: Optional[dict[str, Any]] = None
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
    plan: Optional[dict[str, Any]] = None
    if plan_path is not None:
        from repro.obs import planner

        plan = planner.load_plan(plan_path)
        assignments = dict(plan.get("assignments", {}))
        section: dict[str, Any] = {
            "predictor": dict(plan.get("predictor", {})),
            "predicted_imbalance": {
                strategy: dict(entry).get("predicted_imbalance")
                for strategy, entry in sorted(assignments.items())
            },
            "realized_imbalance": report.get("shard_imbalance"),
        }
        if cost_snapshot is not None:
            section["calibration"] = planner.calibration_record(
                plan, cost_snapshot
            )
        else:
            notes.append(
                "plan-vs-actual calibration omitted: a plan was given "
                "but no cost profile to compare it against"
            )
        report["plan_vs_actual"] = section
    elif cost_path is not None:
        notes.append(
            "plan-vs-actual section omitted: no shard plan given"
        )
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
        lines.append("## Phases")
        lines.append("")
        lines.extend(
            _markdown_table(
                ("phase", "count", "total (s)", "mean (s)"),
                [
                    (
                        row["phase"],
                        row["count"],
                        row["total_s"],
                        row["mean_s"],
                    )
                    for row in phases
                ],
            )
        )
        lines.append("")
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
    plan_section = report.get("plan_vs_actual")
    if plan_section:
        lines.append("## Plan vs actual")
        lines.append("")
        predictor = dict(plan_section.get("predictor", {}))
        lines.append(
            f"- predictor: {predictor.get('source')} "
            f"({predictor.get('history_runs', 0)} ledger run(s))"
        )
        predicted = dict(plan_section.get("predicted_imbalance", {}))
        for strategy in sorted(predicted):
            value = predicted[strategy]
            lines.append(
                f"- predicted imbalance ({strategy}): "
                f"{_format_cell(value)}"
            )
        lines.append(
            "- realized imbalance: "
            f"{_format_cell(plan_section.get('realized_imbalance'))}"
        )
        calibration = plan_section.get("calibration")
        if calibration:
            lines.append(
                f"- forecast share-MAPE: "
                f"{_format_cell(calibration.get('mape'))}, "
                f"rank correlation: "
                f"{_format_cell(calibration.get('rank_corr'))} "
                f"(over {calibration.get('roots_matched')} roots, "
                f"actual = {calibration.get('actual_metric')})"
            )
            worst = calibration.get("worst_miss")
            if worst:
                lines.append(
                    f"- worst miss: `{worst.get('root')}` predicted "
                    f"share {_format_cell(worst.get('predicted_share'))} "
                    f"vs actual {_format_cell(worst.get('actual_share'))}"
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
    funnel = report.get("prune_funnel")
    if funnel:
        lines.append("## Prune funnel")
        lines.append("")
        lines.extend(
            _markdown_table(
                ("stage", "count"),
                [(row["stage"], row["count"]) for row in funnel],
            )
        )
        lines.append("")
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
