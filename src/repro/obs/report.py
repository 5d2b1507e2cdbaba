"""Human-readable rendering of a metrics snapshot.

Turns the JSON snapshot a :class:`~repro.obs.metrics.MetricsRegistry`
produces (CLI ``--metrics-out``, ``obs.observe(metrics=True)``) into the
per-phase / per-depth summary a person reads to see *where a mining run
spent its effort*: a phase-time breakdown (encode vs prune vs project vs
extend), the DFS shape (states touched per depth, patterns per length,
candidates per extension kind), the search/prune totals, and any
histograms.

Also runnable directly on a saved snapshot::

    python -m repro.obs.report metrics.json
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping, Sequence
from typing import Any, Optional

from repro.io._utf8 import load_json_object

__all__ = ["main", "render_report"]

_LABELLED = re.compile(r"^(?P<name>[^\[]+)\[(?P<labels>.*)\]$")


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """Parse ``name[k=v,...]`` snapshot keys back into name + labels."""
    match = _LABELLED.match(key)
    if match is None:
        return key, {}
    labels: dict[str, str] = {}
    for part in match.group("labels").split(","):
        if "=" in part:
            label, value = part.split("=", 1)
            labels[label] = value
    return match.group("name"), labels


def _numeric(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        return 0.0


def _rows_for_label(
    counters: Mapping[str, float], name: str, label: str
) -> list[tuple[str, float]]:
    """``(label_value, count)`` rows of one labelled counter family."""
    rows: list[tuple[str, float]] = []
    for key, value in counters.items():
        base, labels = _split_key(key)
        if base == name and label in labels:
            rows.append((labels[label], value))
    rows.sort(key=lambda item: _numeric(item[0]))
    return rows


def _table(
    title: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    from repro.harness.tables import render_table

    dict_rows = [dict(zip(header, row)) for row in rows]
    return render_table(dict_rows, list(header), title=title)


def render_report(snapshot: Mapping[str, Any]) -> str:
    """Render one metrics snapshot as aligned plain-text tables.

    Tolerant of partial snapshots (a run that died mid-mine, or JSON
    with explicit ``null`` sections): missing sections are skipped, never
    a traceback.
    """
    counters: Mapping[str, float] = snapshot.get("counters") or {}
    gauges: Mapping[str, float] = snapshot.get("gauges") or {}
    histograms: Mapping[str, Mapping[str, Any]] = (
        snapshot.get("histograms") or {}
    )
    sections: list[str] = []

    phases = _rows_for_label(counters, "phase_seconds", "phase")
    if phases:
        total = sum(seconds for _, seconds in phases)
        sections.append(
            _table(
                "Phase breakdown",
                ("phase", "seconds", "share"),
                [
                    (
                        phase,
                        round(seconds, 4),
                        f"{seconds / total:.1%}" if total else "—",
                    )
                    for phase, seconds in sorted(
                        phases, key=lambda item: -item[1]
                    )
                ],
            )
        )

    depth_rows = _rows_for_label(counters, "search.states_by_depth", "depth")
    if depth_rows:
        sections.append(
            _table(
                "Projection states per DFS depth",
                ("depth", "states"),
                [(depth, int(count)) for depth, count in depth_rows],
            )
        )

    length_rows = _rows_for_label(
        counters, "search.patterns_by_length", "tokens"
    )
    if length_rows:
        sections.append(
            _table(
                "Patterns emitted per length (endpoint tokens)",
                ("tokens", "patterns"),
                [(tokens, int(count)) for tokens, count in length_rows],
            )
        )

    ext_rows = _rows_for_label(counters, "search.candidates", "ext")
    if ext_rows:
        sections.append(
            _table(
                "Frequent candidates per extension kind",
                ("extension", "candidates"),
                [(ext, int(count)) for ext, count in ext_rows],
            )
        )

    totals = sorted(
        (key, value)
        for key, value in counters.items()
        if _split_key(key)[0] == key and key != "phase_seconds"
    )
    if totals or gauges:
        sections.append(
            _table(
                "Totals",
                ("metric", "value"),
                [*totals, *sorted(gauges.items())],
            )
        )

    for key, hist in sorted(histograms.items()):
        hist = hist or {}
        buckets: Mapping[str, int] = hist.get("buckets") or {}
        total_sum = float(hist.get("sum") or 0.0)
        sections.append(
            _table(
                f"Histogram {key} "
                f"(count={hist.get('count') or 0}, sum={total_sum:g})",
                ("bucket", "observations"),
                list(buckets.items()),
            )
        )

    if not sections:
        return "(empty metrics snapshot)"
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: render a saved metrics JSON (``python -m repro.obs.report``)."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print(
            "usage: python -m repro.obs.report METRICS_JSON", file=sys.stderr
        )
        return 2
    try:
        snapshot = load_json_object(args[0], "metrics snapshot")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(snapshot))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
