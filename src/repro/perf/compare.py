"""Diff a fresh benchmark report against the committed baseline.

Metric classes get different treatment, because they have different
noise characteristics:

* **counters** (``nodes_expanded``, ``pruned_*``, ``states_created``,
  …) and **pattern counts** are exact: the miners are deterministic, so
  any difference is a real behavioural change — always a hard failure.
* **wall time** is noisy: a cell only regresses when it is slower than
  the baseline by *both* a relative factor (``time_rtol``) and an
  absolute floor (``time_abs_s`` — sub-100ms cells jitter by whole
  multiples).
* **peak memory** is stable on one interpreter but shifts across
  Python versions; it gets its own (tighter) tolerance pair.

When the fresh report's environment fingerprint differs from the
baseline's, timing and memory findings are *downgraded to warnings* by
default (``strict_env=True`` restores hard failures) — a laptop cannot
meaningfully gate on CI-runner milliseconds, but counters still can.
Improvements beyond the same thresholds are reported (never fatal) so
``update-baseline`` runs have evidence attached.
"""

from __future__ import annotations

import platform
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "ComparisonResult",
    "Finding",
    "Tolerance",
    "classify",
    "compare_reports",
    "environment_fingerprint",
    "render_markdown",
]


def environment_fingerprint() -> dict[str, str]:
    """Identify the machine/runtime a report was measured on.

    Compared (as a whole) against the baseline's fingerprint when
    diffing: search counters transfer across environments, wall time
    and peak memory do not — :func:`compare_reports` downgrades
    timing/memory findings to warnings on a fingerprint mismatch. The
    run ledger stamps it on every entry, so it lives here, with no
    import of the benchmark runner.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Noise thresholds per metric class (see the module docstring)."""

    time_rtol: float = 0.75
    time_abs_s: float = 0.25
    mem_rtol: float = 0.30
    mem_abs_mib: float = 2.0


@dataclass(frozen=True, slots=True)
class Finding:
    """One comparison outcome for one metric of one cell."""

    cell: str
    metric: str
    baseline: Any
    fresh: Any
    detail: str

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.cell} · {self.metric}: "
            f"{self.baseline} -> {self.fresh} ({self.detail})"
        )


@dataclass(slots=True)
class ComparisonResult:
    """Everything a comparison found, bucketed by severity."""

    matrix: str
    env_match: bool
    regressions: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)
    improvements: list[Finding] = field(default_factory=list)
    cells_compared: int = 0

    @property
    def ok(self) -> bool:
        """True when no hard regression was found."""
        return not self.regressions


def _rel_change(baseline: float, fresh: float) -> float:
    if baseline <= 0:
        return 0.0 if fresh <= 0 else float("inf")
    return (fresh - baseline) / baseline


def classify(
    baseline: float, fresh: float, rtol: float, abs_floor: float
) -> str:
    """``"regression"``, ``"improvement"`` or ``"ok"`` for a tolerant metric.

    A change counts only beyond *both* tolerances: the absolute floor
    and the relative factor (infinite growth from a zero baseline). The
    one rule for :func:`compare_reports` and the run ledger's
    ``history``/``diff`` verdicts.
    """
    delta = fresh - baseline
    rel = _rel_change(baseline, fresh)
    if delta > abs_floor and rel > rtol:
        return "regression"
    if -delta > abs_floor and -rel > rtol:
        return "improvement"
    return "ok"


def _index_cells(report: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    return {
        str(row.get("cell")): dict(row)
        for row in report.get("cells", ())
    }


def compare_reports(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    tolerance: Optional[Tolerance] = None,
    strict_env: bool = False,
) -> ComparisonResult:
    """Compare ``fresh`` against ``baseline``; classify every difference.

    Cells are matched by ``cell`` id; a cell present on only one side is
    a hard failure (the workload matrix itself changed — re-run
    ``update-baseline`` deliberately). See the module docstring for the
    per-metric-class rules.
    """
    tol = tolerance if tolerance is not None else Tolerance()
    env_match = dict(baseline.get("environment", {})) == dict(
        fresh.get("environment", {})
    )
    result = ComparisonResult(
        matrix=str(fresh.get("matrix", baseline.get("matrix", "?"))),
        env_match=env_match,
    )
    soft_sink = (
        result.regressions
        if (env_match or strict_env)
        else result.warnings
    )

    base_cells = _index_cells(baseline)
    fresh_cells = _index_cells(fresh)
    for cell_id in sorted(set(base_cells) - set(fresh_cells)):
        result.regressions.append(
            Finding(cell_id, "presence", "present", "missing",
                    "cell missing from fresh run")
        )
    for cell_id in sorted(set(fresh_cells) - set(base_cells)):
        result.regressions.append(
            Finding(cell_id, "presence", "missing", "present",
                    "cell not in baseline (update the baseline?)")
        )

    for cell_id in sorted(set(base_cells) & set(fresh_cells)):
        base, new = base_cells[cell_id], fresh_cells[cell_id]
        result.cells_compared += 1

        # --- exact classes: counters + pattern count -------------------
        if base.get("patterns") != new.get("patterns"):
            result.regressions.append(
                Finding(cell_id, "patterns", base.get("patterns"),
                        new.get("patterns"),
                        "deterministic output changed")
            )
        base_counters = dict(base.get("counters", {}))
        new_counters = dict(new.get("counters", {}))
        for name in sorted(set(base_counters) | set(new_counters)):
            if base_counters.get(name) != new_counters.get(name):
                result.regressions.append(
                    Finding(cell_id, f"counters.{name}",
                            base_counters.get(name),
                            new_counters.get(name),
                            "counters are exact-match (deterministic)")
                )

        # --- tolerant classes: wall time + peak memory -----------------
        for metric, rtol, abs_floor, unit in (
            ("wall_s", tol.time_rtol, tol.time_abs_s, "s"),
            ("peak_mib", tol.mem_rtol, tol.mem_abs_mib, "MiB"),
        ):
            base_value = base.get(metric)
            new_value = new.get(metric)
            if base_value is None or new_value is None:
                continue
            delta = float(new_value) - float(base_value)
            rel = _rel_change(float(base_value), float(new_value))
            detail = (
                f"{'+' if delta >= 0 else ''}{delta:.3f}{unit}, "
                f"{rel:+.1%} vs rtol {rtol:.0%} / floor {abs_floor}{unit}"
            )
            finding = Finding(cell_id, metric, base_value, new_value, detail)
            verdict = classify(
                float(base_value), float(new_value), rtol, abs_floor
            )
            if verdict == "regression":
                soft_sink.append(finding)
            elif verdict == "improvement":
                result.improvements.append(finding)
    return result


def render_markdown(result: ComparisonResult) -> str:
    """Render a comparison as a markdown regression report."""
    lines = [
        f"# Perf comparison — matrix `{result.matrix}`",
        "",
        f"- cells compared: **{result.cells_compared}**",
        f"- environment match: **{'yes' if result.env_match else 'no'}**"
        + (
            ""
            if result.env_match
            else " (timing/memory findings downgraded to warnings)"
        ),
        f"- verdict: **{'OK' if result.ok else 'REGRESSION'}**",
    ]
    for title, findings in (
        ("Regressions", result.regressions),
        ("Warnings", result.warnings),
        ("Improvements", result.improvements),
    ):
        lines.append("")
        lines.append(f"## {title} ({len(findings)})")
        if not findings:
            lines.append("")
            lines.append("none")
            continue
        lines.append("")
        lines.append("| cell | metric | baseline | fresh | detail |")
        lines.append("|------|--------|----------|-------|--------|")
        for finding in findings:
            lines.append(
                f"| `{finding.cell}` | {finding.metric} "
                f"| {finding.baseline} | {finding.fresh} "
                f"| {finding.detail} |"
            )
    return "\n".join(lines) + "\n"
