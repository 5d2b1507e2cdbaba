"""Judge a pair of run-ledger entries: a fresh benchmark cell against
its baseline entry, or two runs of one configuration.

:func:`judge` is the one rule, and every gate calls it (``perf
compare`` once per cell through :func:`compare_reports`, ``ptpminer
history --check`` and ``ptpminer diff`` through
:mod:`repro.obs.ledger`). Metric classes get different treatment,
because they have different noise characteristics:

* **exact**: the pattern count, every search counter
  (``nodes_expanded``, ``pruned_*``, ``states_created``, …), and the
  patterns digest and cost digest when both runs carry one. The miners
  are deterministic, so any difference is a real behavioural change —
  always a regression.
* **tolerant**: wall time and peak memory, judged by :func:`classify`.
  A run only regresses when it is slower than the base by *both* a
  relative factor (``time_rtol``) and an absolute floor (``time_abs_s``
  — sub-100ms cells jitter by whole multiples); peak memory gets its
  own (tighter) pair, because it is stable on one interpreter but
  shifts across Python versions.

When the two runs' environment fingerprints differ, a tolerant
regression is *downgraded to a warning* — a laptop cannot meaningfully
gate on CI-runner milliseconds, but counters still can. Improvements
beyond the same thresholds are reported (never fatal) so
``update-baseline`` runs have evidence attached.
"""

from __future__ import annotations

import platform
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "ComparisonResult",
    "Finding",
    "Tolerance",
    "classify",
    "compare_reports",
    "environment_fingerprint",
    "judge",
    "render_markdown",
    "same_environment",
]


def environment_fingerprint() -> dict[str, str]:
    """Identify the machine/runtime a report was measured on.

    Compared (as a whole) against the baseline's fingerprint when
    diffing: search counters transfer across environments, wall time
    and peak memory do not — :func:`judge` downgrades timing/memory
    regressions to warnings on a fingerprint mismatch. The
    run ledger stamps it on every entry, so it lives here, with no
    import of the benchmark runner.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
    }


def same_environment(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Whether two runs carry equal environment fingerprints."""
    return dict(a.get("environment", {})) == dict(b.get("environment", {}))


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Noise thresholds per metric class (see the module docstring)."""

    time_rtol: float = 0.75
    time_abs_s: float = 0.25
    mem_rtol: float = 0.30
    mem_abs_mib: float = 2.0


@dataclass(frozen=True, slots=True)
class Finding:
    """One judged difference in one metric between two runs.

    ``severity`` is ``"regression"``, ``"warning"`` (a tolerant
    regression across differing environments) or ``"improvement"``.
    """

    cell: str
    metric: str
    baseline: Any
    fresh: Any
    detail: str
    severity: str = "regression"


@dataclass(slots=True)
class ComparisonResult:
    """Everything a comparison found, bucketed by severity.

    ``env_match`` holds when every compared cell pair shares one
    environment fingerprint.
    """

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
    baseline: float,
    fresh: float,
    rtol: float,
    abs_floor: float,
    *,
    env_match: bool = True,
) -> str:
    """``"regression"``, ``"warning"``, ``"improvement"`` or ``"ok"``.

    A change counts only beyond *both* tolerances: the absolute floor
    and the relative factor (infinite growth from a zero baseline). A
    regression measured across differing environments is a
    ``"warning"``. The rule :func:`judge` applies to wall time and peak
    memory, and ``ptpminer diff`` to its display-only phase rows.
    """
    delta = fresh - baseline
    rel = _rel_change(baseline, fresh)
    if delta > abs_floor and rel > rtol:
        return "regression" if env_match else "warning"
    if -delta > abs_floor and -rel > rtol:
        return "improvement"
    return "ok"


def judge(
    base: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    env_match: bool,
    tolerance: Optional[Tolerance] = None,
) -> list[Finding]:
    """Every finding between two runs of one configuration.

    ``base`` and ``fresh`` are run-ledger entries. Fields absent from
    either run are not judged: a benchmark cell carries ``peak_mib``, a
    ``mine --ledger-dir`` run its ``patterns_digest`` and, with a cost
    profile, its ``cost.digest``. Findings name the cell id in
    ``config.cell`` (empty for a run that is no cell). ``env_match``
    says whether the two runs' environment fingerprints are equal. See
    the module docstring for the rule.
    """
    tol = tolerance if tolerance is not None else Tolerance()
    cell = str((fresh.get("config") or {}).get("cell", ""))
    findings: list[Finding] = []

    # --- exact classes: pattern count, counters, digests ----------------
    if base.get("patterns") != fresh.get("patterns"):
        findings.append(
            Finding(cell, "patterns", base.get("patterns"),
                    fresh.get("patterns"),
                    "pattern count drifted (exact check)")
        )
    base_counters = dict(base.get("counters", {}))
    fresh_counters = dict(fresh.get("counters", {}))
    for name in sorted(set(base_counters) | set(fresh_counters)):
        if base_counters.get(name) != fresh_counters.get(name):
            findings.append(
                Finding(cell, f"counters.{name}", base_counters.get(name),
                        fresh_counters.get(name),
                        "search counter drifted (exact check)")
            )
    for metric, base_digest, fresh_digest, detail in (
        ("patterns_digest", base.get("patterns_digest"),
         fresh.get("patterns_digest"),
         "result set drifted (exact content check: patterns and "
         "supports)"),
        ("cost.digest", (base.get("cost") or {}).get("digest"),
         (fresh.get("cost") or {}).get("digest"),
         "search-space cost profile changed shape"),
    ):
        if base_digest and fresh_digest and base_digest != fresh_digest:
            findings.append(
                Finding(cell, metric, base_digest, fresh_digest, detail)
            )

    # --- tolerant classes: wall time + peak memory ----------------------
    for metric, rtol, abs_floor, unit in (
        ("wall_s", tol.time_rtol, tol.time_abs_s, "s"),
        ("peak_mib", tol.mem_rtol, tol.mem_abs_mib, "MiB"),
    ):
        base_value = base.get(metric)
        fresh_value = fresh.get(metric)
        if base_value is None or fresh_value is None:
            continue
        verdict = classify(
            float(base_value), float(fresh_value), rtol, abs_floor,
            env_match=env_match,
        )
        if verdict == "ok":
            continue
        delta = float(fresh_value) - float(base_value)
        rel = _rel_change(float(base_value), float(fresh_value))
        detail = (
            f"{delta:+.3f}{unit}, {rel:+.1%} vs rtol {rtol:.0%} / "
            f"floor {abs_floor}{unit}"
        )
        if verdict == "warning":
            detail += "; environments differ"
        findings.append(
            Finding(cell, metric, base_value, fresh_value, detail, verdict)
        )
    return findings


def _index_cells(
    entries: Iterable[Mapping[str, Any]],
) -> dict[str, Mapping[str, Any]]:
    """Each cell's latest entry, by ``config.cell`` id; entries of runs
    that are no cell are left out."""
    cells: dict[str, Mapping[str, Any]] = {}
    for entry in entries:
        cell = (entry.get("config") or {}).get("cell")
        if cell is not None:
            cells[str(cell)] = entry
    return cells


def compare_reports(
    baseline: Iterable[Mapping[str, Any]],
    fresh: Iterable[Mapping[str, Any]],
    *,
    tolerance: Optional[Tolerance] = None,
) -> ComparisonResult:
    """Compare ``fresh`` against ``baseline``, one :func:`judge` per cell.

    Both are run-ledger entries, matched by ``config.cell`` id (a
    cell's latest entry on each side counts); a cell present on only
    one side is a hard failure (the workload matrix itself changed —
    re-run ``update-baseline`` deliberately).
    """
    base_cells = _index_cells(baseline)
    fresh_cells = _index_cells(fresh)
    matrices = {
        str((entry.get("config") or {}).get("matrix", "?"))
        for entry in (*base_cells.values(), *fresh_cells.values())
    }
    result = ComparisonResult(
        matrix=", ".join(sorted(matrices)) or "?", env_match=True
    )
    buckets = {
        "regression": result.regressions,
        "warning": result.warnings,
        "improvement": result.improvements,
    }

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
        result.cells_compared += 1
        base, new = base_cells[cell_id], fresh_cells[cell_id]
        env_match = same_environment(base, new)
        result.env_match = result.env_match and env_match
        for finding in judge(
            base, new, env_match=env_match, tolerance=tolerance
        ):
            buckets[finding.severity].append(finding)
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
