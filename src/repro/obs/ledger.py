"""Persistent, append-only run ledger with cross-run regression diffing.

Every other observability surface in this repo sees *one run at a time*.
The ledger is the longitudinal memory: an append-only, schema-versioned
JSONL file (``ledger.jsonl`` under a caller-chosen directory) with one
entry per mining or bench run, recording

* a **config fingerprint** — a short hash over (dataset digest, miner,
  min_sup, mode, workers, …) that makes runs of the same configuration
  comparable across machines and weeks;
* an **environment fingerprint** (``repro.perf``'s), so timing drift on
  a different machine is never mistaken for a code regression;
* **phase timings** (from ``phase_seconds[phase=...]`` counters),
  **search counters**, pattern count, and wall time;
* a **cost-profile digest** plus the top-N heaviest roots (from
  :mod:`repro.obs.costmodel`), so "the search changed shape" is
  detectable without storing full profiles.

Two consumers sit on top:

* :func:`history_report` — a per-fingerprint trend table with
  noise-aware regression flags. Counter and pattern drift between
  consecutive runs of one fingerprint is flagged **exactly** (the miners
  are deterministic); wall-time drift is flagged only beyond
  :class:`repro.perf.compare.Tolerance` (and downgraded to a warning
  when the environment fingerprints differ).
* :func:`diff_entries` — a two-run diff: exact counter deltas,
  phase-wall deltas with the same tolerance verdicts, and heaviest-root
  rank shifts.

The file is written **only** through :class:`RunLedger.append` — lint
rule R018 enforces that no other module opens a ledger path for
writing — and is never rewritten: corrupt trailing lines (a crashed
writer) are tolerated on read, like every other JSONL surface here.
Wall-clock timestamps use :mod:`datetime` rather than ``time`` (R006);
they are provenance, not measurements, so the injectable clock is not
involved.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Union

from repro.model.database import ESequenceDatabase
from repro.obs import costmodel
from repro.obs.warnonce import json_lines, warn_once
from repro.perf.compare import Tolerance, classify, environment_fingerprint

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "RunLedger",
    "build_entry",
    "config_fingerprint",
    "dataset_digest",
    "default_environment",
    "diff_entries",
    "history_report",
    "patterns_digest",
    "phase_seconds",
    "render_diff_markdown",
    "render_history_markdown",
]

#: The schema new entries are written with. v3 (this version) dropped
#: v2's per-root wall map (``cost.roots``) and its optional shard-plan
#: and calibration blocks, which fed a forecast the engine no longer
#: makes.
LEDGER_SCHEMA_VERSION = 3

#: Schemas :meth:`RunLedger.entries` reads without complaint. No
#: consumer reads the fields v3 dropped, so v1 and v2 entries read back
#: unchanged (see the migration note in ``docs/file-formats.md``).
SUPPORTED_SCHEMAS = (1, 2, 3)

#: The one file name the ledger API writes inside its directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Heaviest roots stored per entry (full profiles stay out of the ledger).
DEFAULT_TOP_ROOTS = 5


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def dataset_digest(db: ESequenceDatabase) -> str:
    """Short content hash of a database, independent of load path.

    Hashes every ``(sid, start, finish, label)`` event in sequence
    order, so two runs mine "the same data" iff their digests match —
    the anchor that makes config fingerprints portable across machines
    and regenerated synthetic datasets.
    """
    hasher = hashlib.sha256()
    hasher.update(f"sequences={len(db)}\n".encode("utf-8"))
    for seq in db:
        for event in seq.events:
            hasher.update(
                f"{seq.sid}|{event.start!r}|{event.finish!r}|"
                f"{event.label}\n".encode("utf-8")
            )
    return hasher.hexdigest()[:12]


def patterns_digest(patterns: Iterable[Any]) -> str:
    """Order-independent content hash of a result's pattern set.

    Accepts :class:`~repro.model.pattern.PatternWithSupport` items or
    plain ``(pattern_text, support)`` pairs. Two runs digest identically
    iff they emitted the same patterns with the same supports, so a
    digest shift between ledger entries of one config fingerprint means
    the *result set* drifted — even when the pattern count did not.
    (Also served as :func:`repro.obs.provenance.patterns_digest`.)
    """
    rows: list[tuple[str, float]] = []
    for item in patterns:
        pattern = getattr(item, "pattern", None)
        if pattern is not None:
            rows.append((str(pattern), float(item.support)))
        else:
            text, support = item
            rows.append((str(text), float(support)))
    rows.sort()
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def config_fingerprint(
    *,
    dataset_digest: str,
    miner: str,
    min_sup: Optional[float],
    mode: Optional[str],
    workers: int = 1,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Short hash identifying one run configuration.

    Runs sharing a fingerprint are directly comparable: same data, same
    miner, same support threshold, same mode, same worker count (plus
    any ``extra`` keys the caller folds in, e.g. a bench cell id). The
    hash is over canonical sorted JSON, so key order never matters.
    """
    payload: dict[str, Any] = {
        "dataset_digest": dataset_digest,
        "miner": miner,
        "min_sup": min_sup,
        "mode": mode,
        "workers": workers,
    }
    if extra:
        for key in sorted(extra):
            payload[str(key)] = extra[key]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def default_environment() -> dict[str, str]:
    """The perf layer's environment fingerprint
    (:func:`repro.perf.compare.environment_fingerprint`)."""
    return environment_fingerprint()


def phase_seconds(metrics_snapshot: Mapping[str, Any]) -> dict[str, float]:
    """Extract ``{phase: seconds}`` from a metrics snapshot's counters."""
    counters = metrics_snapshot.get("counters", {})
    phases: dict[str, float] = {}
    prefix, suffix = "phase_seconds[phase=", "]"
    for key in sorted(counters):
        if key.startswith(prefix) and key.endswith(suffix):
            phases[key[len(prefix) : -len(suffix)]] = float(counters[key])
    return phases


# ----------------------------------------------------------------------
# entries
# ----------------------------------------------------------------------
def build_entry(
    *,
    dataset_digest: str,
    miner: str,
    min_sup: Optional[float],
    mode: Optional[str],
    workers: int = 1,
    extra_config: Optional[Mapping[str, Any]] = None,
    environment: Optional[Mapping[str, str]] = None,
    wall_s: float,
    patterns: int,
    counters: Mapping[str, int],
    phases: Optional[Mapping[str, float]] = None,
    cost_snapshot: Optional[Mapping[str, Any]] = None,
    patterns_digest: Optional[str] = None,
    provenance_path: Optional[str] = None,
    top_n: int = DEFAULT_TOP_ROOTS,
    run_id: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> dict[str, Any]:
    """Assemble one schema-versioned ledger entry (no I/O).

    ``run_id``/``timestamp`` are injectable for tests; by default the
    timestamp is the current UTC time and the run id is derived from it
    plus a content hash, so ids are unique even within one second.
    """
    config: dict[str, Any] = {
        "dataset_digest": dataset_digest,
        "miner": miner,
        "min_sup": min_sup,
        "mode": mode,
        "workers": workers,
    }
    if extra_config:
        for key in sorted(extra_config):
            config[str(key)] = extra_config[key]
    fingerprint = config_fingerprint(
        dataset_digest=dataset_digest,
        miner=miner,
        min_sup=min_sup,
        mode=mode,
        workers=workers,
        extra=extra_config,
    )
    entry: dict[str, Any] = {
        "schema": LEDGER_SCHEMA_VERSION,
        "kind": "repro-run",
        "fingerprint": fingerprint,
        "config": config,
        "environment": dict(
            environment if environment is not None else default_environment()
        ),
        "wall_s": float(wall_s),
        "patterns": int(patterns),
        "counters": {
            key: int(value) for key, value in sorted(dict(counters).items())
        },
        "phases": {
            name: float(secs)
            for name, secs in sorted(dict(phases or {}).items())
        },
    }
    if cost_snapshot is not None:
        entry["cost"] = {
            "digest": costmodel.profile_digest(cost_snapshot),
            "top_roots": costmodel.top_roots(cost_snapshot, top_n),
        }
    if patterns_digest is not None:
        # Order-independent content hash of the result's pattern set
        # (:func:`repro.obs.provenance.patterns_digest`): history --check
        # flags *result-set* drift exactly, not just counter drift.
        entry["patterns_digest"] = patterns_digest
    if provenance_path is not None:
        # Where this run's provenance snapshot was written, so
        # ``ptpminer diff --patterns`` can join two ledger runs.
        entry["provenance_path"] = str(provenance_path)
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry["ts"] = timestamp
    if run_id is None:
        content = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        run_id = (
            timestamp.replace(":", "").replace("+0000", "Z")
            + "-"
            + hashlib.sha256(content.encode("utf-8")).hexdigest()[:8]
        )
    entry["run_id"] = run_id
    return entry


class RunLedger:
    """Append-only JSONL ledger in one directory.

    All writes go through :meth:`append` — one ``json.dumps`` line per
    run, flushed per append, never rewritten. Everything else is read
    side: :meth:`entries` (tolerant, like ``read_trace``) and
    :meth:`find` (run-id prefix resolution for the ``diff`` CLI).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        """The ledger file this instance reads and appends to."""
        return self.directory / LEDGER_FILENAME

    def append(self, entry: Mapping[str, Any]) -> dict[str, Any]:
        """Append one entry (validated) and return it as stored."""
        stored = dict(entry)
        if stored.get("schema") != LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"entry schema {stored.get('schema')!r} != "
                f"{LEDGER_SCHEMA_VERSION}"
            )
        if stored.get("kind") != "repro-run":
            raise ValueError(f"entry kind {stored.get('kind')!r}")
        if not stored.get("run_id") or not stored.get("fingerprint"):
            raise ValueError("entry missing run_id or fingerprint")
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(stored, sort_keys=True, separators=(",", ":"))
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return stored

    def entries(self) -> list[dict[str, Any]]:
        """Every readable entry, in file (= append) order.

        Accepts every schema in :data:`SUPPORTED_SCHEMAS` — older lines
        read back silently; fields a newer schema dropped are carried
        along and ignored. Unparseable or unknown-schema lines — a
        crashed writer's torn tail, a future schema — are skipped with
        one warning per ledger file (:mod:`repro.obs.warnonce`), so a
        damaged ledger degrades instead of blocking every consumer and
        repeat readers (``history`` renders, report joins) do not spam.
        """
        if not self.path.is_file():
            return []
        out: list[dict[str, Any]] = []
        skipped = 0
        for entry in json_lines(self.path):
            if (
                isinstance(entry, dict)
                and entry.get("schema") in SUPPORTED_SCHEMAS
                and entry.get("kind") == "repro-run"
            ):
                out.append(entry)
            else:
                skipped += 1
        if skipped:
            warn_once(
                self.path,
                f"{self.path}: skipped {skipped} unreadable ledger "
                "line(s)",
                RuntimeWarning,
            )
        return out

    def find(self, run_ref: str) -> dict[str, Any]:
        """Resolve a run id, or a unique prefix of one, to its entry."""
        matches = [
            entry
            for entry in self.entries()
            if str(entry.get("run_id", "")).startswith(run_ref)
        ]
        exact = [e for e in matches if e.get("run_id") == run_ref]
        if exact:
            return exact[-1]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValueError(f"no run matching {run_ref!r} in {self.path}")
        ids = ", ".join(str(e["run_id"]) for e in matches[:5])
        raise ValueError(f"run ref {run_ref!r} is ambiguous: {ids}")


# ----------------------------------------------------------------------
# history: per-fingerprint trends with noise-aware flags
# ----------------------------------------------------------------------
def _wall_verdict(
    base: float, fresh: float, tolerance: Tolerance, env_match: bool
) -> str:
    """Classify a wall-time change by ``repro.perf.compare``'s rule.

    A regression across differing environments downgrades to a warning.
    """
    verdict = classify(base, fresh, tolerance.time_rtol, tolerance.time_abs_s)
    return "warning" if verdict == "regression" and not env_match else verdict


def _pair_flags(
    prev: Mapping[str, Any],
    cur: Mapping[str, Any],
    tolerance: Tolerance,
) -> list[dict[str, Any]]:
    """Flags for one consecutive pair of same-fingerprint runs."""
    flags: list[dict[str, Any]] = []
    if int(cur.get("patterns", 0)) != int(prev.get("patterns", 0)):
        flags.append(
            {
                "metric": "patterns",
                "severity": "regression",
                "base": prev.get("patterns"),
                "fresh": cur.get("patterns"),
                "detail": "pattern count drifted (exact check)",
            }
        )
    prev_counters = dict(prev.get("counters", {}))
    cur_counters = dict(cur.get("counters", {}))
    for key in sorted(set(prev_counters) | set(cur_counters)):
        if prev_counters.get(key) != cur_counters.get(key):
            flags.append(
                {
                    "metric": f"counters.{key}",
                    "severity": "regression",
                    "base": prev_counters.get(key),
                    "fresh": cur_counters.get(key),
                    "detail": "search counter drifted (exact check)",
                }
            )
    prev_digest = (prev.get("cost") or {}).get("digest")
    cur_digest = (cur.get("cost") or {}).get("digest")
    if prev_digest and cur_digest and prev_digest != cur_digest:
        flags.append(
            {
                "metric": "cost.digest",
                "severity": "regression",
                "base": prev_digest,
                "fresh": cur_digest,
                "detail": "search-space cost profile changed shape",
            }
        )
    prev_patterns = prev.get("patterns_digest")
    cur_patterns = cur.get("patterns_digest")
    if prev_patterns and cur_patterns and prev_patterns != cur_patterns:
        flags.append(
            {
                "metric": "patterns_digest",
                "severity": "regression",
                "base": prev_patterns,
                "fresh": cur_patterns,
                "detail": "result set drifted (exact content check: "
                "patterns and supports)",
            }
        )
    env_match = dict(prev.get("environment", {})) == dict(
        cur.get("environment", {})
    )
    verdict = _wall_verdict(
        float(prev.get("wall_s", 0.0)),
        float(cur.get("wall_s", 0.0)),
        tolerance,
        env_match,
    )
    if verdict in ("regression", "warning"):
        flags.append(
            {
                "metric": "wall_s",
                "severity": verdict,
                "base": prev.get("wall_s"),
                "fresh": cur.get("wall_s"),
                "detail": (
                    "wall time beyond tolerance"
                    if env_match
                    else "wall time beyond tolerance, but environment "
                    "fingerprints differ — downgraded to warning"
                ),
            }
        )
    return flags


def history_report(
    entries: list[dict[str, Any]],
    *,
    tolerance: Optional[Tolerance] = None,
    limit: Optional[int] = None,
) -> dict[str, Any]:
    """Trend report over ledger entries, grouped by config fingerprint.

    Within a group (entries kept in append order), each consecutive run
    pair is compared: counters/patterns/cost-digest/patterns-digest
    exactly, wall time with the perf layer's noise tolerance.
    ``regressions`` collects the hard flags of the *latest* pair of
    every group — that is what ``ptpminer history --check`` gates on —
    while older flags stay visible on their runs. ``limit`` truncates
    each group's *displayed* rows to the most recent N **after** flag
    computation, so ``--check`` semantics are unaffected by it.
    """
    tol = tolerance if tolerance is not None else Tolerance()
    groups: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        groups.setdefault(str(entry.get("fingerprint")), []).append(entry)
    report_groups: list[dict[str, Any]] = []
    regressions: list[dict[str, Any]] = []
    warnings_out: list[dict[str, Any]] = []
    for fingerprint in sorted(groups):
        runs = groups[fingerprint]
        rows: list[dict[str, Any]] = []
        for index, entry in enumerate(runs):
            flags = (
                _pair_flags(runs[index - 1], entry, tol) if index else []
            )
            rows.append(
                {
                    "run_id": entry.get("run_id"),
                    "ts": entry.get("ts"),
                    "wall_s": entry.get("wall_s"),
                    "patterns": entry.get("patterns"),
                    "cost_digest": (entry.get("cost") or {}).get("digest"),
                    "patterns_digest": entry.get("patterns_digest"),
                    "flags": flags,
                }
            )
            is_latest_pair = index == len(runs) - 1
            for flag in flags:
                record = {
                    "fingerprint": fingerprint,
                    "run_id": entry.get("run_id"),
                    **flag,
                }
                if flag["severity"] == "regression" and is_latest_pair:
                    regressions.append(record)
                elif flag["severity"] in ("regression", "warning"):
                    warnings_out.append(record)
        if limit is not None and limit >= 0:
            rows = rows[-limit:] if limit else []
        report_groups.append(
            {
                "fingerprint": fingerprint,
                "config": dict(runs[-1].get("config", {})),
                "runs": rows,
            }
        )
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "kind": "repro-history",
        "groups": report_groups,
        "regressions": regressions,
        "warnings": warnings_out,
    }


def render_history_markdown(report: Mapping[str, Any]) -> str:
    """The history report as a compact markdown document."""
    lines = ["# Run history", ""]
    groups = list(report.get("groups", []))
    if not groups:
        lines.append("_Ledger is empty._")
        return "\n".join(lines) + "\n"
    for group in groups:
        config = dict(group.get("config", {}))
        desc = ", ".join(
            f"{key}={config[key]}" for key in sorted(config)
        )
        lines.append(f"## `{group['fingerprint']}`")
        lines.append("")
        lines.append(f"Config: {desc}")
        lines.append("")
        lines.append(
            "| run | ts | wall_s | patterns | cost digest | flags |"
        )
        lines.append("| --- | --- | ---: | ---: | --- | --- |")
        for row in group.get("runs", []):
            flags = row.get("flags", [])
            flag_text = (
                "; ".join(
                    f"{flag['severity']}: {flag['metric']}"
                    for flag in flags
                )
                or "—"
            )
            wall = row.get("wall_s")
            wall_text = f"{wall:.3f}" if isinstance(wall, float) else str(wall)
            lines.append(
                f"| `{row.get('run_id')}` | {row.get('ts')} "
                f"| {wall_text} | {row.get('patterns')} "
                f"| `{row.get('cost_digest') or '—'}` | {flag_text} |"
            )
        lines.append("")
    regressions = list(report.get("regressions", []))
    lines.append(
        f"**{len(regressions)} regression(s)**, "
        f"{len(report.get('warnings', []))} warning(s)."
    )
    for finding in regressions:
        lines.append(
            f"- `{finding['fingerprint']}` {finding['metric']}: "
            f"{finding['base']!r} -> {finding['fresh']!r} "
            f"({finding['detail']})"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# diff: two runs, exactly
# ----------------------------------------------------------------------
def diff_entries(
    entry_a: Mapping[str, Any],
    entry_b: Mapping[str, Any],
    *,
    tolerance: Optional[Tolerance] = None,
) -> dict[str, Any]:
    """Structured diff of two ledger entries (``b`` relative to ``a``).

    Counters and pattern counts diff exactly; wall time and per-phase
    wall get tolerance verdicts (downgraded to ``warning`` when the two
    environments differ); the stored heaviest-roots lists are joined by
    root name to show rank and cost shifts.
    """
    tol = tolerance if tolerance is not None else Tolerance()
    env_match = dict(entry_a.get("environment", {})) == dict(
        entry_b.get("environment", {})
    )
    counters_a = dict(entry_a.get("counters", {}))
    counters_b = dict(entry_b.get("counters", {}))
    counter_diffs = [
        {
            "counter": key,
            "a": counters_a.get(key),
            "b": counters_b.get(key),
            "delta": int(counters_b.get(key, 0) or 0)
            - int(counters_a.get(key, 0) or 0),
        }
        for key in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(key) != counters_b.get(key)
    ]
    wall_a = float(entry_a.get("wall_s", 0.0))
    wall_b = float(entry_b.get("wall_s", 0.0))
    phases_a = dict(entry_a.get("phases", {}))
    phases_b = dict(entry_b.get("phases", {}))
    phase_rows = []
    for name in sorted(set(phases_a) | set(phases_b)):
        a_val = float(phases_a.get(name, 0.0))
        b_val = float(phases_b.get(name, 0.0))
        phase_rows.append(
            {
                "phase": name,
                "a": a_val,
                "b": b_val,
                "delta": b_val - a_val,
                "verdict": _wall_verdict(a_val, b_val, tol, env_match),
            }
        )
    roots_a = {
        str(row.get("root")): (rank, row)
        for rank, row in enumerate(
            (entry_a.get("cost") or {}).get("top_roots", [])
        )
    }
    roots_b = {
        str(row.get("root")): (rank, row)
        for rank, row in enumerate(
            (entry_b.get("cost") or {}).get("top_roots", [])
        )
    }
    root_rows = []
    for root in sorted(set(roots_a) | set(roots_b)):
        rank_a, row_a = roots_a.get(root, (None, {}))
        rank_b, row_b = roots_b.get(root, (None, {}))
        root_rows.append(
            {
                "root": root,
                "rank_a": rank_a,
                "rank_b": rank_b,
                "states_a": row_a.get("states_created"),
                "states_b": row_b.get("states_created"),
                "wall_a": row_a.get("wall_s"),
                "wall_b": row_b.get("wall_s"),
            }
        )
    digest_a = (entry_a.get("cost") or {}).get("digest")
    digest_b = (entry_b.get("cost") or {}).get("digest")
    patterns_a = int(entry_a.get("patterns", 0))
    patterns_b = int(entry_b.get("patterns", 0))
    regressions = len(counter_diffs) > 0 or patterns_a != patterns_b
    wall_verdict = _wall_verdict(wall_a, wall_b, tol, env_match)
    if wall_verdict == "regression":
        regressions = True
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "kind": "repro-diff",
        "run_a": entry_a.get("run_id"),
        "run_b": entry_b.get("run_id"),
        "same_fingerprint": entry_a.get("fingerprint")
        == entry_b.get("fingerprint"),
        "env_match": env_match,
        "patterns": {
            "a": patterns_a,
            "b": patterns_b,
            "delta": patterns_b - patterns_a,
        },
        "wall_s": {
            "a": wall_a,
            "b": wall_b,
            "delta": wall_b - wall_a,
            "verdict": wall_verdict,
        },
        "counters": counter_diffs,
        "phases": phase_rows,
        "cost": {
            "digest_a": digest_a,
            "digest_b": digest_b,
            "changed": bool(digest_a and digest_b and digest_a != digest_b),
            "top_roots": root_rows,
        },
        "has_regressions": regressions,
    }


def render_diff_markdown(diff: Mapping[str, Any]) -> str:
    """The diff as a markdown document."""
    lines = [
        f"# Run diff: `{diff.get('run_a')}` -> `{diff.get('run_b')}`",
        "",
    ]
    if not diff.get("same_fingerprint", True):
        lines.append(
            "> Config fingerprints differ — these runs mined different "
            "configurations; exact comparisons below are informational."
        )
        lines.append("")
    if not diff.get("env_match", True):
        lines.append(
            "> Environment fingerprints differ; timing verdicts are "
            "downgraded to warnings."
        )
        lines.append("")
    patterns = diff.get("patterns", {})
    wall = diff.get("wall_s", {})
    lines.append(
        f"- patterns: {patterns.get('a')} -> {patterns.get('b')} "
        f"(delta {patterns.get('delta')})"
    )
    lines.append(
        f"- wall_s: {wall.get('a', 0.0):.3f} -> {wall.get('b', 0.0):.3f} "
        f"({wall.get('verdict')})"
    )
    counters = list(diff.get("counters", []))
    if counters:
        lines += ["", "## Counter drift (exact)", ""]
        lines.append("| counter | a | b | delta |")
        lines.append("| --- | ---: | ---: | ---: |")
        for row in counters:
            lines.append(
                f"| {row['counter']} | {row['a']} | {row['b']} "
                f"| {row['delta']:+d} |"
            )
    else:
        lines += ["", "Counters identical."]
    phases = list(diff.get("phases", []))
    if phases:
        lines += ["", "## Phase wall deltas", ""]
        lines.append("| phase | a (s) | b (s) | delta (s) | verdict |")
        lines.append("| --- | ---: | ---: | ---: | --- |")
        for row in phases:
            lines.append(
                f"| {row['phase']} | {row['a']:.4f} | {row['b']:.4f} "
                f"| {row['delta']:+.4f} | {row['verdict']} |"
            )
    cost = diff.get("cost", {})
    roots = list(cost.get("top_roots", []))
    if roots:
        lines += ["", "## Heaviest-root shifts", ""]
        if cost.get("changed"):
            lines.append(
                f"Cost digests differ: `{cost.get('digest_a')}` vs "
                f"`{cost.get('digest_b')}` — the search changed shape."
            )
            lines.append("")
        lines.append("| root | rank a | rank b | states a | states b |")
        lines.append("| --- | ---: | ---: | ---: | ---: |")

        def _rank(value: Any) -> str:
            return "—" if value is None else str(int(value) + 1)

        for row in roots:
            lines.append(
                f"| `{row['root']}` | {_rank(row['rank_a'])} "
                f"| {_rank(row['rank_b'])} "
                f"| {row['states_a'] if row['states_a'] is not None else '—'} "
                f"| {row['states_b'] if row['states_b'] is not None else '—'} |"
            )
    lines.append("")
    lines.append(
        "**Regressions detected.**"
        if diff.get("has_regressions")
        else "**No regressions.**"
    )
    return "\n".join(lines) + "\n"
