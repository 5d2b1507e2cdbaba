"""Per-phase profiling hooks: *where* does a mining phase spend itself?

The tracing layer (:mod:`repro.obs.trace`) answers "how long did
``search`` take"; this module answers "which functions inside ``search``
burned that time". A :class:`PhaseProfiler` installs as a tracer (it
implements the :class:`~repro.obs.trace.Tracer` protocol, forwarding
events to any previously installed tracer) and runs one
:mod:`cProfile` profile per *top-level phase span* — ``prune``,
``encode``, ``pair_tables``, ``search`` — so every function's time is
attributed to the mining phase it ran under. ``cProfile`` cannot nest,
so the per-node ``extend``/``project`` spans inside ``search`` are not
profiled separately; their cost shows up as the
``projection.py``/``counting.py`` rows of the ``search`` phase table,
which is the attribution the optimisation work needs.

Three outputs:

* a JSON-able :class:`ProfileReport` (per-phase top functions, optional
  per-phase top allocation sites from :mod:`tracemalloc`);
* a collapsed-stack ("folded") text export — ``phase;caller;callee N``
  lines with microsecond weights, consumable by standard flamegraph
  tooling (``flamegraph.pl``, speedscope, inferno);
* a renderer, ``python -m repro.obs.profile profile.json``, parallel to
  :mod:`repro.obs.report`.

Same zero-cost discipline as the rest of :mod:`repro.obs`: nothing here
touches the mining hot path unless a profiler is installed, and the
miners contain no profiling imports (lint rule R007 forbids raw
``cProfile``/``pstats``/``tracemalloc`` inside ``repro.core`` and
``repro.baselines`` — profiling flows only through this module and
:mod:`repro.harness.metrics`).

Usage::

    from repro.obs.profile import profile_scope

    with profile_scope(memory=True) as profiler:
        PTPMiner(0.05).mine(db)
    report = profiler.report()
    print(report.render())
    Path("mine.folded").write_text("\\n".join(profiler.folded_lines()))
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import tracemalloc
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union, cast

from repro.io._utf8 import load_json_object
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_PHASES",
    "PhaseProfile",
    "PhaseProfiler",
    "ProfileReport",
    "SCHEMA_VERSION",
    "main",
    "profile_scope",
    "render_profile",
    "write_profile",
]

#: Schema version stamped into every serialised profile report.
SCHEMA_VERSION = 1

#: The top-level mining phases profiled by default — the direct children
#: of the root ``mine`` span that P-TPMiner and the baselines open.
DEFAULT_PHASES: tuple[str, ...] = (
    "prune",
    "encode",
    "pair_tables",
    "search",
)

#: pstats function key: (filename, lineno, function name).
_FuncKey = tuple[str, int, str]

#: One pstats row: (prim calls, total calls, tottime, cumtime, callers).
_StatsRow = tuple[int, int, float, float, "dict[_FuncKey, _CallerRow]"]
_CallerRow = tuple[int, int, float, float]


def _stats_table(stats: pstats.Stats) -> dict[_FuncKey, _StatsRow]:
    """The raw pstats table (typed; the attribute is set dynamically)."""
    return cast(
        dict[_FuncKey, _StatsRow], cast(Any, stats).stats
    )


def _func_label(func: _FuncKey) -> str:
    """Compact ``path/file.py:lineno(name)`` label for one pstats key."""
    filename, lineno, name = func
    if filename in ("~", ""):
        return name  # built-in: pstats renders these as "~:0(<name>)"
    short = "/".join(Path(filename).parts[-2:])
    return f"{short}:{lineno}({name})"


@dataclass(frozen=True, slots=True)
class PhaseProfile:
    """Aggregated profile of one mining phase.

    ``functions`` rows are dicts with ``func`` (compact label),
    ``calls``, ``tottime`` (self seconds), and ``cumtime`` keys, sorted
    by descending ``tottime``. ``memory_top`` rows (present only when
    memory attribution was on) carry ``site``, ``size_kib``, and
    ``count`` for the phase's top allocation sites.
    """

    name: str
    runs: int
    seconds: float
    functions: list[dict[str, Any]] = field(default_factory=list)
    memory_top: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "runs": self.runs,
            "seconds": round(self.seconds, 6),
            "functions": self.functions,
            "memory_top": self.memory_top,
        }


@dataclass(frozen=True, slots=True)
class ProfileReport:
    """A finished profiling session: one :class:`PhaseProfile` per phase."""

    phases: list[PhaseProfile]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (schema-versioned)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": "repro-profile",
            "phases": [phase.as_dict() for phase in self.phases],
        }

    def render(self, *, top: int = 10) -> str:
        """Human-readable tables (same renderer as the CLI module)."""
        return render_profile(self.as_dict(), top=top)


class PhaseProfiler:
    """Tracer that runs one ``cProfile`` profile per top-level phase span.

    Installed with :func:`profile_scope` (or manually via
    ``trace.use_tracer``). Span events for phases named in ``phases``
    toggle a fresh profile on begin and collect it on end; all events
    are forwarded to ``downstream`` so profiling composes with an
    existing tracer (e.g. the CLI's ``--trace`` writer). Profiles never
    nest — while one phase profile is live, inner spans (the per-node
    ``extend``/``project`` spans) pass through unprofiled, and a
    same-named nested span is ignored until the opening span ends.

    With ``memory=True`` the profiler also diffs :mod:`tracemalloc`
    snapshots at each phase boundary and keeps the ``top_n`` allocation
    sites per phase. Memory attribution requires tracemalloc to trace
    during the run; :func:`profile_scope` starts/stops it automatically.
    Note that both cProfile and tracemalloc slow the run down — profile
    numbers attribute cost, they are not benchmark timings (the
    ``repro.perf`` baselines therefore never profile their timed runs).
    """

    def __init__(
        self,
        *,
        phases: Sequence[str] = DEFAULT_PHASES,
        downstream: Optional[_trace.Tracer] = None,
        memory: bool = False,
        top_n: int = 10,
    ) -> None:
        self.phases = frozenset(phases)
        self.downstream = downstream
        self.memory = memory
        self.top_n = top_n
        self._active_span: Optional[int] = None
        self._active_name: Optional[str] = None
        self._active_profile: Optional[cProfile.Profile] = None
        self._active_mem: Optional[tracemalloc.Snapshot] = None
        self._profiles: dict[str, list[cProfile.Profile]] = {}
        self._seconds: dict[str, float] = {}
        self._runs: dict[str, int] = {}
        self._mem_sites: dict[str, dict[tuple[str, int], list[int]]] = {}

    # -- Tracer protocol ------------------------------------------------
    def emit(self, event: dict[str, Any]) -> None:
        """Consume one span event; toggle phase profiles, then forward."""
        kind = event.get("ev")
        if (
            kind == "B"
            and self._active_span is None
            and event.get("name") in self.phases
        ):
            self._begin_phase(event)
        elif kind == "E" and event.get("span") == self._active_span:
            self._end_phase(event)
        if self.downstream is not None:
            self.downstream.emit(event)

    # -- phase bookkeeping ----------------------------------------------
    def _begin_phase(self, event: dict[str, Any]) -> None:
        self._active_span = event.get("span")
        self._active_name = str(event.get("name"))
        if self.memory and tracemalloc.is_tracing():
            self._active_mem = tracemalloc.take_snapshot()
        profile = cProfile.Profile()
        self._active_profile = profile
        try:
            profile.enable()
        except ValueError:  # another profiler already owns the hook
            self._active_profile = None

    def _end_phase(self, event: dict[str, Any]) -> None:
        name = self._active_name or "?"
        profile = self._active_profile
        if profile is not None:
            profile.disable()
            self._profiles.setdefault(name, []).append(profile)
        self._seconds[name] = self._seconds.get(name, 0.0) + float(
            event.get("dur", 0.0)
        )
        self._runs[name] = self._runs.get(name, 0) + 1
        if self.memory and self._active_mem is not None:
            if tracemalloc.is_tracing():
                self._record_memory(name, tracemalloc.take_snapshot())
            self._active_mem = None
        self._active_span = None
        self._active_name = None
        self._active_profile = None

    def _record_memory(
        self, name: str, after: tracemalloc.Snapshot
    ) -> None:
        assert self._active_mem is not None
        sites = self._mem_sites.setdefault(name, {})
        for diff in after.compare_to(self._active_mem, "lineno"):
            if diff.size_diff <= 0:
                continue
            frame = diff.traceback[0]
            key = (frame.filename, frame.lineno)
            entry = sites.setdefault(key, [0, 0])
            entry[0] += diff.size_diff
            entry[1] += max(diff.count_diff, 0)

    def abort(self) -> None:
        """Close any phase left open (exception unwound past its span)."""
        if self._active_profile is not None:
            self._active_profile.disable()
        self._active_span = None
        self._active_name = None
        self._active_profile = None
        self._active_mem = None

    # -- results --------------------------------------------------------
    def _stats_for(self, name: str) -> Optional[pstats.Stats]:
        profiles = self._profiles.get(name)
        if not profiles:
            return None
        stats = pstats.Stats(profiles[0])
        for extra in profiles[1:]:
            stats.add(extra)
        return stats

    def report(self, *, top: int = 25) -> ProfileReport:
        """Aggregate everything profiled so far into a report.

        ``top`` caps the per-phase function rows (the folded export is
        not capped). Phases are ordered by descending total seconds.
        """
        phases: list[PhaseProfile] = []
        for name in self._runs:
            functions: list[dict[str, Any]] = []
            stats = self._stats_for(name)
            if stats is not None:
                rows = sorted(
                    _stats_table(stats).items(),
                    key=lambda item: -item[1][2],
                )
                for func, (_cc, ncalls, tottime, cumtime, _callers) in rows[
                    :top
                ]:
                    functions.append(
                        {
                            "func": _func_label(func),
                            "calls": ncalls,
                            "tottime": round(tottime, 6),
                            "cumtime": round(cumtime, 6),
                        }
                    )
            memory_top = [
                {
                    "site": f"{'/'.join(Path(filename).parts[-2:])}:{lineno}",
                    "size_kib": round(sizes[0] / 1024.0, 1),
                    "count": sizes[1],
                }
                for (filename, lineno), sizes in sorted(
                    self._mem_sites.get(name, {}).items(),
                    key=lambda item: -item[1][0],
                )[: self.top_n]
            ]
            phases.append(
                PhaseProfile(
                    name=name,
                    runs=self._runs[name],
                    seconds=self._seconds.get(name, 0.0),
                    functions=functions,
                    memory_top=memory_top,
                )
            )
        phases.sort(key=lambda phase: -phase.seconds)
        return ProfileReport(phases)

    def folded_lines(self) -> list[str]:
        """Collapsed-stack export for flamegraph tooling.

        One ``phase;caller;callee weight`` line per caller→callee edge
        (``phase;func weight`` for call-tree roots), weighted by the
        callee's *self* time in integer microseconds attributed to that
        caller — exact two-level attribution straight from the cProfile
        caller tables. Zero-weight edges are dropped.
        """
        lines: list[str] = []
        for name in sorted(self._runs):
            stats = self._stats_for(name)
            if stats is None:
                continue
            for func, (_cc, _nc, tottime, _ct, callers) in sorted(
                _stats_table(stats).items()
            ):
                label = _func_label(func)
                if callers:
                    for caller, (_ccc, _cnc, caller_tt, _cct) in sorted(
                        callers.items()
                    ):
                        weight = int(caller_tt * 1e6)
                        if weight > 0:
                            lines.append(
                                f"{name};{_func_label(caller)};{label}"
                                f" {weight}"
                            )
                else:
                    weight = int(tottime * 1e6)
                    if weight > 0:
                        lines.append(f"{name};{label} {weight}")
        return lines


@contextmanager
def profile_scope(
    *,
    phases: Sequence[str] = DEFAULT_PHASES,
    memory: bool = False,
    top_n: int = 10,
) -> Iterator[PhaseProfiler]:
    """Install a :class:`PhaseProfiler` for a scope and yield it.

    Composes with an already-installed tracer (events are forwarded to
    it). With ``memory=True``, starts :mod:`tracemalloc` for the scope
    if it is not already tracing — note this slows and inflates the run;
    never time-benchmark under a profile scope (see
    ``repro.perf``, which times and memory-measures in separate runs).
    """
    profiler = PhaseProfiler(
        phases=phases,
        downstream=_trace.active_tracer(),
        memory=memory,
        top_n=top_n,
    )
    started_tracing = False
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    try:
        with _trace.use_tracer(profiler):
            yield profiler
    finally:
        profiler.abort()
        if started_tracing:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# serialisation + rendering
# ---------------------------------------------------------------------------


def write_profile(
    report: ProfileReport, path: Union[str, Path]
) -> None:
    """Serialise ``report`` as indented JSON at ``path``."""
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_profile(report: Mapping[str, Any], *, top: int = 10) -> str:
    """Render a serialised profile report as aligned plain-text tables.

    Never raises on partial input: missing sections, zero-duration
    phases, and empty function lists all render as best they can (the
    same robustness contract as :func:`repro.obs.report.render_report`).
    """
    from repro.harness.tables import render_table

    phases = list(report.get("phases", ()))
    if not phases:
        return "(empty profile)"
    sections: list[str] = []
    total = sum(float(phase.get("seconds", 0.0) or 0.0) for phase in phases)
    breakdown_rows = [
        {
            "phase": phase.get("name", "?"),
            "runs": phase.get("runs", 0),
            "seconds": round(float(phase.get("seconds", 0.0) or 0.0), 4),
            "share": (
                f"{float(phase.get('seconds', 0.0) or 0.0) / total:.1%}"
                if total
                else "—"
            ),
            "hottest": (
                phase.get("functions", [{}])[0].get("func", "—")
                if phase.get("functions")
                else "—"
            ),
        }
        for phase in phases
    ]
    sections.append(
        render_table(
            breakdown_rows,
            ["phase", "runs", "seconds", "share", "hottest"],
            title="Per-phase breakdown",
        )
    )
    for phase in phases:
        functions = list(phase.get("functions", ()))[:top]
        if functions:
            sections.append(
                render_table(
                    functions,
                    ["func", "calls", "tottime", "cumtime"],
                    title=f"Top functions — {phase.get('name', '?')}",
                )
            )
        memory_top = list(phase.get("memory_top", ()))[:top]
        if memory_top:
            sections.append(
                render_table(
                    memory_top,
                    ["site", "size_kib", "count"],
                    title=f"Top allocation sites — {phase.get('name', '?')}",
                )
            )
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: render a saved profile JSON (``python -m repro.obs.profile``)."""
    args = list(sys.argv[1:] if argv is None else argv)
    top = 10
    if "--top" in args:
        idx = args.index("--top")
        try:
            top = int(args[idx + 1])
            del args[idx : idx + 2]
        except (IndexError, ValueError):
            args = ["--help"]
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print(
            "usage: python -m repro.obs.profile [--top N] PROFILE_JSON",
            file=sys.stderr,
        )
        return 2
    try:
        report = load_json_object(args[0], "profile")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_profile(report, top=top))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
