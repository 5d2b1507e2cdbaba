"""Command-line interface: ``ptpminer``.

Subcommands
-----------
``generate``
    Produce a dataset (synthetic config or named generator) to a file.
``mine``
    Mine a database file with a chosen miner and print/save patterns.
``stats``
    Print descriptive statistics of a database file.
``perf``
    Performance baselines: ``perf run|compare|update-baseline ...`` is
    forwarded verbatim to :mod:`repro.perf.cli` (same as
    ``python -m repro.perf``).
``report``
    Join a run's span trace, metrics snapshot, ``--live-log`` frame
    log, cost profile (``--cost``), and provenance snapshot
    (``--provenance``) into one markdown (or JSON) run report: phase
    table, shard utilization/imbalance, prune funnel, the metrics
    snapshot's search tables (states per depth, patterns per length,
    candidates per extension kind), totals and histograms, straggler
    callouts, and realized heaviest roots. With only a subset of the
    inputs the report is partial and says so in a Notes section
    instead of erroring.
``history``
    Trend table over a run ledger (``mine --ledger-dir``, or the
    committed perf baseline ``BENCH_PTPMINER.jsonl``), grouped by
    config fingerprint, with each consecutive pair of runs judged by
    ``perf compare``'s rule; ``--check`` exits 1 when the latest run of
    any config regressed (for CI); ``--limit N`` shows only the most
    recent N runs per config (flags are still computed over all runs).
``diff``
    Compare two ledger runs by id (or unique id prefix) by the same
    rule: exact counter deltas, display-only phase-wall verdicts,
    heaviest-root shifts. Exits 1 when the pair regressed, a digest
    drift included. With ``--patterns`` the two arguments are
    provenance snapshot files (``mine --provenance``) or ledger run ids
    whose entries recorded one, and the diff is pattern-level: every
    added/removed pattern is attributed to the prune decision that
    killed it in the other run.
``explain``
    Why is this pattern in the result? Reads a provenance snapshot
    (``mine --provenance``) and reports the pattern's support set, one
    witness occurrence per supporting sequence, and its pruned
    siblings. Exits 2 with a parse hint on malformed pattern strings.
``why-not``
    Why is this pattern *not* in the result? Walks the recorded
    candidate tree: pruned-with-rule (which rule, where) vs never
    generated because a prefix died vs label point-pruned vs the
    arrangement simply never occurs. Same parse-hint contract.
``lint``
    Run the project's static analyzer (``tools/repro_lint``) over the
    checkout: per-file rules plus, by default, the deep project-graph
    passes (determinism, engine-boundary shippability, purity,
    contract coverage, suppression hygiene). ``--format text|sarif|json``
    selects the report format; see ``docs/static-analysis.md``.

Observability
-------------
``mine`` exposes the :mod:`repro.obs` layer: ``--trace FILE`` streams a
JSONL span trace, ``--metrics-out FILE`` writes the run's metrics
snapshot as JSON (render it with ``ptpminer report --metrics FILE``),
and the global ``--log-level`` configures the standard-library logging
root.
``--profile`` runs the per-phase profiler
(:mod:`repro.obs.profile`) and writes ``BASE.json`` (render with
``python -m repro.obs.profile``) plus ``BASE.folded`` collapsed stacks
for flamegraph tooling; ``--profile-out BASE`` picks the base path
(default ``profile``). Profiling inflates the reported runtime.
``--live`` (alias ``--progress``) streams per-shard progress lanes with
an ETA and straggler callouts to stderr during the run: a line after
the first finished root, then at most one per ``--live-interval``
seconds as roots finish, and a last one at the end (sharded engine,
one worker included; see :mod:`repro.obs.live`); ``--live-log FILE``
additionally appends every heartbeat frame as JSONL for ``ptpminer
report``.
``--cost-profile FILE`` writes the per-root / per-level search cost
profile (:mod:`repro.obs.costmodel`) as JSON,
``--provenance FILE`` (alias ``--explain-out``) records pattern
provenance and prune decisions (:mod:`repro.obs.provenance`) as JSON
for ``explain``/``why-not``/``diff --patterns``, and
``--ledger-dir DIR`` appends the run — config/environment
fingerprints, phase timings, counters, cost digest with heaviest
roots, and an order-independent digest of the result's pattern set —
to the persistent run ledger (:mod:`repro.obs.ledger`) read by
``history`` and ``diff``.

Examples
--------
.. code-block:: shell

    ptpminer generate --dataset sparse --out sparse.txt
    ptpminer mine sparse.txt --min-sup 0.05 --top 20
    ptpminer mine sparse.txt --min-sup 0.05 --miner tprefixspan --out pats.txt
    ptpminer mine sparse.txt --metrics-out metrics.json --trace trace.jsonl
    ptpminer mine sparse.txt --workers 4 --live --live-log frames.jsonl
    ptpminer report --trace trace.jsonl --live-log frames.jsonl
    ptpminer mine sparse.txt --cost-profile cost.json --ledger-dir runs/
    ptpminer report --cost cost.json
    ptpminer mine sparse.txt --provenance prov.json
    ptpminer explain "(A+) (A-)" --provenance prov.json
    ptpminer why-not "(A+ B+) (A- B-)" --provenance prov.json
    ptpminer diff --patterns prov-a.json prov-b.json
    ptpminer history --ledger-dir runs/ --check --limit 10
    ptpminer diff 2026 2026-08 --ledger-dir runs/
    ptpminer stats sparse.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import ExitStack
from pathlib import Path
from typing import Any

import repro.io as repro_io
from repro import miners, obs
from repro.core.config import MinerConfig
from repro.core.pruning import PruningConfig
from repro.core.ptpminer import PTPMiner
from repro.io.text_format import write_patterns
from repro.model.database import ESequenceDatabase

__all__ = ["build_parser", "main"]

# Each command imports what only it uses (generators, the other
# formats, table rendering, closed/rule filters, logging) inside its
# own function, so `ptpminer mine` loads only what a mine runs. The
# tables below name functions of the lazy `repro.datagen` and
# `repro.io` packages.
_GENERATORS = {
    "asl": "generate_asl",
    "clinical": "generate_clinical",
    "library": "generate_library",
    "stock": "generate_stock",
}

_READERS = {
    "text": "read_database",
    "spmf": "read_spmf",
    "jsonl": "read_jsonl",
    "csv": "read_csv",
}
_WRITERS = {
    "text": "write_database",
    "spmf": "write_spmf",
    "jsonl": "write_jsonl",
    "csv": "write_csv",
}


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    for suffix, fmt in ((".spmf", "spmf"), (".jsonl", "jsonl"),
                        (".csv", "csv")):
        if path.endswith(suffix):
            return fmt
    return "text"


def _miner_config(args: argparse.Namespace) -> MinerConfig:
    """The :class:`MinerConfig` a ``mine``-like namespace describes."""
    return MinerConfig(
        min_sup=args.min_sup,
        mode=args.mode,
        pruning=PruningConfig(
            point=not args.no_point_prune,
            pair=not args.no_pair_prune,
            postfix=not args.no_postfix_prune,
        ),
        max_size=args.max_size,
        max_span=args.max_span,
    )


def _build_miner(args: argparse.Namespace) -> miners.Miner:
    """Translate CLI flags into a config and build through the registry.

    The full option surface goes into one :class:`MinerConfig`; miners
    that do not support a *non-default* option reject it eagerly with
    an error naming the miner and the flag (instead of the old
    behaviour of silently ignoring it).
    """
    config = _miner_config(args)
    executor = args.executor
    if _live_requested(args) and args.workers == 1 and executor == "auto":
        # Live mode needs the sharded engine even single-worker; the
        # serial executor is the identical-result in-process path.
        executor = "serial"
    return miners.build(
        args.miner, config, workers=args.workers, executor=executor
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import datagen

    db: ESequenceDatabase
    if args.dataset in _GENERATORS:
        generate = getattr(datagen, _GENERATORS[args.dataset])
        db = generate(seed=args.seed) if args.seed is not None else generate()
    elif args.dataset in datagen.STANDARD_DATASETS:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.num_sequences is not None:
            overrides["num_sequences"] = args.num_sequences
        db = datagen.standard_dataset(args.dataset, **overrides)
    else:
        known = sorted(datagen.STANDARD_DATASETS) + sorted(_GENERATORS)
        print(f"unknown dataset {args.dataset!r}; known: {known}",
              file=sys.stderr)
        return 2
    fmt = _infer_format(args.out, args.format)
    getattr(repro_io, _WRITERS[fmt])(db, args.out)
    print(f"wrote {len(db)} sequences ({db.name or args.dataset}) "
          f"to {args.out} [{fmt}]")
    return 0


def _live_requested(args: argparse.Namespace) -> bool:
    """True when ``mine`` should run with the live telemetry bus on."""
    return bool(getattr(args, "live", False) or getattr(args, "live_log", None))


def _read_input(args: argparse.Namespace) -> ESequenceDatabase | None:
    """The database ``args.input`` holds, or ``None`` after printing
    ``error: ...`` when it cannot be read. With ``--mode tp``, point
    events are stripped (with a note)."""
    read = getattr(repro_io, _READERS[_infer_format(args.input, args.format)])
    try:
        db: ESequenceDatabase = read(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if getattr(args, "mode", None) == "tp":
        stripped = db.without_point_events()
        if stripped is not db:
            print("note: point events stripped for tp mode "
                  "(use --mode htp to keep them)", file=sys.stderr)
            db = stripped
    return db


def _cmd_mine(args: argparse.Namespace) -> int:
    db = _read_input(args)
    if db is None:
        return 2
    if args.top_k and args.miner != "ptpminer":
        print("--top-k requires the ptpminer miner", file=sys.stderr)
        return 2
    if args.top_k and (args.workers != 1 or args.executor != "auto"):
        print("--top-k does not support --workers/--executor",
              file=sys.stderr)
        return 2
    if _live_requested(args):
        if args.miner != "ptpminer":
            print("--live/--progress/--live-log require the ptpminer "
                  "miner", file=sys.stderr)
            return 2
        if args.top_k:
            print("--live/--progress/--live-log do not support --top-k",
                  file=sys.stderr)
            return 2
    if args.cost_profile and args.miner != "ptpminer":
        print("--cost-profile requires the ptpminer miner", file=sys.stderr)
        return 2
    if args.provenance and args.miner != "ptpminer":
        print("--provenance requires the ptpminer miner", file=sys.stderr)
        return 2
    try:
        miner = _build_miner(args)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiler = None
    # Ledger entries carry a cost digest when the miner can produce one.
    collect_cost = bool(args.cost_profile or args.ledger_dir) and (
        args.miner == "ptpminer"
    )
    profile_base = args.profile_out or ("profile" if args.profile else None)
    with ExitStack() as stack:
        handles = stack.enter_context(
            obs.observe(
                # The ledger reads phase timings off the metrics
                # registry, so --ledger-dir installs one even without
                # --metrics-out.
                metrics=bool(args.metrics_out or args.ledger_dir) or None,
                tracer=(
                    stack.enter_context(obs.JsonlTraceWriter.open(args.trace))
                    if args.trace
                    else None
                ),
                live=(
                    obs.LiveCollector(
                        obs.LiveConfig(
                            interval_s=args.live_interval,
                            log_path=args.live_log,
                        )
                    )
                    if _live_requested(args)
                    else None
                ),
                cost=collect_cost or None,
                provenance=bool(args.provenance) or None,
            )
        )
        if profile_base is not None:
            # Installed after --trace so span events still reach the
            # JSONL writer (the profiler forwards downstream).
            from repro.obs.profile import profile_scope

            profiler = stack.enter_context(profile_scope(memory=True))
        if args.top_k:
            assert isinstance(miner, PTPMiner)  # guarded above
            result = miner.mine_top_k(db, args.top_k)
        else:
            result = miner.mine(db)
    if args.metrics_out:
        assert handles.registry is not None
        snapshot = result.metrics or handles.registry.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.metrics_out}",
              file=sys.stderr)
    if args.trace:
        print(f"wrote span trace to {args.trace}", file=sys.stderr)
    if args.cost_profile:
        assert handles.cost is not None  # guarded above
        with open(args.cost_profile, "w", encoding="utf-8") as handle:
            json.dump(
                handles.cost.snapshot(), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"wrote cost profile to {args.cost_profile}", file=sys.stderr)
    if args.provenance:
        assert handles.provenance is not None  # guarded above
        with open(args.provenance, "w", encoding="utf-8") as handle:
            json.dump(
                handles.provenance.snapshot(), handle, indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(
            f"wrote provenance to {args.provenance} (query with "
            f"'ptpminer explain/why-not ... --provenance "
            f"{args.provenance}')",
            file=sys.stderr,
        )
    if args.ledger_dir:
        from repro.obs import ledger as obs_ledger

        assert handles.registry is not None
        snapshot = result.metrics or handles.registry.snapshot()
        entry = obs_ledger.build_entry(
            dataset_digest=obs_ledger.dataset_digest(db),
            miner=args.miner,
            min_sup=args.min_sup,
            mode=args.mode,
            workers=args.workers,
            wall_s=result.elapsed,
            patterns=len(result.patterns),
            counters=result.counters.as_dict(),
            phases=obs_ledger.phase_seconds(snapshot),
            cost_snapshot=(
                handles.cost.snapshot() if handles.cost is not None else None
            ),
            patterns_digest=obs_ledger.patterns_digest(result.patterns),
            provenance_path=args.provenance,
        )
        run_ledger = obs_ledger.RunLedger(args.ledger_dir)
        stored = run_ledger.append(entry)
        print(
            f"ledger: appended run {stored['run_id']} to {run_ledger.path}",
            file=sys.stderr,
        )
    if profiler is not None and profile_base is not None:
        from repro.obs.profile import write_profile

        report = profiler.report()
        write_profile(report, f"{profile_base}.json")
        with open(f"{profile_base}.folded", "w", encoding="utf-8") as handle:
            for line in profiler.folded_lines():
                handle.write(line + "\n")
        print(
            f"wrote profile to {profile_base}.json and "
            f"{profile_base}.folded (render: "
            f"python -m repro.obs.profile {profile_base}.json)",
            file=sys.stderr,
        )
    print(
        f"{result.miner}: {len(result.patterns)} patterns "
        f"(threshold {result.threshold:g}/{result.db_size}, "
        f"{result.elapsed:.2f}s)"
    )
    shown = result.patterns[: args.top] if args.top else result.patterns
    for item in shown:
        print(f"{item.support:>8}  {item.pattern}")
    if args.closed:
        from repro.core.closed import filter_closed

        closed = filter_closed(result)
        print(f"closed patterns: {len(closed.patterns)}")
    if args.maximal:
        from repro.core.closed import filter_maximal

        maximal = filter_maximal(result)
        print(f"maximal patterns: {len(maximal.patterns)}")
    if args.rules:
        from repro.core.rules import generate_rules

        rules = generate_rules(result, min_confidence=args.rules)
        print(f"temporal rules (confidence >= {args.rules:g}):")
        for rule in rules[: args.top or None]:
            print(f"  {rule}")
    if args.out:
        write_patterns(result.patterns, args.out)
        print(f"wrote {len(result.patterns)} patterns to {args.out}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.cli import main as perf_main

    return perf_main(args.perf_args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.runreport import build_run_report, render_markdown

    if not (
        args.trace
        or args.metrics
        or args.live_log
        or args.cost
        or args.provenance
    ):
        print("report needs at least one of --trace/--metrics/--live-log/"
              "--cost/--provenance",
              file=sys.stderr)
        return 2
    try:
        report = build_run_report(
            trace_path=args.trace,
            metrics_path=args.metrics,
            live_log_path=args.live_log,
            cost_path=args.cost,
            provenance_path=args.provenance,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = render_markdown(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote run report to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _emit_text(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to ``out`` (noting it on stderr) or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {what} to {out}", file=sys.stderr)
    else:
        print(text, end="")


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs import ledger as obs_ledger

    run_ledger = obs_ledger.RunLedger(args.ledger_dir)
    entries = run_ledger.entries()
    report = obs_ledger.history_report(entries, limit=args.limit)
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = obs_ledger.render_history_markdown(report)
    _emit_text(text, args.out, "history report")
    regressions = report["regressions"]
    if args.check and regressions:
        print(
            f"history: {len(regressions)} regression(s) in the latest "
            "runs — see the report above",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import ledger as obs_ledger

    if args.patterns:
        return _cmd_diff_patterns(args)
    if not args.ledger_dir:
        print("error: diff needs --ledger-dir (or --patterns with "
              "provenance snapshot files)", file=sys.stderr)
        return 2
    run_ledger = obs_ledger.RunLedger(args.ledger_dir)
    try:
        entry_a = run_ledger.find(args.run_a)
        entry_b = run_ledger.find(args.run_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = obs_ledger.diff_entries(entry_a, entry_b)
    if args.json:
        text = json.dumps(diff, indent=2, sort_keys=True) + "\n"
    else:
        text = obs_ledger.render_diff_markdown(diff)
    _emit_text(text, args.out, "run diff")
    return 1 if diff["has_regressions"] else 0


_PARSE_HINT = (
    "hint: patterns are parenthesized pointsets of endpoint tokens, e.g. "
    '"(A+ B+) (A- B-)" — A+ opens interval A, A- closes it, A. is a '
    "point event, and A#2+ is the second A occurrence"
)


def _load_provenance(path: str) -> dict[str, Any]:
    """Load a provenance snapshot file (``mine --provenance`` output)."""
    from repro.io._utf8 import load_json_object
    from repro.obs import provenance as obs_provenance

    return load_json_object(
        path,
        "provenance snapshot",
        kind="repro-provenance",
        schema=obs_provenance.PROVENANCE_SCHEMA_VERSION,
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import provenance as obs_provenance

    try:
        snapshot = _load_provenance(args.provenance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = obs_provenance.explain(snapshot, args.pattern)
    except ValueError as exc:
        print(f"error: cannot parse pattern {args.pattern!r}: {exc}",
              file=sys.stderr)
        print(_PARSE_HINT, file=sys.stderr)
        return 2
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = obs_provenance.render_explain_markdown(report)
    _emit_text(text, args.out, "explain report")
    return 0 if report["found"] else 1


def _cmd_why_not(args: argparse.Namespace) -> int:
    from repro.obs import provenance as obs_provenance

    try:
        snapshot = _load_provenance(args.provenance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = obs_provenance.why_not(snapshot, args.pattern)
    except ValueError as exc:
        print(f"error: cannot parse pattern {args.pattern!r}: {exc}",
              file=sys.stderr)
        print(_PARSE_HINT, file=sys.stderr)
        return 2
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = obs_provenance.render_why_not_markdown(report)
    _emit_text(text, args.out, "why-not report")
    # The pattern IS in the result: signal the caller asked the wrong
    # question (the report suggests 'ptpminer explain').
    return 1 if report["status"] == "emitted" else 0


def _resolve_provenance_ref(
    ref: str, ledger_dir: str | None
) -> dict[str, Any]:
    """Resolve a ``diff --patterns`` argument to a provenance snapshot.

    ``ref`` is tried as a snapshot file path first; otherwise it is
    treated as a ledger run id (or unique prefix) whose entry recorded
    a ``provenance_path`` (``mine --provenance ... --ledger-dir ...``).
    """
    if Path(ref).is_file():
        return _load_provenance(ref)
    if not ledger_dir:
        raise ValueError(
            f"{ref!r} is not a file; resolving it as a ledger run id "
            "needs --ledger-dir"
        )
    from repro.obs import ledger as obs_ledger

    entry = obs_ledger.RunLedger(ledger_dir).find(ref)
    path = entry.get("provenance_path")
    if not path:
        raise ValueError(
            f"ledger run {entry.get('run_id')} recorded no provenance "
            "snapshot (mine with --provenance to capture one)"
        )
    return _load_provenance(str(path))


def _cmd_diff_patterns(args: argparse.Namespace) -> int:
    from repro.obs import provenance as obs_provenance

    try:
        snapshot_a = _resolve_provenance_ref(args.run_a, args.ledger_dir)
        snapshot_b = _resolve_provenance_ref(args.run_b, args.ledger_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = obs_provenance.diff_patterns(snapshot_a, snapshot_b)
    if args.json:
        text = json.dumps(diff, indent=2, sort_keys=True) + "\n"
    else:
        text = obs_provenance.render_patterns_diff_markdown(diff)
    _emit_text(text, args.out, "pattern diff")
    changed = diff["added"] or diff["removed"] or diff["changed_support"]
    return 1 if changed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        from tools.repro_lint import driver as lint_driver
    except ImportError:
        # Installed-package runs don't ship tools/; fall back to the
        # checkout layout (src/repro/cli.py -> repo root).
        root = Path(__file__).resolve().parents[2]
        if not (root / "tools" / "repro_lint").is_dir():
            print("ptpminer lint needs the repo checkout "
                  "(tools/repro_lint is not importable)", file=sys.stderr)
            return 2
        sys.path.insert(0, str(root))
        from tools.repro_lint import driver as lint_driver

    deep = not args.shallow
    try:
        violations = lint_driver.analyze_paths(args.paths, deep=deep)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"ptpminer lint: error: {exc}", file=sys.stderr)
        return 2
    report = lint_driver.render(violations, args.format, deep=deep)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote lint report to {args.out}", file=sys.stderr)
    elif report:
        print(report)
    if violations:
        print(f"ptpminer lint: {len(violations)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.harness.tables import render_table

    db = _read_input(args)
    if db is None:
        return 2
    row = {"dataset": db.name or args.input}
    row.update(db.stats().as_row())
    print(render_table([row]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ptpminer",
        description="Mine temporal patterns in interval-based data "
                    "(ICDE 2016 reproduction).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="configure stdlib logging to stderr at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset file")
    gen.add_argument("--dataset", required=True,
                     help="named synthetic config or asl/clinical/library/stock")
    gen.add_argument("--out", required=True, help="output path")
    gen.add_argument("--format", choices=sorted(_WRITERS),
                     help="file format (default: inferred from suffix)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--num-sequences", type=int, default=None)
    gen.set_defaults(func=_cmd_generate)

    mine_p = sub.add_parser("mine", help="mine a database file")
    mine_p.add_argument("input", help="database file")
    mine_p.add_argument("--format", choices=sorted(_READERS))
    mine_p.add_argument("--min-sup", type=float, default=0.1)
    mine_p.add_argument("--mode", choices=("tp", "htp"), default="tp")
    mine_p.add_argument(
        "--miner",
        choices=miners.available(),
        default="ptpminer",
    )
    mine_p.add_argument("--workers", type=int, default=1,
                        help="shard the search over N workers "
                             "(ptpminer only; identical result)")
    mine_p.add_argument("--executor",
                        choices=("auto", "serial", "process"),
                        default="auto",
                        help="how shards run with --workers: in-process "
                             "('serial', the debugging surface) or on a "
                             "process pool ('auto' picks by worker count)")
    mine_p.add_argument("--max-size", type=int, default=None,
                        help="cap pattern size in events")
    mine_p.add_argument("--max-span", type=float, default=None,
                        help="time window constraint on embeddings "
                             "(ptpminer only)")
    mine_p.add_argument("--top-k", type=int, default=None,
                        help="mine the K highest-support patterns instead "
                             "of thresholding (ptpminer only)")
    mine_p.add_argument("--rules", type=float, default=None,
                        metavar="MIN_CONF",
                        help="also derive temporal rules at this minimum "
                             "confidence")
    mine_p.add_argument("--top", type=int, default=25,
                        help="print only the top-K patterns (0 = all)")
    mine_p.add_argument("--closed", action="store_true",
                        help="also report the closed-pattern count")
    mine_p.add_argument("--maximal", action="store_true",
                        help="also report the maximal-pattern count")
    mine_p.add_argument("--out", help="write patterns to this file")
    mine_p.add_argument("--no-point-prune", action="store_true")
    mine_p.add_argument("--no-pair-prune", action="store_true")
    mine_p.add_argument("--no-postfix-prune", action="store_true")
    mine_p.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSONL span trace of the run")
    mine_p.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the run's metrics snapshot as JSON "
                             "(render with 'ptpminer report --metrics "
                             "FILE')")
    mine_p.add_argument("--profile", action="store_true",
                        help="profile per phase; writes profile.json + "
                             "profile.folded (see --profile-out)")
    mine_p.add_argument("--profile-out", metavar="BASE", default=None,
                        help="base path for profile outputs "
                             "(implies --profile)")
    mine_p.add_argument("--live", "--progress", dest="live",
                        action="store_true",
                        help="stream per-shard progress lanes, ETA, and "
                             "straggler callouts to stderr during the run "
                             "(ptpminer only)")
    mine_p.add_argument("--live-log", metavar="FILE", default=None,
                        help="append every live heartbeat frame as JSONL "
                             "for 'ptpminer report' (implies --live)")
    mine_p.add_argument("--live-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="throttle between live heartbeats/renders "
                             "(default 0.5)")
    mine_p.add_argument("--cost-profile", metavar="FILE", default=None,
                        help="write the per-root/per-level search cost "
                             "profile as JSON (ptpminer only)")
    mine_p.add_argument("--provenance", "--explain-out", dest="provenance",
                        metavar="FILE", default=None,
                        help="record pattern provenance and prune "
                             "decisions as JSON for 'ptpminer explain/"
                             "why-not/diff --patterns' (ptpminer only)")
    mine_p.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="append this run to the persistent JSONL run "
                             "ledger in DIR (see 'ptpminer history/diff')")
    mine_p.set_defaults(func=_cmd_mine)

    stats_p = sub.add_parser("stats", help="describe a database file")
    stats_p.add_argument("input", help="database file")
    stats_p.add_argument("--format", choices=sorted(_READERS))
    stats_p.set_defaults(func=_cmd_stats)

    perf_p = sub.add_parser(
        "perf",
        help="performance baselines (run/compare/update-baseline)",
    )
    perf_p.add_argument(
        "perf_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to 'python -m repro.perf'",
    )
    perf_p.set_defaults(func=_cmd_perf)

    report_p = sub.add_parser(
        "report",
        help="unified run report from a trace, metrics snapshot, "
             "and/or live-frame log",
    )
    report_p.add_argument("--trace", metavar="FILE", default=None,
                          help="JSONL span trace (mine --trace)")
    report_p.add_argument("--metrics", metavar="FILE", default=None,
                          help="metrics snapshot JSON (mine --metrics-out)")
    report_p.add_argument("--live-log", metavar="FILE", default=None,
                          help="live frame log (mine --live-log)")
    report_p.add_argument("--cost", metavar="FILE", default=None,
                          help="cost profile JSON (mine --cost-profile): "
                               "adds the realized heaviest-roots table")
    report_p.add_argument("--provenance", metavar="FILE", default=None,
                          help="provenance snapshot (mine --provenance): "
                               "adds a pattern/prune-record summary")
    report_p.add_argument("--json", action="store_true",
                          help="emit the report as JSON instead of markdown")
    report_p.add_argument("--out", metavar="FILE", default=None,
                          help="write the report here instead of stdout")
    report_p.set_defaults(func=_cmd_report)

    history_p = sub.add_parser(
        "history",
        help="per-config trend table over a run ledger, with "
             "noise-aware regression flags",
    )
    history_p.add_argument("--ledger-dir", metavar="DIR", required=True,
                           help="ledger directory (mine --ledger-dir) or "
                                ".jsonl ledger file (BENCH_PTPMINER.jsonl)")
    history_p.add_argument("--json", action="store_true",
                           help="emit the report as JSON instead of "
                                "markdown")
    history_p.add_argument("--out", metavar="FILE", default=None,
                           help="write the report here instead of stdout")
    history_p.add_argument("--check", action="store_true",
                           help="exit 1 when the latest run of any config "
                                "fingerprint regressed (for CI)")
    history_p.add_argument("--limit", type=int, default=None, metavar="N",
                           help="show only the most recent N runs per "
                                "config (flags/--check still consider "
                                "all runs)")
    history_p.set_defaults(func=_cmd_history)

    diff_p = sub.add_parser(
        "diff",
        help="compare two ledger runs: exact counter deltas, phase-wall "
             "deltas, heaviest-root shifts",
    )
    diff_p.add_argument("run_a", help="run id (or unique prefix) of the "
                                      "baseline run; with --patterns, a "
                                      "provenance snapshot file or a run "
                                      "id that recorded one")
    diff_p.add_argument("run_b", help="run id (or unique prefix) of the "
                                      "run to compare (same forms as "
                                      "run_a)")
    diff_p.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger directory (mine --ledger-dir) or "
                             ".jsonl ledger file; required unless "
                             "--patterns compares two snapshot files "
                             "directly")
    diff_p.add_argument("--patterns", action="store_true",
                        help="pattern-level diff of two provenance "
                             "snapshots: added/removed patterns "
                             "attributed to the prune decisions that "
                             "changed; exits 1 when the result sets "
                             "differ")
    diff_p.add_argument("--json", action="store_true",
                        help="emit the diff as JSON instead of markdown")
    diff_p.add_argument("--out", metavar="FILE", default=None,
                        help="write the diff here instead of stdout")
    diff_p.set_defaults(func=_cmd_diff)

    def add_provenance_query_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("pattern",
                         help='pattern string, e.g. "(A+ B+) (A- B-)"')
        cmd.add_argument("--provenance", metavar="FILE", required=True,
                         help="provenance snapshot (mine --provenance)")
        cmd.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of "
                              "markdown")
        cmd.add_argument("--out", metavar="FILE", default=None,
                         help="write the report here instead of stdout")

    explain_p = sub.add_parser(
        "explain",
        help="why is this pattern in the result? support set, witness "
             "occurrences, pruned siblings (needs mine --provenance)",
    )
    add_provenance_query_args(explain_p)
    explain_p.set_defaults(func=_cmd_explain)

    why_not_p = sub.add_parser(
        "why-not",
        help="why is this pattern NOT in the result? pruned-with-rule "
             "vs never-generated, from the recorded candidate tree",
    )
    add_provenance_query_args(why_not_p)
    why_not_p.set_defaults(func=_cmd_why_not)

    lint_p = sub.add_parser(
        "lint",
        help="project static analysis (determinism, boundary, purity; "
             "see docs/static-analysis.md)",
    )
    lint_p.add_argument("paths", nargs="*",
                        default=["src", "tools", "tests"],
                        help="files or directories, relative to the "
                             "checkout root (default: src tools tests)")
    lint_p.add_argument("--shallow", action="store_true",
                        help="per-file rules only; skip the "
                             "project-graph passes (R010+)")
    lint_p.add_argument("--format",
                        choices=("text", "sarif", "json"),
                        default="text",
                        help="report format (default: text)")
    lint_p.add_argument("--out", metavar="FILE", default=None,
                        help="write the report here instead of stdout")
    lint_p.set_defaults(func=_cmd_lint)
    return parser


def _configure_logging(level_name: str | None) -> None:
    if level_name is None:
        return
    import logging

    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
