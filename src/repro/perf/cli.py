"""Command-line entry points for the performance baseline tooling.

Reachable as ``python -m repro.perf <cmd>`` or ``ptpminer perf <cmd>``.
Every measured cell is a run-ledger entry, and every baseline or fresh
run is read back through :class:`repro.obs.ledger.RunLedger`:

``run``
    Measure a matrix and print its entries as JSON lines. Never
    compares anything.
``compare``
    Measure a matrix (or read a prebuilt run's ledger via ``--fresh``)
    and judge it against ``--baseline``. Exits 1 on regression, 0
    otherwise; always prints the markdown regression report.
``update-baseline``
    Measure a matrix and replace the committed baseline ledger with it —
    printing the comparison against the old baseline (when one exists)
    as the evidence to paste into the commit message. See DESIGN.md for
    when updating is legitimate.

``--ledger-dir`` appends every cell a command measures to a run ledger
(see ``ptpminer history``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any, Optional

from repro.obs.ledger import RunLedger
from repro.perf.baseline import (
    BASELINE_FILENAME,
    run_matrix,
    stderr_progress,
    write_baseline,
)
from repro.perf.compare import compare_reports, render_markdown

__all__ = ["build_parser", "main"]


def build_parser(prog: str = "repro.perf") -> argparse.ArgumentParser:
    """The argument parser for all perf subcommands."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Performance baselines: run, compare, update.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--matrix",
            default="quick",
            help="workload matrix name (default: quick)",
        )
        p.add_argument(
            "--quiet",
            action="store_true",
            help="suppress per-cell progress on stderr",
        )
        p.add_argument(
            "--ledger-dir",
            default=None,
            help="also append every measured cell to the run ledger here "
            "(see 'ptpminer history')",
        )

    run_p = sub.add_parser("run", help="measure a matrix, print its entries")
    add_matrix(run_p)

    cmp_p = sub.add_parser(
        "compare", help="judge a fresh run against a baseline"
    )
    add_matrix(cmp_p)
    cmp_p.add_argument(
        "--baseline",
        default=BASELINE_FILENAME,
        help=f"baseline ledger to judge against (default: {BASELINE_FILENAME})",
    )
    cmp_p.add_argument(
        "--fresh",
        default=None,
        help="ledger of a prebuilt fresh run, e.g. a 'perf run "
        "--ledger-dir' directory (skips running the matrix)",
    )
    cmp_p.add_argument(
        "--report-out",
        default=None,
        help="also write the markdown regression report here",
    )

    upd_p = sub.add_parser(
        "update-baseline", help="re-run the matrix and replace the baseline"
    )
    add_matrix(upd_p)
    upd_p.add_argument(
        "--baseline",
        default=BASELINE_FILENAME,
        help=f"baseline ledger to replace (default: {BASELINE_FILENAME})",
    )
    return parser


def _read_ledger(path: str) -> list[dict[str, Any]]:
    """The entries of the ledger at ``path``; ``ValueError`` when it is
    neither a ``.jsonl`` file nor a directory holding one."""
    ledger = RunLedger(path)
    if not ledger.path.is_file():
        raise ValueError(
            f"no run ledger at {path} (a ledger directory or .jsonl "
            "file; make a baseline with 'python -m repro.perf "
            "update-baseline')"
        )
    return ledger.entries()


def _measure(args: argparse.Namespace) -> list[dict[str, Any]]:
    """Run the matrix, appending its entries to ``--ledger-dir`` if set."""
    progress = None if args.quiet else stderr_progress
    entries = run_matrix(args.matrix, progress=progress)
    if args.ledger_dir is not None:
        ledger = RunLedger(args.ledger_dir)
        for entry in entries:
            ledger.append(entry)
        print(
            f"ledger: appended {len(entries)} cell run(s) to {ledger.path}",
            file=sys.stderr,
        )
    return entries


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            for entry in _measure(args):
                print(json.dumps(entry, sort_keys=True))
            return 0

        if args.command == "compare":
            baseline = _read_ledger(args.baseline)
            if args.fresh is not None:
                fresh = _read_ledger(args.fresh)
            else:
                fresh = _measure(args)
            result = compare_reports(baseline, fresh)
            markdown = render_markdown(result)
            print(markdown, end="")
            if args.report_out is not None:
                Path(args.report_out).write_text(markdown, encoding="utf-8")
            return 0 if result.ok else 1

        if args.command == "update-baseline":
            old: Optional[list[dict[str, Any]]] = None
            try:
                old = _read_ledger(args.baseline)
            except ValueError:
                pass
            fresh = _measure(args)
            print(f"wrote {write_baseline(fresh, args.baseline)}",
                  file=sys.stderr)
            if old is not None:
                print(render_markdown(compare_reports(old, fresh)), end="")
            return 0
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
