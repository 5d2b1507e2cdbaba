"""Command-line entry points for the performance baseline tooling.

Reachable as ``python -m repro.perf <cmd>`` or ``ptpminer perf <cmd>``:

``run``
    Execute a matrix and write the report to ``--out`` (default: print
    to stdout). Never compares anything.
``compare``
    Execute a matrix (or take a prebuilt report via ``--fresh``) and
    diff it against ``--baseline``. Exits 1 on regression, 0 otherwise;
    always prints the markdown regression report.
``update-baseline``
    Execute a matrix and overwrite the committed baseline file —
    printing the comparison against the old baseline (when one exists)
    as the evidence to paste into the commit message. See DESIGN.md for
    when updating is legitimate.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any, Optional

from repro.perf.baseline import (
    BASELINE_FILENAME,
    append_report_to_ledger,
    load_report,
    run_matrix,
    stderr_progress,
    write_report,
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
            help="also append every fresh cell to the run ledger here "
            "(see 'ptpminer history')",
        )

    run_p = sub.add_parser("run", help="run a matrix, emit the report")
    add_matrix(run_p)
    run_p.add_argument(
        "--out",
        default=None,
        help="write report JSON here (default: stdout)",
    )

    cmp_p = sub.add_parser(
        "compare", help="diff a fresh run against a baseline"
    )
    add_matrix(cmp_p)
    cmp_p.add_argument(
        "--baseline",
        default=BASELINE_FILENAME,
        help=f"baseline report to diff against (default: {BASELINE_FILENAME})",
    )
    cmp_p.add_argument(
        "--fresh",
        default=None,
        help="prebuilt fresh report (skips running the matrix)",
    )
    cmp_p.add_argument(
        "--report-out",
        default=None,
        help="also write the markdown regression report here",
    )
    cmp_p.add_argument(
        "--fresh-out",
        default=None,
        help="also write the fresh report JSON here (CI artifact)",
    )

    upd_p = sub.add_parser(
        "update-baseline", help="re-run the matrix and rewrite the baseline"
    )
    add_matrix(upd_p)
    upd_p.add_argument(
        "--baseline",
        default=BASELINE_FILENAME,
        help=f"baseline file to rewrite (default: {BASELINE_FILENAME})",
    )
    return parser


def _run_fresh(args: argparse.Namespace) -> dict[str, Any]:
    progress = None if args.quiet else stderr_progress
    return run_matrix(args.matrix, progress=progress)


def _maybe_append_ledger(
    args: argparse.Namespace, report: dict[str, Any]
) -> None:
    """Append the report's cells to ``--ledger-dir`` when requested."""
    if getattr(args, "ledger_dir", None) is None:
        return
    entries = append_report_to_ledger(report, args.ledger_dir)
    print(
        f"ledger: appended {len(entries)} cell run(s) to "
        f"{Path(args.ledger_dir)}",
        file=sys.stderr,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            report = _run_fresh(args)
            _maybe_append_ledger(args, report)
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.out is None:
                print(text)
            else:
                write_report(report, args.out)
                print(f"wrote {args.out}", file=sys.stderr)
            return 0

        if args.command == "compare":
            baseline = load_report(args.baseline)
            if args.fresh is not None:
                fresh = load_report(args.fresh)
            else:
                fresh = _run_fresh(args)
            _maybe_append_ledger(args, fresh)
            if args.fresh_out is not None:
                write_report(fresh, args.fresh_out)
            result = compare_reports(baseline, fresh)
            markdown = render_markdown(result)
            print(markdown, end="")
            if args.report_out is not None:
                Path(args.report_out).write_text(markdown, encoding="utf-8")
            return 0 if result.ok else 1

        if args.command == "update-baseline":
            old: Optional[dict[str, Any]] = None
            try:
                old = load_report(args.baseline)
            except ValueError:
                pass
            fresh = _run_fresh(args)
            _maybe_append_ledger(args, fresh)
            write_report(fresh, args.baseline)
            print(f"wrote {args.baseline}", file=sys.stderr)
            if old is not None:
                result = compare_reports(old, fresh)
                print(render_markdown(result), end="")
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
