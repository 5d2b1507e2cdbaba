"""Tests for the performance-baseline subsystem (``repro.perf``)."""

import copy
import json
import warnings
from pathlib import Path

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    dataset_digest,
)
from repro.perf.baseline import (
    BASELINE_FILENAME,
    run_matrix,
    write_baseline,
)
from repro.perf.cli import main
from repro.perf.compare import (
    Tolerance,
    compare_reports,
    environment_fingerprint,
    render_markdown,
)
from repro.perf.workloads import (
    MATRICES,
    WorkloadCell,
    build_database,
    matrix_cells,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tiny_run():
    """One measured tiny-matrix run shared by the read-only assertions."""
    return run_matrix("tiny")


def write_ledger(path, entries):
    """A ledger file holding ``entries``, appended one by one."""
    ledger = RunLedger(path)
    for entry in entries:
        ledger.append(entry)
    return ledger.path


class TestWorkloads:
    def test_matrices_are_well_formed(self):
        for name, cells in MATRICES.items():
            ids = [cell.cell_id for cell in cells]
            assert len(ids) == len(set(ids)), f"duplicate cell in {name!r}"
            assert cells, f"matrix {name!r} is empty"

    def test_quick_matrix_covers_paper_axes(self):
        cells = matrix_cells("quick")
        miners = {cell.miner for cell in cells}
        datasets = {cell.dataset for cell in cells}
        # P-TPMiner plus all four baselines, sparse and dense workloads.
        assert miners == {
            "ptpminer", "tprefixspan", "hdfs", "ieminer", "bruteforce"
        }
        assert {"sparse", "dense"} <= datasets
        sparse_sups = {
            cell.min_sup for cell in cells if cell.dataset == "sparse"
        }
        assert len(sparse_sups) >= 2

    def test_quick_matrix_reuses_ci_snapshot_workload(self):
        # The CI metrics-snapshot job mines sparse@120 at min_sup 0.10;
        # the baseline matrix keeps one cell per miner on that workload
        # so the two CI artifacts describe the same run shape.
        cells = matrix_cells("quick")
        assert any(
            (cell.dataset, cell.num_sequences, cell.min_sup)
            == ("sparse", 120, 0.1)
            for cell in cells
        )

    def test_unknown_matrix_and_miner_rejected(self):
        with pytest.raises(ValueError, match="unknown workload matrix"):
            matrix_cells("nope")
        with pytest.raises(ValueError, match="unknown miner"):
            WorkloadCell("tiny", 10, 0.5, "nope")

    def test_cell_id_stable(self):
        cell = WorkloadCell("sparse", 120, 0.1, "ptpminer")
        assert cell.cell_id == "sparse120/sup0.1/ptpminer"


class TestBaselineRunner:
    def test_report_shape(self, tiny_run):
        # Each cell is measured straight into one run-ledger entry.
        cells = matrix_cells("tiny")
        assert [entry["config"]["cell"] for entry in tiny_run] == [
            cell.cell_id for cell in cells
        ]
        for entry, cell in zip(tiny_run, cells):
            assert entry["schema"] == LEDGER_SCHEMA_VERSION
            assert entry["kind"] == "repro-run"
            assert entry["config"]["matrix"] == "tiny"
            assert entry["config"]["miner"] == cell.miner
            assert entry["config"]["min_sup"] == cell.min_sup
            assert entry["config"]["workers"] == cell.workers
            assert entry["config"]["dataset_digest"] == dataset_digest(
                build_database(cell)
            )
            assert entry["environment"] == environment_fingerprint()
            assert entry["wall_s"] >= 0
            assert entry["peak_mib"] > 0
            assert entry["patterns"] > 0
            assert entry["counters"]

    def test_counters_deterministic_across_runs(self, tiny_run):
        again = run_matrix("tiny")
        for first, second in zip(tiny_run, again):
            assert first["counters"] == second["counters"]
            assert first["patterns"] == second["patterns"]
            assert first["fingerprint"] == second["fingerprint"]

    def test_report_round_trip(self, tiny_run, tmp_path):
        path = tmp_path / "bench.jsonl"
        assert write_baseline(tiny_run, path) == path
        assert RunLedger(path).entries() == tiny_run
        # A second write replaces the baseline; it never appends to it.
        write_baseline(tiny_run[:1], path)
        assert RunLedger(path).entries() == tiny_run[:1]
        assert [p.name for p in tmp_path.iterdir()] == ["bench.jsonl"]

    def test_load_rejects_bad_files(self, tiny_run, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["compare", "--baseline", str(missing),
                     "--fresh", str(missing)]) == 2
        assert "no run ledger" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(
                [
                    json.dumps(tiny_run[0]),
                    "{nope",
                    json.dumps({**tiny_run[1], "kind": "other"}),
                    json.dumps({**tiny_run[1], "schema": 999}),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="skipped 3 unreadable"):
            assert RunLedger(bad).entries() == tiny_run[:1]


class TestCompare:
    def test_identical_reports_ok(self, tiny_run):
        result = compare_reports(tiny_run, tiny_run)
        assert result.ok and result.env_match
        assert result.matrix == "tiny"
        assert result.cells_compared == len(tiny_run)
        assert not result.warnings and not result.improvements

    def test_counter_drift_is_regression(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        name = sorted(fresh[0]["counters"])[0]
        fresh[0]["counters"][name] += 1
        result = compare_reports(tiny_run, fresh)
        assert not result.ok
        assert [(f.cell, f.metric) for f in result.regressions] == [
            (tiny_run[0]["config"]["cell"], f"counters.{name}")
        ]

    def test_pattern_drift_is_regression(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["patterns"] += 1
        assert not compare_reports(tiny_run, fresh).ok

    def test_time_within_tolerance_ok(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        # Noise-sized wiggle: below the absolute floor, never a finding.
        fresh[0]["wall_s"] = tiny_run[0]["wall_s"] + 0.01
        assert compare_reports(tiny_run, fresh).ok

    def test_large_slowdown_is_regression(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["wall_s"] = tiny_run[0]["wall_s"] * 10 + 1.0
        result = compare_reports(tiny_run, fresh)
        assert not result.ok
        assert result.regressions[0].metric == "wall_s"

    def test_peak_memory_growth_is_regression(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["peak_mib"] = tiny_run[0]["peak_mib"] * 10 + 5.0
        result = compare_reports(tiny_run, fresh)
        assert [f.metric for f in result.regressions] == ["peak_mib"]

    def test_large_speedup_is_improvement(self, tiny_run):
        base = copy.deepcopy(tiny_run)
        base[0]["wall_s"] = 10.0
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["wall_s"] = 0.1
        result = compare_reports(base, fresh)
        assert result.ok
        assert [f.metric for f in result.improvements] == ["wall_s"]

    def test_env_mismatch_downgrades_timing_to_warning(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        for entry in fresh:
            entry["environment"] = {**entry["environment"], "machine": "o"}
        fresh[0]["wall_s"] = tiny_run[0]["wall_s"] * 10 + 1.0
        fresh[0]["peak_mib"] = tiny_run[0]["peak_mib"] * 10 + 5.0
        result = compare_reports(tiny_run, fresh)
        assert result.ok and not result.env_match
        assert [f.metric for f in result.warnings] == ["wall_s", "peak_mib"]

    def test_env_mismatch_keeps_counters_fatal(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        for entry in fresh:
            entry["environment"] = {**entry["environment"], "machine": "o"}
        name = sorted(fresh[0]["counters"])[0]
        fresh[0]["counters"][name] += 1
        assert not compare_reports(tiny_run, fresh).ok

    def test_missing_and_extra_cells_fail(self, tiny_run):
        fresh = tiny_run[:-1]
        dropped = tiny_run[-1]["config"]["cell"]
        result = compare_reports(tiny_run, fresh)
        assert not result.ok
        assert any(
            f.cell == dropped and f.metric == "presence"
            for f in result.regressions
        )
        assert not compare_reports(fresh, tiny_run).ok

    def test_latest_entry_of_a_cell_counts(self, tiny_run):
        # A ledger may hold several runs of one cell; the last one
        # stands for it, and runs that are no cell are left out.
        stale = copy.deepcopy(tiny_run[0])
        stale["patterns"] += 1
        mine_run = {**tiny_run[0], "config": {"miner": "ptpminer"}}
        result = compare_reports(tiny_run, [stale, mine_run, *tiny_run])
        assert result.ok and result.cells_compared == len(tiny_run)

    def test_custom_tolerance(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["wall_s"] = tiny_run[0]["wall_s"] + 0.02
        tight = Tolerance(time_rtol=0.0, time_abs_s=0.001)
        assert not compare_reports(tiny_run, fresh, tolerance=tight).ok

    def test_markdown_report(self, tiny_run):
        fresh = copy.deepcopy(tiny_run)
        fresh[0]["wall_s"] = 99.0
        result = compare_reports(tiny_run, fresh)
        text = render_markdown(result)
        assert "REGRESSION" in text
        assert "wall_s" in text
        assert "| cell | metric |" in text
        clean = render_markdown(compare_reports(tiny_run, tiny_run))
        assert "**OK**" in clean
        assert "matrix `tiny`" in clean


def _drop_last(entries):
    return entries[:-1]


def _bump_counter(entries):
    entries[0]["counters"][sorted(entries[0]["counters"])[0]] += 1
    return entries


def _bump_patterns(entries):
    entries[0]["patterns"] += 1
    return entries


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        assert main(
            ["run", "--matrix", "tiny", "--quiet",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        printed = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert RunLedger(ledger_dir).entries() == printed
        assert [entry["config"]["cell"] for entry in printed] == [
            cell.cell_id for cell in matrix_cells("tiny")
        ]

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        base = tmp_path / "base"
        assert main(
            ["run", "--matrix", "tiny", "--quiet", "--ledger-dir", str(base)]
        ) == 0
        assert main(
            ["compare", "--matrix", "tiny", "--quiet",
             "--baseline", str(base)]
        ) == 0
        assert "**OK**" in capsys.readouterr().out

    def test_compare_injected_regression_exits_nonzero(
        self, tiny_run, tmp_path, capsys
    ):
        base = write_ledger(tmp_path / "base.jsonl", tiny_run)
        fresh = write_ledger(
            tmp_path / "fresh", _bump_counter(copy.deepcopy(tiny_run))
        )
        report_out = tmp_path / "report.md"
        assert main(
            ["compare", "--baseline", str(base), "--fresh", str(fresh),
             "--report-out", str(report_out)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert "REGRESSION" in report_out.read_text()

    def test_compare_missing_baseline_exits_two(
        self, tiny_run, tmp_path, capsys
    ):
        missing = tmp_path / "missing.jsonl"
        fresh = write_ledger(tmp_path / "fresh.jsonl", tiny_run)
        assert main(
            ["compare", "--baseline", str(missing), "--fresh", str(fresh)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_baseline_creates_then_diffs(self, tmp_path, capsys):
        baseline = tmp_path / "bench.jsonl"
        assert main(
            ["update-baseline", "--matrix", "tiny", "--quiet",
             "--baseline", str(baseline)]
        ) == 0
        first = capsys.readouterr()
        assert baseline.exists()
        assert "Perf comparison" not in first.out  # no old baseline yet
        assert main(
            ["update-baseline", "--matrix", "tiny", "--quiet",
             "--baseline", str(baseline)]
        ) == 0
        assert "Perf comparison" in capsys.readouterr().out
        # Replaced, not appended: one entry per cell.
        assert len(RunLedger(baseline).entries()) == len(
            matrix_cells("tiny")
        )

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--matrix", "tiny", "--out", "bench.json"],
            ["compare", "--matrix", "tiny", "--fresh-out", "bench.json"],
        ],
        ids=["run-out", "compare-fresh-out"],
    )
    def test_retired_report_flags_exit_two(self, argv, capsys):
        # Fresh cells go to --ledger-dir; no flag writes a report file.
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit_base, edit_fresh",
        [
            (_bump_counter, None),
            (_bump_patterns, None),
            (None, _drop_last),
            (_drop_last, None),
        ],
        ids=[
            "baseline-counter",
            "baseline-pattern-count",
            "cell-only-in-baseline",
            "cell-only-in-fresh-run",
        ],
    )
    def test_gate_fails_where_it_failed_before(
        self, tiny_run, tmp_path, capsys, edit_base, edit_fresh
    ):
        base_entries = copy.deepcopy(tiny_run)
        fresh_entries = copy.deepcopy(tiny_run)
        if edit_base is not None:
            base_entries = edit_base(base_entries)
        if edit_fresh is not None:
            fresh_entries = edit_fresh(fresh_entries)
        base = write_ledger(tmp_path / "base.jsonl", base_entries)
        fresh = write_ledger(tmp_path / "fresh.jsonl", fresh_entries)
        assert main(
            ["compare", "--baseline", str(base), "--fresh", str(fresh)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unreadable_baseline_line_fails_the_gate(
        self, tiny_run, tmp_path, capsys
    ):
        base = write_ledger(tmp_path / "base.jsonl", tiny_run)
        fresh = write_ledger(tmp_path / "fresh.jsonl", tiny_run)
        assert main(
            ["compare", "--baseline", str(base), "--fresh", str(fresh)]
        ) == 0
        lines = base.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        base.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert main(
                ["compare", "--baseline", str(base), "--fresh", str(fresh)]
            ) == 1
        out = capsys.readouterr().out
        assert "cell not in baseline" in out

    def test_make_targets_drive_the_perf_cli(self):
        recipes = {}
        target = None
        makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
        for line in makefile.splitlines():
            if line and not line[0].isspace() and line.endswith(":"):
                target = line[:-1]
            elif line.startswith("\t") and target is not None:
                recipes.setdefault(target, []).append(line.strip())
        assert recipes["perf-check"] == [
            "$(PYTHON) -m repro.perf compare --matrix quick"
        ]
        assert recipes["perf"] == [
            "$(PYTHON) -m repro.perf update-baseline --matrix quick"
        ]


class TestCommittedBaseline:
    """The repository-root ``BENCH_PTPMINER.jsonl`` is a clean run
    ledger, one entry per cell of the quick matrix it describes."""

    def test_committed_baseline_matches_quick_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            baseline = RunLedger(REPO_ROOT / BASELINE_FILENAME).entries()
        assert [entry["config"]["cell"] for entry in baseline] == [
            cell.cell_id for cell in matrix_cells("quick")
        ]
        for entry in baseline:
            assert entry["config"]["matrix"] == "quick"
            assert entry["counters"], entry["config"]["cell"]
            assert entry["patterns"] >= 0
            assert entry["peak_mib"] > 0

    def test_history_renders_every_cell(self, capsys):
        from repro.cli import main as ptpminer

        path = str(REPO_ROOT / BASELINE_FILENAME)
        assert ptpminer(["history", "--ledger-dir", path]) == 0
        out = capsys.readouterr().out
        for cell in matrix_cells("quick"):
            assert f"cell={cell.cell_id}," in out
        assert out.count("\n## `") == len(matrix_cells("quick"))
        assert ptpminer(["history", "--ledger-dir", path, "--check"]) == 0
        capsys.readouterr()


class TestParallelCells:
    def test_workers_cell_id_gets_suffix_only_when_parallel(self):
        serial = WorkloadCell("sparse", 120, 0.2, "ptpminer")
        parallel = WorkloadCell("sparse", 120, 0.2, "ptpminer", workers=2)
        assert serial.cell_id == "sparse120/sup0.2/ptpminer"
        assert parallel.cell_id == "sparse120/sup0.2/ptpminer/w2"

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            WorkloadCell("sparse", 120, 0.2, "ptpminer", workers=0)

    def test_quick_matrix_has_a_sharded_cell(self):
        ids = [cell.cell_id for cell in matrix_cells("quick")]
        assert "sparse120/sup0.2/ptpminer/w2" in ids

    def test_sharded_cell_counters_equal_serial_cell(self):
        """The exact counter-agreement gate the w2 cell exists for."""
        from repro.perf.baseline import run_cell

        serial = WorkloadCell("tiny", 60, 0.4, "ptpminer")
        parallel = WorkloadCell("tiny", 60, 0.4, "ptpminer", workers=2)
        db = build_database(serial)
        serial_entry = run_cell(serial, db, matrix="tiny")
        parallel_entry = run_cell(parallel, db, matrix="tiny")
        assert parallel_entry["counters"] == serial_entry["counters"]
        assert parallel_entry["patterns"] == serial_entry["patterns"]
        assert parallel_entry["config"]["workers"] == 2
        assert parallel_entry["config"]["cell"].endswith("/w2")


class TestLedgerGlue:
    def test_cell_ids_fold_into_distinct_fingerprints(self, tiny_run):
        fingerprints = [entry["fingerprint"] for entry in tiny_run]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_repeated_appends_trend_under_one_fingerprint(
        self, tiny_run, tmp_path
    ):
        from repro.obs.ledger import history_report

        write_ledger(tmp_path, tiny_run)
        write_ledger(tmp_path, tiny_run)
        report = history_report(RunLedger(tmp_path).entries())
        assert all(
            len(group["runs"]) == 2 for group in report["groups"]
        )
        # Identical runs: exact comparisons are all clean.
        assert report["regressions"] == []

    def test_cli_run_appends_to_ledger(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        assert main(
            ["run", "--matrix", "tiny", "--quiet",
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        err = capsys.readouterr().err
        assert "ledger: appended" in err
        stored = RunLedger(ledger_dir).entries()
        assert len(stored) == len(matrix_cells("tiny"))

    def test_cli_compare_appends_fresh_run_to_ledger(
        self, tiny_run, tmp_path, capsys
    ):
        base = write_ledger(tmp_path / "base.jsonl", tiny_run)
        ledger_dir = tmp_path / "ledger"
        assert main(
            ["compare", "--matrix", "tiny", "--quiet",
             "--baseline", str(base), "--ledger-dir", str(ledger_dir)]
        ) == 0
        capsys.readouterr()
        assert len(RunLedger(ledger_dir).entries()) == len(tiny_run)
