"""Tests for the performance-baseline subsystem (``repro.perf``)."""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.baseline import (
    BASELINE_FILENAME,
    SCHEMA_VERSION,
    environment_fingerprint,
    load_report,
    run_matrix,
    write_report,
)
from repro.perf.cli import main
from repro.perf.compare import (
    Tolerance,
    compare_reports,
    render_markdown,
)
from repro.perf.workloads import MATRICES, WorkloadCell, matrix_cells

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tiny_report():
    """One measured tiny-matrix run shared by the read-only assertions."""
    return run_matrix("tiny")


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
    def test_report_shape(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA_VERSION
        assert tiny_report["kind"] == "repro-bench"
        assert tiny_report["matrix"] == "tiny"
        assert tiny_report["environment"] == environment_fingerprint()
        cells = tiny_report["cells"]
        assert [row["cell"] for row in cells] == [
            cell.cell_id for cell in matrix_cells("tiny")
        ]
        for row in cells:
            assert row["wall_s"] >= 0
            assert row["peak_mib"] is not None and row["peak_mib"] > 0
            assert row["patterns"] > 0
            assert row["counters"]

    def test_counters_deterministic_across_runs(self, tiny_report):
        again = run_matrix("tiny")
        for first, second in zip(tiny_report["cells"], again["cells"]):
            assert first["counters"] == second["counters"]
            assert first["patterns"] == second["patterns"]

    def test_report_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(tiny_report, path)
        assert load_report(path) == tiny_report

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(ValueError, match="no benchmark report"):
            load_report(tmp_path / "missing.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{nope")
        with pytest.raises(ValueError, match="unparseable"):
            load_report(garbled)
        wrong_kind = tmp_path / "kind.json"
        wrong_kind.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError, match="not a repro-bench"):
            load_report(wrong_kind)
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(
            json.dumps({"kind": "repro-bench", "schema": 999})
        )
        with pytest.raises(ValueError, match="schema"):
            load_report(wrong_schema)


class TestCompare:
    def test_identical_reports_ok(self, tiny_report):
        result = compare_reports(tiny_report, tiny_report)
        assert result.ok
        assert result.cells_compared == len(tiny_report["cells"])
        assert not result.warnings and not result.improvements

    def test_counter_drift_is_regression(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        name = sorted(fresh["cells"][0]["counters"])[0]
        fresh["cells"][0]["counters"][name] += 1
        result = compare_reports(tiny_report, fresh)
        assert not result.ok
        assert any(
            f.metric == f"counters.{name}" for f in result.regressions
        )

    def test_pattern_drift_is_regression(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["patterns"] += 1
        assert not compare_reports(tiny_report, fresh).ok

    def test_time_within_tolerance_ok(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        # Noise-sized wiggle: below the absolute floor, never a finding.
        fresh["cells"][0]["wall_s"] = tiny_report["cells"][0]["wall_s"] + 0.01
        assert compare_reports(tiny_report, fresh).ok

    def test_large_slowdown_is_regression(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_s"] = (
            tiny_report["cells"][0]["wall_s"] * 10 + 1.0
        )
        result = compare_reports(tiny_report, fresh)
        assert not result.ok
        assert result.regressions[0].metric == "wall_s"

    def test_large_speedup_is_improvement(self, tiny_report):
        base = copy.deepcopy(tiny_report)
        base["cells"][0]["wall_s"] = 10.0
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_s"] = 0.1
        result = compare_reports(base, fresh)
        assert result.ok
        assert [f.metric for f in result.improvements] == ["wall_s"]

    def test_env_mismatch_downgrades_timing_to_warning(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["environment"] = {**fresh["environment"], "machine": "other"}
        fresh["cells"][0]["wall_s"] = (
            tiny_report["cells"][0]["wall_s"] * 10 + 1.0
        )
        result = compare_reports(tiny_report, fresh)
        assert result.ok and not result.env_match
        assert [f.metric for f in result.warnings] == ["wall_s"]

    def test_env_mismatch_keeps_counters_fatal(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["environment"] = {**fresh["environment"], "machine": "other"}
        name = sorted(fresh["cells"][0]["counters"])[0]
        fresh["cells"][0]["counters"][name] += 1
        assert not compare_reports(tiny_report, fresh).ok

    def test_missing_and_extra_cells_fail(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        dropped = fresh["cells"].pop()
        result = compare_reports(tiny_report, fresh)
        assert not result.ok
        assert any(
            f.cell == dropped["cell"] and f.metric == "presence"
            for f in result.regressions
        )
        assert not compare_reports(fresh, tiny_report).ok

    def test_custom_tolerance(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_s"] = tiny_report["cells"][0]["wall_s"] + 0.02
        tight = Tolerance(time_rtol=0.0, time_abs_s=0.001)
        assert not compare_reports(
            tiny_report, fresh, tolerance=tight
        ).ok

    def test_markdown_report(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_s"] = 99.0
        result = compare_reports(tiny_report, fresh)
        text = render_markdown(result)
        assert "REGRESSION" in text
        assert "wall_s" in text
        assert "| cell | metric |" in text
        clean = render_markdown(compare_reports(tiny_report, tiny_report))
        assert "**OK**" in clean


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(
            ["run", "--matrix", "tiny", "--quiet", "--out", str(out)]
        ) == 0
        report = load_report(out)
        assert report["matrix"] == "tiny"
        capsys.readouterr()

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(
            ["run", "--matrix", "tiny", "--quiet", "--out", str(base)]
        ) == 0
        assert main(
            ["compare", "--matrix", "tiny", "--quiet",
             "--baseline", str(base)]
        ) == 0
        assert "**OK**" in capsys.readouterr().out

    def test_compare_injected_regression_exits_nonzero(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        assert main(
            ["run", "--matrix", "tiny", "--quiet", "--out", str(base)]
        ) == 0
        bad = json.loads(base.read_text())
        name = sorted(bad["cells"][0]["counters"])[0]
        bad["cells"][0]["counters"][name] += 1
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(bad))
        report_out = tmp_path / "report.md"
        assert main(
            ["compare", "--baseline", str(base), "--fresh", str(fresh),
             "--report-out", str(report_out)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert "REGRESSION" in report_out.read_text()

    def test_compare_missing_baseline_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        fresh = tmp_path / "fresh.json"
        fresh.write_text(
            json.dumps({"kind": "repro-bench", "schema": 1, "cells": []})
        )
        assert main(
            ["compare", "--baseline", str(missing), "--fresh", str(fresh)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_baseline_creates_then_diffs(self, tmp_path, capsys):
        baseline = tmp_path / "bench.json"
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

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestCommittedBaseline:
    """The repository-root ``BENCH_PTPMINER.json`` stays loadable and
    structurally in sync with the quick matrix it claims to describe."""

    def test_committed_baseline_matches_quick_matrix(self):
        baseline = load_report(REPO_ROOT / BASELINE_FILENAME)
        assert baseline["matrix"] == "quick"
        committed = [row["cell"] for row in baseline["cells"]]
        assert committed == [
            cell.cell_id for cell in matrix_cells("quick")
        ]
        for row in baseline["cells"]:
            assert row["counters"], row["cell"]
            assert row["patterns"] >= 0


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
        from repro.perf.workloads import build_database

        serial = WorkloadCell("tiny", 60, 0.4, "ptpminer")
        parallel = WorkloadCell("tiny", 60, 0.4, "ptpminer", workers=2)
        db = build_database(serial)
        serial_row = run_cell(serial, db)
        parallel_row = run_cell(parallel, db)
        assert parallel_row["counters"] == serial_row["counters"]
        assert parallel_row["patterns"] == serial_row["patterns"]
        assert parallel_row["workers"] == 2
        assert parallel_row["cell"].endswith("/w2")


class TestLedgerGlue:
    def test_append_report_to_ledger_one_entry_per_cell(
        self, tiny_report, tmp_path
    ):
        from repro.obs.ledger import RunLedger
        from repro.perf.baseline import append_report_to_ledger

        entries = append_report_to_ledger(tiny_report, tmp_path)
        assert len(entries) == len(tiny_report["cells"])
        stored = RunLedger(tmp_path).entries()
        assert [e["run_id"] for e in stored] == [
            e["run_id"] for e in entries
        ]
        for row, entry in zip(tiny_report["cells"], stored):
            assert entry["config"]["cell"] == row["cell"]
            assert entry["config"]["matrix"] == tiny_report["matrix"]
            assert entry["counters"] == row["counters"]
            assert entry["patterns"] == row["patterns"]
            assert entry["environment"] == tiny_report["environment"]
            # Dataset digests come from regenerated cell databases, not
            # a placeholder.
            assert not entry["config"]["dataset_digest"].startswith("cell:")

    def test_cell_ids_fold_into_distinct_fingerprints(
        self, tiny_report, tmp_path
    ):
        from repro.perf.baseline import append_report_to_ledger

        entries = append_report_to_ledger(tiny_report, tmp_path)
        fingerprints = [e["fingerprint"] for e in entries]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_repeated_appends_trend_under_one_fingerprint(
        self, tiny_report, tmp_path
    ):
        from repro.obs.ledger import RunLedger, history_report
        from repro.perf.baseline import append_report_to_ledger

        append_report_to_ledger(tiny_report, tmp_path)
        append_report_to_ledger(tiny_report, tmp_path)
        report = history_report(RunLedger(tmp_path).entries())
        assert all(
            len(group["runs"]) == 2 for group in report["groups"]
        )
        # Identical runs: exact comparisons are all clean.
        assert report["regressions"] == []

    def test_unknown_cell_gets_placeholder_digest(
        self, tiny_report, tmp_path
    ):
        import copy as _copy

        from repro.perf.baseline import append_report_to_ledger

        report = _copy.deepcopy(tiny_report)
        report["cells"][0]["cell"] = "retired/cell"
        entries = append_report_to_ledger(report, tmp_path)
        assert entries[0]["config"]["dataset_digest"] == "cell:retired/cell"

    def test_cli_run_appends_to_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        assert main(
            ["run", "--matrix", "tiny", "--quiet",
             "--out", str(tmp_path / "bench.json"),
             "--ledger-dir", str(ledger_dir)]
        ) == 0
        err = capsys.readouterr().err
        assert "ledger: appended" in err
        stored = RunLedger(ledger_dir).entries()
        assert len(stored) == len(matrix_cells("tiny"))

    def test_cli_compare_appends_fresh_run_to_ledger(
        self, tmp_path, capsys
    ):
        from repro.obs.ledger import RunLedger

        base = tmp_path / "base.json"
        ledger_dir = tmp_path / "ledger"
        assert main(
            ["run", "--matrix", "tiny", "--quiet", "--out", str(base)]
        ) == 0
        assert main(
            ["compare", "--matrix", "tiny", "--quiet",
             "--baseline", str(base), "--ledger-dir", str(ledger_dir)]
        ) == 0
        capsys.readouterr()
        assert RunLedger(ledger_dir).entries()
