"""Tests for unified run reports (``repro.obs.runreport``)."""

import json

import pytest

from repro.obs.live import LiveFrame, imbalance
from repro.obs.runreport import build_run_report, render_markdown


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def trace_rows():
    return [
        {"ev": "B", "span": 1, "parent": None, "name": "mine", "ts": 0.0},
        {"ev": "B", "span": 2, "parent": 1, "name": "shards", "ts": 0.1},
        {"ev": "B", "span": "shard0:1", "parent": 2, "name": "search",
         "ts": 50.0},
        {"ev": "B", "span": "shard0:2", "parent": "shard0:1",
         "name": "extend", "ts": 50.1},
        {"ev": "E", "span": "shard0:2", "name": "extend", "ts": 50.2,
         "dur": 0.1},
        {"ev": "E", "span": "shard0:1", "name": "search", "ts": 51.0,
         "dur": 1.0},
        {"ev": "B", "span": "shard1:1", "parent": 2, "name": "search",
         "ts": 70.0},
        {"ev": "E", "span": "shard1:1", "name": "search", "ts": 73.0,
         "dur": 3.0},
        {"ev": "E", "span": 2, "name": "shards", "ts": 3.2, "dur": 3.1},
        {"ev": "E", "span": 1, "name": "mine", "ts": 3.4, "dur": 3.4},
    ]


def live_rows(*, skewed=False):
    slow_done = 2 if skewed else 18
    rows = []
    for shard, done in ((0, 20), (1, 20), (2, slow_done)):
        rows.append(
            LiveFrame(shard=shard, ts=0.0, roots_done=0,
                      roots_total=20, patterns=0).as_dict()
        )
        rows.append(
            LiveFrame(shard=shard, ts=10.0, roots_done=done,
                      roots_total=20, patterns=done // 2,
                      final=not skewed or shard != 2).as_dict()
        )
    return rows


def metrics_snapshot():
    return {
        "counters": {
            "search.nodes_expanded": 500,
            "search.candidates_considered": 9000,
            "search.candidates_frequent": 480,
            "search.pruned_pair": 8000,
            "search.patterns_emitted": 133,
            "phase_seconds[phase=mine]": 3.4,
        },
        "gauges": {},
        "histograms": {},
    }


class TestBuildRunReport:
    def test_needs_at_least_one_source(self):
        with pytest.raises(ValueError):
            build_run_report()

    def test_phase_table_from_trace_excludes_shard_spans(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, trace_rows())
        report = build_run_report(trace_path=str(trace))
        phases = {row["phase"]: row for row in report["phases"]}
        assert set(phases) == {"mine", "shards"}
        assert phases["mine"]["total_s"] == pytest.approx(3.4)
        assert phases["shards"]["count"] == 1

    def test_shards_from_trace_use_root_spans_only(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, trace_rows())
        report = build_run_report(trace_path=str(trace))
        rows = {row["shard"]: row["busy_s"] for row in report["shards"]}
        # shard0's nested "extend" span must not double-count.
        assert rows == {0: pytest.approx(1.0), 1: pytest.approx(3.0)}
        assert report["shard_imbalance"] == pytest.approx(1.5)

    def test_live_log_preferred_for_shard_section(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        live = tmp_path / "frames.jsonl"
        write_jsonl(trace, trace_rows())
        write_jsonl(live, live_rows())
        report = build_run_report(
            trace_path=str(trace), live_log_path=str(live)
        )
        assert len(report["shards"]) == 3
        assert all("roots_done" in row for row in report["shards"])
        assert report["stragglers"] == []

    def test_prune_funnel_from_metrics(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(metrics_snapshot()))
        report = build_run_report(metrics_path=str(metrics))
        stages = [row["stage"] for row in report["prune_funnel"]]
        assert stages == [
            "search nodes expanded",
            "candidates considered",
            "pruned: pair",
            "candidates frequent",
            "patterns emitted",
        ]
        counts = {r["stage"]: r["count"] for r in report["prune_funnel"]}
        assert counts["patterns emitted"] == 133

    def test_skewed_workload_triggers_exactly_one_straggler(self, tmp_path):
        live = tmp_path / "frames.jsonl"
        write_jsonl(live, live_rows(skewed=True))
        report = build_run_report(live_log_path=str(live))
        assert report["stragglers"] == [2]
        markdown = render_markdown(report)
        callouts = [
            line for line in markdown.splitlines()
            if "fell below the straggler threshold" in line
        ]
        assert len(callouts) == 1
        assert "shard 2" in callouts[0]

    def test_rejects_non_object_metrics_file(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            build_run_report(metrics_path=str(metrics))


class TestRenderMarkdown:
    def test_full_report_renders_all_sections(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        live = tmp_path / "frames.jsonl"
        write_jsonl(trace, trace_rows())
        metrics.write_text(json.dumps(metrics_snapshot()))
        write_jsonl(live, live_rows())
        report = build_run_report(
            trace_path=str(trace),
            metrics_path=str(metrics),
            live_log_path=str(live),
        )
        markdown = render_markdown(report)
        for heading in (
            "# ptpminer run report",
            "## Phases",
            "## Shards",
            "## Straggler callouts",
            "## Prune funnel",
            "## Live summary",
        ):
            assert heading in markdown
        assert "Shard imbalance (max/mean busy)" in markdown
        assert "None detected." in markdown

    def test_sections_without_data_are_omitted(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(metrics_snapshot()))
        report = build_run_report(metrics_path=str(metrics))
        markdown = render_markdown(report)
        assert "## Prune funnel" in markdown
        assert "## Phases" in markdown  # from phase_seconds
        assert "## Shards" not in markdown
        assert "## Live summary" not in markdown
        assert "## Projection states per DFS depth" not in markdown
        assert "## Histogram" not in markdown


def cost_rows():
    return {
        "schema": 1, "kind": "repro-cost", "levels": {},
        "roots": {
            "A+": {"wall_s": 3.0, "states_created": 30,
                   "nodes_expanded": 12, "patterns_emitted": 5},
            "B+": {"wall_s": 1.0, "states_created": 10,
                   "nodes_expanded": 4, "patterns_emitted": 2},
        },
    }


class TestSourceSections:
    def test_cost_source_yields_heaviest_roots(self, tmp_path):
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps(cost_rows()))
        report = build_run_report(cost_path=str(cost))
        assert report["heaviest_roots"][0]["root"] == "A+"
        markdown = render_markdown(report)
        assert "## Heaviest roots (realized)" in markdown
        assert "`A+`" in markdown

    def test_provenance_source_yields_counts(self, tmp_path):
        prov = tmp_path / "prov.json"
        prov.write_text(json.dumps({
            "schema": 1, "kind": "repro-provenance",
            "patterns": {"p1": {}, "p2": {}}, "pruned": {"x": {}},
            "labels": {},
        }))
        report = build_run_report(provenance_path=str(prov))
        assert report["provenance"] == {
            "patterns": 2, "pruned": 1, "labels": 0,
        }
        assert "## Provenance summary" in render_markdown(report)

    def test_live_log_fills_realized_imbalance(self, tmp_path):
        live = tmp_path / "frames.jsonl"
        write_jsonl(live, live_rows())
        report = build_run_report(live_log_path=str(live))
        busy = [lane["busy_s"] for lane in report["live"]["shards"].values()]
        assert report["shard_imbalance"] == imbalance(busy)
        assert report["shard_imbalance"] is not None
        assert any("no cost profile" in note for note in report["notes"])


def snapshot_report(tmp_path, snapshot):
    """build_run_report over ``snapshot`` written as a metrics file."""
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(snapshot))
    return build_run_report(metrics_path=str(path))


def sample_snapshot():
    return {
        "counters": {
            "phase_seconds[phase=encode]": 0.2,
            "phase_seconds[phase=search]": 1.8,
            "search.states_by_depth[depth=1]": 30,
            "search.states_by_depth[depth=2]": 12,
            "search.patterns_by_length[tokens=2]": 5,
            "search.candidates[ext=I]": 3,
            "search.candidates[ext=S]": 9,
            "search.pruned_pair": 44,
            "search.states_deduped": 4,
        },
        "gauges": {"run.patterns": 5},
        "histograms": {
            "search.candidates_per_node": {
                "buckets": {"le_1": 2, "inf": 1},
                "count": 3,
                "sum": 7.0,
                "mean": 7.0 / 3,
            }
        },
    }


#: Report keys of the tables a metrics snapshot alone can fill.
SNAPSHOT_TABLES = (
    "phases", "prune_funnel", "states_by_depth", "patterns_by_length",
    "candidates_by_ext", "totals", "histograms",
)


class TestRenderReport:
    """The metrics snapshot's tables, from a snapshot file alone."""

    def test_sections_present(self, tmp_path):
        text = render_markdown(snapshot_report(tmp_path, sample_snapshot()))
        for heading in (
            "## Phases",
            "## Projection states per DFS depth",
            "## Patterns emitted per length (endpoint tokens)",
            "## Gathered candidates per extension kind (pair survivors)",
            "## Totals",
            "## Histogram search.candidates_per_node (count=3, sum=7)",
        ):
            assert heading in text

    def test_phase_breakdown_sorted_by_time(self, tmp_path):
        report = snapshot_report(tmp_path, sample_snapshot())
        # Seconds only: no span counts, and no shares, since nested
        # spans would count twice.
        assert report["phases"] == [
            {"phase": "search", "total_s": 1.8},
            {"phase": "encode", "total_s": 0.2},
        ]
        phases = render_markdown(report).split("## Phases")[1]
        assert "| phase | total (s) |" in phases.split("##")[0]
        assert "%" not in phases.split("##")[0]

    def test_depth_rows_sorted_numerically(self, tmp_path):
        snapshot = {
            "counters": {
                "search.states_by_depth[depth=10]": 1,
                "search.states_by_depth[depth=2]": 2,
            }
        }
        report = snapshot_report(tmp_path, snapshot)
        assert report["states_by_depth"] == [
            {"depth": "2", "states": 2},
            {"depth": "10", "states": 1},
        ]

    def test_totals_include_plain_counters_and_gauges(self, tmp_path):
        report = snapshot_report(tmp_path, sample_snapshot())
        totals = {row["metric"]: row["value"] for row in report["totals"]}
        assert totals == {"search.states_deduped": 4, "run.patterns": 5}
        # search.pruned_pair is a prune-funnel row instead.
        assert report["prune_funnel"] == [
            {"stage": "pruned: pair", "count": 44}
        ]

    def test_empty_snapshot(self, tmp_path):
        for snapshot in ({}, {"counters": {}, "gauges": {}, "histograms": {}}):
            report = snapshot_report(tmp_path, snapshot)
            assert not set(SNAPSHOT_TABLES) & set(report)
            assert "## Notes" in render_markdown(report)

    def test_null_sections_never_raise(self, tmp_path):
        # A partial run may serialise explicit nulls; skip, don't crash.
        report = snapshot_report(
            tmp_path, {"counters": None, "gauges": None, "histograms": None}
        )
        assert not set(SNAPSHOT_TABLES) & set(report)
        render_markdown(report)

    def test_degenerate_histogram_never_raises(self, tmp_path):
        snapshot = {
            "histograms": {
                "h_empty": {},
                "h_null_sum": {"buckets": {"inf": 1}, "count": 1,
                               "sum": None},
                "h_null": None,
            }
        }
        text = render_markdown(snapshot_report(tmp_path, snapshot))
        assert "## Histogram h_empty (count=0, sum=0)" in text
        assert "## Histogram h_null_sum (count=1, sum=0)" in text
        assert "## Histogram h_null (count=0, sum=0)" in text

    def test_counters_only_partial_run(self, tmp_path):
        # Only a couple of counters landed before the run died.
        report = snapshot_report(
            tmp_path,
            {"counters": {"search.nodes_expanded": 3,
                          "search.states_deduped": 1}},
        )
        assert report["prune_funnel"] == [
            {"stage": "search nodes expanded", "count": 3}
        ]
        assert report["totals"] == [
            {"metric": "search.states_deduped", "value": 1}
        ]

    def test_shard_twins_fold_into_the_search_tables(self, tmp_path):
        hist = {"buckets": {"le_1": 1, "inf": 0}, "count": 1, "sum": 1.0}
        snapshot = {
            "counters": {
                "phase_seconds[phase=mine]": 2.0,
                "shard.phase_seconds[phase=search]": 1.5,
                "search.candidates[ext=S]": 19,
                "shard.search.candidates[ext=S]": 445,
                "shard.search.states_by_depth[depth=1]": 7,
                "shard.search.states_deduped": 2,
            },
            "gauges": {"engine.shard_elapsed_s[shard=0]": 1.5},
            "histograms": {
                "search.candidates_per_node": hist,
                "shard.search.candidates_per_node": {
                    "buckets": {"le_1": 2, "inf": 3}, "count": 5,
                    "sum": 90.0,
                },
            },
        }
        report = snapshot_report(tmp_path, snapshot)
        assert report["candidates_by_ext"] == [
            {"ext": "S", "candidates": 464}
        ]
        assert report["states_by_depth"] == [{"depth": "1", "states": 7}]
        # Worker phases and gauges are never summed into the parent's.
        assert report["phases"] == [{"phase": "mine", "total_s": 2.0}]
        assert report["totals"] == [
            {"metric": "search.states_deduped", "value": 2},
            {"metric": "engine.shard_elapsed_s[shard=0]", "value": 1.5},
        ]
        assert report["histograms"] == [{
            "histogram": "search.candidates_per_node",
            "count": 6,
            "sum": 91.0,
            "buckets": [
                {"bucket": "le_1", "observations": 3},
                {"bucket": "inf", "observations": 3},
            ],
        }]


class TestSerialAndShardedReportsAgree:
    def test_search_tables_equal_for_serial_and_two_workers(self, tmp_path):
        """One config mined serially and on two workers (both
        executors): every search table and ``search.*`` histogram of
        ``ptpminer report --metrics`` is the same."""
        from repro.cli import main
        from repro.datagen import standard_dataset
        from repro.io import write_database

        db_path = tmp_path / "hybrid.txt"
        write_database(standard_dataset("hybrid", num_sequences=60), db_path)
        runs = {
            "serial": [],
            "w2-serial": ["--workers", "2", "--executor", "serial"],
            "w2-process": ["--workers", "2", "--executor", "process"],
        }
        tables = {}
        for name, extra in runs.items():
            metrics = tmp_path / f"{name}.json"
            assert main([
                "mine", str(db_path), "--mode", "htp", "--min-sup", "0.1",
                "--top", "0", "--metrics-out", str(metrics), *extra,
            ]) == 0
            report = build_run_report(metrics_path=str(metrics))
            tables[name] = {
                key: report[key]
                for key in (
                    "prune_funnel", "states_by_depth", "patterns_by_length",
                    "candidates_by_ext",
                )
            }
            tables[name]["histograms"] = [
                hist for hist in report["histograms"]
                if hist["histogram"].startswith("search.")
            ]
        assert tables["serial"]["histograms"]
        assert tables["w2-serial"] == tables["serial"]
        assert tables["w2-process"] == tables["serial"]
