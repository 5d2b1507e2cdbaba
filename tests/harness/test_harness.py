"""Tests for the experiment harness (metrics, tables, figures, runner)."""

import pytest

from repro import miners, obs
from repro.core.ptpminer import PTPMiner
from repro.harness.figures import ascii_chart
from repro.harness.metrics import RunMetrics, measure
from repro.harness.runner import ExperimentRunner, MinerSpec
from repro.harness.tables import format_value, render_table

from tests.conftest import make_random_db


class TestMeasure:
    def test_returns_result_and_timing(self):
        metrics = measure(lambda: 41 + 1)
        assert metrics.result == 42
        assert metrics.elapsed_s >= 0

    def test_memory_tracking_observes_allocation(self):
        metrics = measure(lambda: [list(range(1000)) for _ in range(100)])
        assert metrics.peak_mem_bytes > 100_000
        assert metrics.peak_mem_mb == pytest.approx(
            metrics.peak_mem_bytes / (1024 * 1024)
        )

    def test_memory_tracking_optional(self):
        metrics = measure(lambda: 1, track_memory=False)
        # None, not 0: "not measured" must be distinguishable from a
        # genuinely zero-growth run.
        assert metrics.peak_mem_bytes is None
        assert metrics.peak_mem_mb is None

    def test_collect_obs_attaches_snapshot(self):
        from repro.obs import metrics as obs_metrics

        with obs.observe(metrics=True) as handles:
            metrics = measure(lambda: 7, track_memory=False)
        assert metrics.result == 7
        snapshot = handles.registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        # The scoped registry was uninstalled afterwards.
        assert obs_metrics.active_registry() is None

    def test_obs_none_by_default(self):
        # measure() itself installs no collector of any kind.
        metrics = measure(obs.ObsHandles.active, track_memory=False)
        assert metrics.result == obs.ObsHandles()

    def test_exception_propagates_and_stops_tracing(self):
        import tracemalloc

        with pytest.raises(RuntimeError):
            measure(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert not tracemalloc.is_tracing()

    def test_already_tracing_reuses_outer_trace(self):
        import tracemalloc

        tracemalloc.start()
        try:
            metrics = measure(lambda: [bytearray(64_000)])
            # The inner call measured real growth against the live trace
            # and left the caller's tracemalloc session running.
            assert metrics.peak_mem_bytes > 50_000
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_nested_measure_keeps_outer_session(self):
        import tracemalloc

        def outer():
            inner = measure(lambda: [bytearray(64_000)])
            # Nested measure must not tear down the enclosing session.
            assert tracemalloc.is_tracing()
            return inner

        outer_metrics = measure(outer)
        assert not tracemalloc.is_tracing()
        assert outer_metrics.result.peak_mem_bytes > 50_000
        # The outer window contains the inner allocation too.
        assert (
            outer_metrics.peak_mem_bytes
            >= outer_metrics.result.peak_mem_bytes
        )

    def test_collect_obs_with_track_memory_interaction(self):
        # A registry installed around a memory-tracked measure() records
        # the run, and its own allocations while the instrumented
        # search runs fall inside the tracemalloc window.
        db = make_random_db(1, num_sequences=8)
        with obs.observe(metrics=True) as handles:
            metrics = measure(
                lambda: PTPMiner(0.4).mine(db), track_memory=True
            )
        assert metrics.peak_mem_bytes is not None
        assert metrics.peak_mem_bytes > 0
        assert "search.nodes_expanded" in (
            handles.registry.snapshot()["counters"]
        )

    def test_collect_profile_attaches_report(self):
        from repro.obs.profile import profile_scope

        db = make_random_db(1, num_sequences=8)
        with profile_scope(memory=True) as profiler:
            measure(lambda: PTPMiner(0.4).mine(db), track_memory=True)
        profile = profiler.report().as_dict()
        assert profile["kind"] == "repro-profile"
        names = {p["name"] for p in profile["phases"]}
        assert "search" in names
        # memory=True attributes allocations per phase.
        assert any(p["memory_top"] for p in profile["phases"])

    def test_profile_none_by_default(self):
        from repro.obs import trace as obs_trace

        metrics = measure(obs_trace.active_tracer, track_memory=False)
        assert metrics.result is None

    def test_runmetrics_frozen(self):
        metrics = RunMetrics(1, 0.5, 10)
        with pytest.raises(AttributeError):
            metrics.elapsed_s = 2  # type: ignore[misc]


class TestTables:
    def test_render_basic(self):
        text = render_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        assert "T" in text
        assert "a" in text and "b" in text
        assert "22" in text

    def test_missing_cells_blank(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_explicit_column_order(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_format_value(self):
        assert format_value(0.123456) == "0.123"
        assert format_value(12345.6) == "12,346"
        assert format_value(3) == "3"
        assert format_value(123456) == "123,456"
        assert format_value(True) == "True"
        assert format_value("x") == "x"
        assert format_value(None) == "—"

    def test_empty_rows(self):
        assert render_table([], columns=["a"])


class TestFigures:
    def test_chart_contains_legend_and_bounds(self):
        chart = ascii_chart(
            {"m1": [(1, 10), (2, 20)], "m2": [(1, 5), (2, 40)]},
            title="runtime",
        )
        assert "runtime" in chart
        assert "m1" in chart and "m2" in chart
        assert "o" in chart and "x" in chart

    def test_log_scale(self):
        chart = ascii_chart(
            {"m": [(1, 1), (2, 1000)]}, log_y=True
        )
        assert "log scale" in chart

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_single_point(self):
        chart = ascii_chart({"m": [(1, 5)]}, log_y=False)
        assert "5" in chart

    def test_series_collision_marked_not_silently_overwritten(self):
        # Two series sharing a grid cell render '?' + a legend note
        # instead of the later series masking the earlier one.
        chart = ascii_chart(
            {"m1": [(1, 5), (2, 10)], "m2": [(1, 5), (2, 20)]},
            log_y=False,
        )
        assert "?" in chart
        assert "?=overlap" in chart

    def test_no_collision_no_overlap_legend(self):
        chart = ascii_chart(
            {"m1": [(1, 5)], "m2": [(2, 20)]}, log_y=False
        )
        assert "?" not in chart
        assert "overlap" not in chart

    def test_same_series_repeat_not_a_collision(self):
        chart = ascii_chart({"m1": [(1, 5), (1, 5)]}, log_y=False)
        assert "?" not in chart


class TestRunner:
    def test_sweep_collects_rows(self):
        db = make_random_db(1, num_sequences=10)
        runner = ExperimentRunner("demo", x_name="min_sup")
        specs = [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        result = runner.sweep(db, [0.3, 0.5], specs)
        assert len(result.rows) == 2
        assert all(row["miner"] == "ptp" for row in result.rows)
        assert all("runtime_s" in row for row in result.rows)
        assert all("patterns" in row for row in result.rows)

    def test_memory_column_optional(self):
        db = make_random_db(1, num_sequences=5)
        runner = ExperimentRunner("demo")
        runner.run_point(
            db, 0.5, [MinerSpec("ptp", lambda ms: PTPMiner(ms))],
            track_memory=True,
        )
        assert "peak_mem_mb" in runner.result.rows[0]

    def test_series_extraction(self):
        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        runner.sweep(
            db, [0.3, 0.5], [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        series = runner.result.series("patterns")
        assert list(series) == ["ptp"]
        assert len(series["ptp"]) == 2

    def test_table_and_chart_render(self):
        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        runner.sweep(
            db, [0.3, 0.5], [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        assert "demo" in runner.result.table()
        assert "legend" in runner.result.chart("runtime_s")

    def test_collect_obs_rows_carry_snapshot_and_phase_columns(self):
        db = make_random_db(1, num_sequences=5)
        runner = ExperimentRunner("demo")
        with obs.observe(metrics=True) as handles:
            rows = runner.run_point(
                db, 0.5, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
            )
        row = rows[0]
        # The registry's prune counters agree with the flat counter
        # columns mirrored from PruneCounters.
        obs_counters = handles.registry.snapshot()["counters"]
        assert obs_counters["search.pruned_pair"] == row["pruned_pair"]
        # Rows hold flat cells only.
        assert not any(isinstance(value, dict) for value in row.values())

    def test_collect_profile_rows_carry_summary(self):
        from repro.obs.profile import profile_scope

        db = make_random_db(1, num_sequences=5)
        runner = ExperimentRunner("demo")
        with profile_scope() as profiler:
            rows = runner.run_point(
                db, 0.5, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
            )
        profile = profiler.report().as_dict()
        assert "search" in {p["name"] for p in profile["phases"]}
        assert set(rows[0]) >= {"runtime_s", "patterns", "pruned_pair"}

    def test_extra_columns(self):
        # The returned rows are the sweep's rows: annotating them adds
        # columns to the tables and CSV exports.
        db = make_random_db(1, num_sequences=5)
        runner = ExperimentRunner("demo")
        (row,) = runner.run_point(
            db, 0.5, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        row["phase"] = "warm"
        assert runner.result.rows[0]["phase"] == "warm"
        assert "phase" in runner.result.table().splitlines()[2]


class TestCsvExport:
    def test_rows_round_trip_through_csv(self, tmp_path):
        import csv

        from repro.harness.runner import write_rows_csv

        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        runner.sweep(
            db, [0.3, 0.5], [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        path = tmp_path / "rows.csv"
        write_rows_csv(runner.result, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["miner"] == "ptp"
        assert float(rows[0]["min_sup"]) == 0.3
        assert "runtime_s" in rows[0]

    def test_empty_sweep(self, tmp_path):
        from repro.harness.runner import write_rows_csv

        runner = ExperimentRunner("empty")
        path = tmp_path / "rows.csv"
        write_rows_csv(runner.result, path)
        assert path.read_text() == "\r\n" or path.read_text() == "\n"


def sharded_spec(name="ptpminer", *, workers=2, **options):
    """A spec whose miner runs through the sharded engine."""
    return MinerSpec(
        name,
        lambda ms: miners.build(name, min_sup=ms, workers=workers, **options),
    )


class TestWorkersProvenance:
    """A sharded sweep point is a spec that builds a sharded miner."""

    def test_measure_rejects_bad_workers(self):
        db = make_random_db(1, num_sequences=5)
        runner = ExperimentRunner("bad")
        with pytest.raises(ValueError, match="workers"):
            runner.run_point(db, 0.4, [sharded_spec(workers=0)])

    def test_run_point_emits_workers_column(self):
        from repro.datagen import standard_dataset
        from repro.obs.ledger import config_fingerprint, dataset_digest

        db = standard_dataset("tiny")
        runner = ExperimentRunner("workers-sweep")
        (serial,) = runner.run_point(
            db, 0.4, [MinerSpec("ptpminer", lambda s: PTPMiner(s))]
        )
        (sharded,) = runner.run_point(db, 0.4, [sharded_spec()])
        # The engine's determinism guarantee reaches the sweep rows:
        # identical pattern counts and search counters, only runtime
        # may differ.
        assert sharded["patterns"] == serial["patterns"]
        for key in ("nodes_expanded", "states_created", "pruned_pair"):
            assert sharded[key] == serial[key]
        # The fingerprint reads the worker count off the built miner.
        fingerprint = dict(
            dataset_digest=dataset_digest(db),
            miner="ptpminer",
            min_sup=0.4,
            mode="tp",
        )
        assert serial["config_fingerprint"] == config_fingerprint(
            **fingerprint, workers=1
        )
        assert sharded["config_fingerprint"] == config_fingerprint(
            **fingerprint, workers=2
        )

    def test_run_point_workers_requires_ptpminer(self):
        from repro.datagen import standard_dataset

        db = standard_dataset("tiny")
        runner = ExperimentRunner("bad")
        with pytest.raises(ValueError, match="ptpminer"):
            runner.run_point(db, 0.4, [sharded_spec("tprefixspan")])


def silent_live():
    return obs.LiveCollector(obs.LiveConfig(render=False))


class TestCollectLive:
    """A live collector installed with ``obs.observe`` around the run."""

    def test_measure_attaches_live_summary_for_sharded_runs(self):
        from repro.engine import ShardedMiner

        db = make_random_db(1, num_sequences=8)
        miner = ShardedMiner(min_sup=0.4, workers=2, executor="serial")
        with obs.observe(live=silent_live()) as handles:
            measure(lambda: miner.mine(db), track_memory=False)
        summary = handles.live.summary
        assert summary is not None
        assert summary["roots_done"] == summary["roots_total"]
        assert summary["frames"] > 0

    def test_live_summary_none_without_a_sharded_run(self):
        with obs.observe(live=silent_live()) as handles:
            metrics = measure(lambda: 3, track_memory=False)
        assert metrics.result == 3
        assert handles.live.summary is None

    def test_live_summary_none_by_default(self):
        from repro.obs import live as obs_live

        metrics = measure(obs_live.active_live, track_memory=False)
        assert metrics.result is None

    def test_collect_live_composes_with_obs_and_profile(self):
        from repro.engine import ShardedMiner
        from repro.obs.profile import profile_scope

        db = make_random_db(1, num_sequences=6)
        miner = ShardedMiner(min_sup=0.4, workers=2, executor="serial")
        with profile_scope(memory=True) as profiler, obs.observe(
            metrics=True, live=silent_live()
        ) as handles:
            metrics = measure(lambda: miner.mine(db))
        assert metrics.peak_mem_bytes is not None
        assert handles.registry.snapshot()["counters"]
        assert profiler.report().phases
        assert handles.live.summary is not None

    def test_run_point_emits_shard_imbalance_column(self):
        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        with obs.observe(live=silent_live()) as handles:
            runner.run_point(db, 0.4, [sharded_spec(executor="serial")])
        summary = handles.live.summary
        assert summary["shard_imbalance"] is not None
        assert summary["roots_done"] == summary["roots_total"]

    def test_run_point_imbalance_none_for_serial_runs(self):
        db = make_random_db(1, num_sequences=6)
        runner = ExperimentRunner("demo")
        with obs.observe(live=silent_live()) as handles:
            runner.run_point(
                db, 0.4, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
            )
        assert handles.live.summary is None


class TestCollectCost:
    """A cost collector installed with ``obs.observe`` around the run."""

    def test_measure_attaches_cost_profile(self):
        db = make_random_db(1, num_sequences=8)
        miner = PTPMiner(0.4)
        with obs.observe(cost=True) as handles:
            measure(lambda: miner.mine(db), track_memory=False)
        profile = handles.cost.snapshot()
        assert profile["kind"] == "repro-cost"
        assert profile["roots"]
        assert profile["levels"]["1"]["frequent"] == len(profile["roots"])

    def test_cost_profile_none_by_default(self):
        from repro.obs import costmodel

        metrics = measure(costmodel.active_collector, track_memory=False)
        assert metrics.result is None

    def test_non_mining_callable_yields_empty_profile(self):
        with obs.observe(cost=True) as handles:
            metrics = measure(lambda: 3, track_memory=False)
        assert metrics.result == 3
        assert handles.cost.snapshot() == {
            "schema": 1, "kind": "repro-cost", "roots": {}, "levels": {},
        }

    def test_collect_cost_composes_with_other_flags(self):
        from repro.engine import ShardedMiner
        from repro.obs.profile import profile_scope

        db = make_random_db(1, num_sequences=6)
        miner = ShardedMiner(min_sup=0.4, workers=2, executor="serial")
        with profile_scope() as profiler, obs.observe(
            metrics=True, live=silent_live(), cost=True
        ) as handles:
            measure(lambda: miner.mine(db))
        assert handles.registry.snapshot()["counters"]
        assert profiler.report().phases
        assert handles.live.summary is not None
        assert handles.cost.snapshot()["roots"]

    def test_run_point_attaches_cost_and_fingerprint(self):
        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        with obs.observe(cost=True) as handles:
            (row,) = runner.run_point(
                db, 0.4, [MinerSpec("ptpminer", lambda ms: PTPMiner(ms))]
            )
        assert handles.cost.snapshot()["roots"]
        fingerprint = row["config_fingerprint"]
        assert isinstance(fingerprint, str) and len(fingerprint) == 12
        header = runner.result.table().splitlines()[2]
        assert "config_fingerprint" in header

    def test_fingerprint_joins_against_ledger_entries(self):
        # A sweep row and a ledger entry built from the same run must
        # share the fingerprint — that is the join key the sweep/ledger
        # satellite promises.
        from repro.obs.ledger import build_entry, dataset_digest

        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        (row,) = runner.run_point(
            db, 0.4, [MinerSpec("ptpminer", lambda ms: PTPMiner(ms))]
        )
        entry = build_entry(
            dataset_digest=dataset_digest(db),
            miner="ptpminer",
            min_sup=0.4,
            mode="tp",
            workers=1,
            environment={"machine": "test"},
            wall_s=row["runtime_s"],
            patterns=row["patterns"],
            counters={},
            run_id="r1",
            timestamp="2026-08-08T00:00:00+00:00",
        )
        assert entry["fingerprint"] == row["config_fingerprint"]

    def test_rows_without_collect_cost_have_no_cost_key(self):
        db = make_random_db(1, num_sequences=6)
        runner = ExperimentRunner("demo")
        (row,) = runner.run_point(
            db, 0.4, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        assert "cost" not in row
        assert row["config_fingerprint"]


class TestCollectProvenance:
    """A provenance collector installed with ``obs.observe``."""

    def test_measure_attaches_provenance_snapshot(self):
        db = make_random_db(1, num_sequences=8)
        miner = PTPMiner(0.4)
        with obs.observe(provenance=True) as handles:
            metrics = measure(lambda: miner.mine(db), track_memory=False)
        snap = handles.provenance.snapshot()
        assert snap["kind"] == "repro-provenance"
        assert set(snap["patterns"]) == {
            str(item.pattern) for item in metrics.result.patterns
        }

    def test_provenance_none_by_default(self):
        from repro.obs import provenance as obs_provenance

        metrics = measure(
            obs_provenance.active_collector, track_memory=False
        )
        assert metrics.result is None

    def test_non_mining_callable_yields_empty_snapshot(self):
        with obs.observe(provenance=True) as handles:
            metrics = measure(lambda: 3, track_memory=False)
        assert metrics.result == 3
        assert handles.provenance.snapshot() == {
            "schema": 1,
            "kind": "repro-provenance",
            "patterns": {},
            "pruned": {},
            "labels": {},
        }

    def test_collect_provenance_composes_with_other_flags(self):
        from repro.engine import ShardedMiner
        from repro.obs.profile import profile_scope

        db = make_random_db(1, num_sequences=6)
        miner = ShardedMiner(min_sup=0.4, workers=2, executor="serial")
        with profile_scope() as profiler, obs.observe(
            metrics=True, cost=True, provenance=True
        ) as handles:
            measure(lambda: miner.mine(db))
        assert handles.registry.snapshot()["counters"]
        assert profiler.report().phases
        assert handles.cost.snapshot()["roots"]
        assert handles.provenance.snapshot()["patterns"]

    def test_run_point_attaches_provenance_row_key(self):
        db = make_random_db(1, num_sequences=8)
        runner = ExperimentRunner("demo")
        with obs.observe(provenance=True) as handles:
            (row,) = runner.run_point(
                db, 0.4, [MinerSpec("ptpminer", lambda ms: PTPMiner(ms))]
            )
        assert len(handles.provenance.snapshot()["patterns"]) == (
            row["patterns"]
        )

    def test_rows_without_collect_provenance_have_no_key(self):
        db = make_random_db(1, num_sequences=6)
        runner = ExperimentRunner("demo")
        (row,) = runner.run_point(
            db, 0.4, [MinerSpec("ptp", lambda ms: PTPMiner(ms))]
        )
        assert "provenance" not in row


class TestPredictedStrategyRows:
    """Predicted-strategy sweep points build their plan in the spec."""

    def predicted_spec(self, db, workers):
        from repro.core.config import MinerConfig
        from repro.obs import planner

        def build(ms):
            config = MinerConfig(min_sup=ms)
            return miners.build(
                "ptpminer",
                config,
                workers=workers,
                shard_strategy="predicted",
                plan=planner.build_plan(db, config, workers=workers),
            )

        return MinerSpec("ptpminer", build)

    def test_predicted_results_match_roundrobin(self):
        db = make_random_db(4, num_sequences=12)
        runner = ExperimentRunner("demo")
        (rr,) = runner.run_point(db, 0.3, [sharded_spec(workers=3)])
        (pred,) = runner.run_point(db, 0.3, [self.predicted_spec(db, 3)])
        assert pred["patterns"] == rr["patterns"]
        assert pred["nodes_expanded"] == rr["nodes_expanded"]
        assert pred["config_fingerprint"] == rr["config_fingerprint"]

    def test_unknown_strategy_rejected(self):
        db = make_random_db(3, num_sequences=6)
        runner = ExperimentRunner("demo")
        with pytest.raises(ValueError, match="shard_strategy"):
            runner.run_point(
                db, 0.3, [sharded_spec(shard_strategy="zigzag")]
            )
