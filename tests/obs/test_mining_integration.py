"""Integration: the mining stack under the observability layer.

Covers the acceptance criteria of the obs PR: identical mining output
with observability on and off, trace coverage of the mining phases,
metrics prune counters agreeing with ``PruneCounters``, baseline miners
publishing the same snapshot shape, and the miner's ``elapsed`` flowing
through the injectable clock.
"""

import pytest

from repro import obs
from repro.baselines import (
    BruteForceMiner,
    HDFSMiner,
    IEMiner,
    TPrefixSpanMiner,
)
from repro.core.ptpminer import PTPMiner
from repro.obs.clock import ManualClock, clock_scope

from tests.conftest import make_random_db


@pytest.fixture(scope="module")
def db():
    return make_random_db(3, num_sequences=20)


def pattern_set(result):
    return {(str(p.pattern), p.support) for p in result.patterns}


class TestZeroCostDisabledPath:
    def test_result_metrics_empty_when_off(self, db):
        result = PTPMiner(0.3).mine(db)
        assert result.metrics == {}

    def test_observability_does_not_change_patterns(self, db):
        reference = pattern_set(PTPMiner(0.3).mine(db))
        with obs.observe(metrics=True, tracer=True):
            observed = PTPMiner(0.3).mine(db)
        assert pattern_set(observed) == reference


class TestMinerMetrics:
    def test_snapshot_prune_counters_equal_prunecounters(self, db):
        with obs.observe(metrics=True):
            result = PTPMiner(0.3).mine(db)
        counters = result.metrics["counters"]
        for name, value in result.counters.as_dict().items():
            assert counters[f"search.{name}"] == value, name

    def test_snapshot_has_search_shape_families(self, db):
        with obs.observe(metrics=True):
            result = PTPMiner(0.3).mine(db)
        counters = result.metrics["counters"]
        assert any(
            key.startswith("search.states_by_depth[") for key in counters
        )
        assert any(
            key.startswith("search.patterns_by_length[") for key in counters
        )
        assert "search.candidates[ext=S]" in counters
        assert "search.candidates[ext=I]" in counters
        gauges = result.metrics["gauges"]
        assert gauges["run.patterns"] == len(result.patterns)
        assert gauges["run.db_size"] == len(db)
        hist = result.metrics["histograms"]["search.candidates_per_node"]
        # Nodes killed by the postfix branch bound return before their
        # candidates are gathered, so they never observe into the
        # histogram (no max_tokens cap is set here).
        assert hist["count"] == (
            result.counters.nodes_expanded
            - result.counters.pruned_postfix_branches
        )

    def test_phase_seconds_cover_mining_phases(self, db):
        with obs.observe(metrics=True):
            result = PTPMiner(0.3).mine(db)
        phases = {
            key
            for key in result.metrics["counters"]
            if key.startswith("phase_seconds[")
        }
        assert {
            "phase_seconds[phase=mine]",
            "phase_seconds[phase=encode]",
            "phase_seconds[phase=search]",
        } <= phases

    def test_top_k_also_publishes(self, db):
        with obs.observe(metrics=True):
            result = PTPMiner(0.5).mine_top_k(db, 5)
        assert result.metrics["gauges"]["run.patterns"] == len(
            result.patterns
        )


class TestTraceCoverage:
    def test_trace_covers_all_phases_and_nests_under_mine(self, db):
        with obs.observe(tracer=True) as handles:
            PTPMiner(0.3).mine(db)
        collector = handles.tracer
        names = set(collector.span_names())
        assert {
            "mine", "prune", "encode", "pair_tables", "search",
            "extend", "project",
        } <= names
        depths = collector.tree_depths()
        roots = [sid for sid, depth in depths.items() if depth == 0]
        assert len(roots) == 1  # everything nests under "mine"
        assert all("dur" in event for event in collector.finished())


class TestBaselines:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TPrefixSpanMiner(0.4),
            lambda: HDFSMiner(0.4),
            lambda: IEMiner(0.4),
            lambda: BruteForceMiner(0.4, max_size=3),
        ],
        ids=["tprefixspan", "hdfs", "ieminer", "bruteforce"],
    )
    def test_baselines_publish_run_snapshot(self, db, factory):
        with obs.observe(metrics=True):
            result = factory().mine(db)
        assert set(result.metrics) == {"counters", "gauges", "histograms"}
        counters = result.metrics["counters"]
        for name, value in result.counters.as_dict().items():
            assert counters[f"search.{name}"] == value, name
        assert result.metrics["gauges"]["run.patterns"] == len(
            result.patterns
        )
        # Off again: no residue.
        assert factory().mine(db).metrics == {}


class TestInjectableClock:
    def test_miner_elapsed_reads_the_obs_clock(self, db):
        clock = ManualClock(start=100.0)
        with clock_scope(clock):
            result = PTPMiner(0.5).mine(db)
        # The manual clock never advanced, so boundary timing is exact.
        assert result.elapsed == 0.0

    def test_progress_reporter_receives_search_heartbeats(self, db):
        events = []
        reporter = obs.ProgressReporter(
            events.append, every_nodes=1, min_interval_s=1e9
        )
        with obs.observe(reporter=reporter):
            result = PTPMiner(0.3).mine(db)
        assert events, "expected at least one heartbeat"
        assert events[-1].final is True
        assert events[-1].nodes == result.counters.nodes_expanded
        assert events[-1].patterns == len(result.patterns)


class TestObserveHelper:
    def test_observe_installs_and_clears(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import progress as obs_progress
        from repro.obs import trace as obs_trace

        with obs.observe(metrics=True, tracer=True, reporter=True) as handles:
            assert obs_metrics.active_registry() is handles.registry
            assert obs_trace.active_tracer() is handles.tracer
            assert obs_progress.active_reporter() is handles.reporter
        assert obs_metrics.active_registry() is None
        assert obs_trace.active_tracer() is None
        assert obs_progress.active_reporter() is None

    def test_observe_nothing_by_default(self):
        with obs.observe() as handles:
            assert handles.registry is None
            assert handles.tracer is None
            assert handles.reporter is None
            assert obs.ObsHandles.active() == obs.ObsHandles()

    def test_observe_installs_cost_and_provenance(self, db):
        with obs.observe(cost=True, provenance=True) as handles:
            assert obs.costmodel.active_collector() is handles.cost
            assert obs.provenance.active_collector() is handles.provenance
            PTPMiner(0.3).mine(db)
        assert obs.costmodel.active_collector() is None
        assert obs.provenance.active_collector() is None
        assert handles.cost.snapshot()["levels"]
        assert handles.provenance.snapshot()["patterns"]

    def test_false_shadows_an_enclosing_sink_for_the_scope(self):
        with obs.observe(metrics=True, reporter=True) as outer:
            with obs.observe(metrics=False, reporter=False) as inner:
                assert inner.registry is None and inner.reporter is None
                assert obs.metrics.active_registry() is None
                assert obs.progress.active_reporter() is None
            assert obs.metrics.active_registry() is outer.registry
            assert obs.progress.active_reporter() is outer.reporter


class TestObsHandles:
    def test_active_reads_every_installed_kind(self):
        with obs.observe(
            metrics=True, tracer=True, reporter=True, live=True, cost=True,
            provenance=True,
        ) as handles:
            assert obs.ObsHandles.active() == handles
        assert obs.ObsHandles.active() == obs.ObsHandles()

    def test_kinds_turn_progress_off_and_round_trip_a_shard(self, db):
        with obs.observe(metrics=True, tracer=True, cost=True) as parent:
            kinds = parent.kinds()
            assert kinds == {
                "metrics": True, "tracer": True, "reporter": False,
                "live": False, "cost": True, "provenance": False,
            }
            with obs.observe(**kinds) as shard:
                assert shard.registry is not parent.registry
                PTPMiner(0.3).mine(db)
            snapshot = shard.snapshot()
            assert set(snapshot) == {"metrics", "trace", "cost"}
            parent.absorb(snapshot, 3, parent_span=None)
        counters = parent.registry.snapshot()["counters"]
        assert any(key.startswith("shard.search.") for key in counters)
        assert parent.cost.snapshot() == shard.cost.snapshot()
        spans = [event["span"] for event in parent.tracer.events]
        assert spans and all(str(span).startswith("shard3:") for span in spans)
        roots = [
            event for event in parent.tracer.events
            if event["ev"] == "B" and event["parent"] is None
        ]
        assert roots  # the shard's own root spans hang under parent_span
