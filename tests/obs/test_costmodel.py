"""Tests for per-root / per-level cost attribution (`repro.obs.costmodel`).

The load-bearing properties: absorb() is arrival-order independent
(bit-for-bit), the digest ignores wall time and nothing else, and a
serial mining run's profile is internally consistent with the run's
own PruneCounters.
"""

import itertools
import json

import pytest

from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen import standard_dataset
from repro.obs import costmodel


def canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True)


def funnel(level, **row):
    """A snapshot carrying one level-funnel row, as the search's
    recorder folds its per-level tally in."""
    return {"schema": costmodel.COST_SCHEMA_VERSION, "levels": {str(level): row}}


def make_snapshot(root, *, wall_s=0.5, states=3, patterns=1, level=1):
    collector = costmodel.CostCollector()
    collector.absorb(
        funnel(level, nodes=1, candidates=4, frequent=1, patterns=1)
    )
    before = {"states_created": 0, "patterns_emitted": 0}
    after = {"states_created": states, "patterns_emitted": patterns}
    collector.record_root(root, wall_s, before, after)
    return collector.snapshot()


class TestCostCollector:
    def test_snapshot_shape(self):
        snap = make_snapshot("e0+")
        assert snap["schema"] == costmodel.COST_SCHEMA_VERSION
        assert snap["kind"] == "repro-cost"
        assert snap["roots"]["e0+"]["states_created"] == 3
        assert snap["roots"]["e0+"]["wall_s"] == pytest.approx(0.5)
        assert snap["levels"]["1"] == {
            "nodes": 1,
            "candidates": 4,
            "frequent": 1,
            "patterns": 1,
        }

    def test_record_root_uses_counter_deltas(self):
        collector = costmodel.CostCollector()
        collector.record_root(
            "a+",
            0.0,
            {"nodes_expanded": 10, "states_created": 7},
            {"nodes_expanded": 14, "states_created": 9},
        )
        entry = collector.snapshot()["roots"]["a+"]
        assert entry["nodes_expanded"] == 4
        assert entry["states_created"] == 2
        # Fields absent from both snapshots stay zero.
        assert entry["patterns_emitted"] == 0

    def test_snapshot_is_json_round_trippable(self):
        snap = make_snapshot("e1-")
        assert json.loads(json.dumps(snap)) == snap

    def test_absorb_rejects_unknown_schema(self):
        collector = costmodel.CostCollector()
        with pytest.raises(ValueError):
            collector.absorb({"schema": 99, "roots": {}, "levels": {}})

    def test_absorb_is_arrival_order_independent(self):
        shards = [
            make_snapshot("a+", wall_s=0.25, states=5, level=1),
            make_snapshot("b+", wall_s=1.5, states=2, level=2),
            make_snapshot("c-", wall_s=0.75, states=9, level=1),
        ]
        merged = []
        for order in itertools.permutations(shards):
            collector = costmodel.CostCollector()
            for snap in order:
                collector.absorb(snap)
            merged.append(canonical(collector.snapshot()))
        assert len(set(merged)) == 1

    def test_absorb_accumulates_shared_keys_fieldwise(self):
        collector = costmodel.CostCollector()
        collector.absorb(make_snapshot("a+", wall_s=0.5, states=3))
        collector.absorb(make_snapshot("a+", wall_s=0.25, states=4))
        snap = collector.snapshot()
        assert snap["roots"]["a+"]["wall_s"] == pytest.approx(0.75)
        assert snap["roots"]["a+"]["states_created"] == 7
        assert snap["levels"]["1"]["nodes"] == 2

    def test_absorb_matches_direct_recording(self):
        direct = costmodel.CostCollector()
        direct.absorb(funnel(1, nodes=1, candidates=3, frequent=1))
        direct.record_root("x+", 0.5, {}, {"states_created": 2})

        shipped = costmodel.CostCollector()
        shipped.absorb(direct.snapshot())
        assert canonical(shipped.snapshot()) == canonical(direct.snapshot())


class TestDigestAndRanking:
    def test_digest_ignores_wall_time_only(self):
        fast = make_snapshot("e0+", wall_s=0.001)
        slow = make_snapshot("e0+", wall_s=9.0)
        assert costmodel.profile_digest(fast) == costmodel.profile_digest(
            slow
        )
        drifted = make_snapshot("e0+", wall_s=0.001, states=4)
        assert costmodel.profile_digest(fast) != costmodel.profile_digest(
            drifted
        )

    def test_top_roots_ranks_by_wall_then_states_then_name(self):
        collector = costmodel.CostCollector()
        collector.record_root("slow+", 2.0, {}, {"states_created": 1})
        collector.record_root("big+", 1.0, {}, {"states_created": 50})
        collector.record_root("small+", 1.0, {}, {"states_created": 5})
        collector.record_root("a+", 1.0, {}, {"states_created": 5})
        snap = collector.snapshot()
        names = [row["root"] for row in costmodel.top_roots(snap, n=3)]
        assert names == ["slow+", "big+", "a+"]
        assert len(costmodel.top_roots(snap, n=99)) == 4
        assert costmodel.top_roots(snap, n=0) == []

    def test_top_roots_rows_carry_all_fields(self):
        snap = make_snapshot("e0+")
        (row,) = costmodel.top_roots(snap, n=1)
        assert row["root"] == "e0+"
        assert "wall_s" in row and "states_created" in row


class TestSeam:
    def test_disabled_by_default(self):
        assert costmodel.active_collector() is None

    def test_use_collector_installs_and_restores(self):
        outer = costmodel.CostCollector()
        with costmodel.use_collector(outer) as got:
            assert got is outer
            assert costmodel.active_collector() is outer
            with costmodel.use_collector() as inner:
                assert inner is not outer
                assert costmodel.active_collector() is inner
            assert costmodel.active_collector() is outer
        assert costmodel.active_collector() is None

    def test_restores_even_on_error(self):
        with pytest.raises(RuntimeError):
            with costmodel.use_collector():
                raise RuntimeError("boom")
        assert costmodel.active_collector() is None


class TestMiningIntegration:
    @pytest.fixture(scope="class")
    def mined(self):
        db = standard_dataset("tiny")
        miner = PTPMiner.from_config(MinerConfig(min_sup=0.3))
        with costmodel.use_collector() as collector:
            result = miner.mine(db)
        return result, collector.snapshot()

    def test_funnel_sums_match_counters(self, mined):
        result, snap = mined
        counters = result.counters.as_dict()
        levels = snap["levels"].values()
        assert sum(r["frequent"] for r in levels) == (
            counters["candidates_frequent"]
        )
        assert sum(r["patterns"] for r in levels) == (
            counters["patterns_emitted"]
        )
        assert sum(r["patterns"] for r in levels) == len(result.patterns)

    def test_root_attribution_covers_whole_search(self, mined):
        result, snap = mined
        counters = result.counters.as_dict()
        roots = snap["roots"].values()
        assert sum(r["patterns_emitted"] for r in roots) == (
            counters["patterns_emitted"]
        )
        assert sum(r["candidates_frequent"] for r in roots) == (
            counters["candidates_frequent"]
        )
        # Number of roots equals the level-1 frequent count.
        assert len(snap["roots"]) == snap["levels"]["1"]["frequent"]

    def test_no_collection_without_installed_collector(self):
        db = standard_dataset("tiny")
        miner = PTPMiner.from_config(MinerConfig(min_sup=0.3))
        baseline = miner.mine(db)
        with costmodel.use_collector() as collector:
            pass  # installed around nothing: mine ran outside the scope
        assert collector.snapshot()["roots"] == {}
        assert baseline.patterns  # sanity: the dataset does mine
