"""Tests for the parallel sharded mining engine (:mod:`repro.engine`).

The load-bearing claim is the determinism guarantee: for any worker
count and either executor, the merged result — patterns, supports,
*and* search counters — is bit-for-bit identical to the sequential
miner's. Everything else (pickling, shard planning, obs merging) exists
to make that guarantee hold across process boundaries.
"""

import io
import json
import os
import pickle
import time

import pytest

from repro import engine, obs
from repro.core.config import MinerConfig, PruningConfig
from repro.core.ptpminer import PTPMiner, mine
from repro.datagen import standard_dataset
from repro.engine import (
    EXECUTORS,
    ShardTask,
    ShardedMiner,
    _candidate_name,
    mine_sharded,
    plan_shards,
)
from repro.model.database import ESequenceDatabase
from repro.obs import costmodel as obs_costmodel
from repro.obs import live as obs_live
from repro.obs import provenance as obs_provenance
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro.obs.clock import ManualClock, clock_scope


@pytest.fixture(scope="module")
def tiny_db():
    return standard_dataset("tiny")


@pytest.fixture(scope="module")
def hybrid_db():
    return standard_dataset("hybrid", num_sequences=40)


def assert_identical(sharded, serial):
    """The full determinism guarantee: patterns, supports, counters."""
    assert sharded.patterns == serial.patterns
    assert sharded.counters == serial.counters
    assert sharded.threshold == serial.threshold


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_serial_executor_matches_sequential(self, tiny_db, workers):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=workers, executor="serial"
        )
        assert_identical(sharded, serial)

    def test_process_executor_matches_sequential(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=2, executor="process"
        )
        assert_identical(sharded, serial)

    def test_htp_mode_with_point_events(self, hybrid_db):
        config = MinerConfig(min_sup=0.2, mode="htp")
        serial = PTPMiner.from_config(config).mine(hybrid_db)
        sharded = mine_sharded(
            hybrid_db, config, workers=3, executor="serial"
        )
        assert_identical(sharded, serial)

    def test_max_span_constraint(self, tiny_db):
        config = MinerConfig(min_sup=0.2, max_span=6.0)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=2, executor="serial"
        )
        assert_identical(sharded, serial)

    def test_empty_root_returns_empty_result(self, tiny_db):
        # min_sup 1.0 on tiny leaves nothing frequent at the root of
        # some prefixes; crank it so the whole fan-out dies and the
        # engine takes its no-tasks path.
        config = MinerConfig(min_sup=1.0)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=4, executor="serial"
        )
        assert_identical(sharded, serial)

    def test_more_workers_than_candidates(self, tiny_db):
        config = MinerConfig(min_sup=0.5)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=64, executor="serial"
        )
        assert_identical(sharded, serial)

    def test_result_params_record_engine_settings(self, tiny_db):
        result = mine_sharded(
            tiny_db, MinerConfig(min_sup=0.4), workers=2, executor="serial"
        )
        assert result.params["workers"] == 2
        assert result.params["executor"] == "serial"
        assert result.params["shards"] >= 1
        assert result.miner == "P-TPMiner"


class TestValidation:
    def test_workers_must_be_positive(self, tiny_db):
        with pytest.raises(ValueError, match="workers"):
            mine_sharded(tiny_db, MinerConfig(min_sup=0.3), workers=0)

    def test_unknown_executor_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="executor"):
            mine_sharded(
                tiny_db, MinerConfig(min_sup=0.3), executor="threads"
            )

    def test_auto_resolves_by_worker_count(self, tiny_db):
        one = mine_sharded(tiny_db, MinerConfig(min_sup=0.4), workers=1)
        assert one.params["executor"] == "serial"
        assert "auto" in EXECUTORS


class TestPlanShards:
    def _root(self, db, min_sup=0.3):
        config = MinerConfig(min_sup=min_sup)
        miner = PTPMiner.from_config(config)
        threshold = float(db.absolute_support(min_sup))
        _, _, root = miner.plan_root(db, [1.0] * len(db), threshold)
        return config, threshold, root

    def test_partition_is_disjoint_and_complete(self, tiny_db):
        config, threshold, root = self._root(tiny_db)
        tasks = plan_shards(root, config, threshold, 3)
        seen = [c for t in tasks for c, _ in t.candidates]
        assert sorted(seen) == sorted(root)
        assert len(seen) == len(set(seen))

    def test_no_empty_shards(self, tiny_db):
        config, threshold, root = self._root(tiny_db)
        tasks = plan_shards(root, config, threshold, len(root) + 10)
        assert len(tasks) == len(root)
        assert all(task.candidates for task in tasks)

    def test_empty_root_plans_no_tasks(self, tiny_db):
        config, threshold, _ = self._root(tiny_db)
        assert plan_shards({}, config, threshold, 4) == []

    def test_invalid_shard_count(self, tiny_db):
        config, threshold, root = self._root(tiny_db)
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards(root, config, threshold, 0)


class TestPickling:
    def test_miner_config_round_trips(self):
        config = MinerConfig(
            min_sup=0.25, mode="htp", max_span=9.5, max_size=4
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_shard_task_round_trips(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        miner = PTPMiner.from_config(config)
        threshold = float(tiny_db.absolute_support(0.3))
        _, _, root = miner.plan_root(
            tiny_db, [1.0] * len(tiny_db), threshold
        )
        for task in plan_shards(root, config, threshold, 2):
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            assert clone.candidate_map() == task.candidate_map()

    def test_pattern_with_support_round_trips(self, tiny_db):
        result = PTPMiner(min_sup=0.4).mine(tiny_db)
        assert result.patterns  # the test is vacuous otherwise
        for item in result.patterns:
            assert pickle.loads(pickle.dumps(item)) == item


class TestObsMerge:
    def test_shard_metrics_absorbed_with_prefix(self, tiny_db):
        with obs_metrics.use_registry() as registry:
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.3),
                workers=2,
                executor="serial",
            )
        snapshot = registry.snapshot()
        shard_keys = [
            key
            for key in snapshot["counters"]
            if key.startswith("shard.")
        ]
        assert shard_keys, snapshot["counters"].keys()

    def test_trace_stays_one_well_formed_tree(self, tiny_db):
        collector = obs_trace.TraceCollector()
        with obs_trace.use_tracer(collector):
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.3),
                workers=2,
                executor="serial",
            )
        begins = [ev for ev in collector.events if ev["ev"] == "B"]
        own = {ev["span"] for ev in begins}
        shard_spans = [
            ev
            for ev in begins
            if isinstance(ev["span"], str) and ev["span"].startswith("shard")
        ]
        assert shard_spans, "no shard spans were re-emitted"
        # Every parent link resolves inside this trace (or is a root).
        for ev in begins:
            assert ev["parent"] is None or ev["parent"] in own

    def test_engine_emits_its_own_phases(self, tiny_db):
        collector = obs_trace.TraceCollector()
        with obs_trace.use_tracer(collector):
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.4),
                workers=2,
                executor="serial",
            )
        names = set(collector.span_names())
        assert {"mine", "plan_root", "shards", "merge"} <= names


class TestCostProfileMerge:
    """Cost profiles must be bit-for-bit identical to a serial run's.

    Under a frozen :class:`ManualClock` every wall delta is exactly
    0.0 in both serial and sharded runs (the process executor inherits
    the installed clock via fork), so full-snapshot JSON equality — not
    just digest equality — is the right assertion.
    """

    @staticmethod
    def serial_profile(db, config):
        with clock_scope(ManualClock()):
            with obs_costmodel.use_collector() as collector:
                PTPMiner.from_config(config).mine(db)
        return collector.snapshot()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_sharded_profile_is_bit_for_bit_serial(
        self, tiny_db, workers, executor
    ):
        config = MinerConfig(min_sup=0.3)
        serial = self.serial_profile(tiny_db, config)
        with clock_scope(ManualClock()):
            with obs_costmodel.use_collector() as collector:
                mine_sharded(
                    tiny_db, config, workers=workers, executor=executor
                )
        assert json.dumps(
            collector.snapshot(), sort_keys=True
        ) == json.dumps(serial, sort_keys=True)

    def test_profile_digest_matches_serial_with_real_clock(self, tiny_db):
        # Without a frozen clock wall times differ, but the digest
        # excludes them: same search space, same digest.
        config = MinerConfig(min_sup=0.3)
        with obs_costmodel.use_collector() as serial_collector:
            PTPMiner.from_config(config).mine(tiny_db)
        with obs_costmodel.use_collector() as sharded_collector:
            mine_sharded(tiny_db, config, workers=3, executor="serial")
        assert obs_costmodel.profile_digest(
            sharded_collector.snapshot()
        ) == obs_costmodel.profile_digest(serial_collector.snapshot())

    def test_no_collector_means_no_shipped_cost(self, tiny_db):
        # The disabled path ships empty cost dicts and installs nothing.
        assert obs_costmodel.active_collector() is None
        result = mine_sharded(
            tiny_db, MinerConfig(min_sup=0.3), workers=2, executor="serial"
        )
        assert result.patterns
        assert obs_costmodel.active_collector() is None


class TestProvenanceMerge:
    """Merged provenance must be bit-for-bit identical to a serial run's.

    Every pattern and every candidate node lives in exactly one shard
    (the parent records the root-level decisions once in ``plan_root``),
    so the merged snapshot is a keyed union over disjoint keys — equal
    as JSON for any worker count, executor, and arrival order.
    """

    @staticmethod
    def serial_snapshot(db, config):
        with obs_provenance.use_collector() as collector:
            PTPMiner.from_config(config).mine(db)
        return collector.snapshot()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_sharded_provenance_is_bit_for_bit_serial(
        self, tiny_db, workers, executor
    ):
        config = MinerConfig(min_sup=0.3)
        serial = self.serial_snapshot(tiny_db, config)
        with obs_provenance.use_collector() as collector:
            mine_sharded(
                tiny_db, config, workers=workers, executor=executor
            )
        assert json.dumps(
            collector.snapshot(), sort_keys=True
        ) == json.dumps(serial, sort_keys=True)

    def test_constrained_config_still_merges_identically(self, hybrid_db):
        # max_span/max_size kills and htp point handling land in worker
        # shards; the merge must still reproduce the serial snapshot.
        config = MinerConfig(
            min_sup=0.2, mode="htp", max_span=8.0, max_size=3
        )
        serial = self.serial_snapshot(hybrid_db, config)
        with obs_provenance.use_collector() as collector:
            mine_sharded(hybrid_db, config, workers=3, executor="serial")
        assert json.dumps(
            collector.snapshot(), sort_keys=True
        ) == json.dumps(serial, sort_keys=True)

    def test_no_collector_means_no_shipped_provenance(self, tiny_db):
        assert obs_provenance.active_collector() is None
        result = mine_sharded(
            tiny_db, MinerConfig(min_sup=0.3), workers=2, executor="serial"
        )
        assert result.patterns
        assert obs_provenance.active_collector() is None


class TestShardedMiner:
    def test_satisfies_miner_protocol(self):
        from repro.miners import Miner

        miner = ShardedMiner(min_sup=0.3, workers=2)
        assert isinstance(miner, Miner)
        assert miner.config.min_sup == 0.3

    def test_mine_matches_ptpminer(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = ShardedMiner.from_config(config, workers=2,
                                           executor="serial").mine(tiny_db)
        assert_identical(sharded, serial)

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            ShardedMiner(config=MinerConfig(min_sup=0.3), mode="htp")

    def test_rejects_bad_workers_and_executor(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedMiner(min_sup=0.3, workers=0)
        with pytest.raises(ValueError, match="executor"):
            ShardedMiner(min_sup=0.3, executor="greenlets")


class TestMineConvenience:
    def test_workers_routes_through_engine(self, tiny_db):
        serial = mine(tiny_db, 0.3)
        parallel = mine(tiny_db, 0.3, workers=2)
        assert parallel.patterns == serial.patterns
        assert parallel.counters == serial.counters
        assert parallel.params["workers"] == 2

    def test_config_object_accepted(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        assert mine(tiny_db, config=config).patterns == mine(
            tiny_db, 0.3
        ).patterns

    def test_config_and_kwargs_are_exclusive(self, tiny_db):
        with pytest.raises(TypeError, match="not both"):
            mine(tiny_db, 0.3, config=MinerConfig(min_sup=0.3))

    def test_unknown_kwarg_fails_eagerly(self, tiny_db):
        with pytest.raises(TypeError, match="min_supp"):
            mine(tiny_db, min_supp=0.3)


class TestProgressHeartbeat:
    """A sharded run ends with one ``[done]`` heartbeat of merged totals.

    Shard searches never tick the parent's reporter (on either
    executor), and no search finishes it: the run does, once.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_final_event_carries_merged_counters(
        self, hybrid_db, workers, executor
    ):
        events = []
        reporter = obs_progress.ProgressReporter(events.append)
        with obs_progress.use_reporter(reporter):
            result = mine_sharded(
                hybrid_db,
                MinerConfig(min_sup=0.2, mode="htp"),
                workers=workers,
                executor=executor,
            )
        final = [event for event in events if event.final]
        assert len(final) == 1
        counters = result.counters
        assert (
            final[0].nodes,
            final[0].patterns,
            final[0].candidates,
            final[0].pruned,
        ) == (
            counters.nodes_expanded,
            counters.patterns_emitted,
            counters.candidates_considered,
            counters.pruned_pair,
        )
        assert counters.nodes_expanded > 1


class TestProcessExecutorIsolation:
    def test_worker_obs_does_not_leak_into_parent_files(self, tiny_db):
        """Process workers ship obs home instead of writing anywhere."""
        with obs_metrics.use_registry() as registry:
            result = mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.4),
                workers=2,
                executor="process",
            )
        snapshot = registry.snapshot()
        assert any(
            key.startswith("shard.") for key in snapshot["counters"]
        )
        assert result.params["executor"] == "process"


class TestLiveMode:
    """Streaming telemetry must observe the run without changing it."""

    @staticmethod
    def silent(**config):
        return obs_live.LiveCollector(
            obs_live.LiveConfig(render=False, **config)
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_live_result_is_bit_for_bit_identical(self, tiny_db, executor):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        with obs.observe(live=self.silent()):
            sharded = mine_sharded(
                tiny_db, config, workers=2, executor=executor
            )
        assert_identical(sharded, serial)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_collector_summary_covers_every_root(self, tiny_db, executor):
        with obs.observe(live=self.silent()) as handles:
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.3),
                workers=2,
                executor=executor,
            )
        summary = handles.live.summary
        assert summary is not None
        assert summary["roots_done"] == summary["roots_total"] > 0
        assert summary["frames"] >= len(summary["shards"]) == 2
        assert all(lane["final"] for lane in summary["shards"].values())

    @pytest.mark.parametrize(
        ("executor", "workers"),
        [("serial", 1), ("serial", 2), ("serial", 3), ("process", 2)],
    )
    def test_frames_count_every_root_candidate(
        self, tiny_db, tmp_path, executor, workers
    ):
        """Roots the support check kills count as done, like expanded
        ones: with point pruning off, infrequent roots reach the shards."""
        config = MinerConfig(min_sup=0.3, pruning=PruningConfig(point=False))
        threshold = float(tiny_db.absolute_support(config.min_sup))
        _db, _counters, root = PTPMiner.from_config(config).plan_root(
            tiny_db, [1.0] * len(tiny_db), threshold
        )
        assert any(weight < threshold for weight, _sids in root.values())
        tasks = plan_shards(root, config, threshold, workers)
        log = tmp_path / "frames.jsonl"
        with obs.observe(live=self.silent(interval_s=0, log_path=str(log))):
            result = mine_sharded(
                tiny_db, config, workers=workers, executor=executor
            )
        frames = obs_live.read_live_log(log)
        finals = []
        for task in tasks:
            lane = [frame for frame in frames if frame.shard == task.shard]
            total = len(task.candidates)
            assert [f.roots_done for f in lane if not f.final] == list(
                range(1, total + 1)
            )
            (final,) = [f for f in lane if f.final]
            assert final.roots_done == final.roots_total == total
            finals.append(final)
        assert sum(f.patterns for f in finals) == len(result.patterns)

    def test_scoped_collector_is_picked_up_by_default(self, tiny_db):
        config = obs_live.LiveConfig(render=False)
        with obs_live.use_live(config) as collector:
            mine_sharded(
                tiny_db, MinerConfig(min_sup=0.3), workers=2,
                executor="serial",
            )
        assert collector.summary is not None
        assert collector.summary["roots_done"] > 0

    def test_live_false_overrides_installed_scope(self, tiny_db):
        with obs.observe(live=self.silent()) as outer:
            with obs.observe(live=False):
                mine_sharded(
                    tiny_db, MinerConfig(min_sup=0.3), workers=2,
                    executor="serial",
                )
        assert outer.live.summary is None

    def test_rendered_progress_is_monotonic(self, tiny_db):
        stream = io.StringIO()
        config = obs_live.LiveConfig(interval_s=0.0, stream=stream)
        with obs.observe(live=obs_live.LiveCollector(config)):
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.3),
                workers=3,
                executor="serial",
            )
        lines = [
            line for line in stream.getvalue().splitlines()
            if line.startswith("[live] roots ")
        ]
        assert lines, stream.getvalue()
        done = [int(line.split()[2].split("/")[0]) for line in lines]
        assert done == sorted(done)
        assert "eta" in lines[-1]

    def test_shard_elapsed_gauges_recorded(self, tiny_db):
        with obs.observe(metrics=True, live=self.silent()) as handles:
            mine_sharded(
                tiny_db,
                MinerConfig(min_sup=0.3),
                workers=2,
                executor="serial",
            )
        gauges = handles.registry.snapshot()["gauges"]
        assert "engine.shard_elapsed_s[shard=0]" in gauges
        assert "engine.shard_elapsed_s[shard=1]" in gauges

    def test_sharded_miner_threads_live_through(self, tiny_db):
        miner = ShardedMiner(min_sup=0.3, workers=2, executor="serial")
        with obs.observe(live=self.silent()) as handles:
            result = miner.mine(tiny_db)
        assert handles.live.summary is not None
        assert result.patterns == PTPMiner(min_sup=0.3).mine(tiny_db).patterns


#: The engine's own shard runner; the fault-injection tests patch it.
_real_run_shard = engine._run_shard
#: Where shard 0 marks itself finished (set per test).
_shard_0_done = None


def _raise_in_shard_1(task):
    if task.shard == 1:
        raise ValueError("boom")
    return _real_run_shard(task)


def _exit_in_shard_1(task):
    """Kill shard 1's worker once shard 0's result is on its way home."""
    if task.shard != 1:
        result = _real_run_shard(task)
        _shard_0_done.touch()
        return result
    deadline = time.monotonic() + 60
    while not _shard_0_done.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)
    os._exit(1)


class TestShardFailures:
    """A failing shard fails the run with an error naming it and its
    roots, on either executor, never a partial result."""

    @staticmethod
    def shard_1_roots(db, config):
        threshold = float(db.absolute_support(config.min_sup))
        mining_db, _counters, root = PTPMiner.from_config(config).plan_root(
            db, [1.0] * len(db), threshold
        )
        task = plan_shards(root, config, threshold, 2)[1]
        labels = sorted(mining_db.alphabet)
        return [_candidate_name(cand, labels) for cand, _ in task.candidates]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_raising_shard_is_named(self, tiny_db, monkeypatch, executor):
        config = MinerConfig(min_sup=0.3)
        monkeypatch.setattr(engine, "_run_shard", _raise_in_shard_1)
        with pytest.raises(RuntimeError, match="shard 1 ") as info:
            mine_sharded(tiny_db, config, workers=2, executor=executor)
        message = str(info.value)
        assert "ValueError: boom" in message
        assert all(
            name in message for name in self.shard_1_roots(tiny_db, config)
        )
        assert isinstance(info.value.__cause__, ValueError)

    def test_killed_worker_is_named(self, tiny_db, monkeypatch, tmp_path):
        config = MinerConfig(min_sup=0.3)
        monkeypatch.setattr(engine, "_run_shard", _exit_in_shard_1)
        monkeypatch.setattr(
            f"{__name__}._shard_0_done", tmp_path / "shard0.done"
        )
        with pytest.raises(RuntimeError, match="shard 1 ") as info:
            mine_sharded(tiny_db, config, workers=2, executor="process")
        message = str(info.value)
        assert "BrokenProcessPool" in message
        assert all(
            name in message for name in self.shard_1_roots(tiny_db, config)
        )


class TestPredictedStrategy:
    """`shard_strategy` is an execution knob: any deal, same bits.

    The predicted (LPT) deal consumes forecasts from
    :mod:`repro.obs.planner`; a wrong — or absent, or adversarial —
    forecast may cost wall time but never changes the merged result,
    counters, or observability snapshots.
    """

    @staticmethod
    def build_plan(db, config, workers):
        from repro.obs import planner

        return planner.build_plan(db, config, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_predicted_matches_serial_and_roundrobin(
        self, tiny_db, workers, executor
    ):
        config = MinerConfig(min_sup=0.3)
        plan = self.build_plan(tiny_db, config, workers)
        # No ledger history: this exercises the static fallback
        # predictor end to end.
        assert plan["predictor"]["source"] == "static"
        serial = PTPMiner.from_config(config).mine(tiny_db)
        roundrobin = mine_sharded(
            tiny_db, config, workers=workers, executor=executor
        )
        predicted = mine_sharded(
            tiny_db, config, workers=workers, executor=executor,
            shard_strategy="predicted", plan=plan,
        )
        assert_identical(predicted, serial)
        assert_identical(roundrobin, serial)
        assert predicted.params["shard_strategy"] == "predicted"

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_predicted_without_plan_uses_static_proxy(
        self, tiny_db, executor
    ):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        predicted = mine_sharded(
            tiny_db, config, workers=3, executor=executor,
            shard_strategy="predicted",
        )
        assert_identical(predicted, serial)

    def test_snapshots_bit_for_bit_under_predicted(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        plan = self.build_plan(tiny_db, config, 3)
        with clock_scope(ManualClock()):
            with obs_costmodel.use_collector() as serial_cost:
                with obs_provenance.use_collector() as serial_prov:
                    PTPMiner.from_config(config).mine(tiny_db)
            with obs_costmodel.use_collector() as cost:
                with obs_provenance.use_collector() as prov:
                    mine_sharded(
                        tiny_db, config, workers=3, executor="serial",
                        shard_strategy="predicted", plan=plan,
                    )
        assert json.dumps(cost.snapshot(), sort_keys=True) == json.dumps(
            serial_cost.snapshot(), sort_keys=True
        )
        assert json.dumps(prov.snapshot(), sort_keys=True) == json.dumps(
            serial_prov.snapshot(), sort_keys=True
        )

    def test_all_zero_forecasts_keep_no_empty_shards(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        plan = self.build_plan(tiny_db, config, 3)
        for entry in plan["roots"].values():
            entry["predicted_cost"] = 0.0
        serial = PTPMiner.from_config(config).mine(tiny_db)
        predicted = mine_sharded(
            tiny_db, config, workers=3, executor="serial",
            shard_strategy="predicted", plan=plan,
        )
        assert_identical(predicted, serial)

    def test_rejects_unknown_strategy(self, tiny_db):
        with pytest.raises(ValueError, match="shard_strategy"):
            mine_sharded(
                tiny_db, MinerConfig(min_sup=0.3), workers=2,
                executor="serial", shard_strategy="zigzag",
            )
        with pytest.raises(ValueError, match="shard_strategy"):
            ShardedMiner(
                min_sup=0.3, workers=2, shard_strategy="zigzag"
            )

    def test_sharded_miner_threads_strategy_through(self, tiny_db):
        config = MinerConfig(min_sup=0.3)
        plan = self.build_plan(tiny_db, config, 2)
        miner = ShardedMiner.from_config(
            config, workers=2, executor="serial",
            shard_strategy="predicted", plan=plan,
        )
        result = miner.mine(tiny_db)
        assert result.params["shard_strategy"] == "predicted"
        assert result.patterns == PTPMiner.from_config(config).mine(
            tiny_db
        ).patterns


class TestPredictedStrategyProperty:
    """Hypothesis: identity holds for *any* forecast whatsoever."""

    def test_arbitrary_forecasts_never_change_results(self, tiny_db):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        base_plan = TestPredictedStrategy.build_plan(tiny_db, config, 4)
        names = sorted(base_plan["roots"])

        @settings(max_examples=12, deadline=None)
        @given(
            workers=st.integers(1, 4),
            executor=st.sampled_from(sorted(EXECUTORS)),
            costs=st.lists(
                st.floats(
                    min_value=-1.0,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=len(names),
                max_size=len(names),
            ),
            drop=st.sets(st.sampled_from(names)) if names else st.none(),
        )
        def check(workers, executor, costs, drop):
            plan = json.loads(json.dumps(base_plan))
            for name, cost in zip(names, costs):
                plan["roots"][name]["predicted_cost"] = cost
            for name in drop or ():
                del plan["roots"][name]  # unforecast root -> proxy path
            predicted = mine_sharded(
                tiny_db, config, workers=workers, executor=executor,
                shard_strategy="predicted", plan=plan,
            )
            assert_identical(predicted, serial)

        check()
