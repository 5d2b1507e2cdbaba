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
import subprocess
import sys
import time

import pytest

from repro import engine, obs
from repro.core.config import MinerConfig, PruningConfig
from repro.core.counting import PairTables
from repro.core.ptpminer import PTPMiner, mine
from repro.datagen import standard_dataset
from repro.datagen.synthetic import SyntheticConfig, SyntheticGenerator
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
from repro.obs import trace as obs_trace
from repro.obs.clock import ManualClock, clock_scope
from repro.temporal.endpoint import EncodedDatabase


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

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("executor", ["auto", "process"])
    def test_auto_and_process_executors_match_sequential(
        self, tiny_db, executor, workers
    ):
        config = MinerConfig(min_sup=0.3)
        serial = PTPMiner.from_config(config).mine(tiny_db)
        sharded = mine_sharded(
            tiny_db, config, workers=workers, executor=executor
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

    def test_ties_break_on_the_candidate_tuple(self):
        # Three roots of equal support x supporters, heaviest-first in
        # candidate order: the point event A. precedes A+, and each
        # shard lists its roots in canonical order.
        db = ESequenceDatabase.from_event_lists(
            [[(0, 4, "A"), (5, 5, "A"), (6, 9, "B")]] * 2
        )
        config = MinerConfig(min_sup=1.0, mode="htp")
        mining_db, _counters, root = PTPMiner.from_config(config).plan_root(
            db, [1.0, 1.0], 1.0
        )
        labels = sorted(mining_db.alphabet)
        tasks = plan_shards(root, config, 1.0, 2)
        assert [
            [_candidate_name(cand, labels) for cand, _ in task.candidates]
            for task in tasks
        ] == [["A.", "B+"], ["A+"]]
        assert all(
            list(task.candidates) == sorted(task.candidates)
            for task in tasks
        )
        assert tasks == plan_shards(root, config, 1.0, 2)

    def test_lpt_balances_exact_states_on_skewed_input(self):
        # Each shard's load is the exact states_created of its roots,
        # from a serial cost profile. The LPT deal gives max/mean 1.110
        # at 2 shards and 1.340 at 3 ([15087, 8260, 10420]); a
        # round-robin deal in candidate order gives 1.224 and 2.166.
        db = SyntheticGenerator(
            SyntheticConfig(
                num_sequences=300, num_labels=12, seed=7, label_skew=1.2
            )
        ).generate()
        config = MinerConfig(min_sup=0.1)
        with obs_costmodel.use_collector() as collector:
            PTPMiner.from_config(config).mine(db)
        states = {
            name: row["states_created"]
            for name, row in collector.snapshot()["roots"].items()
        }
        threshold = float(db.absolute_support(config.min_sup))
        mining_db, _counters, root = PTPMiner.from_config(config).plan_root(
            db, [1.0] * len(db), threshold
        )
        labels = sorted(mining_db.alphabet)

        def max_over_mean(num_shards):
            loads = [
                sum(
                    states[_candidate_name(cand, labels)]
                    for cand, _ in task.candidates
                )
                for task in plan_shards(root, config, threshold, num_shards)
            ]
            assert len(loads) == num_shards
            return max(loads) / (sum(loads) / len(loads))

        assert max_over_mean(2) <= 1.12
        assert max_over_mean(3) <= 1.35


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
    """The run heartbeat (``--live``, alias ``--progress``) ends on one
    line of merged totals, never printed twice, on either executor."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_final_event_carries_merged_counters(
        self, hybrid_db, workers, executor
    ):
        stream = io.StringIO()
        live = obs_live.LiveCollector(
            obs_live.LiveConfig(interval_s=0.0, stream=stream)
        )
        with obs.observe(live=live):
            result = mine_sharded(
                hybrid_db,
                MinerConfig(min_sup=0.2, mode="htp"),
                workers=workers,
                executor=executor,
            )
        lines = [
            line for line in stream.getvalue().splitlines()
            if line.startswith("[live] roots ")
        ]
        total = live.summary["roots_total"]
        assert total > 1
        assert lines[-1].startswith(f"[live] roots {total}/{total} (100%)")
        assert f"patterns={result.counters.patterns_emitted} " in lines[-1]
        assert lines.count(lines[-1]) == 1


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


#: Mines a hybrid htp database serially and on a spawn-started pool, and
#: checks that both give the same patterns, counters and provenance.
#: Spawn pickles the pool initializer's payload; fork, Linux's default
#: before Python 3.14, never does.
_SPAWN_SCRIPT = """
import json
import multiprocessing

from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen import standard_dataset
from repro.engine import mine_sharded
from repro.obs import provenance as obs_provenance


def mine(db, config, workers):
    with obs_provenance.use_collector() as collector:
        if workers == 1:
            result = PTPMiner.from_config(config).mine(db)
        else:
            result = mine_sharded(
                db, config, workers=workers, executor="process"
            )
    return result, json.dumps(collector.snapshot(), sort_keys=True)


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    db = standard_dataset("hybrid", num_sequences=200)
    config = MinerConfig(min_sup=0.1, mode="htp")
    serial, serial_provenance = mine(db, config, 1)
    spawned, spawned_provenance = mine(db, config, 2)
    assert serial.patterns, "the comparison is vacuous"
    assert spawned.params["shards"] == 2
    assert spawned.patterns == serial.patterns
    assert spawned.counters == serial.counters
    assert spawned_provenance == serial_provenance
    print(multiprocessing.get_start_method(), len(spawned.patterns))
"""


def _src_env():
    """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src if not path else os.pathsep.join([src, path]),
    }


class TestSharedEncoding:
    """Every shard searches the parent's one encoding and pair tables."""

    @staticmethod
    def count_builds(monkeypatch):
        """Constructions of each class, counted from now on."""
        built = {EncodedDatabase.__name__: 0, PairTables.__name__: 0}
        for cls in (EncodedDatabase, PairTables):

            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        return built

    def test_one_encoding_per_run(self, tiny_db, monkeypatch):
        built = self.count_builds(monkeypatch)
        result = mine_sharded(
            tiny_db, MinerConfig(min_sup=0.3), workers=3, executor="serial"
        )
        assert result.params["shards"] == 3
        assert built == {"EncodedDatabase": 1, "PairTables": 1}

    def test_spawned_workers_match_serial(self, tmp_path):
        script = tmp_path / "spawn_mine.py"
        script.write_text(_SPAWN_SCRIPT)
        # The timeout matters: spawned workers that cannot import the
        # script's __main__ leave the pool waiting forever.
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_src_env(),
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        method, patterns = completed.stdout.split()
        assert method == "spawn"
        assert int(patterns) > 0


class TestWorkerPlacement:
    """Each pool worker moves onto a CPU of the parent's allowed set,
    shard ``i`` onto the ``i``-th in turn, and gets the set back."""

    @staticmethod
    def fake_affinity(monkeypatch, tmp_path, allowed):
        """Patch both affinity calls; forked workers inherit the patch
        and log each set call to a file, one JSON list per line."""
        log = tmp_path / "affinity.jsonl"

        def record(pid, cpus):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(sorted(cpus)) + "\n")

        monkeypatch.setattr(
            engine.os, "sched_getaffinity", lambda pid: set(allowed)
        )
        monkeypatch.setattr(engine.os, "sched_setaffinity", record)
        return log

    @pytest.mark.parametrize("workers", [2, 3])
    def test_shards_take_the_allowed_cpus_in_turn(
        self, tiny_db, tmp_path, monkeypatch, workers
    ):
        log = self.fake_affinity(monkeypatch, tmp_path, {4, 6})
        config = MinerConfig(min_sup=0.3)
        result = mine_sharded(
            tiny_db, config, workers=workers, executor="process"
        )
        assert result.patterns == PTPMiner.from_config(config).mine(
            tiny_db
        ).patterns
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        pinned = sorted(cpus[0] for cpus in calls if len(cpus) == 1)
        assert pinned == sorted([4, 6, 4][:workers])
        assert [cpus for cpus in calls if len(cpus) > 1] == [[4, 6]] * workers

    def test_serial_executor_stays_put(self, tiny_db, tmp_path, monkeypatch):
        log = self.fake_affinity(monkeypatch, tmp_path, {4, 6})
        mine_sharded(
            tiny_db, MinerConfig(min_sup=0.3), workers=2, executor="serial"
        )
        assert not log.exists()

    def test_no_placement_on_one_cpu_or_without_the_call(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {3})
        assert engine._worker_cpus() == ()
        monkeypatch.setattr(
            engine.os, "sched_getaffinity", lambda pid: {3, 1}
        )
        assert engine._worker_cpus() == (1, 3)
        monkeypatch.delattr(engine.os, "sched_setaffinity")
        assert engine._worker_cpus() == ()


#: Mines ``tiny`` on two process workers, started by ``argv[1]``, with
#: the live bus logging every frame the parent's aggregator receives to
#: ``argv[2]``; prints the start method once the aggregator has every
#: shard's final frame.
_LIVE_SCRIPT = """
import multiprocessing
import sys

from repro import obs
from repro.core.config import MinerConfig, PruningConfig
from repro.datagen import standard_dataset
from repro.engine import mine_sharded
from repro.obs import live

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    collector = live.LiveCollector(
        live.LiveConfig(interval_s=0, render=False, log_path=sys.argv[2])
    )
    config = MinerConfig(min_sup=0.3, pruning=PruningConfig(point=False))
    with obs.observe(live=collector):
        mine_sharded(
            standard_dataset("tiny"), config, workers=2, executor="process"
        )
    summary = collector.summary
    assert summary["roots_done"] == summary["roots_total"] > 0, summary
    assert all(lane["final"] for lane in summary["shards"].values()), summary
    print(multiprocessing.get_start_method())
"""


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
        ones: with point pruning off, infrequent roots reach the shards.
        A lane's last root arrives in its final frame only, so no lane
        ends on two complete frames."""
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
                range(1, total)
            )
            (final,) = [f for f in lane if f.final]
            assert final.roots_done == final.roots_total == total
            finals.append(final)
        assert sum(f.patterns for f in finals) == len(result.patterns)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_every_final_frame_reaches_the_aggregator(
        self, tiny_db, tmp_path, method
    ):
        """Frames travel on a plain queue from the pool's context; the
        parent drains it again after the pool has shut down, so no
        shard's final frame is left in a worker's feeder thread."""
        config = MinerConfig(min_sup=0.3, pruning=PruningConfig(point=False))
        threshold = float(tiny_db.absolute_support(config.min_sup))
        _db, _counters, root = PTPMiner.from_config(config).plan_root(
            tiny_db, [1.0] * len(tiny_db), threshold
        )
        tasks = plan_shards(root, config, threshold, 2)
        script = tmp_path / "live_mine.py"
        script.write_text(_LIVE_SCRIPT)
        log = tmp_path / "frames.jsonl"
        completed = subprocess.run(
            [sys.executable, str(script), method, str(log)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_src_env(),
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.split() == [method]
        frames = obs_live.read_live_log(log)
        for task in tasks:
            (final,) = [
                frame for frame in frames
                if frame.shard == task.shard and frame.final
            ]
            assert final.roots_done == final.roots_total == len(
                task.candidates
            )

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
