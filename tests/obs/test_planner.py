"""Tests for predictive shard planning (`repro.obs.planner`).

The load-bearing properties: the profiler's canonical root order
reproduces the engine's round-robin deal exactly, LPT never predicts
worse balance than round-robin on the same forecasts, the predictor
switches from static scores to ledger history (and documents it), and
the calibration record is exact on a perfect forecast.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import MinerConfig
from repro.datagen.synthetic import SyntheticConfig, SyntheticGenerator
from repro.engine import plan_shards, _candidate_name
from repro.model.database import ESequenceDatabase
from repro.obs import planner
from repro.obs.ledger import RunLedger, build_entry, dataset_digest
from repro.obs.live import imbalance


def skewed_db(seed=7, *, num_sequences=30, num_labels=6):
    return SyntheticGenerator(
        SyntheticConfig(
            num_sequences=num_sequences,
            num_labels=num_labels,
            seed=seed,
            label_skew=2.0,
        )
    ).generate()


CONFIG = MinerConfig(min_sup=0.3)


def cost_snapshot_from(plan, *, exact=True):
    """A realized cost profile; ``exact`` reproduces the forecast."""
    roots = {}
    for index, (name, entry) in enumerate(sorted(plan["roots"].items())):
        wall = (
            entry["predicted_cost"] if exact else float(index + 1)
        )
        roots[name] = {"wall_s": wall, "states_created": index + 1}
    return {"schema": 1, "kind": "repro-cost", "roots": roots,
            "levels": {}}


class TestProfiler:
    def test_profile_shape_and_static_score(self):
        db = skewed_db()
        profile = planner.profile_workload(db, CONFIG)
        assert profile["kind"] == "repro-plan-profile"
        assert profile["schema"] == planner.PLAN_SCHEMA_VERSION
        assert profile["roots"]
        for entry in profile["roots"].values():
            assert entry["static_score"] == pytest.approx(
                entry["projected_tokens"] * (1 + entry["pair_degree"])
            )
            assert entry["supporters"] >= 1
            assert entry["support"] > 0
        dataset = profile["dataset"]
        assert dataset["sequences"] == len(db)
        assert dataset["seq_tokens"]["min"] <= dataset["seq_tokens"]["max"]
        assert 0 <= dataset["pair_density"]["s_density"] <= 1

    def test_orders_are_contiguous_and_unique(self):
        profile = planner.profile_workload(skewed_db(), CONFIG)
        orders = sorted(
            entry["order"] for entry in profile["roots"].values()
        )
        assert orders == list(range(len(profile["roots"])))

    def test_profile_matches_engine_candidate_names(self):
        # The names the profiler forecasts against are exactly the
        # names the engine resolves when consuming the plan.
        from repro.core.ptpminer import PTPMiner

        db = skewed_db()
        miner = PTPMiner.from_config(CONFIG)
        threshold = db.absolute_support(CONFIG.min_sup)
        mining_db, _counters, root = miner.plan_root(
            db, [1.0] * len(db), threshold
        )
        labels = tuple(sorted(mining_db.alphabet))
        engine_names = {
            _candidate_name(cand, labels) for cand in root
        }
        profile = planner.profile_workload(db, CONFIG)
        assert set(profile["roots"]) == engine_names


class TestPredictor:
    def test_static_fallback_without_history(self):
        profile = planner.profile_workload(skewed_db(), CONFIG)
        costs, predictor = planner.predict_costs(profile)
        assert predictor == {
            "source": "static", "history_runs": 0, "scale": None,
        }
        for name, entry in profile["roots"].items():
            assert costs[name] == pytest.approx(entry["static_score"])

    def test_history_means_and_scaled_fallback(self):
        profile = {
            "roots": {
                "A+": {"static_score": 100.0},
                "B+": {"static_score": 50.0},
                "C+": {"static_score": 10.0},
            }
        }
        history = [{"A+": 2.0, "B+": 1.0}, {"A+": 4.0, "B+": 1.0}]
        costs, predictor = planner.predict_costs(profile, history)
        assert predictor["source"] == "ledger"
        assert predictor["history_runs"] == 2
        assert costs["A+"] == pytest.approx(3.0)
        assert costs["B+"] == pytest.approx(1.0)
        # C+ was never observed: static score rescaled onto the
        # history's cost scale (hist mass 4 / static mass 150).
        scale = predictor["scale"]
        assert scale == pytest.approx(4.0 / 150.0)
        assert costs["C+"] == pytest.approx(10.0 * scale)

    def test_history_root_costs_filters_by_config(self, tmp_path):
        db = skewed_db()
        digest = dataset_digest(db)
        ledger = RunLedger(tmp_path)
        snapshot = {
            "schema": 1, "kind": "repro-cost",
            "roots": {"A+": {"wall_s": 1.5}}, "levels": {},
        }

        def entry(**overrides):
            params = dict(
                dataset_digest=digest, miner="ptpminer",
                min_sup=0.3, mode="tp", wall_s=1.0, patterns=3,
                counters={}, cost_snapshot=snapshot,
            )
            params.update(overrides)
            return build_entry(**params)

        ledger.append(entry())
        ledger.append(entry(min_sup=0.5))          # other threshold
        ledger.append(entry(dataset_digest="xx"))  # other dataset
        ledger.append(entry(cost_snapshot=None))   # no cost map
        matched = planner.history_root_costs(
            str(tmp_path), dataset_digest=digest, miner="ptpminer",
            min_sup=0.3, mode="tp",
        )
        assert matched == [{"A+": 1.5}]

    def test_build_plan_switches_to_ledger_source(self, tmp_path):
        db = skewed_db()
        static_plan = planner.build_plan(db, CONFIG, workers=3)
        assert static_plan["predictor"]["source"] == "static"
        snapshot = cost_snapshot_from(static_plan, exact=False)
        RunLedger(tmp_path).append(
            build_entry(
                dataset_digest=dataset_digest(db), miner="ptpminer",
                min_sup=CONFIG.min_sup, mode=CONFIG.mode, wall_s=1.0,
                patterns=3, counters={}, cost_snapshot=snapshot,
            )
        )
        calibrated = planner.build_plan(
            db, CONFIG, workers=3, ledger_dir=str(tmp_path)
        )
        assert calibrated["predictor"]["source"] == "ledger"
        assert calibrated["predictor"]["history_runs"] == 1


def plan_with_costs(db, config, costs, ledger_dir, *, workers):
    """A plan whose forecasts are ``costs``, via one ledger entry."""
    RunLedger(ledger_dir).append(
        build_entry(
            dataset_digest=dataset_digest(db), miner="ptpminer",
            min_sup=config.min_sup, mode=config.mode, wall_s=1.0,
            patterns=1, counters={},
            cost_snapshot={
                "schema": 1, "kind": "repro-cost", "levels": {},
                "roots": {
                    name: {"wall_s": cost} for name, cost in costs.items()
                },
            },
        )
    )
    return planner.build_plan(
        db, config, workers=workers, ledger_dir=str(ledger_dir)
    )


def engine_deal(db, config, plan, strategy):
    """The shard lists the engine runs for ``plan``, by root name."""
    from repro.core.ptpminer import PTPMiner

    threshold = db.absolute_support(config.min_sup)
    mining_db, _counters, root = PTPMiner.from_config(config).plan_root(
        db, [1.0] * len(db), threshold
    )
    labels = tuple(sorted(mining_db.alphabet))
    tasks = plan_shards(
        root, config, threshold, plan["config"]["workers"],
        strategy=strategy,
        costs={
            name: entry["predicted_cost"]
            for name, entry in plan["roots"].items()
        },
        labels=labels,
    )
    return [
        [_candidate_name(cand, labels) for cand, _ in task.candidates]
        for task in tasks
    ]


class TestAssignment:
    def test_lpt_beats_roundrobin_on_skew(self, tmp_path):
        db = skewed_db()
        roots = planner.profile_workload(db, CONFIG)["roots"]
        names = sorted(roots, key=lambda name: roots[name]["order"])
        # One heavy root first in canonical order: round-robin deals the
        # fourth root onto its shard too, LPT leaves it alone.
        costs = {name: 10.0 - index * 0.5 for index, name in enumerate(names)}
        costs[names[0]] = 100.0
        plan = plan_with_costs(db, CONFIG, costs, tmp_path, workers=3)
        lpt = plan["assignments"]["predicted"]
        rr = plan["assignments"]["roundrobin"]
        assert lpt["predicted_imbalance"] < rr["predicted_imbalance"]
        # Every root assigned exactly once, no empty shard.
        assert sorted(n for s in lpt["shards"] for n in s) == sorted(names)
        assert all(lpt["shards"])

    def test_lpt_is_deterministic_and_caps_shards(self):
        db = skewed_db()
        roots = planner.profile_workload(db, CONFIG)["roots"]
        workers = len(roots) + 5
        plan = planner.build_plan(db, CONFIG, workers=workers)
        assert plan == planner.build_plan(db, CONFIG, workers=workers)
        for entry in plan["assignments"].values():
            assert len(entry["shards"]) == len(roots)
            assert all(len(shard) == 1 for shard in entry["shards"])

    def test_roundrobin_matches_engine_deal(self):
        # Both of the plan's deals are the engine's actual deals, shard
        # for shard.
        db = skewed_db()
        plan = planner.build_plan(db, CONFIG, workers=3)
        for strategy in ("roundrobin", "predicted"):
            assert plan["assignments"][strategy]["shards"] == engine_deal(
                db, CONFIG, plan, strategy
            )

    def test_tied_forecasts_show_the_engine_deal(self, tmp_path):
        # Three roots with equal forecasts: the engine breaks the tie on
        # the candidate tuple, so the point event A. precedes A+.
        db = ESequenceDatabase.from_event_lists(
            [[(0, 4, "A"), (5, 5, "A"), (6, 9, "B")]] * 2
        )
        config = MinerConfig(min_sup=1.0, mode="htp")
        plan = plan_with_costs(
            db, config, {"A.": 1.0, "A+": 1.0, "B+": 1.0}, tmp_path,
            workers=2,
        )
        shards = plan["assignments"]["predicted"]["shards"]
        assert shards == [["A.", "B+"], ["A+"]]
        assert shards == engine_deal(db, config, plan, "predicted")

    def test_imbalance_semantics(self):
        assert imbalance([]) is None
        assert imbalance([5.0]) is None
        assert imbalance([5.0, 0.0]) is None
        assert imbalance([3.0, 1.0]) == pytest.approx(1.5)


class TestPlanReport:
    def test_plan_shape_and_markdown(self):
        plan = planner.build_plan(skewed_db(), CONFIG, workers=3)
        assert plan["kind"] == "repro-plan"
        assert plan["schema"] == planner.PLAN_SCHEMA_VERSION
        assert set(plan["assignments"]) == {"roundrobin", "predicted"}
        for entry in plan["assignments"].values():
            assert len(entry["shards"]) == len(entry["predicted_loads"])
        text = planner.render_plan_markdown(plan)
        assert "# Shard plan" in text
        assert "## Predicted heaviest roots" in text
        assert "## Assignments" in text
        assert "Recommendation:" in text

    def test_plan_summary_is_compact(self):
        plan = planner.build_plan(skewed_db(), CONFIG, workers=2)
        summary = planner.plan_summary(plan)
        assert summary["workers"] == 2
        assert set(summary["predicted_imbalance"]) == {
            "roundrobin", "predicted",
        }
        assert "roots" not in summary

    def test_load_plan_roundtrip_and_rejects_garbage(self, tmp_path):
        plan = planner.build_plan(skewed_db(), CONFIG, workers=2)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        assert planner.load_plan(str(path)) == plan
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a shard plan"):
            planner.load_plan(str(bad))

    def test_build_plan_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            planner.build_plan(skewed_db(), CONFIG, workers=0)


class TestCalibration:
    def test_perfect_forecast_scores_zero_mape(self):
        plan = planner.build_plan(skewed_db(), CONFIG, workers=2)
        record = planner.calibration_record(
            plan, cost_snapshot_from(plan, exact=True),
            strategy="predicted",
        )
        assert record["kind"] == "repro-calibration"
        assert record["strategy"] == "predicted"
        assert record["actual_metric"] == "wall_s"
        assert record["mape"] == pytest.approx(0.0)
        assert record["rank_corr"] == pytest.approx(1.0)
        assert record["roots_matched"] == len(plan["roots"])

    def test_frozen_clock_falls_back_to_states(self):
        plan = planner.build_plan(skewed_db(), CONFIG, workers=2)
        snapshot = cost_snapshot_from(plan, exact=True)
        for entry in snapshot["roots"].values():
            entry["wall_s"] = 0.0
        record = planner.calibration_record(plan, snapshot)
        assert record["actual_metric"] == "states_created"
        assert record["strategy"] is None
        assert record["worst_miss"]["root"] in plan["roots"]

    def test_no_matching_roots_yields_null_metrics(self):
        plan = {"roots": {"A+": {"predicted_cost": 1.0}},
                "predictor": {"source": "static"}}
        record = planner.calibration_record(
            plan, {"roots": {"Z+": {"wall_s": 1.0}}}
        )
        assert record["roots_matched"] == 0
        assert record["mape"] is None
        assert record["worst_miss"] is None

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            planner.calibration_record(
                {"roots": {}}, {"roots": {}}, strategy="zigzag"
            )
