"""Shard-plan quality and overhead check on a skewed workload.

Answers the three questions the predictive shard planner is
accountable for, on a synthetic workload whose label skew concentrates
the search in a handful of heavy roots:

1. **Predicted balance** -- is the LPT assignment's predicted max/mean
   shard imbalance lower than round-robin's, both on the static
   forecast and on a ledger-calibrated one?
2. **Realized balance** -- does ``--shard-strategy predicted`` improve
   the *measured* imbalance? Realized shard load is the sum of the
   per-root wall times the cost collector measured in that run,
   grouped by the shard that mined each root -- the same instrument
   the calibration record uses. (The live-telemetry ``busy_s`` span is
   deliberately not used here: a shard whose only root finishes at the
   end publishes its first heartbeat then, so its span under-reads and
   the metric structurally penalizes single-heavy-root shards -- the
   exact deal LPT makes.)
3. **Correctness and overhead** -- are the predicted-strategy results
   bit-for-bit identical to the serial miner's, and does consuming a
   prebuilt plan stay within the repository's 3% interleaved A/B
   budget? (The disabled path differs from the round-robin arm by one
   per-run strategy branch, so the predicted arm bounds it from
   above; the one-off plan build is timed separately.)

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_plan.py \
        --out benchmarks/results/SHARD_PLAN.md

Standalone (no pytest); run manually when the planner or the shard
deal changes, and commit the refreshed report.
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from collections.abc import Sequence

from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen.synthetic import SyntheticConfig, SyntheticGenerator
from repro.engine import mine_sharded
from repro.obs import costmodel
from repro.obs import ledger as obs_ledger
from repro.obs import planner
from repro.obs.live import imbalance

# A dozen moderately skewed labels at three workers puts two heavy
# roots three positions apart in the canonical deal order, so the
# round-robin deal stacks them on one shard -- the failure mode the
# predictive strategy exists to avoid.
NUM_SEQUENCES = 300
NUM_LABELS = 12
LABEL_SKEW = 1.2
SEED = 7
MIN_SUP = 0.1
WORKERS = 3


def skewed_db():
    return SyntheticGenerator(
        SyntheticConfig(
            num_sequences=NUM_SEQUENCES,
            num_labels=NUM_LABELS,
            seed=SEED,
            label_skew=LABEL_SKEW,
        )
    ).generate()


def seed_ledger(db, config, ledger_dir) -> None:
    """One round-robin run with the cost collector on, appended to the
    ledger so the next plan is history-calibrated."""
    with costmodel.use_collector() as collector:
        result = mine_sharded(db, config, workers=WORKERS)
    obs_ledger.RunLedger(ledger_dir).append(
        obs_ledger.build_entry(
            dataset_digest=obs_ledger.dataset_digest(db),
            miner="ptpminer",
            min_sup=config.min_sup,
            mode=config.mode,
            workers=WORKERS,
            wall_s=0.0,
            patterns=len(result.patterns),
            counters=result.counters.as_dict(),
            cost_snapshot=collector.snapshot(),
        )
    )


def realized_imbalance(db, config, plan, strategy) -> float:
    """Mine under ``strategy`` with the cost collector on; group the
    measured per-root walls by the plan's shard lists."""
    kwargs = {}
    if strategy == "predicted":
        kwargs = {"shard_strategy": "predicted", "plan": plan}
    with costmodel.use_collector() as collector:
        mine_sharded(db, config, workers=WORKERS, **kwargs)
    walls = {
        name: entry["wall_s"]
        for name, entry in collector.snapshot()["roots"].items()
    }
    loads = [
        sum(walls.get(name, 0.0) for name in shard)
        for shard in plan["assignments"][strategy]["shards"]
    ]
    return imbalance(loads)


def _time_mine(db, config, *, plan) -> float:
    # Serial executor: same sharding and merge code, no process-pool
    # startup noise, and the makespan is the total work either way --
    # so the A/B delta isolates the deal computation itself.
    t0 = time.perf_counter()
    if plan is not None:
        mine_sharded(
            db, config, workers=WORKERS, executor="serial",
            shard_strategy="predicted", plan=plan,
        )
    else:
        mine_sharded(db, config, workers=WORKERS, executor="serial")
    return time.perf_counter() - t0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs", type=int, default=7, help="number of A/B pairs"
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="realized-imbalance repetitions per strategy",
    )
    parser.add_argument(
        "--out", default=None, help="write the markdown report here"
    )
    args = parser.parse_args(argv)

    db = skewed_db()
    config = MinerConfig(min_sup=MIN_SUP)
    lines = [
        "# Shard-plan report: skewed synthetic workload",
        "",
        f"Workload: {NUM_SEQUENCES} sequences, {NUM_LABELS} labels, "
        f"label skew {LABEL_SKEW}, seed {SEED}, min-sup {MIN_SUP}, "
        f"{WORKERS} workers (process executor).",
        "",
    ]

    with tempfile.TemporaryDirectory() as ledger_dir:
        # --- predicted imbalance: static, then ledger-calibrated ----
        static_plan = planner.build_plan(db, config, workers=WORKERS)
        seed_ledger(db, config, ledger_dir)
        calibrated_plan = planner.build_plan(
            db, config, workers=WORKERS, ledger_dir=ledger_dir
        )
        lines += ["## Predicted imbalance (max/mean shard load)", ""]
        lines += ["| forecast | roundrobin | predicted (LPT) |",
                  "|----------|-----------:|----------------:|"]
        for tag, plan in (
            ("static", static_plan), ("ledger-calibrated", calibrated_plan)
        ):
            rr = plan["assignments"]["roundrobin"]["predicted_imbalance"]
            lpt = plan["assignments"]["predicted"]["predicted_imbalance"]
            lines.append(f"| {tag} | {rr:.4f} | {lpt:.4f} |")
            assert lpt <= rr, (
                f"{tag}: LPT predicted imbalance {lpt} worse than "
                f"round-robin {rr}"
            )
        lines.append("")

        # --- realized imbalance (measured per-root walls by shard) --
        realized = {}
        for strategy in ("roundrobin", "predicted"):
            values = [
                realized_imbalance(db, config, calibrated_plan, strategy)
                for _ in range(args.reps)
            ]
            realized[strategy] = statistics.median(values)
        lines += [
            "## Realized imbalance (measured per-root walls by shard)",
            "",
            "| strategy | predicted | realized (median of "
            f"{args.reps}) |",
            "|----------|----------:|---------:|",
        ]
        for strategy, value in realized.items():
            pred = calibrated_plan["assignments"][strategy][
                "predicted_imbalance"
            ]
            lines.append(f"| {strategy} | {pred:.4f} | {value:.4f} |")
        improved = realized["predicted"] < realized["roundrobin"]
        lines += [
            "",
            "Realized imbalance "
            + ("improved" if improved else "did NOT improve")
            + " under the predicted strategy.",
            "",
        ]
        assert improved, (
            f"predicted strategy realized {realized['predicted']} vs "
            f"round-robin {realized['roundrobin']}"
        )

        # --- bit-for-bit identity -----------------------------------
        serial = PTPMiner.from_config(config).mine(db)
        predicted = mine_sharded(
            db, config, workers=WORKERS, shard_strategy="predicted",
            plan=calibrated_plan,
        )
        assert predicted.patterns == serial.patterns
        assert predicted.counters == serial.counters
        lines += [
            "## Correctness",
            "",
            f"Predicted-strategy results are bit-for-bit identical to "
            f"the serial miner's ({len(serial.patterns)} patterns, "
            f"all prune counters equal).",
            "",
        ]

        # --- interleaved A/B overhead -------------------------------
        t0 = time.perf_counter()
        overhead_plan = planner.build_plan(
            db, config, workers=WORKERS, ledger_dir=ledger_dir
        )
        plan_build_s = time.perf_counter() - t0
        _time_mine(db, config, plan=None)
        _time_mine(db, config, plan=overhead_plan)
        ratios = []
        pair_lines = []
        for pair in range(args.pairs):
            off = _time_mine(db, config, plan=None)
            on = _time_mine(db, config, plan=overhead_plan)
            ratios.append(on / off - 1.0)
            pair_lines.append(
                f"pair {pair}: roundrobin={off:.4f}s "
                f"predicted={on:.4f}s overhead={100 * ratios[-1]:+.2f}%"
            )
        median = statistics.median(ratios)
        lines += ["## Overhead (interleaved A/B)", "", "```"]
        lines += pair_lines
        lines += [
            f"median predicted-deal overhead: {100 * median:+.2f}%",
            f"one-off plan build (profile + ledger read + LPT): "
            f"{plan_build_s:.4f}s",
            "```",
            "",
            "Both arms mine the same workload on the serial executor "
            "(same sharding and merge code; the makespan is the total "
            "work either way, so the delta is purely the LPT deal "
            "versus the round-robin deal, free of process-pool "
            "startup noise). The disabled path differs from the "
            "round-robin arm by a single per-run strategy branch, so "
            "the median above bounds it against the 3% budget. The "
            "plan build itself runs once per invocation and is "
            "reported separately.",
        ]

    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
