"""Fresh-interpreter probe: the public calls ``ptpminer mine`` makes, timed.

``perfbench/run.py`` starts this script in a new interpreter for every
sample; it is not imported. Usage::

    probe.py setup INPUT MODE RESULT
    probe.py api   INPUT MODE RESULT MIN_SUP WORKERS
    probe.py trace INPUT MODE RESULT MIN_SUP WORKERS TRACE RUN_ID WORKDIR

``setup`` times importing ``repro.cli``, ``read_database`` and, in TP
mode, ``without_point_events``: what the CLI pays before ``mine()``,
without interpreter start. ``api`` then builds the miner through
``repro.miners.build`` and times ``mine()``; a sharded miner runs with
the run ledger's metrics registry and cost collector installed, as
``mine --ledger-dir`` does. ``trace`` repeats those calls inside spans
and then probes each layer through its public functions, with
``gc.collect()`` before every probe so that only its inputs are alive.
Results go to the JSON file RESULT; ``trace`` writes its spans to TRACE.
Only ``sys`` and ``time`` are imported before the clock starts.
"""

import sys
import time

T0 = time.perf_counter()


def _load(input_path, mode, span):
    """Import the CLI, read the input and strip points as ``mine`` does."""
    with span("cli.import"):
        import repro.cli  # noqa: F401  (the import is what is timed)
    from repro.io import read_database

    with span("io.read"):
        db = read_database(input_path)
    if mode == "tp":
        with span("model.strip"):
            stripped = db.without_point_events()
            if len(stripped) != len(db) or any(
                seq.has_point_events for seq in db
            ):
                db = stripped
    return db


def _mine(db, min_sup, mode, workers):
    """Build through the registry and mine, with the ledger's collectors
    installed when sharded. Returns ``(result, mine_s, registry, cost)``."""
    from contextlib import ExitStack

    from repro import miners, obs
    from repro.core.config import MinerConfig

    miner = miners.build(
        "ptpminer", MinerConfig(min_sup=min_sup, mode=mode), workers=workers
    )
    registry = cost = None
    with ExitStack() as stack:
        if workers > 1:
            registry = obs.MetricsRegistry()
            stack.enter_context(obs.metrics.use_registry(registry))
            cost = stack.enter_context(obs.costmodel.use_collector())
        started = time.perf_counter()
        result = miner.mine(db)
        mine_s = time.perf_counter() - started
    return result, mine_s, registry, cost


def _write_json(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)


def _setup_or_api(argv, with_mine):
    from contextlib import nullcontext

    input_path, mode, result_path = argv[:3]
    db = _load(input_path, mode, lambda name: nullcontext())
    out = {"setup_s": time.perf_counter() - T0}
    if with_mine:
        from repro.obs.provenance import patterns_digest

        result, mine_s, _, _ = _mine(db, float(argv[3]), mode, int(argv[4]))
        out.update(mine_s=mine_s, digest=patterns_digest(result.patterns))
    _write_json(result_path, out)


def _support_sample(patterns):
    """The re-count sample: the longest pattern, then the first and the
    middle one in result order (deduplicated)."""
    longest = max(
        range(len(patterns)),
        key=lambda i: (patterns[i].pattern.num_tokens, -i),
    )
    picked = []
    for index in (longest, 0, len(patterns) // 2):
        if index not in picked:
            picked.append(index)
    return [patterns[i] for i in picked]


def _trace(argv):
    import gc
    import os

    from spans import Recorder

    input_path, mode, result_path = argv[:3]
    min_sup, workers = float(argv[3]), int(argv[4])
    trace_path, run_id, workdir = argv[5:8]
    rec = Recorder(run_id, origin=T0)
    out = {}

    def probe(name):
        gc.collect()
        return rec.span(name)

    with rec.span("run", workers=workers, mode=mode):
        with rec.span("e2e"):
            db = _load(input_path, mode, rec.span)
            with rec.span("mine") as span:
                result, _, registry, cost = _mine(db, min_sup, mode, workers)
            span.update(result.counters.as_dict())
        rec.find("io.read")["events"] = sum(len(seq) for seq in db)

        from repro.core.config import MinerConfig
        from repro.core.counting import PairTables
        from repro.core.ptpminer import PTPMiner
        from repro.io import write_patterns
        from repro.obs.provenance import patterns_digest
        from repro.temporal.endpoint import EncodedDatabase

        config = MinerConfig(min_sup=min_sup, mode=mode)
        miner = PTPMiner.from_config(config)
        weights = [1.0] * len(db)
        threshold = float(db.absolute_support(min_sup))
        patterns = result.patterns
        out["digest"] = patterns_digest(patterns)
        if workers > 1:
            # What the ledger's collectors saw in the real sharded run:
            # each worker's elapsed time and each root subtree's wall time.
            out["shard_s"] = [
                value
                for name, value in sorted(result.metrics["gauges"].items())
                if name.startswith("engine.shard_elapsed_s[")
            ]
            out["root_s"] = [
                entry["wall_s"] for entry in cost.snapshot()["roots"].values()
            ]

        with rec.span("probes"):
            with probe("ptpminer.plan_root") as span:
                mining_db, root_counters, root = miner.plan_root(
                    db, weights, threshold
                )
            span["roots"] = len(root)
            span["pruned_point_labels"] = root_counters.pruned_point_labels
            with probe("endpoint.encode") as span:
                encoded = EncodedDatabase(mining_db)
            span["tokens"] = sum(
                len(ps) for seq in encoded.sequences for ps in seq.pointsets
            )
            with probe("counting.pair_tables") as span:
                pairs = PairTables(encoded, weights)
            span["cells"] = sum(pairs.stats().values())
            del encoded, pairs
            with probe("ptpminer.search_prep"):
                miner.search_shard(mining_db, weights, threshold, {})
            with probe("ptpminer.search") as span:
                found, counters = miner.search_shard(
                    mining_db, weights, threshold, root
                )
            span["states_created"] = counters.states_created
            del found
            if workers > 1:
                _engine_probes(
                    probe, config, mining_db, weights, threshold, root,
                    workers,
                )
                _obs_probes(probe, config, db, result, registry, cost, workdir)
            with probe("io.write"):
                write_patterns(patterns, os.path.join(workdir, "trace.out"))

        with rec.span("check.support_in") as span:
            sample = _support_sample(patterns)
            out["support_mismatches"] = [
                str(item.pattern)
                for item in sample
                if item.pattern.support_in(db) != item.support
            ]
        span["patterns"] = len(sample)
    rec.write_jsonl(trace_path)
    out.update(durations=rec.durations(), counts=rec.counts())
    _write_json(result_path, out)


def _engine_probes(probe, config, mining_db, weights, threshold, root,
                   workers):
    """The shard deal and what shipping the database would cost."""
    import pickle

    from repro.engine import plan_shards

    with probe("engine.plan_shards") as span:
        tasks = plan_shards(root, config, threshold, workers)
    span["shards"] = len(tasks)
    with probe("engine.pickle") as span:
        payload = pickle.dumps((mining_db, weights), pickle.HIGHEST_PROTOCOL)
    span["bytes"] = len(payload)


def _obs_probes(probe, config, db, result, registry, cost, workdir):
    """Serial mines without and with the ledger's collectors, in the
    order without, with, with, without so that a steady drift in machine
    speed cancels; then the dataset digest and one ledger append."""
    from contextlib import ExitStack

    from repro import obs
    from repro.core.ptpminer import PTPMiner
    from repro.obs import ledger
    from repro.obs.provenance import patterns_digest

    for collect in (False, True, True, False):
        with probe("obs.collectors_mine" if collect else "ptpminer.serial_mine"):
            with ExitStack() as stack:
                if collect:
                    stack.enter_context(
                        obs.metrics.use_registry(obs.MetricsRegistry())
                    )
                    stack.enter_context(obs.costmodel.use_collector())
                PTPMiner.from_config(config).mine(db)
    with probe("obs.dataset_digest"):
        digest = ledger.dataset_digest(db)
    with probe("obs.ledger_append"):
        entry = ledger.build_entry(
            dataset_digest=digest,
            miner="ptpminer",
            min_sup=config.min_sup,
            mode=config.mode,
            workers=result.params["workers"],
            wall_s=result.elapsed,
            patterns=len(result.patterns),
            counters=result.counters.as_dict(),
            phases=ledger.phase_seconds(result.metrics or registry.snapshot()),
            cost_snapshot=cost.snapshot(),
            patterns_digest=patterns_digest(result.patterns),
        )
        ledger.RunLedger(f"{workdir}/trace-ledger").append(entry)


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "trace":
        _trace(sys.argv[2:])
    else:
        _setup_or_api(sys.argv[2:], with_mine=command == "api")
