"""Predictive shard planning: profile, forecast, assign, calibrate.

PR 5's live telemetry *detects* stragglers while they happen and PR 7's
cost model attributes where the time went *after* the run. This module
closes the loop into prevention: it forecasts per-root subtree cost
**before** the subtrees are expanded, so the engine can deal root
candidates to shards by predicted load (LPT — longest processing time
first) instead of blind round-robin. The forecast is safe to act on
because the engine's order-independent merge guarantees a bit-for-bit
identical result for *any* partition (see :mod:`repro.engine`); a wrong
prediction can only cost wall time, never correctness.

Three layers, each usable on its own:

* :func:`profile_workload` — static per-root features straight off the
  encoded database, without mining any subtree: level-1 root frequency
  (support), supporter-set size, projected token mass, pair-table
  degree, plus dataset-level shape (label cardinality, sequence-length
  distribution, pair-table density). One ``plan_root`` call is the only
  search work done.
* :func:`predict_costs` — per-root cost forecasts. With history (prior
  ``costmodel`` profiles looked up in the run ledger by dataset digest
  and mining config, :func:`history_root_costs`) the forecast is the
  mean recorded wall time per root; roots never seen before fall back
  to the static score, rescaled onto the history's cost scale. With no
  history at all the forecast *is* the static score —
  ``projected_tokens * (1 + pair_degree)``, i.e. projected database
  mass times a branching-factor proxy. Only relative magnitudes matter
  for load balancing, so the static fallback needs no unit calibration.
* :func:`build_plan` / :func:`render_plan_markdown` — the **PlanReport**:
  predicted per-root costs, the per-shard loads and max/mean imbalance
  the round-robin deal would produce, and the recommended LPT
  assignment with its predicted imbalance, as JSON or markdown.

After a run, :func:`calibration_record` joins the plan against the
realized cost profile (predicted vs actual per root: share-normalized
MAPE, Spearman rank correlation, worst-miss root). The CLI appends the
record to the run ledger, where ``ptpminer history`` surfaces the MAPE
trend and ``ptpminer report`` renders the "Plan vs actual" section —
each mining run makes the next plan's forecast checkable.

Cost shares, not raw magnitudes: a static forecast is in arbitrary
score units while actuals are in seconds, so calibration compares each
root's *fraction* of the total predicted/actual cost. Shares are what
load balancing consumes, which makes the MAPE read directly as "how
wrong were the loads".
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.core.config import SHARD_STRATEGIES, MinerConfig
from repro.core.counting import PairTables, symbol_document_frequency
from repro.core.ptpminer import PTPMiner, RootCandidates, _EPS
from repro.engine import _candidate_name, plan_shards
from repro.io._utf8 import load_json_object
from repro.model.database import ESequenceDatabase
from repro.obs.live import imbalance
from repro.temporal.endpoint import EncodedDatabase

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "build_plan",
    "calibration_record",
    "history_root_costs",
    "load_plan",
    "plan_summary",
    "predict_costs",
    "profile_workload",
    "render_plan_markdown",
]

#: Schema stamp on plans and calibration records; bumped on breaking
#: shape changes.
PLAN_SCHEMA_VERSION = 1

#: How many historical runs the ledger-calibrated predictor averages.
DEFAULT_HISTORY_LIMIT = 5

#: Rows shown in the markdown heaviest-roots table.
_TOP_ROOTS_SHOWN = 10


# ----------------------------------------------------------------------
# profiler: static features, no subtree mining
# ----------------------------------------------------------------------
def profile_workload(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    weights: Optional[Sequence[float]] = None,
) -> dict[str, Any]:
    """Per-root and dataset-level static features, without mining.

    Runs exactly the parent half of the sharded engine
    (:meth:`~repro.core.ptpminer.PTPMiner.plan_root`: validation, point
    prune, encode, pair tables, root candidate gather) and derives,
    per frequent level-1 root:

    ``support``
        The root's weighted frequency (its level-1 support).
    ``supporters``
        How many sequences contain it — the size of the projected
        database its subtree scans.
    ``projected_tokens``
        Total endpoint tokens across its supporter sequences — the mass
        of that projected database.
    ``pair_degree``
        How many frequent symbols the pair tables admit after this
        root's symbol (S-pair or I-pair weight at/above threshold) —
        a branching-factor proxy for the subtree's fan-out.
    ``static_score``
        ``projected_tokens * (1 + pair_degree)`` — projected scan mass
        times fan-out, the documented no-history cost forecast.
    ``order``
        The root's position in the canonical candidate order (the order
        the engine's round-robin deal consumes).

    Dataset-level features ride along under ``"dataset"``: sequence
    count, label cardinality, token totals, the sequence-length
    distribution, and pair-table density (occupied fraction of the
    possible S-/I-pair cells).
    """
    return _profile(db, config, weights)[0]


def _profile(
    db: ESequenceDatabase,
    config: MinerConfig,
    weights: Optional[Sequence[float]],
) -> tuple[dict[str, Any], RootCandidates, tuple[str, ...]]:
    """:func:`profile_workload`, plus the root candidates and the labels
    the engine's deal (:func:`repro.engine.plan_shards`) consumes."""
    miner = PTPMiner.from_config(config)
    threshold = float(db.absolute_support(config.min_sup))
    run_weights = (
        list(weights) if weights is not None else [1.0] * len(db)
    )
    mining_db, _counters, root = miner.plan_root(
        db, run_weights, threshold
    )
    encoded = EncodedDatabase(mining_db)
    pairs = PairTables(encoded, run_weights)
    df = symbol_document_frequency(encoded, run_weights)
    frequent_syms = sorted(
        sym for sym, weight in df.items() if weight + _EPS >= threshold
    )
    tokens_of = {
        seq.sid: sum(len(ps) for ps in seq.pointsets)
        for seq in encoded.sequences
    }
    roots: dict[str, dict[str, Any]] = {}
    for order, cand in enumerate(sorted(root)):
        _ext, sym, pocc = cand
        weight, sids = root[cand]
        name = str(encoded.decode_token((sym, pocc)))
        projected_tokens = sum(tokens_of.get(sid, 0) for sid in sids)
        pair_degree = sum(
            1
            for other in frequent_syms
            if pairs.s_pair(sym, other) + _EPS >= threshold
            or pairs.i_pair(sym, other) + _EPS >= threshold
        )
        roots[name] = {
            "order": order,
            "support": float(weight),
            "supporters": len(sids),
            "projected_tokens": projected_tokens,
            "pair_degree": pair_degree,
            "static_score": float(projected_tokens) * (1 + pair_degree),
        }
    seq_tokens = sorted(tokens_of.values())
    num_syms = len(df)
    pair_stats = pairs.stats()
    possible_s = num_syms * num_syms
    possible_i = num_syms * (num_syms + 1) // 2
    dataset: dict[str, Any] = {
        "sequences": len(mining_db),
        "labels": len(encoded.labels),
        "tokens": sum(seq_tokens),
        "seq_tokens": _distribution(seq_tokens),
        "pair_density": {
            "s_pairs": pair_stats["s_pairs"],
            "i_pairs": pair_stats["i_pairs"],
            "s_density": (
                round(pair_stats["s_pairs"] / possible_s, 6)
                if possible_s
                else 0.0
            ),
            "i_density": (
                round(pair_stats["i_pairs"] / possible_i, 6)
                if possible_i
                else 0.0
            ),
        },
    }
    profile = {
        "schema": PLAN_SCHEMA_VERSION,
        "kind": "repro-plan-profile",
        "threshold": threshold,
        "dataset": dataset,
        "roots": roots,
    }
    return profile, root, encoded.labels


def _distribution(values: Sequence[int]) -> dict[str, float]:
    """Min/mean/median/max of a sorted integer sample (zeros if empty)."""
    if not values:
        return {"min": 0, "mean": 0.0, "median": 0.0, "max": 0}
    mid = len(values) // 2
    median = (
        float(values[mid])
        if len(values) % 2
        else (values[mid - 1] + values[mid]) / 2
    )
    return {
        "min": values[0],
        "mean": round(sum(values) / len(values), 3),
        "median": median,
        "max": values[-1],
    }


# ----------------------------------------------------------------------
# predictor: ledger-calibrated with a static fallback
# ----------------------------------------------------------------------
def history_root_costs(
    ledger_dir: str,
    *,
    dataset_digest: str,
    miner: str,
    min_sup: Optional[float],
    mode: Optional[str],
    limit: int = DEFAULT_HISTORY_LIMIT,
) -> list[dict[str, float]]:
    """Per-root wall costs of prior matching runs, newest-last.

    Matches ledger entries by dataset digest, miner, support threshold,
    and mode — *not* by worker count, because cost profiles attribute
    the same subtree work regardless of how it was sharded. Only
    entries that stored the full per-root cost map (ledger schema >= 2;
    ``mine --ledger-dir`` with cost collection on) contribute; pre-bump
    entries are silently ignored, which is the documented degradation
    of the v1 -> v2 migration (``docs/file-formats.md``).
    """
    from repro.obs.ledger import RunLedger

    matched: list[dict[str, float]] = []
    for entry in RunLedger(ledger_dir).entries():
        config = entry.get("config", {})
        if (
            config.get("dataset_digest") != dataset_digest
            or config.get("miner") != miner
            or config.get("min_sup") != min_sup
            or config.get("mode") != mode
        ):
            continue
        roots = (entry.get("cost") or {}).get("roots")
        if not isinstance(roots, dict) or not roots:
            continue
        matched.append(
            {str(name): float(wall) for name, wall in roots.items()}
        )
    return matched[-max(limit, 0):]


def predict_costs(
    profile: Mapping[str, Any],
    history: Sequence[Mapping[str, float]] = (),
) -> tuple[dict[str, float], dict[str, Any]]:
    """Forecast per-root cost from a profile plus optional history.

    Returns ``(costs, predictor)`` where ``costs`` maps every profiled
    root to a non-negative forecast and ``predictor`` documents how it
    was produced (``source`` is ``"ledger"`` or ``"static"``).

    With history, a root's forecast is its mean recorded wall time;
    roots absent from every historical profile (new labels, a support
    threshold that newly admits them) fall back to their static score
    rescaled by ``scale`` — the ratio of mean historical cost to mean
    static score over the roots both sides know — so mixed forecasts
    stay on one comparable scale. With no history the static score is
    used as-is: load balancing only consumes relative magnitudes.
    """
    roots: Mapping[str, Mapping[str, Any]] = profile.get("roots", {})
    static = {
        name: float(entry.get("static_score", 0.0))
        for name, entry in roots.items()
    }
    if not history:
        return dict(static), {
            "source": "static",
            "history_runs": 0,
            "scale": None,
        }
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in history:
        for name, wall in run.items():
            sums[name] = sums.get(name, 0.0) + float(wall)
            counts[name] = counts.get(name, 0) + 1
    hist_mean = {name: sums[name] / counts[name] for name in sums}
    overlap = [
        name
        for name in static
        if name in hist_mean and static[name] > 0
    ]
    scale: Optional[float] = None
    if overlap:
        static_mass = sum(static[name] for name in overlap)
        hist_mass = sum(hist_mean[name] for name in overlap)
        if static_mass > 0 and hist_mass > 0:
            scale = hist_mass / static_mass
    costs = {
        name: (
            hist_mean[name]
            if name in hist_mean
            else static[name] * (scale if scale is not None else 1.0)
        )
        for name in static
    }
    return costs, {
        "source": "ledger",
        "history_runs": len(history),
        "scale": scale,
    }


# ----------------------------------------------------------------------
# assignment: the engine's deals, with predicted imbalance
# ----------------------------------------------------------------------
def _assignment_entry(
    shards: list[list[str]], costs: Mapping[str, float]
) -> dict[str, Any]:
    loads = [
        round(sum(costs.get(name, 0.0) for name in shard), 6)
        for shard in shards
    ]
    return {
        "shards": shards,
        "predicted_loads": loads,
        "predicted_imbalance": imbalance(loads),
    }


# ----------------------------------------------------------------------
# the PlanReport
# ----------------------------------------------------------------------
def build_plan(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    workers: int,
    miner: str = "ptpminer",
    ledger_dir: Optional[str] = None,
    history_limit: int = DEFAULT_HISTORY_LIMIT,
) -> dict[str, Any]:
    """Profile ``db``, forecast root costs, and compare shard deals.

    The one-stop entry behind ``ptpminer plan`` and
    ``mine --shard-strategy predicted``: profiles the workload
    (:func:`profile_workload`), calibrates the forecast from the run
    ledger when ``ledger_dir`` has matching history
    (:func:`history_root_costs` / :func:`predict_costs`), and emits the
    PlanReport dict with both of the engine's deals
    (:func:`repro.engine.plan_shards` over the plan's forecasts) — the
    round-robin deal and the recommended LPT (``"predicted"``)
    assignment — plus their predicted per-shard loads and imbalance.
    """
    from repro.obs.ledger import dataset_digest as _dataset_digest

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    profile, root, labels = _profile(db, config, None)
    digest = _dataset_digest(db)
    history: list[dict[str, float]] = []
    if ledger_dir is not None:
        history = history_root_costs(
            ledger_dir,
            dataset_digest=digest,
            miner=miner,
            min_sup=config.min_sup,
            mode=config.mode,
            limit=history_limit,
        )
    costs, predictor = predict_costs(profile, history)
    roots = {
        name: {**dict(entry), "predicted_cost": round(costs[name], 6)}
        for name, entry in profile["roots"].items()
    }
    # The engine deals by the plan's rounded forecasts; so does the plan.
    forecasts = {name: entry["predicted_cost"] for name, entry in roots.items()}

    def deal(strategy: str) -> list[list[str]]:
        tasks = plan_shards(
            root,
            config,
            profile["threshold"],
            workers,
            strategy=strategy,
            costs=forecasts,
            labels=labels,
        )
        return [
            [_candidate_name(cand, labels) for cand, _ in task.candidates]
            for task in tasks
        ]

    assignments = {
        strategy: _assignment_entry(deal(strategy), costs)
        for strategy in SHARD_STRATEGIES
    }
    return {
        "schema": PLAN_SCHEMA_VERSION,
        "kind": "repro-plan",
        "config": {
            "dataset_digest": digest,
            "miner": miner,
            "min_sup": config.min_sup,
            "mode": config.mode,
            "workers": workers,
        },
        "threshold": profile["threshold"],
        "dataset": profile["dataset"],
        "predictor": predictor,
        "roots": roots,
        "assignments": assignments,
    }


def plan_summary(plan: Mapping[str, Any]) -> dict[str, Any]:
    """The compact per-run slice of a plan stored in ledger entries.

    Full plans carry every root's features; ledger entries only need
    enough to trend forecast quality: the predictor provenance, the
    worker count, and each strategy's predicted imbalance.
    """
    assignments = plan.get("assignments", {})
    return {
        "workers": dict(plan.get("config", {})).get("workers"),
        "predictor": dict(plan.get("predictor", {})),
        "predicted_imbalance": {
            strategy: dict(entry).get("predicted_imbalance")
            for strategy, entry in sorted(assignments.items())
        },
    }


def render_plan_markdown(plan: Mapping[str, Any]) -> str:
    """Render a PlanReport dict as a markdown document."""
    config = dict(plan.get("config", {}))
    dataset = dict(plan.get("dataset", {}))
    predictor = dict(plan.get("predictor", {}))
    roots = {
        str(name): dict(entry)
        for name, entry in dict(plan.get("roots", {})).items()
    }
    lines = ["# Shard plan", ""]
    lines.append(
        f"Config: miner={config.get('miner')}, "
        f"min_sup={config.get('min_sup')}, mode={config.get('mode')}, "
        f"workers={config.get('workers')}, "
        f"dataset `{config.get('dataset_digest')}`"
    )
    seq_tokens = dict(dataset.get("seq_tokens", {}))
    density = dict(dataset.get("pair_density", {}))
    lines.append(
        f"Dataset: {dataset.get('sequences')} sequences, "
        f"{dataset.get('labels')} labels, {dataset.get('tokens')} "
        f"endpoint tokens (per-sequence {seq_tokens.get('min')}–"
        f"{seq_tokens.get('max')}, median {seq_tokens.get('median')}); "
        f"pair density S={density.get('s_density')} "
        f"I={density.get('i_density')}"
    )
    source = predictor.get("source")
    if source == "ledger":
        lines.append(
            f"Predictor: ledger-calibrated from "
            f"{predictor.get('history_runs')} matching run(s) "
            f"(static-score scale {predictor.get('scale')})"
        )
    else:
        lines.append(
            "Predictor: static features only (no matching ledger "
            "history) — forecast = projected_tokens * (1 + pair_degree)"
        )
    lines.append("")
    lines.append("## Predicted heaviest roots")
    lines.append("")
    lines.append(
        "| root | predicted cost | support | supporters "
        "| projected tokens | pair degree |"
    )
    lines.append("| --- | ---: | ---: | ---: | ---: | ---: |")
    ranked = sorted(
        roots.items(),
        key=lambda item: (-float(item[1].get("predicted_cost", 0.0)),
                          item[0]),
    )
    for name, entry in ranked[:_TOP_ROOTS_SHOWN]:
        lines.append(
            f"| `{name}` | {entry.get('predicted_cost'):g} "
            f"| {entry.get('support'):g} | {entry.get('supporters')} "
            f"| {entry.get('projected_tokens')} "
            f"| {entry.get('pair_degree')} |"
        )
    if len(ranked) > _TOP_ROOTS_SHOWN:
        lines.append("")
        lines.append(f"({len(ranked) - _TOP_ROOTS_SHOWN} more roots)")
    lines.append("")
    lines.append("## Assignments")
    lines.append("")
    lines.append(
        "| strategy | shards | max load | mean load "
        "| predicted imbalance |"
    )
    lines.append("| --- | ---: | ---: | ---: | ---: |")
    assignments = dict(plan.get("assignments", {}))
    for strategy in sorted(assignments):
        entry = dict(assignments[strategy])
        loads = [float(load) for load in entry.get("predicted_loads", [])]
        mean = sum(loads) / len(loads) if loads else 0.0
        imb = entry.get("predicted_imbalance")
        lines.append(
            f"| {strategy} | {len(loads)} "
            f"| {max(loads) if loads else 0.0:g} | {mean:g} "
            f"| {imb if imb is not None else '—'} |"
        )
    rr = dict(assignments.get("roundrobin", {})).get("predicted_imbalance")
    lpt = dict(assignments.get("predicted", {})).get("predicted_imbalance")
    lines.append("")
    if rr is not None and lpt is not None and lpt < rr:
        lines.append(
            f"Recommendation: `--shard-strategy predicted` "
            f"(LPT predicted imbalance {lpt:g} vs round-robin {rr:g})."
        )
    else:
        lines.append(
            "Recommendation: round-robin is already balanced for this "
            "forecast."
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# calibration: predicted vs actual, after the run
# ----------------------------------------------------------------------
def _shares(costs: Mapping[str, float]) -> dict[str, float]:
    total = sum(max(value, 0.0) for value in costs.values())
    if total <= 0:
        return {name: 0.0 for name in costs}
    return {name: max(value, 0.0) / total for name, value in costs.items()}


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties averaged (the Spearman convention)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _spearman(
    a: Sequence[float], b: Sequence[float]
) -> Optional[float]:
    """Spearman rank correlation (``None`` when undefined)."""
    if len(a) < 2:
        return None
    ra, rb = _average_ranks(a), _average_ranks(b)
    mean_a = sum(ra) / len(ra)
    mean_b = sum(rb) / len(rb)
    cov = sum(
        (x - mean_a) * (y - mean_b) for x, y in zip(ra, rb)
    )
    var_a = sum((x - mean_a) ** 2 for x in ra)
    var_b = sum((y - mean_b) ** 2 for y in rb)
    if var_a <= 0 or var_b <= 0:
        return None
    return round(cov / (var_a * var_b) ** 0.5, 6)


def calibration_record(
    plan: Mapping[str, Any],
    cost_snapshot: Mapping[str, Any],
    *,
    strategy: Optional[str] = None,
) -> dict[str, Any]:
    """Join a plan's forecasts against a run's realized cost profile.

    Compares **cost shares** (each root's fraction of the total),
    making static-score forecasts and wall-second actuals directly
    comparable. When every recorded wall time is zero (a frozen test
    clock), ``states_created`` substitutes as the actual-cost proxy and
    ``actual_metric`` says so.

    Returns a JSON-able record: share-MAPE (mean absolute error of
    predicted shares relative to actual shares, over roots with
    positive actual cost), Spearman rank correlation of the root
    orderings, the worst-miss root (largest absolute share error), and
    the number of matched roots. ``strategy`` records which deal the
    run actually used (``None`` when unknown — e.g. a report rebuilding
    calibration from artifacts alone).
    """
    if strategy is not None and strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {SHARD_STRATEGIES}, "
            f"got {strategy!r}"
        )
    predicted = {
        str(name): float(dict(entry).get("predicted_cost", 0.0))
        for name, entry in dict(plan.get("roots", {})).items()
    }
    actual_rows = {
        str(name): dict(entry)
        for name, entry in dict(cost_snapshot.get("roots", {})).items()
    }
    actual_metric = "wall_s"
    actual = {
        name: float(entry.get("wall_s", 0.0))
        for name, entry in actual_rows.items()
    }
    if not any(value > 0 for value in actual.values()):
        actual_metric = "states_created"
        actual = {
            name: float(entry.get("states_created", 0))
            for name, entry in actual_rows.items()
        }
    matched = sorted(set(predicted) & set(actual))
    record: dict[str, Any] = {
        "schema": PLAN_SCHEMA_VERSION,
        "kind": "repro-calibration",
        "strategy": strategy,
        "predictor": dict(plan.get("predictor", {})).get("source"),
        "actual_metric": actual_metric,
        "roots_matched": len(matched),
        "mape": None,
        "rank_corr": None,
        "worst_miss": None,
    }
    if not matched:
        return record
    pred_share = _shares({name: predicted[name] for name in matched})
    act_share = _shares({name: actual[name] for name in matched})
    errors = [
        abs(pred_share[name] - act_share[name]) / act_share[name]
        for name in matched
        if act_share[name] > 0
    ]
    if errors:
        record["mape"] = round(sum(errors) / len(errors), 6)
    record["rank_corr"] = _spearman(
        [predicted[name] for name in matched],
        [actual[name] for name in matched],
    )
    worst = max(
        matched,
        key=lambda name: (
            abs(pred_share[name] - act_share[name]),
            name,
        ),
    )
    record["worst_miss"] = {
        "root": worst,
        "predicted_share": round(pred_share[worst], 6),
        "actual_share": round(act_share[worst], 6),
    }
    return record


def load_plan(path: str) -> dict[str, Any]:
    """Load a PlanReport JSON file (``ptpminer plan`` or ``mine
    --plan-out`` output)."""
    return load_json_object(
        path, "shard plan", kind="repro-plan", schema=PLAN_SCHEMA_VERSION
    )
