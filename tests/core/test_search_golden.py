"""Golden values for P-TPMiner's search on mid-sized standard datasets.

Pattern digests and :class:`~repro.core.pruning.PruneCounters` cannot
tell whether the projection states of a sequence come out in the same
order; provenance witnesses can (a witness is the first state's used
occurrences). Pinning all three keeps any rewrite of the projection
core bit-for-bit faithful to the search it replaces. The values were
measured on the frozenset-state search and hold under any
``PYTHONHASHSEED``.

A second pass mines each config with the metrics registry, the cost
collector and the provenance collector all installed, and pins the cost
profile digest and the timing-free search metrics too, so a change to
how the search reports to its collectors cannot shift any of them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.pruning import PruningConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen.synthetic import standard_dataset
from repro import obs
from repro.obs import costmodel as obs_costmodel
from repro.obs import provenance as obs_provenance
from repro.obs.provenance import patterns_digest


def _counters(
    nodes: int,
    considered: int,
    frequent: int,
    point_labels: int,
    pair: int,
    postfix_branches: int,
    dead_states: int,
    states: int,
    patterns: int,
) -> dict[str, int]:
    return {
        "nodes_expanded": nodes,
        "candidates_considered": considered,
        "candidates_frequent": frequent,
        "pruned_point_labels": point_labels,
        "pruned_pair": pair,
        "pruned_postfix_branches": postfix_branches,
        "pruned_dead_states": dead_states,
        "states_created": states,
        "patterns_emitted": patterns,
    }


GOLDEN = [
    pytest.param(
        "sparse", "tp", 0.05, {},
        "73601cc8c3f90d3f", "ed80c406cd4f57ba",
        _counters(385, 4924, 384, 69, 3916, 118, 5295, 13939, 120),
        id="sparse-tp-0.05",
    ),
    pytest.param(
        "hybrid", "htp", 0.08, {},
        "9b38b296ca5654a7", "00ad33fa53f6dd56",
        _counters(218, 3369, 217, 98, 2599, 48, 2975, 12842, 95),
        id="hybrid-htp-0.08",
    ),
    pytest.param(
        "hybrid", "htp", 0.08, {"max_span": 6.0},
        "a29127b599d06db1", "db0ebe4a24e078ec",
        _counters(29, 208, 28, 98, 130, 0, 0, 2090, 18),
        id="hybrid-htp-0.08-max_span",
    ),
    pytest.param(
        "dense", "tp", 0.3, {},
        "ab077b5ac6536005", "dc03d174092788b3",
        _counters(133, 1358, 132, 40, 1039, 46, 21499, 41127, 36),
        id="dense-tp-0.3",
    ),
    pytest.param(
        "sparse", "tp", 0.08, {"pruning": PruningConfig(postfix=False)},
        "5b7ae05919850a0c", "ff18a4982487e39d",
        _counters(251, 3924, 250, 82, 2944, 0, 0, 22038, 46),
        id="sparse-tp-0.08-no_postfix",
    ),
]


#: Per config id: (cost profile digest, search-metrics digest), measured
#: with the registry, cost and provenance collectors all installed.
GOLDEN_COLLECTORS = {
    "sparse-tp-0.05": ("b621e2ce5e3b6e77", "9b68d004eb2be544"),
    "hybrid-htp-0.08": ("2425b4ad299647c1", "96f079e91ff0d8b0"),
    "hybrid-htp-0.08-max_span": ("bcb3c4caee14bca8", "327ac59a72aba65b"),
    "dense-tp-0.3": ("888056e66c5a8b7b", "7c6818390a4d728a"),
    "sparse-tp-0.08-no_postfix": ("b0e93c26afac876f", "ac3b79fa129fd75d"),
}


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _golden_db(dataset, mode):
    db = standard_dataset(dataset, num_sequences=300)
    return db.without_point_events() if mode == "tp" else db


@pytest.mark.parametrize(
    "dataset, mode, min_sup, extra, digest, provenance_digest, counters",
    GOLDEN,
)
def test_search_matches_golden(
    dataset, mode, min_sup, extra, digest, provenance_digest, counters
):
    db = _golden_db(dataset, mode)
    with obs_provenance.use_collector() as prov:
        result = PTPMiner(min_sup, mode=mode, **extra).mine(db)
    assert result.counters.as_dict() == counters
    assert len(result.patterns) == counters["patterns_emitted"]
    assert patterns_digest(result.patterns) == digest
    assert _digest(prov.snapshot()) == provenance_digest


@pytest.mark.parametrize(
    "dataset, mode, min_sup, extra, digest, provenance_digest, counters",
    GOLDEN,
)
def test_collectors_match_golden(
    request, dataset, mode, min_sup, extra, digest, provenance_digest,
    counters,
):
    cost_digest, search_metrics_digest = GOLDEN_COLLECTORS[
        request.node.callspec.id
    ]
    db = _golden_db(dataset, mode)
    with obs.observe(metrics=True, cost=True, provenance=True) as handles:
        result = PTPMiner(min_sup, mode=mode, **extra).mine(db)
    assert handles.cost is not None and handles.provenance is not None
    metrics = result.metrics
    search_counters = {
        key: value
        for key, value in metrics["counters"].items()
        if key.startswith("search.")
    }
    assert result.counters.as_dict() == counters
    assert patterns_digest(result.patterns) == digest
    assert _digest(handles.provenance.snapshot()) == provenance_digest
    assert obs_costmodel.profile_digest(handles.cost.snapshot()) == cost_digest
    assert (
        _digest(
            {"counters": search_counters, "histograms": metrics["histograms"]}
        )
        == search_metrics_digest
    )
