"""Golden values for P-TPMiner's search on mid-sized standard datasets.

Pattern digests and :class:`~repro.core.pruning.PruneCounters` cannot
tell whether the projection states of a sequence come out in the same
order; provenance witnesses can (a witness is the first state's used
occurrences). Pinning all three keeps any rewrite of the projection
core bit-for-bit faithful to the search it replaces. The values were
measured on the frozenset-state search and hold under any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.pruning import PruningConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen.synthetic import standard_dataset
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


@pytest.mark.parametrize(
    "dataset, mode, min_sup, extra, digest, provenance_digest, counters",
    GOLDEN,
)
def test_search_matches_golden(
    dataset, mode, min_sup, extra, digest, provenance_digest, counters
):
    db = standard_dataset(dataset, num_sequences=300)
    if mode == "tp":
        db = db.without_point_events()
    with obs_provenance.use_collector() as prov:
        result = PTPMiner(min_sup, mode=mode, **extra).mine(db)
    snapshot = json.dumps(prov.snapshot(), sort_keys=True)
    assert result.counters.as_dict() == counters
    assert len(result.patterns) == counters["patterns_emitted"]
    assert patterns_digest(result.patterns) == digest
    assert (
        hashlib.sha256(snapshot.encode("utf-8")).hexdigest()[:16]
        == provenance_digest
    )
