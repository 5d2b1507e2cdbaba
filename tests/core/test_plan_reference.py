"""The one-pass plan against the builders it replaced, kept here as the
reference.

P-TPMiner's pre-search pipeline used to build a point-pruned copy of the
database, encode it with a sort of the instants and one per pointset,
key its pair tables by ``(a, b)`` tuples and evaluate the pair bound
once per candidate. Point pruning now happens inside the encoder, which
sorts once; pair cells are keyed by one int; and the search tests one
mask bit per candidate. These properties hold each piece to the code it
replaced, on databases with point events, duplicate labels, shared start
and finish instants, int and float times and zero weights.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting import PairTables
from repro.core.pruning import PruneCounters, PruningConfig
from repro.core.ptpminer import PTPMiner
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence
from repro.obs.provenance import patterns_digest
from repro.temporal.endpoint import (
    FINISH,
    POINT,
    START,
    EncodedDatabase,
    EncodedSequence,
)

from tests.core.test_search_golden import _golden_db

_EPS = 1e-9
_FIELDS = (
    "sid",
    "pointsets",
    "times",
    "occ_keys",
    "occ_start",
    "occ_finish",
    "occ_pointsets",
    "sym_occs",
    "sym_last",
)


# ---------------------------------------------------------------------------
# the reference builders
# ---------------------------------------------------------------------------

def reference_point_prune(
    db: ESequenceDatabase, weights: list[float], threshold: float
) -> tuple[ESequenceDatabase, int]:
    """The filtered database point pruning used to build, and how many
    (label, flavour)s it dropped."""
    interval_df: dict[str, float] = {}
    point_df: dict[str, float] = {}
    for seq in db:
        weight = weights[seq.sid]
        for label in {ev.label for ev in seq if ev.is_interval}:
            interval_df[label] = interval_df.get(label, 0.0) + weight
        for label in {ev.label for ev in seq if ev.is_point}:
            point_df[label] = point_df.get(label, 0.0) + weight
    keep_interval = {
        label for label, w in interval_df.items() if w + _EPS >= threshold
    }
    keep_point = {
        label for label, w in point_df.items() if w + _EPS >= threshold
    }
    pruned = (
        len(interval_df) - len(keep_interval) + len(point_df) - len(keep_point)
    )
    if pruned == 0:
        return db, 0
    filtered = [
        ESequence(
            (
                ev
                for ev in seq
                if (
                    ev.label in keep_interval
                    if ev.is_interval
                    else ev.label in keep_point
                )
            ),
            sid=seq.sid,
        )
        for seq in db
    ]
    return ESequenceDatabase(filtered, name=db.name), pruned


def _reference_pooled(pool: dict, tokens: tuple) -> tuple:
    pooled = pool.get(tokens)
    if pooled is None:
        pooled = tuple(pool.setdefault(tok, tok) for tok in tokens)
        pool[pooled] = pooled
    return pooled


def _reference_sequence(
    sid: int, pointsets: list[list[tuple[int, int]]], times: list, pool: dict
) -> dict[str, Any]:
    """The two-walk ``EncodedSequence`` fields: a sort per pointset, then
    a walk over the sorted pointsets."""
    intern = pool.setdefault
    occ_of: dict[tuple[int, int], int] = {}
    keys: list = []
    starts: list[int] = []
    finishes: list[int] = []
    sym_occs: dict[int, list[int]] = {}
    last: dict[int, int] = {}
    sets: list = []
    occ_sets: list = []
    for pos, unsorted in enumerate(pointsets):
        pointset = tuple(sorted(unsorted))
        occ_tokens = []
        for sym, occ in pointset:
            if sym % 3 == FINISH:
                e = occ_of[sym - 1, occ]
                finishes[e] = pos
            else:
                e = occ_of[sym, occ] = len(keys)
                key = (sym // 3, occ)
                keys.append(intern(key, key))
                starts.append(pos)
                finishes.append(pos)
                sym_occs.setdefault(sym, []).append(e)
                last[sym] = pos
            occ_tokens.append((sym, e))
        sets.append(_reference_pooled(pool, pointset))
        occ_sets.append(_reference_pooled(pool, tuple(occ_tokens)))
    packed = {}
    for sym, occs in sym_occs.items():
        occ_tuple = tuple(occs)
        packed[sym] = intern(occ_tuple, occ_tuple)
    return {
        "sid": sid,
        "pointsets": tuple(sets),
        "times": tuple(times),
        "occ_keys": tuple(keys),
        "occ_start": tuple(starts),
        "occ_finish": tuple(finishes),
        "occ_pointsets": tuple(occ_sets),
        "sym_occs": packed,
        "sym_last": _reference_pooled(
            pool,
            tuple(sorted(((at, s) for s, at in last.items()), reverse=True)),
        ),
    }


def reference_encode(db: ESequenceDatabase) -> dict[str, Any]:
    """The encoding as the two-sort encoder built it: occurrences, then
    a dict of instants, then a sort of the instants."""
    labels = tuple(sorted(db.alphabet))
    label_ids = {label: i for i, label in enumerate(labels)}
    pool: dict = {}
    sequences = []
    for seq in db:
        by_time: dict[Any, list[tuple[int, int]]] = {}
        for event, occ in seq.occurrence_indexed():
            label_id = label_ids[event.label]
            if event.is_point:
                by_time.setdefault(event.start, []).append(
                    (label_id * 3 + POINT, occ)
                )
            else:
                by_time.setdefault(event.start, []).append(
                    (label_id * 3 + START, occ)
                )
                by_time.setdefault(event.finish, []).append(
                    (label_id * 3 + FINISH, occ)
                )
        times = sorted(by_time)
        sequences.append(
            _reference_sequence(
                seq.sid, [by_time[t] for t in times], times, pool
            )
        )
    return {
        "labels": labels,
        "label_ids": label_ids,
        "size": len(db),
        "sequences": sequences,
    }


class ReferencePairTables:
    """The tuple-keyed pair tables, walking all first x all last
    positions of every sequence."""

    def __init__(self, encoded: EncodedDatabase, weights: list[float]):
        self.s: dict[tuple[int, int], float] = {}
        self.i: dict[tuple[int, int], float] = {}
        for seq in encoded.sequences:
            weight = weights[seq.sid]
            first: dict[int, int] = {}
            last: dict[int, int] = {}
            co_occur: set[tuple[int, int]] = set()
            for idx, pointset in enumerate(seq.pointsets):
                syms_here = sorted({sym for sym, _ in pointset})
                counts: dict[int, int] = {}
                for sym, _ in pointset:
                    counts[sym] = counts.get(sym, 0) + 1
                for i, a in enumerate(syms_here):
                    if counts[a] > 1:
                        co_occur.add((a, a))
                    for b in syms_here[i + 1 :]:
                        co_occur.add((a, b))
                for sym in syms_here:
                    first.setdefault(sym, idx)
                    last[sym] = idx
            for a, fa in first.items():
                for b, lb in last.items():
                    if lb > fa:
                        self.s[a, b] = self.s.get((a, b), 0.0) + weight
            for key in co_occur:
                self.i[key] = self.i.get(key, 0.0) + weight

    def s_pair(self, a: int, b: int) -> float:
        return self.s.get((a, b), 0.0)

    def i_pair(self, a: int, b: int) -> float:
        return self.i.get((a, b) if a <= b else (b, a), 0.0)

    def stats(self) -> dict[str, int]:
        return {"s_pairs": len(self.s), "i_pairs": len(self.i)}


def reference_pair_ok(
    pairs: ReferencePairTables,
    pointsets: list[list[tuple[int, int]]],
    threshold: float,
    ext: int,
    sym: int,
) -> bool:
    """The per-candidate pair bound the search used to evaluate."""
    all_syms = {s for ps in pointsets for s, _ in ps}
    current = {s for s, _ in pointsets[-1]}
    earlier = {s for ps in pointsets[:-1] for s, _ in ps}
    if ext == 1:
        return all(pairs.s_pair(a, sym) + _EPS >= threshold for a in all_syms)
    if not all(pairs.i_pair(a, sym) + _EPS >= threshold for a in current):
        return False
    return all(pairs.s_pair(a, sym) + _EPS >= threshold for a in earlier)


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def _interned(sequences: list[Any], get: Any) -> list[object]:
    """Every pooled tuple of an encoding, in a fixed order."""
    out: list[object] = []
    for seq in sequences:
        for name in ("pointsets", "occ_pointsets"):
            for pointset in get(seq, name):
                out.append(pointset)
                out.extend(pointset)
        out.extend(get(seq, "occ_keys"))
        occs = get(seq, "sym_occs")
        out.extend(occs[sym] for sym in sorted(occs))
        sym_last = get(seq, "sym_last")
        out.append(sym_last)
        out.extend(sym_last)
    return out


def _identity_classes(objects: list[object]) -> list[int]:
    """Each object's first identical object, by index."""
    first: dict[int, int] = {}
    return [first.setdefault(id(obj), i) for i, obj in enumerate(objects)]


def assert_same_encoding(
    encoded: EncodedDatabase, reference: dict[str, Any]
) -> None:
    """Field by field, with equal times by value and the same pooling."""
    assert encoded.labels == reference["labels"]
    assert encoded.label_ids == reference["label_ids"]
    assert encoded.size == reference["size"]
    assert len(encoded.sequences) == len(reference["sequences"])
    for seq, ref in zip(encoded.sequences, reference["sequences"]):
        for name in _FIELDS:
            assert getattr(seq, name) == ref[name], name
    assert _identity_classes(
        _interned(encoded.sequences, getattr)
    ) == _identity_classes(
        _interned(reference["sequences"], lambda seq, name: seq[name])
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_times = st.one_of(
    st.integers(0, 6), st.integers(0, 12).map(lambda half: half / 2)
)
_durations = st.sampled_from([0, 0, 1, 2, 3, 1.5, 2.0])


@st.composite
def _events(draw: Any, labels: str) -> IntervalEvent:
    start = draw(_times)
    return IntervalEvent(
        start, start + draw(_durations), draw(st.sampled_from(labels))
    )


@st.composite
def weighted_databases(
    draw: Any,
) -> tuple[ESequenceDatabase, list[float], float]:
    """A database, its weights (some zero) and an absolute threshold."""
    labels = draw(st.sampled_from(["AB", "ABC", "ABCDE"]))
    rows = draw(
        st.lists(st.lists(_events(labels), max_size=6), max_size=8)
    )
    db = ESequenceDatabase([ESequence(row) for row in rows], name="ref")
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.7, 1.0]),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    # Sums of 0.1, 0.2 and 0.7 land a rounding error off 0.3 and 1.0,
    # where the bound's 1e-9 slack decides.
    threshold = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0]))
    return db, weights, threshold


def _kept_labels(
    db: ESequenceDatabase, weights: list[float], threshold: float
) -> tuple[Any, PruneCounters]:
    counters = PruneCounters()
    keep = PTPMiner._point_prune(db, weights, threshold, counters)
    return keep, counters


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(weighted_databases())
def test_pruned_encoding_equals_encoding_of_filtered_database(case):
    db, weights, threshold = case
    keep, counters = _kept_labels(db, weights, threshold)
    filtered, pruned = reference_point_prune(db, weights, threshold)
    assert counters.pruned_point_labels == pruned
    reference = reference_encode(filtered)
    assert_same_encoding(EncodedDatabase(db, keep), reference)
    assert_same_encoding(EncodedDatabase(filtered), reference)


@settings(max_examples=60, deadline=None)
@given(weighted_databases())
def test_encoded_sequence_constructor_matches_reference(case):
    db, _weights, _threshold = case
    reference = reference_encode(db)
    pool: dict = {}
    for seq in reference["sequences"]:
        built = EncodedSequence(
            seq["sid"], [list(ps) for ps in seq["pointsets"]], seq["times"], pool
        )
        for name in _FIELDS:
            assert getattr(built, name) == seq[name], name


@settings(max_examples=60, deadline=None)
@given(weighted_databases())
def test_plan_root_returns_the_filtered_database(case):
    db, weights, threshold = case
    filtered, pruned = reference_point_prune(db, weights, threshold)
    mining_db, counters, _root = PTPMiner(mode="htp").plan_root(
        db, weights, threshold
    )
    assert counters.pruned_point_labels == pruned
    assert mining_db == filtered
    assert mining_db.name == db.name
    assert [seq.sid for seq in mining_db] == [seq.sid for seq in db]
    if not pruned:
        assert mining_db is db


@settings(max_examples=150, deadline=None)
@given(weighted_databases())
def test_pair_tables_answer_as_the_tuple_keyed_tables(case):
    db, weights, _threshold = case
    encoded = EncodedDatabase(db)
    pairs = PairTables(encoded, weights)
    reference = ReferencePairTables(encoded, weights)
    assert pairs.stats() == reference.stats()
    n = 3 * len(encoded.labels)
    for a in range(-2, n + 3):
        for b in range(-2, n + 3):
            assert pairs.s_pair(a, b) == reference.s_pair(a, b)
            assert pairs.i_pair(a, b) == reference.i_pair(a, b)


@st.composite
def _prefixes(draw: Any, n: int) -> list[list[tuple[int, int]]]:
    syms = st.integers(0, n - 1)
    return draw(
        st.lists(
            st.lists(st.tuples(syms, st.integers(1, 2)), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )


@settings(max_examples=150, deadline=None)
@given(weighted_databases(), st.data())
def test_masks_admit_what_pair_ok_admitted(case, data):
    db, weights, threshold = case
    encoded = EncodedDatabase(db)
    n = 3 * len(encoded.labels)
    if n == 0:
        return
    pairs = PairTables(encoded, weights)
    reference = ReferencePairTables(encoded, weights)
    prefix = data.draw(_prefixes(n))
    masks = pairs.rows(threshold).masks(prefix)
    for ext in (0, 1):
        for sym in range(n):
            assert bool(masks[ext] >> sym & 1) == reference_pair_ok(
                reference, prefix, threshold, ext, sym
            )


@settings(max_examples=100, deadline=None)
@given(weighted_databases(), st.data())
def test_raised_rows_equal_rows_built_at_the_new_threshold(case, data):
    db, weights, threshold = case
    encoded = EncodedDatabase(db)
    pairs = PairTables(encoded, weights)
    rows = pairs.rows(threshold)
    steps = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.7, 1.0])
    for step in data.draw(st.lists(steps)):
        threshold += step
        rows.raise_to(threshold)
        fresh = pairs.rows(threshold)
        assert (rows.s, rows.i) == (fresh.s, fresh.i)


def test_rows_keep_the_bound_slack():
    """A cell a rounding error short of the threshold still passes, as
    the per-candidate test let it: 0.7 + 0.2 + 0.1 < 1.0 in floats."""
    db = ESequenceDatabase.from_event_lists(
        [[(0, 1, "A"), (2, 3, "B")]] * 3
    )
    weights = [0.7, 0.2, 0.1]
    encoded = EncodedDatabase(db)
    a, b = encoded.sym("A", START), encoded.sym("B", START)
    pairs = PairTables(encoded, weights)
    assert pairs.s_pair(a, b) < 1.0
    prefix = [[(a, 1)]]
    reference = ReferencePairTables(encoded, weights)
    assert reference_pair_ok(reference, prefix, 1.0, 1, b)
    assert pairs.rows(1.0).masks(prefix)[1] >> b & 1
    raised = pairs.rows(0.5)
    raised.raise_to(1.0)
    assert raised.masks(prefix)[1] >> b & 1


# ---------------------------------------------------------------------------
# top-k with pair pruning on: unchanged by the per-node masks
# ---------------------------------------------------------------------------

#: (config id, k): (threshold, patterns digest, counters), measured with
#: the per-candidate pair bound, before the masks replaced it. The
#: golden ``dense-tp-0.3`` config is left out: its top-k takes tens of
#: seconds.
GOLDEN_TOP_K = {
    ("sparse-tp-0.05", 10): (62.0, "b6f0d87784624473", {
        "nodes_expanded": 3025, "candidates_considered": 6087,
        "candidates_frequent": 3024, "pruned_point_labels": 0,
        "pruned_pair": 2226, "pruned_postfix_branches": 1351,
        "pruned_dead_states": 4473, "states_created": 9558,
        "patterns_emitted": 651,
    }),
    ("sparse-tp-0.05", 40): (28.0, "04c98e8b15b68362", {
        "nodes_expanded": 7534, "candidates_considered": 15082,
        "candidates_frequent": 7533, "pruned_point_labels": 0,
        "pruned_pair": 5394, "pruned_postfix_branches": 3168,
        "pruned_dead_states": 9448, "states_created": 18720,
        "patterns_emitted": 1732,
    }),
    ("hybrid-htp-0.08", 10): (85.0, "2c12e60c36fc60b5", {
        "nodes_expanded": 26824, "candidates_considered": 30571,
        "candidates_frequent": 26823, "pruned_point_labels": 0,
        "pruned_pair": 2783, "pruned_postfix_branches": 8122,
        "pruned_dead_states": 10556, "states_created": 27868,
        "patterns_emitted": 8316,
    }),
    ("hybrid-htp-0.08-max_span", 10): (46.0, "670f3ecfcac73769", {
        "nodes_expanded": 131, "candidates_considered": 470,
        "candidates_frequent": 130, "pruned_point_labels": 0,
        "pruned_pair": 142, "pruned_postfix_branches": 5,
        "pruned_dead_states": 17, "states_created": 2144,
        "patterns_emitted": 89,
    }),
    ("hybrid-htp-0.08-max_span", 40): (9.0, "639592fac567e941", {
        "nodes_expanded": 513, "candidates_considered": 825,
        "candidates_frequent": 512, "pruned_point_labels": 0,
        "pruned_pair": 154, "pruned_postfix_branches": 48,
        "pruned_dead_states": 86, "states_created": 3234,
        "patterns_emitted": 279,
    }),
    ("sparse-tp-0.08-no_postfix", 10): (62.0, "b6f0d87784624473", {
        "nodes_expanded": 30967, "candidates_considered": 41615,
        "candidates_frequent": 30966, "pruned_point_labels": 0,
        "pruned_pair": 6337, "pruned_postfix_branches": 0,
        "pruned_dead_states": 0, "states_created": 61849,
        "patterns_emitted": 651,
    }),
}

_TOP_K_CONFIGS = {
    "sparse-tp-0.05": ("sparse", "tp", {}),
    "hybrid-htp-0.08": ("hybrid", "htp", {}),
    "hybrid-htp-0.08-max_span": ("hybrid", "htp", {"max_span": 6.0}),
    "sparse-tp-0.08-no_postfix": (
        "sparse", "tp", {"pruning": PruningConfig(postfix=False)}
    ),
}


@pytest.mark.parametrize(
    "config_id, k", sorted(GOLDEN_TOP_K), ids=lambda v: str(v)
)
def test_top_k_matches_golden(config_id: str, k: int) -> None:
    dataset, mode, extra = _TOP_K_CONFIGS[config_id]
    miner = PTPMiner(mode=mode, **{"pruning": PruningConfig.all(), **extra})
    result = miner.mine_top_k(_golden_db(dataset, mode), k)
    threshold, digest, counters = GOLDEN_TOP_K[config_id, k]
    assert result.threshold == threshold
    assert patterns_digest(result.patterns) == digest
    assert result.counters.as_dict() == counters


def test_top_k_checks_the_mode_once(monkeypatch):
    """``mine_top_k`` leaves the mode check to the shared pipeline:
    point pruning's pass makes it, or else one ``require_mode`` call."""
    calls: list[str] = []
    original = ESequenceDatabase.require_mode

    def counting(self: ESequenceDatabase, mode: str) -> None:
        calls.append(mode)
        original(self, mode)

    monkeypatch.setattr(ESequenceDatabase, "require_mode", counting)
    db = ESequenceDatabase.from_event_lists([[(0, 2, "A"), (1, 3, "B")]])
    PTPMiner().mine_top_k(db, 1)
    assert calls == []
    PTPMiner(pruning=PruningConfig(point=False)).mine_top_k(db, 1)
    assert calls == ["tp"]


def test_top_k_still_rejects_point_events_in_tp_mode():
    db = ESequenceDatabase.from_event_lists([[(0, 0, "A"), (1, 3, "B")]])
    with pytest.raises(ValueError, match="database contains point events"):
        PTPMiner().mine_top_k(db, 1)
