"""Unit and property tests for the endpoint representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.database import ESequenceDatabase
from repro.temporal.allen import relate_general
from repro.temporal.endpoint import (
    FINISH,
    POINT,
    START,
    EncodedDatabase,
    Endpoint,
    EndpointSequence,
    endpoint_sequence_of,
)

from tests.conftest import make_random_db, seq


class TestEndpointToken:
    def test_kind_order_point_start_finish(self):
        # The canonical intra-pointset ordering the miners rely on.
        assert POINT < START < FINISH

    def test_str_forms(self):
        assert str(Endpoint("A", 1, START)) == "A+"
        assert str(Endpoint("A", 2, FINISH)) == "A#2-"
        assert str(Endpoint("tick", 1, POINT)) == "tick."

    def test_parse_round_trip(self):
        for token in (
            Endpoint("A", 1, START),
            Endpoint("B", 3, FINISH),
            Endpoint("x-y", 2, POINT),
        ):
            assert Endpoint.parse(str(token)) == token

    def test_sort_key_groups_by_label(self):
        tokens = [
            Endpoint("B", 1, START),
            Endpoint("A", 1, FINISH),
            Endpoint("A", 1, START),
            Endpoint("A", 1, POINT),
        ]
        ordered = sorted(tokens, key=lambda e: e.sort_key)
        assert [str(t) for t in ordered] == ["A.", "A+", "A-", "B+"]


class TestTransform:
    def test_single_interval(self):
        eps = endpoint_sequence_of(seq((0, 5, "A")))
        assert str(eps) == "(A+) (A-)"

    def test_meets_shares_pointset(self):
        eps = endpoint_sequence_of(seq((0, 3, "A"), (3, 7, "B")))
        assert str(eps) == "(A+) (A- B+) (B-)"

    def test_point_event_single_token(self):
        eps = endpoint_sequence_of(seq((2, 2, "tick"), (0, 4, "A")))
        assert str(eps) == "(A+) (tick.) (A-)"

    def test_duplicate_occurrence_indexing(self):
        eps = endpoint_sequence_of(seq((0, 2, "A"), (4, 6, "A")))
        assert str(eps) == "(A+) (A-) (A#2+) (A#2-)"

    def test_equal_intervals_share_pointsets(self):
        eps = endpoint_sequence_of(seq((0, 3, "A"), (0, 3, "B")))
        assert str(eps) == "(A+ B+) (A- B-)"

    def test_num_tokens(self):
        eps = endpoint_sequence_of(seq((0, 3, "A"), (1, 1, "t")))
        assert eps.num_tokens == 3
        assert len(eps) == 3  # three distinct instants

    def test_empty_pointset_rejected(self):
        with pytest.raises(ValueError, match="empty pointsets"):
            EndpointSequence([[]])


class TestInverseTransform:
    def test_round_trip_simple(self):
        original = seq((0, 4, "A"), (2, 6, "B"))
        eps = endpoint_sequence_of(original)
        rebuilt = eps.to_esequence()
        assert endpoint_sequence_of(rebuilt) == eps

    def test_rebuilt_times_are_dense(self):
        eps = endpoint_sequence_of(seq((10, 40, "A"), (20, 60, "B")))
        rebuilt = eps.to_esequence()
        assert rebuilt.span == (0, 3)

    def test_orphan_finish_raises(self):
        eps = EndpointSequence([[Endpoint("A", 1, FINISH)]])
        with pytest.raises(ValueError, match="no matching start"):
            eps.to_esequence()

    def test_unfinished_start_raises(self):
        eps = EndpointSequence([[Endpoint("A", 1, START)]])
        with pytest.raises(ValueError, match="unfinished"):
            eps.to_esequence()

    def test_same_pointset_start_finish_raises(self):
        eps = EndpointSequence(
            [[Endpoint("A", 1, START), Endpoint("A", 1, FINISH)]]
        )
        with pytest.raises(ValueError, match="point event"):
            eps.to_esequence()

    def test_double_start_raises(self):
        eps = EndpointSequence(
            [[Endpoint("A", 1, START)], [Endpoint("A", 1, START)],
             [Endpoint("A", 1, FINISH)]]
        )
        with pytest.raises(ValueError, match="twice"):
            eps.to_esequence()


class TestLosslessness:
    """The paper's core claim: the endpoint representation preserves the
    arrangement — every pairwise Allen relation survives the round trip."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_round_trip_preserves_endpoint_sequence(self, seed):
        db = make_random_db(seed, num_sequences=3, max_events=6,
                            point_fraction=0.25)
        for s in db:
            if len(s) == 0:
                continue
            eps = endpoint_sequence_of(s)
            assert endpoint_sequence_of(eps.to_esequence()) == eps

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_round_trip_preserves_allen_relations(self, seed):
        db = make_random_db(seed, num_sequences=2, max_events=5)
        for s in db:
            if len(s) < 2:
                continue
            rebuilt = endpoint_sequence_of(s).to_esequence()
            originals = list(s.occurrence_indexed())
            rebuilts = list(rebuilt.occurrence_indexed())
            # Occurrence indexing orders both event lists compatibly.
            assert [
                (ev.label, occ) for ev, occ in originals
            ] == [(ev.label, occ) for ev, occ in rebuilts]
            for i in range(len(originals)):
                for j in range(i + 1, len(originals)):
                    assert relate_general(
                        originals[i][0], originals[j][0]
                    ) is relate_general(rebuilts[i][0], rebuilts[j][0])


class TestEncodedDatabase:
    def test_labels_sorted(self):
        db = ESequenceDatabase([seq((0, 1, "B")), seq((0, 1, "A"))])
        enc = EncodedDatabase(db)
        assert enc.labels == ("A", "B")

    def test_sym_round_trip(self):
        db = ESequenceDatabase([seq((0, 1, "A"), (2, 2, "B"))])
        enc = EncodedDatabase(db)
        for label in ("A", "B"):
            for kind in (START, FINISH, POINT):
                sym = enc.sym(label, kind)
                assert enc.label_of(sym) == label
                assert EncodedDatabase.kind_of(sym) == kind

    def test_pointsets_mirror_endpoint_sequence(self):
        s = seq((0, 4, "A"), (2, 6, "B"), (2, 2, "C"))
        db = ESequenceDatabase([s])
        enc = EncodedDatabase(db)
        decoded = [
            tuple(str(enc.decode_token(t)) for t in ps)
            for ps in enc.sequences[0].pointsets
        ]
        eps = endpoint_sequence_of(s)
        expected = [
            tuple(str(e) for e in ps) for ps in eps.pointsets
        ]
        assert decoded == expected

    def test_positions_locate_endpoints(self):
        s = seq((0, 4, "A"), (2, 6, "B"))
        enc = EncodedDatabase(ESequenceDatabase([s]))
        encoded = enc.sequences[0]
        a_id = enc.label_ids["A"]
        b_id = enc.label_ids["B"]
        assert _positions(encoded, (a_id, 1)) == (0, 2)
        assert _positions(encoded, (b_id, 1)) == (1, 3)

    def test_point_positions_coincide(self):
        s = seq((3, 3, "P"))
        enc = EncodedDatabase(ESequenceDatabase([s]))
        encoded = enc.sequences[0]
        p_id = enc.label_ids["P"]
        start, finish = _positions(encoded, (p_id, 1))
        assert start == finish

    def test_occurrence_index(self):
        # A+ at 0, {B+, C.} at 2, A#2+ at 3; occurrences are numbered in
        # start order, by pointset then canonical token order.
        s = seq((0, 4, "A"), (2, 6, "B"), (2, 2, "C"), (3, 5, "A"))
        enc = EncodedDatabase(ESequenceDatabase([s]))
        encoded = enc.sequences[0]
        a, b, c = (enc.label_ids[label] for label in "ABC")
        assert encoded.occ_keys == ((a, 1), (b, 1), (c, 1), (a, 2))
        assert encoded.occ_start == (0, 1, 1, 2)
        assert encoded.occ_finish == (3, 5, 1, 4)
        for ps, occ_ps in zip(encoded.pointsets, encoded.occ_pointsets):
            assert [sym for sym, _ in ps] == [sym for sym, _ in occ_ps]
            for (sym, occ), (_, e) in zip(ps, occ_ps):
                assert encoded.occ_keys[e] == (sym // 3, occ)
        a_start, b_start = enc.sym("A", START), enc.sym("B", START)
        c_point = enc.sym("C", POINT)
        assert encoded.sym_occs == {a_start: (0, 3), b_start: (1,), c_point: (2,)}
        assert encoded.sym_last == ((2, a_start), (1, c_point), (1, b_start))

    def test_equal_tuples_are_pooled_per_database(self):
        db = ESequenceDatabase([seq((0, 4, "A")), seq((10, 14, "A"))])
        first, second = EncodedDatabase(db).sequences
        assert first.pointsets[0] is second.pointsets[0]
        assert first.occ_pointsets[1] is second.occ_pointsets[1]
        assert first.occ_keys[0] is second.occ_keys[0]

    def test_size(self):
        db = make_random_db(0, num_sequences=5)
        assert EncodedDatabase(db).size == 5


class TestEncodedTimes:
    def test_times_match_pointset_instants(self):
        s = seq((0, 4, "A"), (2, 6, "B"))
        enc = EncodedDatabase(ESequenceDatabase([s]))
        assert enc.sequences[0].times == (0, 2, 4, 6)

    def test_times_align_with_positions(self):
        s = seq((1, 9, "A"), (3, 3, "B"))
        enc = EncodedDatabase(ESequenceDatabase([s]))
        encoded = enc.sequences[0]
        a_id = enc.label_ids["A"]
        start, finish = _positions(encoded, (a_id, 1))
        assert encoded.times[start] == 1
        assert encoded.times[finish] == 9


def _positions(encoded, key):
    """Start and finish pointset of the occurrence ``(label_id, occ)``."""
    e = encoded.occ_keys.index(key)
    return encoded.occ_start[e], encoded.occ_finish[e]
