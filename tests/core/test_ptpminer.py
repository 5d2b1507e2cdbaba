"""Unit tests for P-TPMiner: semantics, modes, limits, determinism."""

import pytest

from repro.core.pruning import PruningConfig
from repro.core.ptpminer import PTPMiner, mine
from repro.model.database import ESequenceDatabase
from repro.model.pattern import TemporalPattern

from tests.conftest import make_random_db


def pat(text):
    return TemporalPattern.parse(text)


class TestBasicMining:
    def test_single_sequence_all_patterns(self):
        db = ESequenceDatabase.from_event_lists([[(0, 4, "A"), (2, 6, "B")]])
        result = PTPMiner(min_sup=1.0).mine(db)
        assert result.as_dict() == {
            pat("(A+) (A-)"): 1,
            pat("(B+) (B-)"): 1,
            pat("(A+) (B+) (A-) (B-)"): 1,
        }

    def test_known_supports(self, clinical_db):
        result = PTPMiner(min_sup=2).mine(clinical_db)
        supports = result.as_dict()
        assert supports[pat("(fever+) (fever-)")] == 3
        assert supports[pat("(rash+) (rash-)")] == 4
        assert supports[pat("(fever+) (rash+) (rash-) (fever-)")] == 2

    def test_threshold_excludes_rare_patterns(self, clinical_db):
        result = PTPMiner(min_sup=2).mine(clinical_db)
        # 'fever meets rash' occurs once only.
        assert pat("(fever+) (fever- rash+) (rash-)") not in result.pattern_set()

    def test_absolute_min_sup(self, clinical_db):
        rel = PTPMiner(min_sup=0.5).mine(clinical_db)
        abs_ = PTPMiner(min_sup=2).mine(clinical_db)
        assert rel.as_dict() == abs_.as_dict()

    def test_empty_database(self):
        result = PTPMiner(min_sup=1).mine(ESequenceDatabase([]))
        assert result.patterns == []

    def test_database_of_empty_sequences(self):
        db = ESequenceDatabase.from_event_lists([[], []])
        assert PTPMiner(min_sup=1).mine(db).patterns == []

    def test_all_patterns_complete_and_canonical(self):
        db = make_random_db(3, num_sequences=8)
        for item in PTPMiner(min_sup=0.25).mine(db).patterns:
            assert item.pattern.is_complete
            assert item.pattern.is_canonical

    def test_supports_are_exact(self, clinical_db):
        result = PTPMiner(min_sup=1).mine(clinical_db)
        for item in result.patterns:
            assert item.support == item.pattern.support_in(clinical_db)

    def test_results_sorted_canonically(self):
        db = make_random_db(5)
        patterns = PTPMiner(min_sup=0.2).mine(db).patterns
        from repro.model.pattern import PatternWithSupport

        assert patterns == sorted(patterns, key=PatternWithSupport.sort_key)

    def test_mine_convenience_function(self, clinical_db):
        assert mine(clinical_db, 2).as_dict() == PTPMiner(2).mine(
            clinical_db
        ).as_dict()

    def test_deterministic_across_runs(self):
        db = make_random_db(11, num_sequences=12)
        a = PTPMiner(min_sup=0.2).mine(db)
        b = PTPMiner(min_sup=0.2).mine(db)
        assert a.patterns == b.patterns


class TestModes:
    def test_tp_mode_rejects_point_events(self, hybrid_db):
        with pytest.raises(ValueError, match="point events"):
            PTPMiner(min_sup=1, mode="tp").mine(hybrid_db)

    @pytest.mark.parametrize("point", [True, False], ids=["on", "off"])
    def test_point_event_fails_tp_before_encoding(
        self, hybrid_db, monkeypatch, point
    ):
        # Point pruning's pass makes the mode check when it runs, and
        # require_mode when it does not: one message, nothing encoded.
        from repro.core import ptpminer as ptpminer_module

        def no_encoding(*args, **kwargs):
            raise AssertionError("encoded before the mode check")

        monkeypatch.setattr(ptpminer_module, "EncodedDatabase", no_encoding)
        with pytest.raises(ValueError) as expected:
            hybrid_db.require_mode("tp")
        miner = PTPMiner(min_sup=1, pruning=PruningConfig(point=point))
        with pytest.raises(ValueError) as raised:
            miner.mine(hybrid_db)
        assert str(raised.value) == str(expected.value)

    def test_htp_mode_finds_hybrid_patterns(self, hybrid_db):
        result = PTPMiner(min_sup=2, mode="htp").mine(hybrid_db)
        supports = result.as_dict()
        assert supports[pat("(infusion+) (alarm.) (infusion-)")] == 2
        assert supports[pat("(alarm.)")] == 2
        assert supports[pat("(infusion+) (infusion-)")] == 3

    def test_stripping_points_equals_tp_mode(self, hybrid_db):
        stripped = hybrid_db.without_point_events()
        tp = PTPMiner(min_sup=2, mode="tp").mine(stripped)
        htp = PTPMiner(min_sup=2, mode="htp").mine(hybrid_db)
        tp_patterns = {
            p for p in htp.pattern_set() if not p.is_hybrid
        }
        assert tp.pattern_set() == tp_patterns

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PTPMiner(mode="bogus")


class TestLimits:
    def test_max_size_caps_event_count(self):
        db = make_random_db(7, num_sequences=8, max_events=5)
        result = PTPMiner(min_sup=0.2, max_size=2).mine(db)
        assert result.patterns
        assert all(item.pattern.size <= 2 for item in result.patterns)

    def test_max_size_matches_unrestricted_subset(self):
        db = make_random_db(7, num_sequences=8, max_events=5)
        full = PTPMiner(min_sup=0.2).mine(db).as_dict()
        capped = PTPMiner(min_sup=0.2, max_size=2).mine(db).as_dict()
        expected = {p: s for p, s in full.items() if p.size <= 2}
        assert capped == expected

    def test_max_tokens_caps_token_count(self):
        db = make_random_db(9, num_sequences=8)
        result = PTPMiner(min_sup=0.2, max_tokens=3).mine(db)
        assert all(item.pattern.num_tokens <= 3 for item in result.patterns)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            PTPMiner(max_tokens=0)
        with pytest.raises(ValueError):
            PTPMiner(max_size=0)


class TestWeightedMining:
    def test_weights_scale_support(self, clinical_db):
        weights = [0.5, 0.5, 1.0, 1.0]
        result = PTPMiner(min_sup=1).mine_weighted(clinical_db, weights, 1.0)
        supports = result.as_dict()
        assert supports[pat("(fever+) (fever-)")] == 2.0  # 0.5+0.5+1
        assert supports[pat("(rash+) (rash-)")] == 3.0

    def test_zero_weight_sequences_ignored(self, clinical_db):
        weights = [1.0, 0.0, 0.0, 0.0]
        result = PTPMiner(min_sup=1).mine_weighted(clinical_db, weights, 0.5)
        assert result.as_dict()[pat("(fever+) (fever-)")] == 1

    def test_weight_length_mismatch(self, clinical_db):
        with pytest.raises(ValueError, match="weights"):
            PTPMiner(1).mine_weighted(clinical_db, [1.0], 1.0)

    def test_negative_weight_rejected(self, clinical_db):
        with pytest.raises(ValueError, match="non-negative"):
            PTPMiner(1).mine_weighted(clinical_db, [1, 1, 1, -1], 1.0)

    def test_non_positive_threshold_rejected(self, clinical_db):
        with pytest.raises(ValueError, match="positive"):
            PTPMiner(1).mine_weighted(clinical_db, [1, 1, 1, 1], 0)

    def test_unit_weights_match_plain_mine(self, clinical_db):
        plain = PTPMiner(min_sup=2).mine(clinical_db)
        weighted = PTPMiner(min_sup=2).mine_weighted(
            clinical_db, [1.0] * 4, 2.0
        )
        assert plain.as_dict() == weighted.as_dict()


class TestCountersAndResult:
    def test_counters_populated(self, clinical_db):
        result = PTPMiner(min_sup=2).mine(clinical_db)
        assert result.counters.nodes_expanded > 0
        assert result.counters.patterns_emitted == len(result.patterns)
        assert result.counters.candidates_frequent >= len(result.patterns)

    def test_pair_pruning_counter_fires(self):
        # 'B after A' holds in only 2 of 4 sequences (< threshold 3), so
        # the S-extension of the A-prefix by B+ is discovered but killed
        # by the pair table before any projection work.
        db = ESequenceDatabase.from_event_lists(
            [[(0, 1, "A"), (2, 3, "B")]] * 2
            + [[(2, 3, "A"), (0, 1, "B")]] * 2
        )
        pruned = PTPMiner(min_sup=3).mine(db)
        assert pruned.counters.pruned_pair > 0

    def test_point_pruning_counter_fires(self):
        rows = [[(0, 1, "A"), (2, 3, f"rare{i}")] for i in range(6)]
        db = ESequenceDatabase.from_event_lists(rows)
        result = PTPMiner(min_sup=3).mine(db)
        assert result.counters.pruned_point_labels == 6

    def test_result_metadata(self, clinical_db):
        result = PTPMiner(min_sup=0.5, mode="tp").mine(clinical_db)
        assert result.miner == "P-TPMiner"
        assert result.db_size == 4
        assert result.threshold == 2
        assert result.elapsed >= 0
        assert result.params["pruning"] == "point+pair+postfix"

    def test_top_k(self, clinical_db):
        result = PTPMiner(min_sup=0.25).mine(clinical_db)
        assert len(result.top(2)) == 2
        assert result.top(2)[0].support >= result.top(2)[1].support


class TestPruningEquivalence:
    """All pruning configurations yield identical results (prunings are
    safe); the full config does not exceed the work of the empty config."""

    @pytest.mark.parametrize(
        "config",
        [
            PruningConfig.none(),
            PruningConfig(point=True, pair=False, postfix=False),
            PruningConfig(point=False, pair=True, postfix=False),
            PruningConfig(point=False, pair=False, postfix=True),
            PruningConfig.all(),
        ],
        ids=lambda c: c.describe(),
    )
    def test_all_configs_agree(self, config):
        db = make_random_db(21, num_sequences=14, max_events=5)
        reference = PTPMiner(min_sup=0.2).mine(db).as_dict()
        assert PTPMiner(min_sup=0.2, pruning=config).mine(db).as_dict() == (
            reference
        )

    def test_pruning_reduces_candidates(self):
        db = make_random_db(33, num_sequences=30, labels="ABCDEF",
                            max_events=6)
        full = PTPMiner(min_sup=0.3).mine(db)
        bare = PTPMiner(
            min_sup=0.3, pruning=PruningConfig.none()
        ).mine(db)
        assert (
            full.counters.candidates_considered
            <= bare.counters.candidates_considered
        )
