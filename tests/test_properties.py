"""Cross-cutting property-based tests (hypothesis).

These tie the whole stack together: databases are generated from raw
hypothesis strategies (not the library's own generators), and the
invariants span representation, mining, and interpretation layers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import BruteForceMiner
from repro.baselines.tprefixspan import TPrefixSpanMiner
from repro.core.ptpminer import PTPMiner
from repro.core.rules import generate_rules
from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent, point_event
from repro.model.pattern import TemporalPattern
from repro.model.sequence import ESequence

event_st = st.builds(
    lambda s, d, label: IntervalEvent(s, s + d, label),
    st.integers(0, 8),
    st.integers(0, 4),
    st.sampled_from("AB"),
)
sequence_st = st.lists(event_st, min_size=1, max_size=4).map(ESequence)
db_st = st.lists(sequence_st, min_size=2, max_size=8).map(
    ESequenceDatabase
)
interval_db_st = st.lists(
    st.lists(
        st.builds(
            lambda s, d, label: IntervalEvent(s, s + d, label),
            st.integers(0, 8),
            st.integers(1, 4),
            st.sampled_from("AB"),
        ),
        min_size=1,
        max_size=4,
    ).map(ESequence),
    min_size=2,
    max_size=8,
).map(ESequenceDatabase)


@settings(max_examples=30, deadline=None)
@given(db=interval_db_st, min_sup=st.sampled_from([0.25, 0.5]))
def test_miner_agreement_on_raw_databases(db, min_sup):
    """P-TPMiner equals the validation baseline on arbitrary input."""
    reference = PTPMiner(min_sup).mine(db).as_dict()
    assert TPrefixSpanMiner(min_sup).mine(db).as_dict() == reference


@settings(max_examples=30, deadline=None)
@given(db=db_st)
def test_support_is_anti_monotone_over_containment(db):
    """If P is contained in Q then sup(P) >= sup(Q), across the whole
    mined set."""
    result = PTPMiner(min_sup=0.25, mode="htp").mine(db)
    items = result.patterns
    for i, small in enumerate(items):
        for big in items[i:]:
            if small.pattern.num_tokens >= big.pattern.num_tokens:
                continue
            if small.pattern.contained_in(big.pattern):
                assert small.support >= big.support


@settings(max_examples=30, deadline=None)
@given(db=db_st)
def test_mined_patterns_round_trip_through_text(db):
    result = PTPMiner(min_sup=0.25, mode="htp").mine(db)
    for item in result.patterns:
        assert TemporalPattern.parse(str(item.pattern)) == item.pattern


@settings(max_examples=30, deadline=None)
@given(db=interval_db_st)
def test_mined_supports_match_oracle_counts(db):
    result = PTPMiner(min_sup=0.25).mine(db)
    for item in result.patterns:
        assert item.support == item.pattern.support_in(db)


@settings(max_examples=25, deadline=None)
@given(db=interval_db_st)
def test_allen_description_is_complete(db):
    """Every mined pattern describes all C(size, 2) event pairs."""
    result = PTPMiner(min_sup=0.25).mine(db)
    for item in result.patterns:
        size = item.pattern.size
        assert len(item.pattern.allen_description()) == (
            size * (size - 1) // 2
        )


@settings(max_examples=25, deadline=None)
@given(db=interval_db_st)
def test_rules_confidence_bounds(db):
    result = PTPMiner(min_sup=0.25).mine(db)
    for rule in generate_rules(result, min_confidence=0.01):
        assert 0 < rule.confidence <= 1.0


@settings(max_examples=25, deadline=None)
@given(db=interval_db_st, delta=st.integers(1, 50))
def test_mining_invariant_under_time_shift(db, delta):
    """Patterns are arrangements: shifting all sequences in time changes
    nothing."""
    shifted = ESequenceDatabase([seq.shifted(delta) for seq in db])
    assert PTPMiner(0.25).mine(db).as_dict() == PTPMiner(0.25).mine(
        shifted
    ).as_dict()


@settings(max_examples=20, deadline=None)
@given(db=interval_db_st, factor=st.integers(2, 5))
def test_mining_invariant_under_time_scaling(db, factor):
    scaled = ESequenceDatabase([seq.scaled(factor) for seq in db])
    assert PTPMiner(0.25).mine(db).as_dict() == PTPMiner(0.25).mine(
        scaled
    ).as_dict()


@settings(max_examples=20, deadline=None)
@given(db=interval_db_st)
def test_sequence_order_does_not_matter(db):
    """Mining is a function of the multiset of sequences."""
    reversed_db = ESequenceDatabase(list(reversed(db.sequences)))
    assert PTPMiner(0.25).mine(db).as_dict() == PTPMiner(0.25).mine(
        reversed_db
    ).as_dict()


def _relabelled(events, names):
    return [IntervalEvent(ev.start, ev.finish, names[ev.label]) for ev in events]


@settings(max_examples=25, deadline=None)
@given(
    db=db_st,
    fresh=st.permutations(["y", "x"]),
    min_sup=st.sampled_from([0.25, 0.5]),
)
def test_mining_commutes_with_relabelling(db, fresh, min_sup):
    """A bijection onto fresh labels maps every mined pattern, with its
    support, through the same bijection. Canonical order follows label
    order, so each pattern is mapped through a concrete arrangement."""
    names = dict(zip("AB", fresh))
    relabelled_db = ESequenceDatabase(
        [ESequence(_relabelled(seq, names)) for seq in db]
    )
    expected = {
        TemporalPattern.from_arrangement(
            _relabelled(pattern.to_esequence(), names)
        ): support
        for pattern, support in PTPMiner(min_sup, mode="htp")
        .mine(db)
        .as_dict()
        .items()
    }
    assert PTPMiner(min_sup, mode="htp").mine(
        relabelled_db
    ).as_dict() == expected


@settings(max_examples=25, deadline=None)
@given(db=db_st, min_sup=st.sampled_from([0.25, 0.5]))
def test_duplicating_the_database_doubles_every_support(db, min_sup):
    """Two copies of every sequence at the same relative min-sup: the
    same patterns, each with twice the support."""
    single = PTPMiner(min_sup, mode="htp").mine(db).as_dict()
    double = PTPMiner(min_sup, mode="htp").mine(db.replicated(2)).as_dict()
    assert double == {pattern: 2 * sup for pattern, sup in single.items()}


#: Hand-built htp databases at the edges of the endpoint encoding.
DEGENERATE_DBS = {
    # Point events exactly at an interval's start and at its finish.
    "point-at-endpoints": [
        [IntervalEvent(0, 5, "A"), point_event(0, "p"), point_event(5, "p")],
        [IntervalEvent(0, 5, "A"), point_event(0, "p")],
        [IntervalEvent(2, 4, "A"), point_event(4, "p"), point_event(4, "q")],
        [IntervalEvent(1, 3, "A"), point_event(1, "q")],
    ],
    # Equal-endpoint pile-ups, same-label duplicates included.
    "equal-endpoint-pileups": [
        [IntervalEvent(0, 3, "A"), IntervalEvent(0, 3, "A"),
         IntervalEvent(0, 3, "B"), point_event(0, "p"), point_event(3, "p")],
        [IntervalEvent(0, 3, "A"), IntervalEvent(0, 3, "B"),
         point_event(3, "p")],
        [IntervalEvent(1, 1, "A"), point_event(1, "A"),
         IntervalEvent(1, 2, "B")],
        [IntervalEvent(0, 2, "A"), IntervalEvent(0, 2, "A")],
    ],
    # Meets-chains through a point: A meets B at p, B meets C at q.
    "meets-chain-through-point": [
        [IntervalEvent(0, 2, "A"), point_event(2, "p"),
         IntervalEvent(2, 4, "B"), point_event(4, "q"),
         IntervalEvent(4, 6, "C")],
        [IntervalEvent(0, 2, "A"), point_event(2, "p"),
         IntervalEvent(2, 4, "B")],
        [IntervalEvent(1, 3, "B"), point_event(3, "q"),
         IntervalEvent(3, 5, "C")],
        [IntervalEvent(0, 1, "A"), point_event(1, "p"),
         IntervalEvent(1, 2, "A")],
    ],
}


@pytest.mark.parametrize("min_sup", [0.25, 2])
@pytest.mark.parametrize("name", sorted(DEGENERATE_DBS))
def test_degenerate_htp_inputs_match_brute_force(name, min_sup):
    """P-TPMiner equals the exhaustive oracle on degenerate htp input,
    serially and sharded over 1-3 workers on both executors."""
    from repro.core.config import MinerConfig
    from repro.engine import mine_sharded

    db = ESequenceDatabase([ESequence(row) for row in DEGENERATE_DBS[name]])
    reference = BruteForceMiner(min_sup, mode="htp").mine(db).as_dict()
    serial = PTPMiner(min_sup, mode="htp").mine(db)
    assert serial.as_dict() == reference
    assert reference
    config = MinerConfig(min_sup=min_sup, mode="htp")
    for executor in ("serial", "process"):
        for workers in (1, 2, 3):
            sharded = mine_sharded(
                db, config, workers=workers, executor=executor
            )
            assert sharded.patterns == serial.patterns, (executor, workers)
            assert sharded.counters == serial.counters, (executor, workers)


@settings(max_examples=20, deadline=None)
@given(
    db=interval_db_st,
    workers=st.sampled_from([2, 3, 4]),
    max_span=st.sampled_from([None, 6.0]),
)
def test_sharded_engine_equals_serial_tp(db, workers, max_span):
    """The engine's determinism guarantee, on arbitrary interval input:
    sorted patterns, supports, and counters all match the sequential
    miner for any worker count, with and without a span constraint."""
    from repro.core.config import MinerConfig
    from repro.engine import mine_sharded

    config = MinerConfig(min_sup=0.25, max_span=max_span)
    serial = PTPMiner.from_config(config).mine(db)
    sharded = mine_sharded(db, config, workers=workers, executor="serial")
    assert sharded.patterns == serial.patterns
    assert sharded.counters == serial.counters


@settings(max_examples=20, deadline=None)
@given(db=db_st, workers=st.sampled_from([2, 4]))
def test_sharded_engine_equals_serial_htp(db, workers):
    """Same guarantee in hybrid mode, where point events survive into
    the endpoint encoding."""
    from repro.core.config import MinerConfig
    from repro.engine import mine_sharded

    config = MinerConfig(min_sup=0.25, mode="htp")
    serial = PTPMiner.from_config(config).mine(db)
    sharded = mine_sharded(db, config, workers=workers, executor="serial")
    assert sharded.patterns == serial.patterns
    assert sharded.counters == serial.counters


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 3]))
def test_sharded_engine_on_randomized_synthetic_dbs(seed, workers):
    """Serial/sharded agreement on the library's own generator output
    (hybrid databases with point events, mined in htp mode)."""
    from repro.core.config import MinerConfig
    from repro.datagen.synthetic import SyntheticConfig, SyntheticGenerator
    from repro.engine import mine_sharded

    db = SyntheticGenerator(
        SyntheticConfig(
            num_sequences=12,
            avg_events=5,
            num_labels=4,
            point_fraction=0.3,
            seed=seed,
            name=f"prop-{seed}",
        )
    ).generate()
    config = MinerConfig(min_sup=0.25, mode="htp")
    serial = PTPMiner.from_config(config).mine(db)
    sharded = mine_sharded(db, config, workers=workers, executor="serial")
    assert sharded.patterns == serial.patterns
    assert sharded.counters == serial.counters


@settings(max_examples=15, deadline=None)
@given(
    db=interval_db_st,
    workers=st.sampled_from([1, 2, 3, 4]),
    min_sup=st.sampled_from([0.25, 0.5]),
)
def test_sharded_provenance_equals_serial(db, workers, min_sup):
    """Provenance snapshots are bit-for-bit serial == sharded on
    arbitrary databases: every pattern's support set / witnesses and
    every prune decision land identically for any worker count."""
    import json

    from repro.core.config import MinerConfig
    from repro.engine import mine_sharded
    from repro.obs import provenance as obs_provenance

    config = MinerConfig(min_sup=min_sup)
    with obs_provenance.use_collector() as serial_collector:
        PTPMiner.from_config(config).mine(db)
    with obs_provenance.use_collector() as sharded_collector:
        mine_sharded(db, config, workers=workers, executor="serial")
    assert json.dumps(
        sharded_collector.snapshot(), sort_keys=True
    ) == json.dumps(serial_collector.snapshot(), sort_keys=True)


@settings(max_examples=3, deadline=None)
@given(db=interval_db_st, workers=st.sampled_from([2, 3]))
def test_sharded_provenance_equals_serial_process_executor(db, workers):
    """Same guarantee across real process boundaries (snapshots are
    pickled home inside ShardResult and absorbed by the parent)."""
    import json

    from repro.core.config import MinerConfig
    from repro.engine import mine_sharded
    from repro.obs import provenance as obs_provenance

    config = MinerConfig(min_sup=0.25)
    with obs_provenance.use_collector() as serial_collector:
        PTPMiner.from_config(config).mine(db)
    with obs_provenance.use_collector() as sharded_collector:
        mine_sharded(db, config, workers=workers, executor="process")
    assert json.dumps(
        sharded_collector.snapshot(), sort_keys=True
    ) == json.dumps(serial_collector.snapshot(), sort_keys=True)
