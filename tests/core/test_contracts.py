"""Tests for the runtime contract layer (``repro.contracts``).

Covers the flag plumbing (env/enable/disable/scope), the ``check`` and
``@contract`` primitives, the projection-state contract, and the
pruning-soundness oracle — including that a deliberately sabotaged
search is caught when contracts are on and invisible when they are off
(the zero-cost-disabled guarantee).
"""

from __future__ import annotations

import pytest

from repro import contracts
from repro.contracts import ContractViolation, check, contract
from repro.core import ptpminer
from repro.core.projection import EMPTY_STATE, NO_FINISH, State, check_state
from repro.core.ptpminer import PTPMiner
from repro.temporal.endpoint import EncodedSequence

# ---------------------------------------------------------------------------
# flag plumbing
# ---------------------------------------------------------------------------

def test_suite_runs_with_contracts_enabled():
    """The session fixture in conftest.py turns the layer on suite-wide."""
    assert contracts.is_enabled()


def test_enable_disable_round_trip():
    assert contracts.checking
    contracts.disable()
    try:
        assert not contracts.is_enabled()
    finally:
        contracts.enable()
    assert contracts.is_enabled()


def test_enabled_scope_restores_prior_value():
    with contracts.enabled_scope(False):
        assert not contracts.checking
        with contracts.enabled_scope(True):
            assert contracts.checking
        assert not contracts.checking
    assert contracts.checking


def test_violation_is_an_assertion_error():
    assert issubclass(ContractViolation, AssertionError)


# ---------------------------------------------------------------------------
# check()
# ---------------------------------------------------------------------------

def test_check_raises_when_enabled():
    with pytest.raises(ContractViolation, match="boom"):
        check(False, "boom")
    check(True, "fine")  # no raise


def test_check_is_noop_when_disabled():
    called = []
    with contracts.enabled_scope(False):
        check(False, "never raised", details=lambda: called.append("x") or "")
    assert called == []


def test_check_details_lazy_and_appended():
    called = []

    def details() -> str:
        called.append("x")
        return "extra context"

    check(True, "fine", details=details)
    assert called == []  # details only computed on failure
    with pytest.raises(ContractViolation, match="extra context"):
        check(False, "boom", details=details)


# ---------------------------------------------------------------------------
# @contract
# ---------------------------------------------------------------------------

def test_contract_pre_and_post():
    @contract(pre=lambda x: x >= 0, post=lambda result, x: result >= x)
    def increment(x: int) -> int:
        return x + 1 if x < 10 else x - 1

    assert increment(3) == 4
    with pytest.raises(ContractViolation, match="precondition"):
        increment(-1)
    with pytest.raises(ContractViolation, match="postcondition"):
        increment(10)


def test_contract_forwards_when_disabled():
    @contract(pre=lambda x: False)  # would always fail
    def f(x: int) -> int:
        return x * 2

    with contracts.enabled_scope(False):
        assert f(21) == 42


# ---------------------------------------------------------------------------
# projection-state contract
# ---------------------------------------------------------------------------

def _toy_sequence() -> EncodedSequence:
    """Two pointsets; one interval occurrence (label_id 1, occ 0), e = 0."""
    return EncodedSequence(
        sid=0,
        pointsets=[[(4, 0)], [(5, 0)]],
        times=(0.0, 1.0),
    )


def test_check_state_accepts_consistent_state():
    seq = _toy_sequence()
    check_state(EMPTY_STATE, seq)
    check_state((0, (0,), 0b1, 1, None), seq)
    check_state((1, (), 0b1, NO_FINISH, None), seq)


@pytest.mark.parametrize(
    "state, match",
    [
        ((5, (), 0, NO_FINISH, None), "frontier out of range"),
        ((-2, (), 0, NO_FINISH, None), "frontier out of range"),
        ((0, (0,), 0, 1, None), "not marked used"),
        ((0, (0, 0), 0b1, 1, None), "sequence occurrence bound twice"),
        ((0, (), 0b10, NO_FINISH, None), "missing from the sequence"),
        ((0, (1,), 0b1, 1, None), "bound occurrence missing"),
        ((0, (0,), 0b1, NO_FINISH, None), "min_finish disagrees"),
    ],
)
def test_check_state_rejects_corrupted_states(state, match):
    with pytest.raises(ContractViolation, match=match):
        check_state(state, _toy_sequence())


def _clear_bound_bits(state: State) -> State:
    pos, binds, used, min_finish, window = state
    for e in binds:
        used &= ~(1 << e)
    return (pos, binds, used, min_finish, window)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda st: (-2, *st[1:]), "frontier out of range"),
        (_clear_bound_bits, "not marked used"),
        (
            lambda st: (st[0], st[1] + st[1][:1], *st[2:]),
            "sequence occurrence bound twice",
        ),
        (
            lambda st: (*st[:2], st[2] | 1 << 64, *st[3:]),
            "missing from the sequence",
        ),
        (lambda st: (*st[:3], st[3] - 1, *st[4:]), "min_finish disagrees"),
    ],
    ids=["frontier", "used", "bound-twice", "missing", "min-finish"],
)
def test_miner_checks_every_projected_state(
    monkeypatch, two_interval_db, corrupt, match
):
    """The search really calls check_state on what ``project`` builds."""
    original = ptpminer.dedupe_states

    def corrupting(states, stats=None):
        return tuple(corrupt(st) for st in original(states, stats))

    monkeypatch.setattr(ptpminer, "dedupe_states", corrupting)
    with pytest.raises(ContractViolation, match=match):
        PTPMiner(0.5).mine(two_interval_db)


# ---------------------------------------------------------------------------
# pruning-soundness oracle
# ---------------------------------------------------------------------------

def _sabotage_search(monkeypatch):
    """Patch the miner to silently drop its last found pattern."""
    original = PTPMiner._search

    def sabotaged(self, *args, **kwargs):
        patterns = original(self, *args, **kwargs)
        assert patterns, "sabotage needs at least one pattern to drop"
        return patterns[:-1]

    monkeypatch.setattr(PTPMiner, "_search", sabotaged)


def test_oracle_catches_dropped_pattern(monkeypatch, two_interval_db):
    _sabotage_search(monkeypatch)
    with pytest.raises(ContractViolation, match="oracle"):
        PTPMiner(0.5).mine(two_interval_db)


def test_sabotage_invisible_when_disabled(monkeypatch, two_interval_db):
    """Disabled contracts add no checking — the bug passes silently."""
    _sabotage_search(monkeypatch)
    with contracts.enabled_scope(False):
        result = PTPMiner(0.5).mine(two_interval_db)
    assert result.patterns  # mined, one pattern short, no error


def test_clean_mining_passes_oracle(two_interval_db):
    result = PTPMiner(0.5).mine(two_interval_db)
    assert result.patterns
