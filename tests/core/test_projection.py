"""Unit tests for projection states and deduplication."""

from repro.core.projection import EMPTY_STATE, NO_FINISH, dedupe_states


def st_(pos, binds=(), used=0, min_finish=NO_FINISH, window=None):
    return (pos, tuple(binds), used, min_finish, window)


class TestState:
    def test_empty_state(self):
        pos, binds, used, min_finish, window = EMPTY_STATE
        assert pos == -1
        assert not binds
        assert not used
        assert min_finish == NO_FINISH
        assert window is None

    def test_binds_order_distinguishes_states(self):
        # binds[i] is the sequence occurrence bound to the i-th open
        # pattern occurrence: the same occurrences bound the other way
        # round are another embedding, and dedupe keeps both.
        a = st_(3, binds=(2, 1), used=0b110, min_finish=5)
        b = st_(3, binds=(1, 2), used=0b110, min_finish=5)
        assert dedupe_states([a, b, a]) == (a, b)

    def test_states_hashable(self):
        assert len({st_(1), st_(1)}) == 1

    def test_window_start_distinguishes_states(self):
        assert st_(1, window=0.0) != st_(1, window=3.0)


class TestDedupe:
    def test_exact_duplicates_removed(self):
        states = [st_(2, (1,), 0b10, 4), st_(2, (1,), 0b10, 4)]
        assert len(dedupe_states(states)) == 1

    def test_distinct_states_kept(self):
        a = st_(2, binds=(1,), used=0b10, min_finish=4)
        b = st_(2, binds=(2,), used=0b100, min_finish=5)
        c = st_(3, binds=(1,), used=0b10, min_finish=4)
        assert set(dedupe_states([a, b, c])) == {a, b, c}

    def test_first_seen_order_preserved(self):
        a, b, c = st_(3), st_(1), st_(2)
        assert dedupe_states([a, b, c, a, b]) == (a, b, c)

    def test_empty_and_singleton(self):
        assert dedupe_states([]) == ()
        only = st_(4)
        assert dedupe_states([only]) == (only,)

    def test_equal_cardinality_used_sets_both_kept(self):
        # The structural fact the module relies on: embeddings of one
        # prefix always consume equally many occurrences, so used sets
        # are never strict subsets — both incomparable states stay.
        a = st_(2, used=0b01)
        b = st_(2, used=0b10)
        assert set(dedupe_states([a, b])) == {a, b}
