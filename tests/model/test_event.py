"""Unit tests for the IntervalEvent primitive."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.event import IntervalEvent, format_time, point_event
from repro.model.sequence import ESequence


class TestConstruction:
    def test_basic_fields(self):
        ev = IntervalEvent(2, 7, "fever")
        assert ev.start == 2
        assert ev.finish == 7
        assert ev.label == "fever"

    def test_point_event_allowed(self):
        ev = IntervalEvent(3, 3, "alarm")
        assert ev.is_point
        assert not ev.is_interval

    def test_proper_interval_flags(self):
        ev = IntervalEvent(0, 1, "A")
        assert ev.is_interval
        assert not ev.is_point

    def test_finish_before_start_rejected(self):
        with pytest.raises(ValueError, match="finish < start"):
            IntervalEvent(5, 3, "A")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            IntervalEvent(0, 1, "")

    def test_non_string_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            IntervalEvent(0, 1, 42)  # type: ignore[arg-type]

    def test_point_event_helper(self):
        ev = point_event(5, "tick")
        assert ev == IntervalEvent(5, 5, "tick")

    def test_float_timestamps(self):
        ev = IntervalEvent(0.5, 1.25, "A")
        assert ev.duration == 0.75

    def test_from_tuple(self):
        assert IntervalEvent.from_tuple((1, 2, "X")) == IntervalEvent(1, 2, "X")

    def test_as_tuple_round_trip(self):
        ev = IntervalEvent(1, 9, "Z")
        assert IntervalEvent.from_tuple(ev.as_tuple()) == ev


class TestBehaviour:
    def test_duration(self):
        assert IntervalEvent(3, 9, "A").duration == 6
        assert IntervalEvent(3, 3, "A").duration == 0

    def test_ordering_is_start_finish_label(self):
        a = IntervalEvent(0, 5, "B")
        b = IntervalEvent(0, 5, "A")
        c = IntervalEvent(0, 4, "Z")
        d = IntervalEvent(1, 2, "A")
        assert sorted([a, b, c, d]) == [c, b, a, d]

    def test_hashable_and_equal(self):
        assert hash(IntervalEvent(1, 2, "A")) == hash(IntervalEvent(1, 2, "A"))
        assert len({IntervalEvent(1, 2, "A"), IntervalEvent(1, 2, "A")}) == 1

    def test_immutable(self):
        ev = IntervalEvent(0, 1, "A")
        with pytest.raises(AttributeError):
            ev.start = 5  # type: ignore[misc]

    def test_shifted(self):
        assert IntervalEvent(2, 5, "A").shifted(10) == IntervalEvent(12, 15, "A")

    def test_shifted_negative(self):
        assert IntervalEvent(2, 5, "A").shifted(-2) == IntervalEvent(0, 3, "A")

    def test_scaled(self):
        assert IntervalEvent(2, 5, "A").scaled(2) == IntervalEvent(4, 10, "A")

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            IntervalEvent(2, 5, "A").scaled(0)
        with pytest.raises(ValueError, match="positive"):
            IntervalEvent(2, 5, "A").scaled(-1)

    def test_overlaps_time(self):
        a = IntervalEvent(0, 5, "A")
        assert a.overlaps_time(IntervalEvent(5, 9, "B"))  # closed intervals
        assert a.overlaps_time(IntervalEvent(2, 3, "B"))
        assert not a.overlaps_time(IntervalEvent(6, 9, "B"))

    def test_contains_time(self):
        a = IntervalEvent(2, 4, "A")
        assert a.contains_time(2)
        assert a.contains_time(4)
        assert a.contains_time(3)
        assert not a.contains_time(1)
        assert not a.contains_time(5)

    def test_str_interval(self):
        assert str(IntervalEvent(1, 4, "A")) == "A[1,4]"

    def test_str_point(self):
        assert str(IntervalEvent(3, 3, "tick")) == "tick@3"


@given(
    start=st.integers(-1000, 1000),
    duration=st.integers(0, 1000),
    delta=st.integers(-500, 500),
)
def test_shift_preserves_duration(start, duration, delta):
    ev = IntervalEvent(start, start + duration, "A")
    assert ev.shifted(delta).duration == ev.duration


@given(
    start=st.integers(-100, 100),
    duration=st.integers(0, 100),
    factor=st.integers(1, 10),
)
def test_scale_multiplies_duration(start, duration, factor):
    ev = IntervalEvent(start, start + duration, "A")
    assert ev.scaled(factor).duration == ev.duration * factor


@given(st.integers(-100, 100), st.integers(0, 50))
def test_point_iff_zero_duration(start, duration):
    ev = IntervalEvent(start, start + duration, "A")
    assert ev.is_point == (duration == 0)


class TestExactDisplay:
    """Event strings show times exactly, by the file formats' rule."""

    def test_unix_second_times_print_apart(self):
        first = IntervalEvent(1700000000, 1700000100, "A")
        second = IntervalEvent(1700000001, 1700000050, "A")
        assert str(first) == "A[1700000000,1700000100]"
        assert str(second) == "A[1700000001,1700000050]"

    def test_sequence_repr_is_exact(self):
        seq = ESequence([IntervalEvent(1234567, 1234568, "B")], sid=0)
        assert repr(seq) == "ESequence(sid=0, <B[1234567,1234568]>)"

    @pytest.mark.parametrize(
        "value, text",
        [
            (3, "3"),
            (2.0, "2"),
            (0.1, "0.1"),
            (2.5, "2.5"),
            (10**400, str(10**400)),
            (1e-07, "1e-07"),
            (-4.0, "-4"),
        ],
    )
    def test_format_time(self, value, text):
        assert format_time(value) == text

    def test_writers_use_the_model_rule(self):
        import repro.io.spmf as spmf
        import repro.io.text_format as text_format

        assert text_format.format_time is format_time
        assert spmf.format_time is format_time
