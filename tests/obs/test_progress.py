"""Tests for progress heartbeats (``repro.obs.progress``)."""

import io

import pytest

from repro.obs.clock import ManualClock, clock_scope
from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    active_reporter,
    format_event,
    use_reporter,
)


def tick_n(reporter: ProgressReporter, n: int) -> None:
    for _ in range(n):
        reporter.tick(depth=2, patterns=1, candidates=10, pruned=4)


class TestThrottling:
    def test_emits_every_n_nodes(self):
        events = []
        reporter = ProgressReporter(
            events.append, every_nodes=100, min_interval_s=1e9
        )
        with clock_scope(ManualClock()):
            tick_n(reporter, 250)
        assert [e.nodes for e in events] == [100, 200]

    def test_emits_on_time_even_with_few_nodes(self):
        events = []
        clock = ManualClock()
        reporter = ProgressReporter(
            events.append, every_nodes=10**9, min_interval_s=1.0
        )
        with clock_scope(clock):
            tick_n(reporter, 5)
            clock.advance(1.5)
            tick_n(reporter, 1)
        assert len(events) == 1
        assert events[0].nodes == 6

    def test_finish_always_emits_after_any_tick(self):
        events = []
        reporter = ProgressReporter(
            events.append, every_nodes=10**9, min_interval_s=1e9
        )
        with clock_scope(ManualClock()):
            tick_n(reporter, 3)
            reporter.finish(
                nodes=3, depth=0, patterns=2, candidates=10, pruned=4
            )
        assert len(events) == 1
        assert events[0].final is True
        assert events[0].nodes == 3
        assert reporter.events_emitted == 1

    def test_finish_without_ticks_is_silent(self):
        events = []
        reporter = ProgressReporter(events.append)
        reporter.finish(nodes=0, depth=0, patterns=0, candidates=0, pruned=0)
        assert events == []

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ProgressReporter(every_nodes=0)
        with pytest.raises(ValueError):
            ProgressReporter(min_interval_s=-1.0)


class TestEvents:
    def test_rate_statistics(self):
        events = []
        clock = ManualClock()
        reporter = ProgressReporter(
            events.append, every_nodes=10, min_interval_s=1e9
        )
        with clock_scope(clock):
            for _ in range(10):
                clock.advance(0.1)
                reporter.tick(depth=3, patterns=7, candidates=50, pruned=25)
        (event,) = events
        assert event.elapsed_s == pytest.approx(0.9)
        assert event.nodes_per_s == pytest.approx(10 / 0.9)
        assert event.prune_rate == pytest.approx(0.5)

    def test_prune_rate_zero_candidates(self):
        event = ProgressEvent(1, 0.0, 0.0, 0, 0, candidates=0, pruned=0)
        assert event.prune_rate == 0.0

    def test_format_event_lines(self):
        event = ProgressEvent(
            nodes=12000, elapsed_s=2.0, nodes_per_s=6000.0, depth=5,
            patterns=140, candidates=27910, pruned=12030,
        )
        line = format_event(event)
        assert line.startswith("[progress] nodes=12000 (6,000/s)")
        assert "depth=5" in line and "patterns=140" in line
        assert "43.1% of 27910" in line
        done = format_event(
            ProgressEvent(1, 0.0, 0.0, 0, 0, 0, 0, final=True)
        )
        assert done.startswith("[done]")


class TestDefaultCallback:
    def test_prints_to_stream(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            every_nodes=2, min_interval_s=1e9, stream=stream
        )
        with clock_scope(ManualClock()):
            tick_n(reporter, 4)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("[progress]") for line in lines)


class TestInstallation:
    def test_off_by_default_and_scoped(self):
        assert active_reporter() is None
        reporter = ProgressReporter(lambda event: None)
        with use_reporter(reporter):
            assert active_reporter() is reporter
        assert active_reporter() is None
