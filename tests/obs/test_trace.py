"""Tests for span tracing (``repro.obs.trace``)."""

import warnings

import pytest

from repro.obs.clock import ManualClock, clock_scope
from repro.obs.metrics import use_registry
from repro.obs.trace import (
    JsonlTraceWriter,
    TraceCollector,
    active_tracer,
    read_trace,
    span,
    traced,
    use_tracer,
)


class TestDisabled:
    def test_span_is_noop_without_sinks(self):
        assert active_tracer() is None
        clock = ManualClock()
        calls = []
        original = clock.__call__
        with clock_scope(lambda: calls.append(1) or original()):
            with span("quiet"):
                pass
        # Fast path: no clock reads, nothing recorded.
        assert calls == []

    def test_traced_falls_through(self):
        @traced
        def double(x: int) -> int:
            return 2 * x

        assert double(21) == 42


class TestSpans:
    def test_events_pair_and_time_with_manual_clock(self):
        collector = TraceCollector()
        clock = ManualClock()
        with clock_scope(clock), use_tracer(collector):
            with span("outer", miner="demo"):
                clock.advance(1.0)
        begin, end = collector.events
        assert begin["ev"] == "B" and begin["name"] == "outer"
        assert begin["miner"] == "demo"
        assert begin["parent"] is None
        assert end["ev"] == "E" and end["span"] == begin["span"]
        assert end["dur"] == pytest.approx(1.0)
        assert "err" not in end

    def test_nesting_tracked_via_parent_links(self):
        collector = TraceCollector()
        with use_tracer(collector):
            with span("a"):
                with span("b"):
                    with span("c"):
                        pass
                with span("b2"):
                    pass
        assert collector.span_names() == ["a", "b", "c", "b2"]
        depths = collector.tree_depths()
        by_name = {
            ev["name"]: depths[ev["span"]]
            for ev in collector.events
            if ev["ev"] == "B"
        }
        assert by_name == {"a": 0, "b": 1, "c": 2, "b2": 1}

    def test_exception_tags_end_event_and_propagates(self):
        collector = TraceCollector()
        with use_tracer(collector):
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
        ends = {ev["name"]: ev for ev in collector.finished()}
        assert ends["inner"]["err"] == "ValueError"
        assert ends["outer"]["err"] == "ValueError"
        # The span stack unwound fully: a new span is a root again.
        with use_tracer(collector):
            with span("after"):
                pass
        begin = [e for e in collector.events if e["ev"] == "B"][-1]
        assert begin["parent"] is None

    def test_span_feeds_phase_seconds_counter(self):
        clock = ManualClock()
        with clock_scope(clock), use_registry() as registry:
            with span("encode"):
                clock.advance(0.25)
            with span("encode"):
                clock.advance(0.5)
        counters = registry.snapshot()["counters"]
        assert counters["phase_seconds[phase=encode]"] == pytest.approx(0.75)


class TestTraced:
    def test_named_form_uses_given_span_name(self):
        collector = TraceCollector()

        @traced("custom")
        def work() -> None:
            pass

        with use_tracer(collector):
            work()
        assert collector.span_names() == ["custom"]

    def test_bare_form_uses_qualname(self):
        collector = TraceCollector()

        @traced
        def work() -> None:
            pass

        with use_tracer(collector):
            work()
        assert "work" in collector.span_names()[0]


class TestJsonlRoundTrip:
    def test_writer_round_trips_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = ManualClock()
        with clock_scope(clock):
            with JsonlTraceWriter.open(path) as writer:
                with use_tracer(writer):
                    with span("mine", sequences=3):
                        clock.advance(1.5)
                        with span("search"):
                            clock.advance(0.5)
        events = read_trace(path)
        assert [e["ev"] for e in events] == ["B", "B", "E", "E"]
        assert events[0]["name"] == "mine"
        assert events[0]["sequences"] == 3
        assert events[1]["parent"] == events[0]["span"]
        assert events[3]["dur"] == pytest.approx(2.0)

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ev":"B"}\n\n{"ev":"E"}\n')
        assert [e["ev"] for e in read_trace(path)] == ["B", "E"]

    def test_read_trace_tolerates_truncated_tail(self, tmp_path):
        # A killed run leaves a half-written last line; reports must
        # still parse the rest, with one warning naming the count.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"ev":"B","span":1,"name":"mine","ts":0.0}\n'
            '{"ev":"E","span":1,"name":"mine","ts":1.0,"du'
        )
        with pytest.warns(UserWarning, match="skipped 1 undecodable"):
            events = read_trace(path)
        assert [e["ev"] for e in events] == ["B"]

    def test_read_trace_tolerates_garbage_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            'not json at all\n'
            '{"ev":"B","span":1,"name":"mine","ts":0.0}\n'
            '[1, 2, 3]\n'
            '"just a string"\n'
        )
        with pytest.warns(UserWarning, match="skipped 3 undecodable"):
            events = read_trace(path)
        assert len(events) == 1
        assert events[0]["name"] == "mine"

    def test_read_trace_counts_bad_utf8_lines_as_undecodable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = b'{"ev":"B","span":1,"name":"mine","ts":0.0}\n'
        # A bad byte mid-file, and a torn tail splitting a character.
        path.write_bytes(
            good + b'{"ev":"\xff"}\n' + good + '{"name":"\u00e9'.encode()[:-1]
        )
        with pytest.warns(UserWarning, match="skipped 2 undecodable"):
            events = read_trace(path)
        assert [e["ev"] for e in events] == ["B", "B"]

    def test_read_trace_clean_file_emits_no_warning(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ev":"B","span":1,"name":"mine","ts":0.0}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_trace(path)) == 1

    def test_interleaved_shard_reemission_round_trips(self, tmp_path):
        # The engine re-emits worker spans as shard<i>:<id> after its
        # own spans, so a sharded trace interleaves int and string span
        # ids; the writer/reader must preserve ids, parents, and order.
        path = tmp_path / "trace.jsonl"
        shard_events = [
            {"ev": "B", "span": "shard1:1", "parent": 2,
             "name": "search", "ts": 0.0},
            {"ev": "B", "span": "shard0:1", "parent": 2,
             "name": "search", "ts": 0.1},
            {"ev": "E", "span": "shard1:1", "name": "search",
             "ts": 0.4, "dur": 0.4},
            {"ev": "E", "span": "shard0:1", "name": "search",
             "ts": 0.9, "dur": 0.8},
        ]
        with JsonlTraceWriter.open(path) as writer:
            writer.emit(
                {"ev": "B", "span": 2, "parent": None,
                 "name": "shards", "ts": 0.0}
            )
            for event in shard_events:
                writer.emit(event)
            writer.emit(
                {"ev": "E", "span": 2, "name": "shards",
                 "ts": 1.0, "dur": 1.0}
            )
        events = read_trace(path)
        assert [e["span"] for e in events] == [
            2, "shard1:1", "shard0:1", "shard1:1", "shard0:1", 2,
        ]
        assert all(
            e["parent"] == 2 for e in events if e.get("ev") == "B"
            and isinstance(e["span"], str)
        )


class TestInstallation:
    def test_use_tracer_restores_previous(self):
        first, second = TraceCollector(), TraceCollector()
        with use_tracer(first):
            with use_tracer(second):
                assert active_tracer() is second
            assert active_tracer() is first
        assert active_tracer() is None


class TestCurrentSpanId:
    def test_none_at_trace_root(self):
        from repro.obs.trace import current_span_id

        assert current_span_id() is None

    def test_inner_span_id_matches_emitted_event(self):
        from repro.obs.trace import current_span_id, span

        collector = TraceCollector()
        with use_tracer(collector):
            with span("outer"):
                inside = current_span_id()
            after = current_span_id()
        begin = collector.events[0]
        assert begin["span"] == inside
        assert after is None
