"""Tests for the live shard telemetry bus (``repro.obs.live``)."""

import io
import json
import warnings

import pytest

from repro.obs.clock import ManualClock, clock_scope
from repro.obs.live import (
    LiveAggregator,
    LiveCollector,
    LiveConfig,
    LiveFrame,
    LiveSink,
    ShardLane,
    active_live,
    read_live_log,
    set_live,
    use_live,
)


def frame(shard, ts, done, total=10, patterns=0, **kwargs):
    return LiveFrame(
        shard=shard,
        ts=ts,
        roots_done=done,
        roots_total=total,
        patterns=patterns,
        **kwargs,
    )


class TestLiveFrame:
    def test_round_trips_through_dict(self):
        original = LiveFrame(
            shard=2,
            ts=1.25,
            roots_done=3,
            roots_total=9,
            patterns=7,
            counters={"nodes_expanded": 41.0},
            rss_mb=12.5,
            final=True,
        )
        rebuilt = LiveFrame.from_dict(original.as_dict())
        assert rebuilt == original
        # The wire form must be JSON-serialisable as-is.
        json.dumps(original.as_dict())

    def test_from_dict_defaults_optional_fields(self):
        rebuilt = LiveFrame.from_dict(
            {"shard": 0, "ts": 0.0, "roots_done": 1,
             "roots_total": 2, "patterns": 0}
        )
        assert rebuilt.counters == {}
        assert rebuilt.rss_mb is None
        assert rebuilt.final is False


class TestLiveConfig:
    def test_validates_interval_and_factor(self):
        with pytest.raises(ValueError):
            LiveConfig(interval_s=-1.0)
        with pytest.raises(ValueError):
            LiveConfig(straggler_factor=0.0)


class TestLiveSink:
    def test_throttles_through_injectable_clock(self):
        clock = ManualClock()
        published = []
        with clock_scope(clock):
            sink = LiveSink(0, 10, published.append, min_interval_s=1.0)
            sink.root_done(0, {})     # first emit: always
            sink.root_done(0, {})     # same instant: throttled
            clock.advance(0.5)
            sink.root_done(1, {})     # 0.5s < 1.0s: throttled
            clock.advance(0.6)
            sink.root_done(2, {})     # 1.1s since emit: emits
        assert [p["roots_done"] for p in published] == [1, 4]
        assert [p["patterns"] for p in published] == [0, 2]
        assert sink.roots_done == 4
        assert sink.frames_published == 2

    def test_finish_always_emits_final_frame(self):
        clock = ManualClock()
        published = []
        with clock_scope(clock):
            sink = LiveSink(3, 5, published.append, min_interval_s=60.0)
            sink.root_done(0, {})
            sink.finish(9, {"nodes_expanded": 4.0})
        assert len(published) == 2
        final = published[-1]
        assert final["final"] is True
        assert final["shard"] == 3
        assert final["roots_done"] == 5
        assert final["patterns"] == 9
        assert final["counters"] == {"nodes_expanded": 4.0}

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            LiveSink(0, -1, lambda payload: None)
        with pytest.raises(ValueError):
            LiveSink(0, 1, lambda payload: None, min_interval_s=-0.1)


class TestShardLane:
    def test_rate_needs_progress_and_elapsed(self):
        lane = ShardLane(shard=0)
        assert lane.rate_roots_per_s is None
        lane.first_ts, lane.last_ts = 1.0, 1.0
        lane.roots_done = 3
        assert lane.rate_roots_per_s is None  # no elapsed time yet
        lane.last_ts = 4.0
        assert lane.rate_roots_per_s == pytest.approx(1.0)


class TestLiveAggregator:
    def test_monotonic_merge_ignores_stale_frames(self):
        agg = LiveAggregator(LiveConfig(render=False))
        agg.ingest(frame(0, ts=2.0, done=5, patterns=3))
        agg.ingest(frame(0, ts=1.0, done=2, patterns=1))  # late/stale
        lane = agg.lanes[0]
        assert lane.roots_done == 5
        assert lane.patterns == 3
        assert lane.first_ts == 1.0
        assert lane.last_ts == 2.0
        assert agg.roots_done == 5

    def test_accepts_dict_payloads(self):
        agg = LiveAggregator(LiveConfig(render=False))
        agg.ingest(frame(1, ts=0.5, done=2).as_dict())
        assert agg.lanes[1].roots_done == 2

    def test_plan_time_totals_pre_create_lanes(self):
        agg = LiveAggregator(
            LiveConfig(render=False), shard_totals={0: 4, 1: 6}
        )
        assert sorted(agg.lanes) == [0, 1]
        assert agg.roots_total == 10
        assert agg.roots_done == 0

    def test_eta_from_summed_lane_rates(self):
        agg = LiveAggregator(
            LiveConfig(render=False), shard_totals={0: 10, 1: 10}
        )
        # Shard 0: 4 roots in 2s -> 2 roots/s; shard 1: 2 in 2s -> 1/s.
        agg.ingest(frame(0, ts=0.0, done=0))
        agg.ingest(frame(0, ts=2.0, done=4))
        agg.ingest(frame(1, ts=0.0, done=0))
        agg.ingest(frame(1, ts=2.0, done=2))
        # 14 remaining / 3 roots/s.
        assert agg.eta_s() == pytest.approx(14 / 3)

    def test_eta_none_without_rates_and_zero_when_done(self):
        agg = LiveAggregator(
            LiveConfig(render=False), shard_totals={0: 2}
        )
        assert agg.eta_s() is None
        agg.ingest(frame(0, ts=0.0, done=0, total=2))
        agg.ingest(frame(0, ts=1.0, done=2, total=2, final=True))
        assert agg.eta_s() == 0.0

    def test_final_lanes_stop_contributing_rate(self):
        agg = LiveAggregator(
            LiveConfig(render=False), shard_totals={0: 4, 1: 10}
        )
        agg.ingest(frame(0, ts=0.0, done=0, total=4))
        agg.ingest(frame(0, ts=1.0, done=4, total=4, final=True))
        agg.ingest(frame(1, ts=0.0, done=0))
        agg.ingest(frame(1, ts=2.0, done=2))
        # Only shard 1's 1 root/s counts: 8 remaining / 1.
        assert agg.eta_s() == pytest.approx(8.0)

    def test_straggler_below_factor_times_median(self):
        config = LiveConfig(render=False, straggler_factor=0.5)
        agg = LiveAggregator(config, shard_totals={0: 30, 1: 30, 2: 30})
        agg.ingest(frame(0, ts=0.0, done=0, total=30))
        agg.ingest(frame(0, ts=10.0, done=20, total=30))  # 2.0/s
        agg.ingest(frame(1, ts=0.0, done=0, total=30))
        agg.ingest(frame(1, ts=10.0, done=22, total=30))  # 2.2/s
        agg.ingest(frame(2, ts=0.0, done=0, total=30))
        agg.ingest(frame(2, ts=10.0, done=3, total=30))   # 0.3/s < 1.1
        assert agg.stragglers() == [2]

    def test_straggler_needs_two_measurable_lanes(self):
        agg = LiveAggregator(LiveConfig(render=False))
        agg.ingest(frame(0, ts=0.0, done=0))
        agg.ingest(frame(0, ts=10.0, done=1))
        assert agg.stragglers() == []

    def test_summary_shape_and_imbalance(self):
        agg = LiveAggregator(
            LiveConfig(render=False), shard_totals={0: 5, 1: 5}
        )
        agg.ingest(frame(0, ts=0.0, done=0, total=5))
        agg.ingest(frame(0, ts=3.0, done=5, total=5,
                         patterns=4, final=True))
        agg.ingest(frame(1, ts=0.0, done=0, total=5))
        agg.ingest(frame(1, ts=1.0, done=5, total=5,
                         patterns=2, final=True))
        summary = agg.summary()
        assert summary["roots_done"] == 10
        assert summary["roots_total"] == 10
        assert summary["patterns"] == 6
        assert summary["frames"] == 4
        # busy 3s and 1s -> max/mean = 3/2.
        assert summary["shard_imbalance"] == pytest.approx(1.5)
        assert set(summary["shards"]) == {"0", "1"}
        assert summary["shards"]["0"]["final"] is True
        assert "straggler" in summary["shards"]["0"]

    def test_render_line_marks_stragglers_and_finished(self):
        config = LiveConfig(render=False, straggler_factor=0.5)
        agg = LiveAggregator(config, shard_totals={0: 20, 1: 20})
        agg.ingest(frame(0, ts=0.0, done=0, total=20))
        agg.ingest(frame(0, ts=1.0, done=20, total=20, final=True))
        agg.ingest(frame(1, ts=0.0, done=0, total=20))
        agg.ingest(frame(1, ts=10.0, done=2, total=20))
        line = agg.render_line()
        assert line.startswith("[live] roots 22/40")
        assert "s0 20/20+" in line
        assert "s1 2/20*" in line

    def test_maybe_render_throttles_and_calls_out_once(self):
        stream = io.StringIO()
        clock = ManualClock()
        config = LiveConfig(
            interval_s=1.0, straggler_factor=0.5, stream=stream
        )
        with clock_scope(clock):
            agg = LiveAggregator(config, shard_totals={0: 20, 1: 20})
            agg.ingest(frame(0, ts=0.0, done=0, total=20))
            agg.ingest(frame(0, ts=1.0, done=20, total=20))
            agg.ingest(frame(1, ts=0.0, done=0, total=20))
            agg.ingest(frame(1, ts=10.0, done=2, total=20))
            agg.maybe_render()            # renders + straggler callout
            agg.maybe_render()            # throttled
            clock.advance(2.0)
            agg.maybe_render()            # renders again, no new callout
        lines = stream.getvalue().splitlines()
        assert len([li for li in lines if li.startswith("[live] roots")]) == 2
        callouts = [li for li in lines if "straggler:" in li]
        assert len(callouts) == 1
        assert "shard 1" in callouts[0]

    def test_render_false_never_writes(self):
        stream = io.StringIO()
        agg = LiveAggregator(LiveConfig(render=False, stream=stream))
        agg.ingest(frame(0, ts=0.0, done=1))
        agg.maybe_render(force=True)
        assert stream.getvalue() == ""


class TestFrameLog:
    def test_log_round_trips_through_read_live_log(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        config = LiveConfig(render=False, log_path=str(path))
        agg = LiveAggregator(config)
        agg.open_log()
        agg.ingest(frame(0, ts=0.5, done=1, patterns=2))
        agg.ingest(frame(1, ts=0.7, done=3, final=True))
        agg.close_log()
        frames = read_live_log(path)
        assert [(f.shard, f.roots_done) for f in frames] == [(0, 1), (1, 3)]
        assert frames[1].final is True

    def test_read_live_log_tolerates_garbage(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        good = frame(0, ts=0.5, done=1).as_dict()
        path.write_text(
            json.dumps(good) + "\n"
            + "garbage\n"
            + '{"shard": 1}\n'          # missing required keys
            + json.dumps(good)[:-4] + "\n"  # truncated tail
        )
        with pytest.warns(UserWarning, match="skipped 3 undecodable"):
            frames = read_live_log(path)
        assert len(frames) == 1

    def test_read_live_log_counts_bad_utf8_lines(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        good = (json.dumps(frame(0, ts=0.5, done=1).as_dict()) + "\n").encode()
        # A bad byte mid-file, and a torn tail splitting a character.
        path.write_bytes(
            good + b"\xff\xfe\n" + good + '{"shard": "\u00e9'.encode()[:-1]
        )
        with pytest.warns(UserWarning, match="skipped 2 undecodable"):
            frames = read_live_log(path)
        assert len(frames) == 2

    def test_read_live_log_clean_file_no_warning(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(frame(0, ts=0.1, done=1).as_dict()) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_live_log(path)) == 1


class TestInstallation:
    def test_disabled_by_default(self):
        assert active_live() is None

    def test_use_live_installs_and_restores(self):
        with use_live() as collector:
            assert active_live() is collector
        assert active_live() is None

    def test_use_live_accepts_config_and_collector(self):
        config = LiveConfig(render=False, straggler_factor=0.25)
        with use_live(config) as collector:
            assert collector.config is config
        ready = LiveCollector(config=config)
        with use_live(ready) as collector:
            assert collector is ready

    def test_use_live_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_live():
                raise RuntimeError("boom")
        assert active_live() is None

    def test_set_live_none_disables(self):
        collector = LiveCollector()
        set_live(collector)
        try:
            assert active_live() is collector
        finally:
            set_live(None)
        assert active_live() is None


class TestIngestOrderDeterminism:
    """Regression: aggregate floats must not depend on frame arrival order.

    Lane insertion order follows frame arrival order, which varies run
    to run under the process executor. ETA and imbalance accumulate
    floats across lanes, and float addition is not associative (0.1 +
    0.2 + 0.3 != 0.3 + 0.2 + 0.1), so the aggregator iterates lanes in
    shard order (caught by repro-lint R013).
    """

    @staticmethod
    def _aggregate(shard_order):
        agg = LiveAggregator(LiveConfig(render=False))
        # Lane i: one root done over i/10 seconds of busy time, so the
        # per-lane rates and busy times are 0.1/0.2/0.3-style floats
        # whose sums differ bit-for-bit across orderings.
        for shard in shard_order:
            agg.ingest(frame(shard, ts=0.0, done=0, total=50))
            agg.ingest(
                frame(shard, ts=(shard + 1) / 10.0, done=1, total=50)
            )
        return agg

    def test_eta_identical_for_any_arrival_order(self):
        forward = self._aggregate([0, 1, 2])
        reversed_ = self._aggregate([2, 1, 0])
        assert forward.eta_s() == reversed_.eta_s()

    def test_summary_identical_for_any_arrival_order(self):
        forward = self._aggregate([0, 1, 2])
        reversed_ = self._aggregate([2, 1, 0])
        assert forward.summary() == reversed_.summary()
        assert json.dumps(forward.summary(), sort_keys=False) == json.dumps(
            reversed_.summary(), sort_keys=False
        )
