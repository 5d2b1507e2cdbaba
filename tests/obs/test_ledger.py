"""Tests for the persistent run ledger (`repro.obs.ledger`).

Covers the acceptance criteria directly: `diff_entries` flags an
injected counter regression exactly and a timing regression
noise-awarely; `history_report` feeds `history --check` only the latest
pair's hard regressions.
"""

import json
import warnings

import pytest

from repro.datagen import standard_dataset
from repro.obs import costmodel
from repro.obs.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_entry,
    config_fingerprint,
    dataset_digest,
    diff_entries,
    history_report,
    phase_seconds,
    render_diff_markdown,
    render_history_markdown,
)
from repro.perf.compare import Tolerance, compare_reports

ENV = {"python": "3.x", "machine": "test"}
OTHER_ENV = {"python": "3.y", "machine": "other"}


def entry(
    *,
    run_id,
    wall_s=1.0,
    patterns=10,
    counters=None,
    environment=ENV,
    min_sup=0.3,
    cost_snapshot=None,
    phases=None,
    **kwargs,
):
    return build_entry(
        dataset_digest="d" * 12,
        miner="ptpminer",
        min_sup=min_sup,
        mode="tp",
        workers=1,
        environment=environment,
        wall_s=wall_s,
        patterns=patterns,
        counters=counters or {"nodes_expanded": 41, "states_created": 7},
        phases=phases,
        cost_snapshot=cost_snapshot,
        run_id=run_id,
        timestamp="2026-08-08T00:00:00+00:00",
        **kwargs,
    )


def cost_snapshot(states=3):
    collector = costmodel.CostCollector()
    collector.absorb(
        {
            "schema": costmodel.COST_SCHEMA_VERSION,
            "levels": {"1": {"nodes": 1, "candidates": 2, "frequent": 1}},
        }
    )
    collector.record_root("e0+", 0.1, {}, {"states_created": states})
    return collector.snapshot()


class TestFingerprints:
    def test_dataset_digest_is_content_based(self):
        db = standard_dataset("tiny")
        again = standard_dataset("tiny")
        other = standard_dataset("tiny", num_sequences=5)
        assert dataset_digest(db) == dataset_digest(again)
        assert dataset_digest(db) != dataset_digest(other)
        assert len(dataset_digest(db)) == 12

    def test_config_fingerprint_key_order_is_irrelevant(self):
        base = dict(
            dataset_digest="abc", miner="ptpminer", min_sup=0.3, mode="tp"
        )
        a = config_fingerprint(**base, extra={"x": 1, "y": 2})
        b = config_fingerprint(**base, extra={"y": 2, "x": 1})
        assert a == b

    def test_config_fingerprint_sensitive_to_each_axis(self):
        base = dict(
            dataset_digest="abc", miner="ptpminer", min_sup=0.3, mode="tp"
        )
        root = config_fingerprint(**base)
        assert config_fingerprint(**{**base, "min_sup": 0.2}) != root
        assert config_fingerprint(**{**base, "mode": "htp"}) != root
        assert config_fingerprint(**base, workers=2) != root

    def test_phase_seconds_parses_counter_keys(self):
        snapshot = {
            "counters": {
                "phase_seconds[phase=mine]": 1.5,
                "phase_seconds[phase=load]": 0.25,
                "search.nodes_expanded": 12,
            }
        }
        assert phase_seconds(snapshot) == {"mine": 1.5, "load": 0.25}


class TestBuildEntry:
    def test_shape_and_defaults(self):
        made = entry(run_id="r1", phases={"mine": 1.0})
        assert made["schema"] == LEDGER_SCHEMA_VERSION
        assert made["kind"] == "repro-run"
        assert made["fingerprint"] == config_fingerprint(
            dataset_digest="d" * 12,
            miner="ptpminer",
            min_sup=0.3,
            mode="tp",
            workers=1,
        )
        assert made["counters"] == {"nodes_expanded": 41, "states_created": 7}
        assert made["phases"] == {"mine": 1.0}
        assert "cost" not in made

    def test_cost_snapshot_stored_as_digest_plus_top_roots(self):
        made = entry(run_id="r1", cost_snapshot=cost_snapshot())
        assert made["cost"]["digest"] == costmodel.profile_digest(
            cost_snapshot()
        )
        assert made["cost"]["top_roots"][0]["root"] == "e0+"

    def test_generated_run_ids_are_distinct_per_content(self):
        a = build_entry(
            dataset_digest="a" * 12,
            miner="ptpminer",
            min_sup=0.3,
            mode="tp",
            environment=ENV,
            wall_s=1.0,
            patterns=1,
            counters={},
            timestamp="2026-08-08T00:00:00+00:00",
        )
        b = build_entry(
            dataset_digest="b" * 12,
            miner="ptpminer",
            min_sup=0.3,
            mode="tp",
            environment=ENV,
            wall_s=1.0,
            patterns=1,
            counters={},
            timestamp="2026-08-08T00:00:00+00:00",
        )
        assert a["run_id"] != b["run_id"]
        assert ":" not in a["run_id"]


class TestRunLedger:
    def test_append_then_read_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        stored = ledger.append(entry(run_id="r1"))
        ledger.append(entry(run_id="r2"))
        assert ledger.path.name == LEDGER_FILENAME
        got = ledger.entries()
        assert [e["run_id"] for e in got] == ["r1", "r2"]
        assert got[0] == stored

    def test_append_validates_entries(self, tmp_path):
        ledger = RunLedger(tmp_path)
        bad = entry(run_id="r1")
        bad["schema"] = 99
        with pytest.raises(ValueError):
            ledger.append(bad)
        with pytest.raises(ValueError):
            ledger.append({**entry(run_id="r1"), "kind": "other"})
        with pytest.raises(ValueError):
            ledger.append({**entry(run_id="r1"), "run_id": ""})

    def test_entries_tolerates_garbage_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(run_id="r1"))
        with_garbage = ledger.path.read_text() + "{not json\n" + (
            json.dumps({"schema": 99, "kind": "repro-run"}) + "\n"
        )
        ledger.path.write_text(with_garbage)
        with pytest.warns(RuntimeWarning, match="skipped 2"):
            got = ledger.entries()
        assert [e["run_id"] for e in got] == ["r1"]

    def test_entries_counts_bad_utf8_lines_as_unreadable(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(run_id="r1"))
        ledger.append(entry(run_id="r2"))
        first, second = ledger.path.read_bytes().splitlines(keepends=True)
        # A bad byte mid-file, and a torn tail splitting a character.
        ledger.path.write_bytes(
            first + b'{"run_id": "\xff"}\n' + second
            + '{"run_id": "\u00e9'.encode()[:-1]
        )
        with pytest.warns(RuntimeWarning, match="skipped 2"):
            got = ledger.entries()
        assert [e["run_id"] for e in got] == ["r1", "r2"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").entries() == []

    def test_find_by_exact_id_prefix_and_errors(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(run_id="20260808-aaaa"))
        ledger.append(entry(run_id="20260808-bbbb"))
        assert ledger.find("20260808-aaaa")["run_id"] == "20260808-aaaa"
        assert ledger.find("20260808-b")["run_id"] == "20260808-bbbb"
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.find("20260808")
        with pytest.raises(ValueError, match="no run matching"):
            ledger.find("zzz")


class TestHistoryReport:
    def test_groups_by_fingerprint_in_append_order(self):
        entries = [
            entry(run_id="a1"),
            entry(run_id="b1", min_sup=0.2),
            entry(run_id="a2"),
        ]
        report = history_report(entries)
        by_fp = {
            g["fingerprint"]: [r["run_id"] for r in g["runs"]]
            for g in report["groups"]
        }
        assert sorted(by_fp.values()) == [["a1", "a2"], ["b1"]]
        assert report["regressions"] == []

    def test_counter_drift_is_flagged_exactly(self):
        entries = [
            entry(run_id="r1"),
            entry(
                run_id="r2",
                counters={"nodes_expanded": 48, "states_created": 7},
            ),
        ]
        report = history_report(entries)
        (finding,) = report["regressions"]
        assert finding["metric"] == "counters.nodes_expanded"
        assert (finding["base"], finding["fresh"]) == (41, 48)

    def test_wall_jitter_within_tolerance_is_quiet(self):
        entries = [
            entry(run_id="r1", wall_s=1.0),
            entry(run_id="r2", wall_s=1.2),
        ]
        report = history_report(entries)
        assert report["regressions"] == []
        assert report["warnings"] == []

    def test_wall_regression_is_noise_aware(self):
        entries = [
            entry(run_id="r1", wall_s=1.0),
            entry(run_id="r2", wall_s=11.0),
        ]
        (finding,) = history_report(entries)["regressions"]
        assert finding["metric"] == "wall_s"

    def test_env_mismatch_downgrades_timing_to_warning(self):
        entries = [
            entry(run_id="r1", wall_s=1.0),
            entry(run_id="r2", wall_s=11.0, environment=OTHER_ENV),
        ]
        report = history_report(entries)
        assert report["regressions"] == []
        (warning,) = report["warnings"]
        assert warning["metric"] == "wall_s"
        assert warning["severity"] == "warning"

    def test_cost_digest_shift_is_flagged(self):
        entries = [
            entry(run_id="r1", cost_snapshot=cost_snapshot(states=3)),
            entry(run_id="r2", cost_snapshot=cost_snapshot(states=9)),
        ]
        metrics = {
            f["metric"] for f in history_report(entries)["regressions"]
        }
        assert "cost.digest" in metrics

    def test_check_gates_on_latest_pair_only(self):
        # r2 regressed but r3 recovered: the latest pair is clean, so the
        # old regression is demoted to a warning and --check would pass.
        entries = [
            entry(run_id="r1", patterns=10),
            entry(run_id="r2", patterns=8),
            entry(run_id="r3", patterns=10),
        ]
        report = history_report(entries)
        reg_runs = {f["run_id"] for f in report["regressions"]}
        warn_runs = {f["run_id"] for f in report["warnings"]}
        assert "r2" not in reg_runs
        assert "r2" in warn_runs
        # r3 flips patterns back; that *is* the latest pair.
        assert reg_runs == {"r3"}

    def test_custom_tolerance_is_respected(self):
        entries = [
            entry(run_id="r1", wall_s=1.0),
            entry(run_id="r2", wall_s=1.4),
        ]
        loose = history_report(entries)
        strict = history_report(
            entries, tolerance=Tolerance(time_rtol=0.1, time_abs_s=0.05)
        )
        assert loose["regressions"] == []
        assert any(
            f["metric"] == "wall_s" for f in strict["regressions"]
        )

    def test_markdown_renders_groups_and_summary(self):
        entries = [entry(run_id="r1"), entry(run_id="r2", patterns=9)]
        report = history_report(entries)
        text = render_history_markdown(report)
        assert "# Run history" in text
        assert "`r1`" in text and "`r2`" in text
        assert "1 regression(s)" in text

    def test_markdown_empty_ledger(self):
        text = render_history_markdown(history_report([]))
        assert "_Ledger is empty._" in text


class TestDiffEntries:
    def test_injected_counter_regression_is_exact(self):
        a = entry(run_id="a")
        b = entry(
            run_id="b", counters={"nodes_expanded": 48, "states_created": 7}
        )
        diff = diff_entries(a, b)
        (row,) = diff["counters"]
        assert row == {
            "counter": "nodes_expanded",
            "a": 41,
            "b": 48,
            "delta": 7,
        }
        assert diff["has_regressions"] is True

    def test_timing_regression_is_noise_aware(self):
        a = entry(run_id="a", wall_s=1.0)
        ok = diff_entries(a, entry(run_id="b", wall_s=1.2))
        bad = diff_entries(a, entry(run_id="c", wall_s=11.0))
        assert ok["wall_s"]["verdict"] == "ok"
        assert ok["has_regressions"] is False
        assert bad["wall_s"]["verdict"] == "regression"
        assert bad["has_regressions"] is True

    def test_env_mismatch_downgrades_wall_verdict(self):
        a = entry(run_id="a", wall_s=1.0)
        b = entry(run_id="b", wall_s=11.0, environment=OTHER_ENV)
        diff = diff_entries(a, b)
        assert diff["env_match"] is False
        assert diff["wall_s"]["verdict"] == "warning"
        assert diff["has_regressions"] is False

    def test_phase_rows_get_verdicts(self):
        a = entry(run_id="a", phases={"mine": 1.0, "load": 0.1})
        b = entry(run_id="b", phases={"mine": 11.0, "load": 0.1})
        diff = diff_entries(a, b)
        verdicts = {row["phase"]: row["verdict"] for row in diff["phases"]}
        assert verdicts == {"mine": "regression", "load": "ok"}

    def test_top_roots_joined_by_name(self):
        a = entry(run_id="a", cost_snapshot=cost_snapshot(states=3))
        b = entry(run_id="b", cost_snapshot=cost_snapshot(states=9))
        diff = diff_entries(a, b)
        assert diff["cost"]["changed"] is True
        (row,) = diff["cost"]["top_roots"]
        assert row["root"] == "e0+"
        assert (row["states_a"], row["states_b"]) == (3, 9)

    def test_markdown_mentions_verdict_and_caveats(self):
        a = entry(run_id="a", cost_snapshot=cost_snapshot(states=3))
        b = entry(
            run_id="b",
            min_sup=0.2,
            environment=OTHER_ENV,
            cost_snapshot=cost_snapshot(states=9),
        )
        text = render_diff_markdown(diff_entries(a, b))
        assert "Config fingerprints differ" in text
        assert "Environment fingerprints differ" in text
        assert "Heaviest-root shifts" in text

    def test_markdown_clean_diff_says_no_regressions(self):
        a = entry(run_id="a")
        b = entry(run_id="b")
        text = render_diff_markdown(diff_entries(a, b))
        assert "Counters identical." in text
        assert "**No regressions.**" in text


def compare_verdict(base, fresh, tolerance):
    """``perf compare``'s verdict on one cell whose wall time moved."""
    def report(wall_s):
        return {
            "matrix": "m", "environment": ENV,
            "cells": [{"cell": "c", "patterns": 1, "wall_s": wall_s}],
        }

    result = compare_reports(report(base), report(fresh), tolerance=tolerance)
    if result.regressions:
        return "regression"
    return "improvement" if result.improvements else "ok"


@pytest.mark.parametrize("rtol", [0.5, 1.5])
@pytest.mark.parametrize("abs_s", [0.05, 0.25])
@pytest.mark.parametrize("base", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("fresh", [0.0, 0.1, 0.5, 2.0])
def test_ledger_verdicts_agree_with_perf_compare(base, fresh, rtol, abs_s):
    # One tolerance rule: `history --check`, `diff` (wall time and
    # phases) and `perf compare` classify every change alike,
    # including growth from a zero baseline.
    tol = Tolerance(time_rtol=rtol, time_abs_s=abs_s)
    expected = compare_verdict(base, fresh, tol)
    a = entry(run_id="a", wall_s=base, phases={"search": base})
    b = entry(run_id="b", wall_s=fresh, phases={"search": fresh})
    diff = diff_entries(a, b, tolerance=tol)
    assert diff["wall_s"]["verdict"] == expected
    assert diff["phases"][0]["verdict"] == expected
    history = history_report([a, b], tolerance=tol)
    flagged = [f["metric"] for f in history["regressions"]]
    assert flagged == (["wall_s"] if expected == "regression" else [])


class TestPatternsDigestField:
    def test_build_entry_stores_digest_and_provenance_path(self):
        made = entry(
            run_id="r1",
            patterns_digest="ab" * 8,
            provenance_path="/tmp/prov.json",
        )
        assert made["patterns_digest"] == "ab" * 8
        assert made["provenance_path"] == "/tmp/prov.json"

    def test_digest_participates_in_derived_run_ids(self):
        base = dict(
            dataset_digest="a" * 12,
            miner="ptpminer",
            min_sup=0.3,
            mode="tp",
            environment=ENV,
            wall_s=1.0,
            patterns=1,
            counters={},
            timestamp="2026-08-08T00:00:00+00:00",
        )
        a = build_entry(**base, patterns_digest="1" * 16)
        b = build_entry(**base, patterns_digest="2" * 16)
        assert a["run_id"] != b["run_id"]

    def test_digest_drift_is_a_hard_regression(self):
        entries = [
            entry(run_id="r1", patterns_digest="1" * 16),
            entry(run_id="r2", patterns_digest="2" * 16),
        ]
        (finding,) = history_report(entries)["regressions"]
        assert finding["metric"] == "patterns_digest"
        assert "result set drifted" in finding["detail"]

    def test_matching_or_absent_digests_stay_quiet(self):
        same = [
            entry(run_id="r1", patterns_digest="1" * 16),
            entry(run_id="r2", patterns_digest="1" * 16),
        ]
        assert history_report(same)["regressions"] == []
        # Entries predating the field never flag against new ones.
        mixed = [
            entry(run_id="r1"),
            entry(run_id="r2", patterns_digest="1" * 16),
        ]
        assert history_report(mixed)["regressions"] == []


class TestHistoryLimit:
    def test_limit_truncates_each_group_after_flagging(self):
        entries = [
            entry(run_id="r1"),
            entry(
                run_id="r2",
                counters={"nodes_expanded": 48, "states_created": 7},
            ),
            entry(
                run_id="r3",
                counters={"nodes_expanded": 48, "states_created": 7},
            ),
        ]
        report = history_report(entries, limit=1)
        (group,) = report["groups"]
        assert [r["run_id"] for r in group["runs"]] == ["r3"]
        # The r1->r2 drift predates the displayed window but --check
        # semantics see every pair: r2->r3 is clean, so no regression,
        # yet the older flag survives as a warning.
        assert report["regressions"] == []
        assert report["warnings"]

    def test_limit_zero_and_none(self):
        entries = [entry(run_id="r1"), entry(run_id="r2")]
        assert history_report(entries, limit=0)["groups"][0]["runs"] == []
        assert len(
            history_report(entries, limit=None)["groups"][0]["runs"]
        ) == 2


class TestSchemaV2:
    """The v1 -> v2 migration: tolerant back-read, new optional fields."""

    PLAN = {
        "workers": 2,
        "predictor": {"source": "static", "history_runs": 0,
                      "scale": None},
        "predicted_imbalance": {"predicted": 1.1, "roundrobin": 1.9},
    }
    CALIBRATION = {
        "schema": 1, "kind": "repro-calibration",
        "strategy": "predicted", "predictor": "static",
        "actual_metric": "wall_s", "roots_matched": 3,
        "mape": 0.25, "rank_corr": 1.0,
        "worst_miss": {"root": "e0+", "predicted_share": 0.5,
                       "actual_share": 0.4},
    }

    def v1_line(self, run_id):
        made = entry(run_id=run_id, cost_snapshot=cost_snapshot())
        made["schema"] = 1
        # Pre-bump entries stored only digest + top_roots.
        del made["cost"]["roots"]
        return json.dumps(made, sort_keys=True, separators=(",", ":"))

    def test_cost_block_carries_full_per_root_walls(self):
        made = entry(run_id="r1", cost_snapshot=cost_snapshot())
        assert made["cost"]["roots"] == {"e0+": pytest.approx(0.1)}

    def test_plan_and_calibration_fields_round_trip(self, tmp_path):
        made = entry(
            run_id="r1", plan=self.PLAN, calibration=self.CALIBRATION
        )
        ledger = RunLedger(tmp_path)
        ledger.append(made)
        (got,) = ledger.entries()
        assert got["plan"] == self.PLAN
        assert got["calibration"]["mape"] == 0.25
        plain = entry(run_id="r2")
        assert "plan" not in plain and "calibration" not in plain

    def test_v1_lines_read_back_without_warnings(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(entry(run_id="r2", cost_snapshot=cost_snapshot()))
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write(self.v1_line("r1-old") + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ledger.entries()
        assert [e["run_id"] for e in got] == ["r2", "r1-old"]
        assert [e["schema"] for e in got] == [LEDGER_SCHEMA_VERSION, 1]

    def test_history_trends_calibration_mape(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(
            entry(run_id="r1", calibration=self.CALIBRATION)
        )
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write(self.v1_line("r0-old") + "\n")
        report = history_report(ledger.entries())
        rows = {
            row["run_id"]: row
            for group in report["groups"]
            for row in group["runs"]
        }
        assert rows["r1"]["cal_mape"] == 0.25
        assert rows["r1"]["shard_strategy"] == "predicted"
        assert rows["r0-old"]["cal_mape"] is None
        text = render_history_markdown(report)
        assert "plan MAPE" in text
        assert "0.250" in text
