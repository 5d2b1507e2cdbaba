"""End-to-end tests of the ptpminer CLI."""

import pytest

from repro.cli import main
from repro.io import read_database, read_patterns


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.txt"
    code = main(
        ["generate", "--dataset", "tiny", "--out", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_generates_named_synthetic(self, tiny_file):
        db = read_database(tiny_file)
        assert len(db) == 60
        assert db.name == "tiny"

    def test_generates_real_simulator(self, tmp_path, capsys):
        path = tmp_path / "lib.jsonl"
        assert main(["generate", "--dataset", "library",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "library-sim" in out

    def test_num_sequences_override(self, tmp_path):
        path = tmp_path / "small.txt"
        main(["generate", "--dataset", "tiny", "--out", str(path),
              "--num-sequences", "7"])
        assert len(read_database(path)) == 7

    def test_unknown_dataset_errors(self, tmp_path):
        code = main(["generate", "--dataset", "nope",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "db.csv"
        main(["generate", "--dataset", "tiny", "--out", str(path)])
        from repro.io import read_csv

        assert len(read_csv(path)) == 60


class TestMine:
    def test_mine_prints_patterns(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "P-TPMiner" in out
        assert "(e0+) (e0-)" in out

    def test_mine_writes_pattern_file(self, tiny_file, tmp_path, capsys):
        out_path = tmp_path / "patterns.txt"
        main(["mine", str(tiny_file), "--min-sup", "0.3",
              "--out", str(out_path)])
        patterns = read_patterns(out_path)
        assert patterns
        assert all(item.support >= 18 for item in patterns)

    @pytest.mark.parametrize(
        "miner", ["tprefixspan", "hdfs", "ieminer", "bruteforce"]
    )
    def test_alternative_miners_agree(self, tiny_file, capsys, miner):
        main(["mine", str(tiny_file), "--min-sup", "0.4"])
        reference = capsys.readouterr().out.splitlines()[1:]
        extra = ["--max-size", "3"] if miner == "bruteforce" else []
        main(["mine", str(tiny_file), "--min-sup", "0.4",
              "--miner", miner, *extra])
        got = capsys.readouterr().out.splitlines()[1:]
        assert got == reference

    def test_closed_and_maximal_flags(self, tiny_file, capsys):
        main(["mine", str(tiny_file), "--min-sup", "0.3", "--closed",
              "--maximal"])
        out = capsys.readouterr().out
        assert "closed patterns:" in out
        assert "maximal patterns:" in out

    def test_pruning_flags_do_not_change_output(self, tiny_file, capsys):
        main(["mine", str(tiny_file), "--min-sup", "0.3", "--top", "0"])
        reference = capsys.readouterr().out.splitlines()[1:]
        main(["mine", str(tiny_file), "--min-sup", "0.3", "--top", "0",
              "--no-pair-prune", "--no-point-prune", "--no-postfix-prune"])
        got = capsys.readouterr().out.splitlines()[1:]
        assert got == reference

    def test_htp_mode_on_hybrid_data(self, tmp_path, capsys):
        path = tmp_path / "hybrid.txt"
        main(["generate", "--dataset", "hybrid", "--out", str(path),
              "--num-sequences", "80"])
        assert main(["mine", str(path), "--min-sup", "0.2",
                     "--mode", "htp"]) == 0

    def test_tp_mode_strips_points_with_note(self, tmp_path, capsys):
        path = tmp_path / "hybrid.txt"
        main(["generate", "--dataset", "hybrid", "--out", str(path),
              "--num-sequences", "80"])
        capsys.readouterr()
        assert main(["mine", str(path), "--min-sup", "0.2"]) == 0
        err = capsys.readouterr().err
        assert "stripped" in err


class TestObservabilityFlags:
    def test_metrics_out_writes_valid_json(self, tiny_file, tmp_path, capsys):
        import json

        from repro.core.ptpminer import PTPMiner

        path = tmp_path / "metrics.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        # The snapshot's prune counters equal the PruneCounters totals of
        # an identical un-instrumented run.
        from repro.io import read_database

        reference = PTPMiner(0.3).mine(read_database(tiny_file))
        for name, value in reference.counters.as_dict().items():
            assert snapshot["counters"][f"search.{name}"] == value, name
        assert "wrote metrics snapshot" in capsys.readouterr().err

    def test_metrics_out_for_baseline_miner(self, tiny_file, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.4",
                     "--miner", "hdfs", "--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["search.patterns_emitted"] > 0

    def test_trace_writes_jsonl_covering_phases(self, tiny_file, tmp_path):
        from repro.obs.trace import read_trace

        path = tmp_path / "trace.jsonl"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--trace", str(path)]) == 0
        events = read_trace(path)
        names = {e["name"] for e in events if e["ev"] == "B"}
        assert {"mine", "prune", "encode", "pair_tables", "search",
                "extend", "project"} <= names
        begins = sum(1 for e in events if e["ev"] == "B")
        ends = sum(1 for e in events if e["ev"] == "E")
        assert begins == ends

    def test_progress_prints_heartbeat_to_stderr(self, tiny_file, capsys):
        # --progress is --live: one worker runs on the serial executor,
        # and the run ends on one line with every root done.
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        finals = [
            line for line in err.splitlines()
            if line.startswith("[live] roots") and "(100%)" in line
        ]
        assert len(finals) == 1, err
        assert "[done]" not in err

    def test_obs_flags_leave_sinks_uninstalled(self, tiny_file, tmp_path):
        from repro.obs import live as obs_live
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        main(["mine", str(tiny_file), "--min-sup", "0.3",
              "--metrics-out", str(tmp_path / "m.json"),
              "--trace", str(tmp_path / "t.jsonl"), "--progress"])
        assert obs_metrics.active_registry() is None
        assert obs_trace.active_tracer() is None
        assert obs_live.active_live() is None

    def test_log_level_flag_accepted(self, tiny_file, capsys):
        assert main(["--log-level", "info", "mine", str(tiny_file),
                     "--min-sup", "0.4"]) == 0

    def test_profile_writes_json_and_folded(self, tiny_file, tmp_path,
                                            capsys):
        import json

        base = tmp_path / "prof"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--profile-out", str(base)]) == 0
        err = capsys.readouterr().err
        assert "wrote profile" in err
        report = json.loads((tmp_path / "prof.json").read_text())
        assert report["kind"] == "repro-profile"
        assert {p["name"] for p in report["phases"]} >= {"search"}
        folded = (tmp_path / "prof.folded").read_text().splitlines()
        assert folded
        # Every folded line is "stack weight" rooted at a phase name.
        for line in folded:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
        # The hot path of the search phase is visible to flamegraphs.
        assert any(
            line.startswith("search;") and
            ("project" in line or "gather_candidates" in line)
            for line in folded
        )

    def test_profile_composes_with_trace(self, tiny_file, tmp_path,
                                         capsys):
        from repro.obs import trace as obs_trace

        base = tmp_path / "prof"
        trace_path = tmp_path / "t.jsonl"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--trace", str(trace_path),
                     "--profile-out", str(base)]) == 0
        # Profiler forwards span events, so the trace still covers the
        # phases it profiled.
        events = obs_trace.read_trace(trace_path)
        names = {e["name"] for e in events if e["ev"] == "B"}
        assert "search" in names
        assert (tmp_path / "prof.json").exists()
        assert obs_trace.active_tracer() is None
        capsys.readouterr()


class TestStats:
    def test_stats_table(self, tiny_file, capsys):
        assert main(["stats", str(tiny_file)]) == 0
        out = capsys.readouterr().out
        assert "sequences" in out
        assert "60" in out


class TestUnreadableInput:
    """mine and stats report an input they cannot read the way
    report/explain/diff do: one ``error:`` line and exit 2."""

    CASES = {
        "missing": (None, "No such file"),
        "malformed": (b"A,1\n", "db.txt:1: malformed event"),
        "bad-utf8": (b"A,0,1\n\xff,0,1\n", "db.txt:2: not valid UTF-8"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["mine", "stats"])
    def test_error_line_and_exit_two(self, command, case, tmp_path, capsys):
        content, expected = self.CASES[case]
        path = tmp_path / "db.txt"
        if content is not None:
            path.write_bytes(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert expected in err


def _run_obs_profile(path):
    from repro.obs.profile import main as profile_main

    return profile_main([path])


def _run_perf_compare(path):
    from repro.perf.cli import main as perf_main

    return perf_main(["compare", "--baseline", path])


class TestCorruptJsonSnapshots:
    """Every surface that reads a JSON snapshot file names the file it
    could not read, on one ``error:`` line, and exits 2."""

    CONTENTS = {
        "truncated": b'{"counters": {"a": 1,',
        "bad-utf8": b'{"kind": "\xff"}',
    }
    SURFACES = {
        "report-metrics": lambda path: main(["report", "--metrics", path]),
        "report-cost": lambda path: main(["report", "--cost", path]),
        "report-provenance": lambda path: main(
            ["report", "--provenance", path]
        ),
        "explain": lambda path: main(
            ["explain", "(e0+) (e0-)", "--provenance", path]
        ),
        "why-not": lambda path: main(
            ["why-not", "(e0+) (e0-)", "--provenance", path]
        ),
        "diff-patterns": lambda path: main(
            ["diff", "--patterns", path, path]
        ),
        "perf-compare": _run_perf_compare,
        "obs-profile-module": _run_obs_profile,
    }

    @pytest.mark.parametrize("content", sorted(CONTENTS))
    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_error_names_the_file(self, surface, content, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_bytes(self.CONTENTS[content])
        assert self.SURFACES[surface](str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err


class TestMineExtensions:
    def test_top_k_flag(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "P-TPMiner(top-k)" in out
        assert out.count("(e") >= 3

    def test_top_k_requires_ptpminer(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--top-k", "3",
                     "--miner", "hdfs"]) == 2

    def test_max_span_flag_reduces_patterns(self, tiny_file, capsys):
        main(["mine", str(tiny_file), "--min-sup", "0.3", "--top", "0"])
        free = capsys.readouterr().out.count("\n")
        main(["mine", str(tiny_file), "--min-sup", "0.3", "--top", "0",
              "--max-span", "4"])
        constrained = capsys.readouterr().out.count("\n")
        assert constrained <= free

    def test_rules_flag(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.2",
                     "--rules", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "temporal rules" in out
        assert "=>" in out


class TestPerfSubcommand:
    def test_perf_forwards_to_perf_cli(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        assert main(["perf", "run", "--matrix", "tiny", "--quiet",
                     "--ledger-dir", str(ledger_dir)]) == 0
        entries = RunLedger(ledger_dir).entries()
        assert entries
        assert {entry["kind"] for entry in entries} == {"repro-run"}
        capsys.readouterr()

    def test_perf_usage_error_propagates(self, capsys):
        assert main(["perf", "frobnicate"]) == 2
        capsys.readouterr()


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        import pytest as _pytest

        from repro.cli import build_parser

        parser = build_parser()
        with _pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        out = capsys.readouterr().out
        for sub in ("generate", "mine", "stats", "perf"):
            assert sub in out

    def test_missing_subcommand_errors(self):
        import pytest as _pytest

        from repro.cli import build_parser

        with _pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestParallelMining:
    def test_workers_output_matches_serial(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3"]) == 0
        reference = capsys.readouterr().out.splitlines()[1:]
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "4"]) == 0
        got = capsys.readouterr().out.splitlines()[1:]
        assert got == reference

    def test_serial_executor_flag(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "(e0+) (e0-)" in out

    def test_workers_rejected_for_baselines(self, tiny_file, capsys):
        code = main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--miner", "hdfs", "--workers", "2"])
        assert code == 2
        assert "only supported" in capsys.readouterr().err

    def test_workers_rejected_with_top_k(self, tiny_file, capsys):
        code = main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--top-k", "5", "--workers", "2"])
        assert code == 2
        assert "--top-k" in capsys.readouterr().err

    def test_unsupported_option_errors_eagerly(self, tiny_file, capsys):
        # IEMiner silently ignored --max-span before the MinerConfig
        # redesign; now the mismatch is a clean usage error.
        code = main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--miner", "ieminer", "--max-span", "5"])
        assert code == 2
        assert "IEMiner" in capsys.readouterr().err

    def test_trace_and_metrics_survive_workers(self, tiny_file, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--executor", "serial",
                     "--trace", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        import json

        from repro.obs.trace import read_trace

        events = read_trace(trace_path)
        assert any(str(ev.get("span", "")).startswith("shard")
                   for ev in events)
        snapshot = json.loads(metrics_path.read_text())
        assert any(key.startswith("shard.")
                   for key in snapshot["counters"])


class TestLiveMining:
    def test_live_output_matches_serial(self, tiny_file, capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3"]) == 0
        reference = capsys.readouterr().out.splitlines()[1:]
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "4", "--live",
                     "--live-interval", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == reference
        live_lines = [line for line in captured.err.splitlines()
                      if line.startswith("[live] roots ")]
        assert live_lines
        done = [int(line.split()[2].split("/")[0]) for line in live_lines]
        assert done == sorted(done)

    def test_live_log_writes_parseable_frames(self, tiny_file, tmp_path,
                                              capsys):
        log = tmp_path / "frames.jsonl"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--live-log", str(log),
                     "--live-interval", "0"]) == 0
        capsys.readouterr()
        from repro.obs.live import read_live_log

        frames = read_live_log(log)
        assert frames
        assert {frame.shard for frame in frames} == {0, 1}
        assert any(frame.final for frame in frames)

    def test_live_rejected_for_baselines(self, tiny_file, capsys):
        for flag in ("--live", "--progress"):
            code = main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--miner", "hdfs", flag])
            assert code == 2
            assert "--live/--progress" in capsys.readouterr().err

    def test_live_rejected_with_top_k(self, tiny_file, capsys):
        for flag in ("--live", "--progress"):
            code = main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--top-k", "5", flag])
            assert code == 2
            err = capsys.readouterr().err
            assert "--live/--progress" in err and "--top-k" in err


class TestReportSubcommand:
    @pytest.fixture
    def artifacts(self, tiny_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        log = tmp_path / "frames.jsonl"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--live-log", str(log),
                     "--live-interval", "0", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        return trace, metrics, log

    def test_report_joins_all_sources(self, artifacts, capsys):
        trace, metrics, log = artifacts
        assert main(["report", "--trace", str(trace),
                     "--metrics", str(metrics),
                     "--live-log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "# ptpminer run report" in out
        assert "## Phases" in out
        assert "## Shards" in out
        assert "## Prune funnel" in out

    def test_report_json_and_out_file(self, artifacts, tmp_path, capsys):
        trace, _, _ = artifacts
        out_path = tmp_path / "report.json"
        assert main(["report", "--trace", str(trace), "--json",
                     "--out", str(out_path)]) == 0
        import json

        report = json.loads(out_path.read_text())
        assert "phases" in report

    def test_report_requires_a_source(self, capsys):
        assert main(["report"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_report_missing_file_errors_cleanly(self, tmp_path, capsys):
        assert main(["report", "--trace",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err


class TestLintSubcommand:
    @pytest.fixture
    def dirty_file(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text('"""Doc."""\n\n\ndef f(x=[]):\n    return x\n')
        return path

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro/contracts.py"]) == 0
        capsys.readouterr()

    def test_findings_exit_one_with_rule_id(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        captured = capsys.readouterr()
        assert "R002" in captured.out
        assert "finding(s)" in captured.err

    def test_json_format(self, dirty_file, capsys):
        import json

        assert main(["lint", str(dirty_file), "--format", "json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings[0]["code"] == "R002"
        assert findings[0]["path"] == str(dirty_file)

    def test_sarif_format_to_file(self, dirty_file, tmp_path, capsys):
        import json

        out = tmp_path / "lint.sarif"
        assert main(["lint", str(dirty_file), "--format", "sarif",
                     "--out", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "R002"

    def test_shallow_flag_and_missing_path_error(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--shallow"]) == 1
        capsys.readouterr()
        assert main(["lint", str(dirty_file.parent / "nope.py")]) == 2
        assert "error" in capsys.readouterr().err


class TestCostProfileFlag:
    def test_cost_profile_writes_json(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--cost-profile", str(out)]) == 0
        err = capsys.readouterr().err
        assert "cost profile" in err
        import json

        profile = json.loads(out.read_text())
        assert profile["kind"] == "repro-cost"
        assert profile["roots"]
        assert profile["levels"]["1"]["frequent"] == len(profile["roots"])

    def test_cost_profile_identical_serial_vs_workers(
        self, tiny_file, tmp_path, capsys
    ):
        import json

        from repro.obs.costmodel import profile_digest

        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--cost-profile", str(serial)]) == 0
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "3", "--cost-profile",
                     str(sharded)]) == 0
        capsys.readouterr()
        a = json.loads(serial.read_text())
        b = json.loads(sharded.read_text())
        assert profile_digest(a) == profile_digest(b)

    def test_cost_profile_requires_ptpminer(self, tiny_file, tmp_path,
                                            capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--miner", "tprefixspan",
                     "--cost-profile", str(tmp_path / "c.json")]) == 2
        assert "ptpminer" in capsys.readouterr().err


class TestLedgerFlags:
    def test_mine_appends_ledger_entry(self, tiny_file, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--ledger-dir", str(ledger_dir)]) == 0
        err = capsys.readouterr().err
        assert "ledger: appended run" in err
        (entry,) = RunLedger(ledger_dir).entries()
        assert entry["config"]["miner"] == "ptpminer"
        assert entry["config"]["min_sup"] == 0.3
        assert entry["patterns"] > 0
        assert entry["counters"]
        assert entry["phases"]  # registry captured phase timings
        assert entry["cost"]["digest"]  # cost collected for ptpminer

    def test_ledger_entries_share_fingerprint_across_reruns(
        self, tiny_file, tmp_path, capsys
    ):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        for _ in range(2):
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        first, second = RunLedger(ledger_dir).entries()
        assert first["fingerprint"] == second["fingerprint"]
        assert first["cost"]["digest"] == second["cost"]["digest"]
        assert first["run_id"] != second["run_id"]


class TestHistorySubcommand:
    @pytest.fixture
    def ledger_dir(self, tiny_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        for _ in range(2):
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        return ledger_dir

    def test_history_renders_markdown(self, ledger_dir, capsys):
        assert main(["history", "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Run history" in out
        assert "0 regression(s)" in out

    def test_history_json_and_out_file(self, ledger_dir, tmp_path, capsys):
        import json

        out_path = tmp_path / "history.json"
        assert main(["history", "--ledger-dir", str(ledger_dir),
                     "--json", "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["kind"] == "repro-history"
        assert len(report["groups"]) == 1
        assert len(report["groups"][0]["runs"]) == 2

    def test_check_clean_exits_zero(self, ledger_dir, capsys):
        assert main(["history", "--ledger-dir", str(ledger_dir),
                     "--check"]) == 0
        capsys.readouterr()

    def test_check_regressed_ledger_exits_one(self, ledger_dir, capsys):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(ledger_dir)
        first, second = ledger.entries()
        tampered = dict(second)
        tampered["run_id"] = second["run_id"] + "-regressed"
        tampered["counters"] = dict(second["counters"])
        tampered["counters"]["nodes_expanded"] += 10
        ledger.append(tampered)
        assert main(["history", "--ledger-dir", str(ledger_dir),
                     "--check"]) == 1
        captured = capsys.readouterr()
        assert "regression" in captured.err
        assert "counters.nodes_expanded" in captured.out

    def test_empty_ledger_is_ok(self, tmp_path, capsys):
        assert main(["history", "--ledger-dir",
                     str(tmp_path / "empty")]) == 0
        assert "_Ledger is empty._" in capsys.readouterr().out


class TestDiffSubcommand:
    @pytest.fixture
    def two_runs(self, tiny_file, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        for _ in range(2):
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        a, b = RunLedger(ledger_dir).entries()
        return ledger_dir, a, b

    def test_diff_identical_runs_exits_zero(self, two_runs, capsys):
        ledger_dir, a, b = two_runs
        assert main(["diff", a["run_id"], b["run_id"],
                     "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Run diff" in out
        assert "Counters identical." in out
        assert "**No regressions.**" in out

    def test_diff_across_fingerprints_gates_on_counters(
        self, tiny_file, tmp_path, capsys
    ):
        # A sharded and a serial run differ in config fingerprint (the
        # worker count is part of it), yet their exact rows gate: equal
        # counters pass, a counter delta fails.
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        for workers in ("2", "1"):
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--workers", workers,
                         "--ledger-dir", str(ledger_dir)]) == 0
        sharded, serial = RunLedger(ledger_dir).entries()
        assert sharded["fingerprint"] != serial["fingerprint"]
        capsys.readouterr()
        assert main(["diff", sharded["run_id"], serial["run_id"],
                     "--ledger-dir", str(ledger_dir)]) == 0
        assert "exact rows below still gate" in capsys.readouterr().out
        tampered = dict(serial)
        tampered["run_id"] = "tampered-run"
        tampered["counters"] = dict(serial["counters"])
        tampered["counters"]["states_created"] += 1
        RunLedger(ledger_dir).append(tampered)
        assert main(["diff", sharded["run_id"], "tampered-run",
                     "--ledger-dir", str(ledger_dir)]) == 1
        out = capsys.readouterr().out
        assert "exact rows below still gate" in out
        assert "**Regressions detected.**" in out

    def test_diff_flags_injected_counter_regression(self, two_runs,
                                                    capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir, a, b = two_runs
        tampered = dict(b)
        tampered["run_id"] = "tampered-run"
        tampered["counters"] = dict(b["counters"])
        tampered["counters"]["nodes_expanded"] += 7
        RunLedger(ledger_dir).append(tampered)
        assert main(["diff", a["run_id"], "tampered-run",
                     "--ledger-dir", str(ledger_dir)]) == 1
        out = capsys.readouterr().out
        assert "nodes_expanded" in out
        assert "+7" in out
        assert "**Regressions detected.**" in out

    def test_diff_fails_on_patterns_digest_drift(self, two_runs, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir, a, b = two_runs
        drifted = dict(b)
        drifted["run_id"] = "drifted-run"
        drifted["patterns_digest"] = "0" * 16
        RunLedger(ledger_dir).append(drifted)
        assert main(["diff", a["run_id"], "drifted-run",
                     "--ledger-dir", str(ledger_dir)]) == 1
        out = capsys.readouterr().out
        assert "Counters identical." in out
        assert "result set drifted" in out
        assert out.rstrip().endswith("**Regressions detected.**")

    def test_diff_json_output(self, two_runs, tmp_path, capsys):
        import json

        ledger_dir, a, b = two_runs
        out_path = tmp_path / "diff.json"
        assert main(["diff", a["run_id"], b["run_id"],
                     "--ledger-dir", str(ledger_dir),
                     "--json", "--out", str(out_path)]) == 0
        capsys.readouterr()
        diff = json.loads(out_path.read_text())
        assert diff["kind"] == "repro-diff"
        assert diff["has_regressions"] is False

    def test_diff_unknown_ref_exits_two(self, two_runs, capsys):
        ledger_dir, a, _ = two_runs
        assert main(["diff", a["run_id"], "zzz",
                     "--ledger-dir", str(ledger_dir)]) == 2
        assert "no run matching" in capsys.readouterr().err


class TestReportGracefulDegradation:
    def test_metrics_only_report_carries_notes(self, tiny_file, tmp_path,
                                               capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "## Prune funnel" in out
        assert "## Phases" in out  # from the phase_seconds counters
        assert "## Notes" in out
        assert "no live log or trace given" in out

    def test_full_report_has_no_notes(self, tiny_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        log = tmp_path / "frames.jsonl"
        cost = tmp_path / "cost.json"
        prov = tmp_path / "prov.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--live-log", str(log),
                     "--live-interval", "0", "--trace", str(trace),
                     "--metrics-out", str(metrics),
                     "--cost-profile", str(cost),
                     "--provenance", str(prov)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace),
                     "--metrics", str(metrics),
                     "--live-log", str(log),
                     "--cost", str(cost),
                     "--provenance", str(prov)]) == 0
        out = capsys.readouterr().out
        assert "## Notes" not in out
        assert "## Heaviest roots (realized)" in out

    def test_legacy_three_source_report_notes_new_sources(
            self, tiny_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        log = tmp_path / "frames.jsonl"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--workers", "2", "--live-log", str(log),
                     "--live-interval", "0", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace),
                     "--metrics", str(metrics),
                     "--live-log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "## Notes" in out
        assert "no cost profile given" in out


class TestProvenanceFlag:
    def mine_with_provenance(self, tiny_file, path, *extra):
        return main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--provenance", str(path), *extra])

    def test_mine_writes_provenance_snapshot(self, tiny_file, tmp_path,
                                             capsys):
        import json

        prov_path = tmp_path / "prov.json"
        assert self.mine_with_provenance(tiny_file, prov_path) == 0
        err = capsys.readouterr().err
        assert "wrote provenance to" in err
        snap = json.loads(prov_path.read_text())
        assert snap["kind"] == "repro-provenance"
        assert snap["patterns"]
        # Every recorded support set checks out against its support.
        for entry in snap["patterns"].values():
            assert len(entry["sids"]) == entry["support"]
            assert set(entry["witnesses"]) == {
                str(sid) for sid in entry["sids"]
            }

    def test_explain_out_alias(self, tiny_file, tmp_path, capsys):
        prov_path = tmp_path / "prov.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--explain-out", str(prov_path)]) == 0
        capsys.readouterr()
        assert prov_path.is_file()

    def test_provenance_identical_serial_vs_workers(self, tiny_file,
                                                    tmp_path, capsys):
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert self.mine_with_provenance(tiny_file, serial) == 0
        assert self.mine_with_provenance(
            tiny_file, sharded, "--workers", "4"
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == sharded.read_text()

    def test_provenance_requires_ptpminer(self, tiny_file, tmp_path,
                                          capsys):
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--miner", "tprefixspan",
                     "--provenance", str(tmp_path / "p.json")]) == 2
        assert "--provenance" in capsys.readouterr().err

    def test_ledger_entry_carries_digest_and_path(self, tiny_file,
                                                  tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        prov_path = tmp_path / "prov.json"
        ledger_dir = tmp_path / "ledger"
        assert self.mine_with_provenance(
            tiny_file, prov_path, "--ledger-dir", str(ledger_dir)
        ) == 0
        capsys.readouterr()
        (entry,) = RunLedger(ledger_dir).entries()
        assert entry["provenance_path"] == str(prov_path)
        assert len(entry["patterns_digest"]) == 16

    def test_patterns_digest_recorded_without_provenance_file(
        self, tiny_file, tmp_path, capsys
    ):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        (entry,) = RunLedger(ledger_dir).entries()
        assert len(entry["patterns_digest"]) == 16
        assert "provenance_path" not in entry


class TestExplainSubcommand:
    @pytest.fixture
    def prov_file(self, tiny_file, tmp_path, capsys):
        path = tmp_path / "prov.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--provenance", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_explain_emitted_pattern(self, prov_file, capsys):
        assert main(["explain", "(e0+) (e0-)",
                     "--provenance", str(prov_file)]) == 0
        out = capsys.readouterr().out
        assert "# explain `(e0+) (e0-)`" in out
        assert "Witnesses" in out

    def test_explain_missing_pattern_exits_one(self, prov_file, capsys):
        assert main(["explain", "(zz+) (zz-)",
                     "--provenance", str(prov_file)]) == 1
        assert "why-not" in capsys.readouterr().out

    def test_explain_malformed_pattern_exits_two_with_hint(
        self, prov_file, capsys
    ):
        assert main(["explain", "e0+ e0-",
                     "--provenance", str(prov_file)]) == 2
        err = capsys.readouterr().err
        assert "hint:" in err
        assert "(A+ B+) (A- B-)" in err

    def test_explain_json_output(self, prov_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "explain.json"
        assert main(["explain", "(e0+) (e0-)",
                     "--provenance", str(prov_file),
                     "--json", "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["kind"] == "repro-explain"
        assert report["found"] is True
        assert report["sids"]

    def test_explain_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["explain", "(e0+) (e0-)",
                     "--provenance", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_explain_rejects_non_provenance_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "something-else"}')
        assert main(["explain", "(e0+) (e0-)",
                     "--provenance", str(bad)]) == 2
        assert "not a provenance snapshot" in capsys.readouterr().err


class TestWhyNotSubcommand:
    @pytest.fixture
    def prov_file(self, tiny_file, tmp_path, capsys):
        path = tmp_path / "prov.json"
        assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                     "--provenance", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_why_not_on_absent_pattern(self, prov_file, capsys):
        assert main(["why-not", "(zz+) (zz-)",
                     "--provenance", str(prov_file)]) == 0
        out = capsys.readouterr().out
        assert "# why-not `(zz+) (zz-)`" in out

    def test_why_not_attributes_a_recorded_kill(self, prov_file, capsys):
        import json

        snap = json.loads(prov_file.read_text())
        pruned = sorted(snap["pruned"])
        assert pruned, "expected recorded prune decisions on tiny"
        assert main(["why-not", pruned[0],
                     "--provenance", str(prov_file)]) == 0
        out = capsys.readouterr().out
        assert "generated and killed" in out

    def test_why_not_on_emitted_pattern_exits_one(self, prov_file,
                                                  capsys):
        assert main(["why-not", "(e0+) (e0-)",
                     "--provenance", str(prov_file)]) == 1
        assert "ptpminer explain" in capsys.readouterr().out

    def test_why_not_malformed_pattern_exits_two(self, prov_file,
                                                 capsys):
        assert main(["why-not", "broken((",
                     "--provenance", str(prov_file)]) == 2
        assert "hint:" in capsys.readouterr().err


class TestDiffPatternsSubcommand:
    def mine_prov(self, tiny_file, path, min_sup, *extra):
        assert main(["mine", str(tiny_file), "--min-sup", str(min_sup),
                     "--provenance", str(path), *extra]) == 0

    def test_identical_runs_exit_zero(self, tiny_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.mine_prov(tiny_file, a, 0.3)
        self.mine_prov(tiny_file, b, 0.3)
        capsys.readouterr()
        assert main(["diff", "--patterns", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Result sets are identical" in out

    def test_threshold_change_attributed_exit_one(self, tiny_file,
                                                  tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.mine_prov(tiny_file, a, 0.3)
        self.mine_prov(tiny_file, b, 0.6)
        capsys.readouterr()
        assert main(["diff", "--patterns", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "## Removed in B" in out
        assert "site `" in out or "point-pruned" in out

    def test_resolves_ledger_run_ids(self, tiny_file, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.mine_prov(tiny_file, a, 0.3, "--ledger-dir", str(ledger_dir))
        self.mine_prov(tiny_file, b, 0.3, "--ledger-dir", str(ledger_dir))
        capsys.readouterr()
        run_a, run_b = [
            e["run_id"] for e in RunLedger(ledger_dir).entries()
        ]
        assert main(["diff", "--patterns", run_a, run_b,
                     "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["diff", "--patterns", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        assert "not a file" in capsys.readouterr().err

    def test_plain_diff_still_requires_ledger_dir(self, capsys):
        assert main(["diff", "run-a", "run-b"]) == 2
        assert "--ledger-dir" in capsys.readouterr().err


class TestHistoryLimitAndDigest:
    @pytest.fixture
    def ledger_dir(self, tiny_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        for _ in range(3):
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        return ledger_dir

    def test_limit_truncates_displayed_rows(self, ledger_dir, tmp_path,
                                            capsys):
        import json

        out_path = tmp_path / "history.json"
        assert main(["history", "--ledger-dir", str(ledger_dir),
                     "--limit", "1", "--json",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        (group,) = report["groups"]
        assert len(group["runs"]) == 1

    def test_check_flags_patterns_digest_drift(self, ledger_dir, capsys):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(ledger_dir)
        last = dict(ledger.entries()[-1])
        last["run_id"] = "drifted-run"
        last["patterns_digest"] = "0" * 16
        ledger.append(last)
        assert main(["history", "--ledger-dir", str(ledger_dir),
                     "--check"]) == 1
        captured = capsys.readouterr()
        assert "patterns_digest" in captured.out
        assert "result set drifted" in captured.out


class TestRetiredToleranceFlags:
    """One judge, one rule: no command tunes its tolerance."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["history", "--ledger-dir", "d", "--time-rtol", "0.5"],
            ["history", "--ledger-dir", "d", "--time-abs", "0.5"],
            ["diff", "a", "b", "--ledger-dir", "d", "--time-rtol", "0.5"],
            ["diff", "a", "b", "--ledger-dir", "d", "--time-abs", "0.5"],
            ["report", "--metrics", "m.json", "--straggler-factor", "0.5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_argparse_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--time-rtol", "0.5"],
            ["--time-abs", "0.5"],
            ["--mem-rtol", "0.5"],
            ["--mem-abs", "0.5"],
            ["--strict-env"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_perf_compare_exits_two(self, flag, capsys):
        assert main(["perf", "compare", "--fresh", "f.json", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRemovedShardOptions:
    """The engine has one deal, so nothing picks or forecasts one."""

    @pytest.mark.parametrize(
        "argv",
        [["plan", "db.txt"], ["report", "--plan", "plan.json"]],
        ids=["plan", "report-plan"],
    )
    def test_argparse_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_sharded_ledger_entry_matches_serial(
            self, tiny_file, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "runs"
        outs = []
        for workers in ("2", "1"):
            out = tmp_path / f"w{workers}.txt"
            assert main(["mine", str(tiny_file), "--min-sup", "0.3",
                         "--workers", workers, "--out", str(out),
                         "--ledger-dir", str(ledger_dir)]) == 0
            assert "calibration" not in capsys.readouterr().err
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        sharded, serial = RunLedger(ledger_dir).entries()
        for entry in (sharded, serial):
            assert entry["schema"] == 3
            assert "plan" not in entry and "calibration" not in entry
            assert "roots" not in entry["cost"]
        assert sharded["patterns_digest"] == serial["patterns_digest"]
