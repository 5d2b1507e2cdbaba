"""Tests for the per-phase profiling hooks (``repro.obs.profile``)."""

import json

import pytest

from repro.core.ptpminer import PTPMiner
from repro.obs import trace as obs_trace
from repro.obs.profile import (
    PhaseProfiler,
    main,
    profile_scope,
    render_profile,
    write_profile,
)

from tests.conftest import make_random_db


@pytest.fixture(scope="module")
def mined_profiler():
    """One profiled mining run shared by the read-only assertions."""
    db = make_random_db(1, num_sequences=30)
    with profile_scope(memory=True) as profiler:
        PTPMiner(0.2).mine(db)
    return profiler


class TestPhaseProfiler:
    def test_phases_attributed(self, mined_profiler):
        report = mined_profiler.report()
        names = {phase.name for phase in report.phases}
        assert {"prune", "encode", "pair_tables", "search"} <= names
        assert all(phase.runs == 1 for phase in report.phases)
        # Phases are ordered by descending cost and carry durations.
        seconds = [phase.seconds for phase in report.phases]
        assert seconds == sorted(seconds, reverse=True)

    def test_function_rows_name_the_hot_path(self, mined_profiler):
        report = mined_profiler.report().as_dict()
        search = next(
            phase for phase in report["phases"] if phase["name"] == "search"
        )
        funcs = " ".join(row["func"] for row in search["functions"])
        assert "project" in funcs or "gather_candidates" in funcs

    def test_memory_attribution(self, mined_profiler):
        report = mined_profiler.report()
        sites = [
            site
            for phase in report.phases
            for site in phase.memory_top
        ]
        assert sites, "memory=True must attribute allocation sites"
        assert all(site["size_kib"] >= 0 for site in sites)
        assert all(":" in site["site"] for site in sites)

    def test_folded_lines_shape_and_hot_frames(self, mined_profiler):
        lines = mined_profiler.folded_lines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert stack.split(";")[0] in (
                "prune", "encode", "pair_tables", "search"
            )
        hot = [
            line for line in lines
            if "project" in line or "counting" in line
        ]
        assert hot, "folded export must include the projection/counting path"

    def test_forwards_events_downstream(self):
        collector = obs_trace.TraceCollector()
        db = make_random_db(2, num_sequences=10)
        with obs_trace.use_tracer(collector):
            with profile_scope() as profiler:
                PTPMiner(0.4).mine(db)
        # Composes with the outer tracer: spans still reach it.
        names = {event.get("name") for event in collector.events}
        assert "search" in names and "mine" in names
        assert profiler.report().phases

    def test_nested_same_name_span_ignored(self):
        profiler = PhaseProfiler(phases=("search",))
        profiler.emit({"ev": "B", "span": 1, "name": "search", "ts": 0.0})
        # A same-named nested span must not restart the active profile.
        profiler.emit({"ev": "B", "span": 2, "name": "search", "ts": 0.1})
        profiler.emit(
            {"ev": "E", "span": 2, "name": "search", "ts": 0.2, "dur": 0.1}
        )
        profiler.emit(
            {"ev": "E", "span": 1, "name": "search", "ts": 0.5, "dur": 0.5}
        )
        report = profiler.report()
        assert [(p.name, p.runs) for p in report.phases] == [("search", 1)]
        assert report.phases[0].seconds == pytest.approx(0.5)

    def test_abort_clears_open_phase(self):
        profiler = PhaseProfiler(phases=("search",))
        profiler.emit({"ev": "B", "span": 1, "name": "search", "ts": 0.0})
        profiler.abort()
        # The unterminated phase is dropped, not double-counted.
        assert profiler.report().phases == []
        # And a fresh profile can start afterwards.
        profiler.emit({"ev": "B", "span": 3, "name": "search", "ts": 1.0})
        profiler.emit(
            {"ev": "E", "span": 3, "name": "search", "ts": 1.2, "dur": 0.2}
        )
        assert [p.runs for p in profiler.report().phases] == [1]

    def test_scope_uninstalls_tracer(self):
        with profile_scope():
            assert obs_trace.active_tracer() is not None
        assert obs_trace.active_tracer() is None


class TestRendering:
    def test_render_and_hottest(self, mined_profiler):
        report = mined_profiler.report().as_dict()
        text = render_profile(report)
        assert "Per-phase breakdown" in text
        # Each phase row names its hottest self-time function.
        assert "hottest" in text.splitlines()[2]
        assert "Top functions — search" in text
        assert "Top allocation sites" in text

    def test_empty_report(self):
        assert render_profile({}) == "(empty profile)"
        assert render_profile({"phases": []}) == "(empty profile)"

    def test_degenerate_phases_never_raise(self):
        # A partial run: missing keys, zero seconds, empty functions.
        report = {
            "phases": [
                {"name": "search"},
                {"runs": 2, "seconds": 0.0, "functions": []},
                {
                    "name": "encode",
                    "seconds": 0.1,
                    "functions": [{"func": "f", "calls": 1}],
                    "memory_top": [{"site": "x.py:1"}],
                },
            ]
        }
        text = render_profile(report)
        assert "Per-phase breakdown" in text
        assert "search" in text

    def test_zero_total_share_placeholder(self):
        text = render_profile(
            {"phases": [{"name": "p", "runs": 1, "seconds": 0.0}]}
        )
        assert "—" in text


class TestMain:
    def test_renders_file(self, tmp_path, capsys, mined_profiler):
        path = tmp_path / "profile.json"
        write_profile(mined_profiler.report(), path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        # Round-trips through JSON: schema markers survive.
        data = json.loads(path.read_text())
        assert (data["schema"], data["kind"]) == (1, "repro-profile")

    def test_top_flag(self, tmp_path, capsys, mined_profiler):
        path = tmp_path / "profile.json"
        write_profile(mined_profiler.report(), path)
        assert main(["--top", "1", str(path)]) == 0
        assert "Per-phase breakdown" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["--help"]) == 2
        assert main(["a", "b"]) == 2
        assert main(["--top", "x"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_degenerate_file_renders(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"phases": [{"name": "search"}]}))
        assert main([str(path)]) == 0
        assert "search" in capsys.readouterr().out
