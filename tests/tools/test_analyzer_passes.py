"""Tests for the deep analyzer: graph, dataflow, passes, driver.

The per-rule fixtures under ``tests/tools/fixtures/`` carry
``# expect: RXXX`` markers on every line the intended rule must report.
Each fixture is linted under a *synthetic* ``src/repro`` path so the
production pass configuration (merge seeds, cache consumers, engine
module scoping) is exercised directly rather than through test-only
knobs.
"""

from __future__ import annotations

import ast
import re
import textwrap
import time
from pathlib import Path

import pytest

from tools.repro_lint.dataflow import effects_of, unordered_names, unordered_reason
from tools.repro_lint.driver import analyze_contexts, analyze_paths, rule_catalog
from tools.repro_lint.engine import CURRENT_PR, build_context, _parse_suppressions
from tools.repro_lint.graph import build_graph_from_sources
from tools.repro_lint.passes import ALL_PASSES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

#: fixture file -> synthetic lint path. Engine/metrics/ptpminer paths
#: make the production seed qualnames line up with fixture definitions.
FIXTURES = {
    "r010.py": "src/repro/engine.py",
    "r011.py": "src/repro/core/demo11.py",
    "r012.py": "src/repro/core/demo12.py",
    "r013.py": "src/repro/obs/metrics.py",
    "r014.py": "src/repro/engine.py",
    "r015.py": "src/repro/core/ptpminer.py",
    "r016.py": "src/repro/core/demo16.py",
    "r017.py": "src/repro/core/demo17.py",
    "r018.py": "src/repro/obs/demo18.py",
    "r019.py": "src/repro/core/demo19.py",
    "r020.py": "src/repro/obs/demo20.py",
    "r021.py": "src/repro/core/demo21.py",
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*(R\d{3})")


def expected_markers(source: str) -> set[tuple[int, str]]:
    """(line, code) pairs from ``# expect:`` markers."""
    return {
        (lineno, match.group(1))
        for lineno, line in enumerate(source.splitlines(), start=1)
        if (match := _EXPECT_RE.search(line))
    }


def deep_findings(path: str, source: str) -> list:
    """Run the graph passes over one synthetic module."""
    graph = build_graph_from_sources([(path, source)])
    found = []
    for pass_ in ALL_PASSES:
        found.extend(pass_.run(graph))
    return found


class TestFixtures:
    @pytest.mark.parametrize(
        "fixture", sorted(f for f in FIXTURES if f != "r017.py")
    )
    def test_fixture_violations_match_expect_markers(self, fixture):
        code = f"R{fixture[1:4]}"
        source = (FIXTURE_DIR / fixture).read_text()
        expected = expected_markers(source)
        assert expected, f"fixture {fixture} has no # expect markers"
        found = deep_findings(FIXTURES[fixture], source)
        got = {(v.line, v.code) for v in found if v.code == code}
        assert got == expected
        # Location metadata: every finding names the synthetic file.
        assert {v.path for v in found} <= set(FIXTURES.values())

    def test_r017_fixture_through_full_driver(self):
        # R017 needs the driver: it audits which suppressions *fired*.
        source = (FIXTURE_DIR / "r017.py").read_text()
        ctx = build_context(Path(FIXTURES["r017.py"]), source)
        found = analyze_contexts([ctx], deep=True)
        got = {(v.line, v.code) for v in found if v.code == "R017"}
        assert got == expected_markers(source)

    def test_r019_exempts_the_recorder_module(self):
        # The same record_* calls are the recorder's job: linted as
        # repro.obs.recorder, the R019 fixture raises nothing.
        source = (FIXTURE_DIR / "r019.py").read_text()
        found = deep_findings("src/repro/obs/recorder.py", source)
        assert [v for v in found if v.code == "R019"] == []

    def test_r021_only_binds_the_search_core(self):
        # The same imports are fine outside the core packages.
        source = (FIXTURE_DIR / "r021.py").read_text()
        found = deep_findings("src/repro/obs/demo21.py", source)
        assert [v for v in found if v.code == "R021"] == []

    @pytest.mark.parametrize(
        "path", ["src/repro/obs/recorder.py", "src/repro/obs/__init__.py"]
    )
    def test_r021_seam_readers_import_no_collector_at_module_level(self, path):
        source = textwrap.dedent('''
            from typing import TYPE_CHECKING

            from repro.obs import clock, live, seam  # expect: R021
            from repro.obs.costmodel import LEVEL_FIELDS  # expect: R021
            from repro.obs.ledger import RunLedger
            import repro.obs.provenance  # expect: R021

            if TYPE_CHECKING:
                from repro.obs.live import LiveSink


            def finish(sink: "LiveSink") -> object:
                from repro.obs.costmodel import COST_SCHEMA_VERSION

                return (clock, live, seam, LEVEL_FIELDS, RunLedger, sink,
                        COST_SCHEMA_VERSION)
        ''')
        found = deep_findings(path, source)
        got = {(v.line, v.code) for v in found if v.code == "R021"}
        assert got == expected_markers(source)

    def test_fixture_files_lint_clean_in_shallow_repo_gate(self):
        # The physical fixture files live under tests/ and are swept by
        # `make repro-lint`; their deliberate violations must be either
        # deep-only or suppressed.
        from tools.repro_lint.engine import lint_paths

        assert lint_paths([FIXTURE_DIR]) == []


class TestSuppressions:
    def parse_one(self, line: str):
        table = _parse_suppressions(line)
        assert len(table) == 1
        return table[0]

    def test_scoped_codes_parse(self):
        supp = self.parse_one("x = 1  # repro-lint: R010, R013")
        assert supp.codes == frozenset({"R010", "R013"})
        assert supp.scoped and supp.active and supp.until is None

    def test_legacy_forms_still_parse(self):
        legacy = self.parse_one("x = 1  # repro-lint: ignore[R001]")
        assert legacy.codes == frozenset({"R001"})
        blanket = self.parse_one("x = 1  # repro-lint: ignore")
        assert blanket.codes is None and not blanket.scoped

    def test_pr_expiry(self):
        live = self.parse_one(
            f"x = 1  # repro-lint: R010 until=PR{CURRENT_PR + 1}"
        )
        assert live.active and not live.expired
        expired = self.parse_one(
            f"x = 1  # repro-lint: R010 until=PR{CURRENT_PR}"
        )
        assert expired.expired and not expired.active

    def test_date_expiry(self):
        live = self.parse_one("x = 1  # repro-lint: R010 until=2999-01-01")
        assert live.active
        expired = self.parse_one(
            "x = 1  # repro-lint: R010 until=2020-01-01"
        )
        assert expired.expired

    def test_relative_pr_and_garbage_are_malformed(self):
        relative = self.parse_one("x = 1  # repro-lint: R010 until=PR+2")
        assert relative.malformed is not None and not relative.active
        garbage = self.parse_one("x = 1  # repro-lint: R010 until=soon")
        assert garbage.malformed is not None

    def test_expired_suppression_stops_suppressing(self):
        source = textwrap.dedent(
            f"""
            def f(x=[]):  # repro-lint: R002 until=PR{CURRENT_PR}
                return x
            """
        )
        ctx = build_context(Path("src/repro/core/demo.py"), source)
        found = analyze_contexts([ctx], deep=True)
        codes = [v.code for v in found]
        assert "R002" in codes  # resurfaced
        assert "R017" in codes  # and audited as expired

    def test_r017_is_not_self_suppressible(self):
        source = "X = 1  # repro-lint: ignore\n__all__ = ['X']\n"
        ctx = build_context(Path("src/repro/core/demo.py"), source)
        found = analyze_contexts([ctx], deep=True)
        assert any(v.code == "R017" for v in found)


class TestGraph:
    def test_strict_resolution_and_scoped_reachability(self):
        graph = build_graph_from_sources(
            [
                (
                    "src/repro/alpha.py",
                    textwrap.dedent(
                        """
                        from repro.beta import helper


                        def entry() -> int:
                            return helper()


                        def unrelated() -> int:
                            return 0
                        """
                    ),
                ),
                (
                    "src/repro/beta.py",
                    textwrap.dedent(
                        """
                        def helper() -> int:
                            return leaf()


                        def leaf() -> int:
                            return 1
                        """
                    ),
                ),
            ]
        )
        reach = graph.reachable(["repro.alpha.entry"])
        assert reach == {
            "repro.alpha.entry",
            "repro.beta.helper",
            "repro.beta.leaf",
        }
        # Module scoping cuts the cross-module edge.
        scoped = graph.reachable(
            ["repro.alpha.entry"], within_modules=("repro.alpha",)
        )
        assert scoped == {"repro.alpha.entry"}

    def test_param_annotation_method_resolution(self):
        graph = build_graph_from_sources(
            [
                (
                    "src/repro/gamma.py",
                    textwrap.dedent(
                        """
                        class Box:
                            def get(self) -> int:
                                return 1


                        def reader(box: Box) -> int:
                            return box.get()
                        """
                    ),
                )
            ]
        )
        assert "repro.gamma.Box.get" in graph.reachable(
            ["repro.gamma.reader"]
        )


class TestDataflow:
    def fn(self, source: str) -> ast.FunctionDef:
        node = ast.parse(textwrap.dedent(source)).body[0]
        assert isinstance(node, ast.FunctionDef)
        return node

    def test_effects_track_aliases_and_methods(self):
        effects = effects_of(
            self.fn(
                """
                def f(items):
                    alias = items
                    alias.append(1)
                    items[0] = 2
                """
            )
        )
        assert set(effects.mutated_params) == {"items"}
        assert len(effects.mutated_params["items"]) == 2

    def test_nested_def_shadowing_is_respected(self):
        effects = effects_of(
            self.fn(
                """
                def f(items):
                    def inner(items):
                        items.append(1)
                    return inner
                """
            )
        )
        assert effects.mutated_params == {}

    def test_unordered_names_taint_and_rebind(self):
        node = self.fn(
            """
            def f(d):
                a = set(d)
                b = [x for x in a]
                a = sorted(a)
                return a, b
            """
        )
        assert unordered_names(node) == {"b"}

    def test_unordered_reason_classifies_views_and_sorted(self):
        expr = ast.parse("d.values()", mode="eval").body
        assert unordered_reason(expr) is not None
        expr = ast.parse("sorted(d.values())", mode="eval").body
        assert unordered_reason(expr) is None


class TestDriverAndBudget:
    def test_catalog_is_contiguous_r001_to_r021(self):
        assert sorted(rule_catalog(deep=True)) == [
            f"R{i:03d}" for i in range(1, 22)
        ]
        assert sorted(rule_catalog(deep=False)) == [
            f"R{i:03d}" for i in range(1, 10)
        ]

    def test_repo_is_deep_lint_clean(self):
        """The CI deep gate: zero findings over the shipped tree."""
        found = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tools", REPO_ROOT / "tests"],
            deep=True,
        )
        assert found == []

    def test_full_deep_run_fits_runtime_budget(self):
        start = time.perf_counter()
        analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tools", REPO_ROOT / "tests"],
            deep=True,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"deep lint took {elapsed:.1f}s (budget 30s)"
