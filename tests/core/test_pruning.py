"""Unit tests for pruning configuration and counters."""

from repro.core.pruning import PruneCounters, PruningConfig


class TestPruningConfig:
    def test_default_all_on(self):
        config = PruningConfig()
        assert config.point and config.pair and config.postfix

    def test_none_and_all_constructors(self):
        assert PruningConfig.none().describe() == "none"
        assert PruningConfig.all().describe() == "point+pair+postfix"

    def test_describe_partial(self):
        assert PruningConfig(point=True, pair=False, postfix=True).describe() == (
            "point+postfix"
        )

    def test_frozen(self):
        import pytest

        with pytest.raises(AttributeError):
            PruningConfig().point = False  # type: ignore[misc]

    def test_equality(self):
        assert PruningConfig.all() == PruningConfig()
        assert PruningConfig.none() != PruningConfig()


class TestPruneCounters:
    def test_defaults_zero(self):
        counters = PruneCounters()
        assert counters.nodes_expanded == 0
        assert counters.extras == {}

    def test_as_dict_contains_all_fields(self):
        counters = PruneCounters(nodes_expanded=3, pruned_pair=2)
        d = counters.as_dict()
        assert d["nodes_expanded"] == 3
        assert d["pruned_pair"] == 2
        assert "patterns_emitted" in d

    def test_extras_merged_into_dict(self):
        counters = PruneCounters()
        counters.extras["pruned_apriori"] = 9
        assert counters.as_dict()["pruned_apriori"] == 9

    def test_independent_instances(self):
        a, b = PruneCounters(), PruneCounters()
        a.extras["x"] = 1
        assert "x" not in b.extras


class TestPruneCountersMerge:
    def test_merge_adds_every_field_and_extras(self):
        a = PruneCounters(nodes_expanded=3, pruned_pair=1)
        a.extras["pruned_apriori"] = 2
        b = PruneCounters(nodes_expanded=4, patterns_emitted=5)
        b.extras["pruned_apriori"] = 7
        b.extras["other"] = 1
        a.merge(b)
        assert a.nodes_expanded == 7
        assert a.pruned_pair == 1
        assert a.patterns_emitted == 5
        assert a.extras == {"pruned_apriori": 9, "other": 1}

    def test_merge_with_zero_is_identity(self):
        a = PruneCounters(nodes_expanded=3, pruned_postfix_branches=2)
        before = a.as_dict()
        a.merge(PruneCounters())
        assert a.as_dict() == before


class TestImportsWithoutPackageInit:
    def test_core_and_engine_import_without_repro_init(self):
        # A bare `repro` package module, so repro/__init__.py never runs
        # and cannot pre-import `repro.obs` ahead of the core. Each of
        # the core, the engine and the formats must import on its own,
        # first thing in a fresh interpreter, without a core -> obs ->
        # core or model <-> temporal cycle.
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        for module, check in (
            ("repro.core.ptpminer", "repro.core.ptpminer.PTPMiner"),
            ("repro.engine", "repro.engine.mine_sharded"),
            ("repro.io", "repro.io.read_database"),
        ):
            script = (
                "import sys, types\n"
                "package = types.ModuleType('repro')\n"
                f"package.__path__ = [{str(src / 'repro')!r}]\n"
                "sys.modules['repro'] = package\n"
                f"import {module}\n"
                f"assert callable({check})\n"
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert completed.returncode == 0, (
                module, completed.stderr[-2000:]
            )
