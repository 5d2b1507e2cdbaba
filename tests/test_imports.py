"""What importing the package loads, and what a mine loads on top.

``ptpminer mine`` pays for every module it imports: a fresh process
compiles each one it has no bytecode cache for. These tests pin the
set ``import repro.cli`` loads, check that ``mine()`` itself imports
nothing (so the saving is not just moved into the mine), and check
that every lazily served package export still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Exactly the ``repro`` modules ``import repro.cli`` loads: what a TP
#: mine of a native-format file runs, plus the lazy-export helper.
CLI_MODULES = sorted([
    "repro", "repro._lazy", "repro.cli", "repro.contracts", "repro.miners",
    "repro.core", "repro.core.config", "repro.core.counting",
    "repro.core.projection", "repro.core.pruning", "repro.core.ptpminer",
    "repro.model", "repro.model.database", "repro.model.event",
    "repro.model.pattern", "repro.model.sequence",
    "repro.temporal", "repro.temporal.endpoint",
    "repro.io", "repro.io._utf8", "repro.io.text_format",
    "repro.obs", "repro.obs.clock", "repro.obs.metrics",
    "repro.obs.recorder", "repro.obs.seam", "repro.obs.trace",
    "repro.obs.warnonce",
])

#: What the process executor's pool start imports inside ``mine()``.
FORK_MODULES = ["multiprocessing.popen_fork", "multiprocessing.synchronize"]

PACKAGES = [
    "repro", "repro.core", "repro.model", "repro.temporal", "repro.io",
    "repro.datagen", "repro.harness", "repro.baselines", "repro.perf",
    "repro.obs",
]


def run_fresh(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout's sources,
    runtime contracts off (the default configuration); its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CONTRACTS", None)
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


class TestCliImport:
    def test_loads_exactly_the_mine_modules(self):
        out = run_fresh(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        loaded = json.loads(out)
        assert sorted(
            name for name in loaded if name.split(".")[0] == "repro"
        ) == CLI_MODULES
        assert not {"logging", "hashlib", "csv"} & set(loaded)


_MINE = """
import json, sys
from contextlib import ExitStack

import repro.cli
from repro import miners, obs
from repro.core.config import MinerConfig
from repro.io import read_database

db = read_database(sys.argv[1]).without_point_events()
workers = int(sys.argv[2])
miner = miners.build(
    "ptpminer", MinerConfig(min_sup=0.1, mode="tp"), workers=workers
)
with ExitStack() as stack:
    if workers > 1:
        # The run ledger's collectors, installed as the CLI does.
        registry = obs.MetricsRegistry()
        stack.enter_context(obs.metrics.use_registry(registry))
        stack.enter_context(obs.costmodel.use_collector())
    before = set(sys.modules)
    result = miner.mine(db)
print(json.dumps([sorted(set(sys.modules) - before), len(result.patterns)]))
"""


class TestMineImportsNothing:
    @pytest.fixture(scope="class")
    def sparse_input(self, tmp_path_factory):
        from repro.datagen import standard_dataset
        from repro.io import write_database

        path = tmp_path_factory.mktemp("imports") / "sparse.txt"
        write_database(standard_dataset("sparse", num_sequences=300), path)
        return path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mine_imports_no_module(self, sparse_input, workers):
        new, patterns = json.loads(
            run_fresh(_MINE, str(sparse_input), str(workers))
        )
        assert patterns > 0
        if workers == 1:
            assert new == []
        else:
            # Starting the process pool is the one exception.
            assert set(new) <= set(FORK_MODULES), new


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            getattr(module, name)
        assert set(module.__all__) <= set(dir(module))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            module.nope  # noqa: B018

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        import repro

        assert set(repro.__all__) <= set(namespace)
        assert namespace["PTPMiner"] is repro.PTPMiner

    def test_submodules_resolve_as_attributes(self):
        out = run_fresh(
            "import repro\n"
            "from repro import obs\n"
            "assert obs.costmodel.use_collector\n"
            "assert obs.metrics.use_registry and obs.MetricsRegistry\n"
            "assert repro.obs.provenance.patterns_digest\n"
            "assert repro.contracts.checking is not None\n"
            "print('ok')\n"
        )
        assert out.strip() == "ok"
