"""Tests for the project lint tool (``tools.repro_lint``).

Each rule gets a triggering snippet and a suppressed variant; the paths
passed to :func:`lint_source` are synthetic and exercise the scoping
logic (``src/repro`` modules vs. tests vs. everything else).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from tools.repro_lint import lint_source
from tools.repro_lint.engine import iter_python_files, main


def codes(source: str, path: str) -> list[str]:
    """Lint a dedented snippet and return the violation codes."""
    return [v.code for v in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# R001 — direct Endpoint construction
# ---------------------------------------------------------------------------

def test_r001_flags_direct_construction():
    snippet = """
        from repro.temporal.endpoint import Endpoint

        ep = Endpoint("A", 0, 1)
    """
    assert codes(snippet, "tools/demo.py") == ["R001"]


def test_r001_exempts_endpoint_module_and_tests():
    snippet = """
        ep = Endpoint("A", 0, 1)
    """
    assert codes(snippet, "tests/test_demo.py") == []
    # The canonical encoder module itself may construct endpoints.
    assert "R001" not in codes(
        '"""Doc."""\n__all__: list[str] = []\nep = Endpoint("A", 0, 1)\n',
        "src/repro/temporal/endpoint.py",
    )


def test_r001_suppressible():
    snippet = """
        ep = Endpoint("A", 0, 1)  # repro-lint: ignore[R001]
    """
    assert codes(snippet, "tools/demo.py") == []


# ---------------------------------------------------------------------------
# R002 — mutable default arguments
# ---------------------------------------------------------------------------

def test_r002_flags_mutable_defaults():
    snippet = """
        def f(x=[]):
            return x

        def g(*, y={}):
            return y

        def h(z=dict()):
            return z
    """
    assert codes(snippet, "tools/demo.py") == ["R002", "R002", "R002"]


def test_r002_allows_immutable_defaults():
    snippet = """
        def f(x=(), y=None, z=0):
            return (x, y, z)
    """
    assert codes(snippet, "tools/demo.py") == []


def test_r002_suppressible():
    snippet = """
        def f(x=[]):  # repro-lint: ignore[R002]
            return x
    """
    assert codes(snippet, "tools/demo.py") == []


# ---------------------------------------------------------------------------
# R003 — public API annotations and docstrings (src/repro only)
# ---------------------------------------------------------------------------

def test_r003_flags_bare_public_function():
    snippet = """
        __all__ = ["f"]


        def f(x):
            return x
    """
    got = codes(snippet, "src/repro/core/demo.py")
    # Missing docstring, unannotated parameter, missing return annotation.
    assert got == ["R003", "R003", "R003"]


def test_r003_passes_fully_typed_function():
    snippet = '''
        __all__ = ["f"]


        def f(x: int) -> int:
            """Identity."""
            return x
    '''
    assert codes(snippet, "src/repro/core/demo.py") == []


def test_r003_only_applies_inside_repro_src():
    snippet = """
        def f(x):
            return x
    """
    assert codes(snippet, "tools/demo.py") == []
    assert codes(snippet, "tests/test_demo.py") == []


def test_r003_suppressible():
    snippet = """
        __all__ = ["f"]


        def f(x):  # repro-lint: ignore[R003]
            return x
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


# ---------------------------------------------------------------------------
# R004 — __all__ present and consistent (src/repro only)
# ---------------------------------------------------------------------------

def test_r004_flags_missing_dunder_all():
    snippet = '''
        """Doc."""


        def f() -> None:
            """Doc."""
    '''
    assert "R004" in codes(snippet, "src/repro/core/demo.py")


def test_r004_flags_inconsistent_dunder_all():
    unlisted = '''
        __all__: list[str] = []


        def f() -> None:
            """Doc."""
    '''
    undefined = '''
        __all__ = ["ghost"]
    '''
    assert codes(unlisted, "src/repro/core/demo.py") == ["R004"]
    assert codes(undefined, "src/repro/core/demo.py") == ["R004"]


def test_r004_passes_consistent_module():
    snippet = '''
        __all__ = ["f", "helper"]

        from tools.repro_lint import lint_source as helper


        def f() -> None:
            """Doc."""
    '''
    assert codes(snippet, "src/repro/core/demo.py") == []


_LAZY_PACKAGE = '''
    """Doc."""

    from typing import TYPE_CHECKING

    from repro._lazy import lazy_exports

    if TYPE_CHECKING:
        from repro.core import pruning
        from repro.core.ptpminer import PTPMiner, mine

    __all__ = ["PTPMiner", "mine", "pruning"]

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core": ("pruning",),
        "repro.core.ptpminer": (SERVED),
    })
'''


def test_r004_lazy_exports_count_when_the_mapping_serves_them():
    lazy = _LAZY_PACKAGE.replace("SERVED", '"PTPMiner", "mine"')
    assert codes(lazy, "src/repro/core/__init__.py") == []


def test_r004_lazy_export_missing_from_the_mapping_is_flagged():
    # Imported for type checkers but never served: at runtime the
    # package's __getattr__ would raise AttributeError for it.
    missing = _LAZY_PACKAGE.replace("SERVED", '"PTPMiner",')
    assert codes(missing, "src/repro/core/__init__.py") == ["R004"]
    # Served from another module than the one it is imported from.
    elsewhere = _LAZY_PACKAGE.replace("SERVED", '"PTPMiner",').replace(
        '"repro.core": ("pruning",),', '"repro.core": ("pruning", "mine"),'
    )
    assert codes(elsewhere, "src/repro/core/__init__.py") == ["R004"]
    # No mapping at all: a TYPE_CHECKING import defines nothing.
    unmapped = _LAZY_PACKAGE.split("__getattr__")[0]
    assert codes(unmapped, "src/repro/core/__init__.py") == ["R004"] * 3


def test_r004_suppressible():
    # The missing-__all__ violation anchors at line 1, so the suppression
    # comment must sit on the file's first line.
    source = '# repro-lint: ignore[R004]\n"""Doc."""\n'
    assert [v.code for v in lint_source(source, "src/repro/core/demo.py")] == []


# ---------------------------------------------------------------------------
# R005 — wall-clock time in core mining code
# ---------------------------------------------------------------------------

def test_r005_flags_wall_clock_in_core():
    snippet = """
        __all__: list[str] = []
        import time

        _T = time.time()
    """
    # In repro.core the import itself additionally trips R006.
    assert codes(snippet, "src/repro/core/demo.py") == ["R006", "R005"]
    assert codes(snippet, "src/repro/temporal/demo.py") == ["R005"]


def test_r005_flags_time_import_and_ignores_perf_counter():
    bad_import = """
        __all__: list[str] = []
        from time import time
    """
    ok = """
        __all__: list[str] = []
        import time

        _T = time.perf_counter()
    """
    assert codes(bad_import, "src/repro/core/demo.py") == ["R005", "R006"]
    # perf_counter passes R005, but the raw import still trips R006 in
    # repro.core; repro.temporal allows it.
    assert codes(ok, "src/repro/core/demo.py") == ["R006"]
    assert codes(ok, "src/repro/temporal/demo.py") == []


def test_r005_scoped_to_core_packages():
    snippet = """
        __all__: list[str] = []
        import time

        _T = time.time()
    """
    assert codes(snippet, "src/repro/harness/demo.py") == []
    assert codes(snippet, "tools/demo.py") == []


def test_r005_suppressible():
    snippet = """
        __all__: list[str] = []
        import time  # repro-lint: ignore[R006]

        _T = time.time()  # repro-lint: ignore[R005]
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


# ---------------------------------------------------------------------------
# R006 — raw time imports in repro.core
# ---------------------------------------------------------------------------

def test_r006_flags_any_time_import_in_core():
    plain = """
        __all__: list[str] = []
        import time
    """
    aliased = """
        __all__: list[str] = []
        import time as walltime
    """
    from_import = """
        __all__: list[str] = []
        from time import perf_counter
    """
    assert codes(plain, "src/repro/core/demo.py") == ["R006"]
    assert codes(aliased, "src/repro/core/demo.py") == ["R006"]
    assert codes(from_import, "src/repro/core/demo.py") == ["R006"]


def test_r006_scoped_to_repro_core_and_obs():
    snippet = """
        __all__: list[str] = []
        import time
    """
    # repro.core and repro.obs must route through repro.obs.clock...
    assert codes(snippet, "src/repro/obs/demo.py") == ["R006"]
    assert codes(snippet, "src/repro/obs/live.py") == ["R006"]
    # ...other packages are free.
    assert codes(snippet, "src/repro/temporal/demo.py") == []
    assert codes(snippet, "src/repro/harness/demo.py") == []
    assert codes(snippet, "tools/demo.py") == []
    assert codes(snippet, "tests/test_demo.py") == []


def test_r006_exempts_the_clock_seam():
    # repro.obs.clock IS the injection seam; it alone may touch time.
    snippet = """
        __all__: list[str] = []
        from time import perf_counter
    """
    assert codes(snippet, "src/repro/obs/clock.py") == []


def test_r006_allows_similarly_named_modules():
    snippet = """
        __all__: list[str] = []
        import timeit
        from datetime import datetime
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


def test_r006_suppressible():
    snippet = """
        __all__: list[str] = []
        import time  # repro-lint: ignore[R006]
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


# ---------------------------------------------------------------------------
# R007 — profiling imports in mining code
# ---------------------------------------------------------------------------

def test_r007_flags_profiling_imports_in_mining_code():
    plain = """
        __all__: list[str] = []
        import cProfile
    """
    aliased = """
        __all__: list[str] = []
        import tracemalloc as tm
    """
    from_import = """
        __all__: list[str] = []
        from pstats import Stats
    """
    assert codes(plain, "src/repro/core/demo.py") == ["R007"]
    assert codes(aliased, "src/repro/baselines/demo.py") == ["R007"]
    assert codes(from_import, "src/repro/core/demo.py") == ["R007"]


def test_r007_scoped_to_mining_packages():
    snippet = """
        __all__: list[str] = []
        import cProfile
        import tracemalloc
    """
    # The profiling/measurement layers themselves legitimately import
    # these; only the mined-over hot path is protected.
    assert codes(snippet, "src/repro/obs/demo.py") == []
    assert codes(snippet, "src/repro/harness/demo.py") == []
    assert codes(snippet, "tools/demo.py") == []
    assert codes(snippet, "tests/test_demo.py") == []


def test_r007_allows_similarly_named_modules():
    snippet = """
        __all__: list[str] = []
        import profiles
        from profiling import hook
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


def test_r007_suppressible():
    snippet = """
        __all__: list[str] = []
        import tracemalloc  # repro-lint: ignore[R007]
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------

def test_bare_ignore_suppresses_every_rule():
    snippet = """
        def f(x=[]):  # repro-lint: ignore
            return x
    """
    assert codes(snippet, "tools/demo.py") == []


def test_violations_carry_location_and_render():
    found = lint_source("def f(x=[]):\n    return x\n", "tools/demo.py")
    assert len(found) == 1
    violation = found[0]
    assert (violation.line, violation.code) == (1, "R002")
    assert violation.render().startswith("tools/demo.py:1:")
    assert "R002" in violation.render()


def test_iter_python_files_skips_pycache(tmp_path: Path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.py").write_text("x = 1\n")
    found = list(iter_python_files([tmp_path]))
    assert [p.name for p in found] == ["mod.py"]


def test_main_exit_codes(tmp_path: Path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x=[]):\n    return x\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "R002" in out.out

    assert main([str(tmp_path / "missing.txt")]) == 2


def test_repo_is_lint_clean():
    """The gate the CI runs: the shipped tree has zero violations."""
    root = Path(__file__).resolve().parents[2]
    assert main([str(root / "src"), str(root / "tests")]) == 0


# ---------------------------------------------------------------------------
# R008 — process pools outside repro.engine
# ---------------------------------------------------------------------------

def test_r008_flags_pool_construction_outside_engine():
    direct = """
        __all__: list[str] = []
        from concurrent.futures import ProcessPoolExecutor

        def _run():
            with ProcessPoolExecutor(max_workers=2) as pool:
                return pool
    """
    attribute = """
        __all__: list[str] = []
        import concurrent.futures

        def _run():
            return concurrent.futures.ProcessPoolExecutor()
    """
    assert codes(direct, "src/repro/core/demo.py") == ["R008"]
    assert codes(attribute, "src/repro/harness/demo.py") == ["R008"]


def test_r008_allows_the_engine_and_tests():
    snippet = """
        __all__: list[str] = []
        from concurrent.futures import ProcessPoolExecutor

        def _run():
            with ProcessPoolExecutor(max_workers=2) as pool:
                return pool
    """
    assert codes(snippet, "src/repro/engine.py") == []
    assert codes(snippet, "tests/test_demo.py") == []


def test_r008_ignores_bare_references():
    # Passing the class around (e.g. as a type annotation or a mock
    # target) is fine; only construction is fenced.
    snippet = """
        __all__: list[str] = []
        from concurrent.futures import ProcessPoolExecutor

        _POOL_TYPE = ProcessPoolExecutor
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


def test_r008_suppressible():
    snippet = """
        __all__: list[str] = []
        from concurrent.futures import ProcessPoolExecutor

        def _run():
            return ProcessPoolExecutor()  # repro-lint: ignore[R008]
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


# ---------------------------------------------------------------------------
# R009 — multiprocessing queues/pipes outside the telemetry bus + engine
# ---------------------------------------------------------------------------

def test_r009_flags_mp_primitives_outside_allowed_modules():
    attribute = """
        __all__: list[str] = []
        import multiprocessing

        def _run():
            return multiprocessing.Queue()
    """
    aliased = """
        __all__: list[str] = []
        import multiprocessing as mp

        def _run():
            return mp.Manager()
    """
    from_import = """
        __all__: list[str] = []
        from multiprocessing import Pipe as make_pipe

        def _run():
            return make_pipe()
    """
    assert codes(attribute, "src/repro/core/demo.py") == ["R009"]
    assert codes(aliased, "src/repro/harness/demo.py") == ["R009"]
    assert codes(from_import, "src/repro/obs/demo.py") == ["R009"]


def test_r009_allows_the_bus_engine_and_tests():
    snippet = """
        __all__: list[str] = []
        import multiprocessing

        def _run():
            return multiprocessing.SimpleQueue()
    """
    assert codes(snippet, "src/repro/obs/live.py") == []
    assert codes(snippet, "src/repro/engine.py") == []
    assert codes(snippet, "tests/test_demo.py") == []


def test_r009_ignores_unrelated_names():
    # Same-named callables from other modules, bare references, and
    # non-primitive multiprocessing attributes must not trip the rule.
    snippet = """
        __all__: list[str] = []
        import multiprocessing
        from queue import Queue

        def _run():
            local = Queue()
            count = multiprocessing.cpu_count()
            kind = multiprocessing.Queue
            return (local, count, kind)
    """
    assert codes(snippet, "src/repro/core/demo.py") == []


def test_r009_suppressible():
    snippet = """
        __all__: list[str] = []
        import multiprocessing

        def _run():
            return multiprocessing.Queue()  # repro-lint: ignore[R009]
    """
    assert codes(snippet, "src/repro/core/demo.py") == []
