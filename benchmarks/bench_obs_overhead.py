"""Disabled-path overhead check for the search's one observability hook.

P-TPMiner's search reports to every collector through one recorder
(``repro.obs.recorder``): it hoists one ``rec`` local, ``None`` unless a
collector is installed, and guards each event with ``if rec is not
None``. With nothing installed the hook must cost nothing measurable
(budget: <= ~1% median on wall time).

The collector-ON arms are no upper bound for that (provenance records
every emitted pattern's support set and every prune decision, which is
deliberately heavy), so this script measures the disabled path
directly. It builds a hook-free twin of ``repro.core.ptpminer`` by
dropping the ``rec`` hoist, every statement that names ``rec`` or the
recorder module, and every ``rec``-guarded conditional expression;
asserts the hoist is still called ``rec`` and the twin's source no
longer names the recorder (so a renamed hook fails here instead of
timing two identical miners); verifies the twin mines identically; and
times interleaved A/B pairs -- hook-free vs. shipped with nothing
installed -- on the sparse-deep benchmark input (``sparse``, 3,000
sequences, min-sup 0.03; about 1 s a mine). The arm that runs first
alternates from pair to pair, so slow clock drift, thermal ramp and
whatever the first run of a pair pays cancel out instead of biasing one
arm. Each run records its CPU time (``time.process_time()``) beside its
wall time: CPU time leaves out the waits a busy machine adds, so its
per-pair spread is the one to hold against the ~1% budget. What the
cost and provenance collectors cost when turned on is reported after,
for context, from the same number of alternated pairs against the
shipped miner with nothing installed.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --pairs 10

Prints per-pair timings, then the median and quartiles of the per-pair
overhead, wall and CPU, and how many pairs the shipped miner lost.
Standalone (no pytest); run it when the search hot path changes.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
import time
import types
from collections.abc import Callable, Sequence
from functools import partial

import repro.core.ptpminer as _ptpminer_module
from repro import obs
from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen import standard_dataset

NUM_SEQUENCES = 3000
MIN_SUP = 0.03

#: The hook local and the module it comes from. Every statement naming
#: one of them is a hook.
_HOOK_NAMES = frozenset({"rec", "obs_recorder"})


def _names_hook(node: ast.AST) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and inner.id in _HOOK_NAMES:
            return True
        if isinstance(inner, ast.alias) and (
            (inner.asname or inner.name) in _HOOK_NAMES
        ):
            return True
    return False


class _StripHooks(ast.NodeTransformer):
    """Drop the hoist, every hook statement and ``rec``-guarded value."""

    def visit_IfExp(self, node: ast.IfExp) -> ast.AST:
        # ``x if rec is not None else None`` -> ``None``: what the
        # disabled path evaluates, without the test.
        if _names_hook(node.test):
            return self.visit(node.orelse)
        return self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> ast.AST:
        node = super().generic_visit(node)
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and stmts and (
                isinstance(stmts[0], ast.stmt)
            ):
                kept = [stmt for stmt in stmts if not _names_hook(stmt)]
                if not kept and field == "body":
                    kept = [ast.Pass()]
                setattr(node, field, kept)
        return node


def build_stripped_miner() -> type:
    """A PTPMiner twin compiled from hook-free module source."""
    source_file = _ptpminer_module.__file__
    assert source_file is not None
    with open(source_file, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    hoisted = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and "obs_recorder" in ast.unparse(node)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert hoisted <= _HOOK_NAMES, (
        f"the recorder hook is now named {sorted(hoisted - _HOOK_NAMES)}; "
        "update _HOOK_NAMES"
    )
    tree = ast.fix_missing_locations(_StripHooks().visit(tree))
    assert not _names_hook(tree), "a hook survived stripping"
    stripped = ast.unparse(tree)
    assert "recorder" not in stripped.lower(), (
        "the stripped miner still names the recorder; was the hook "
        f"renamed? (update _HOOK_NAMES: {sorted(_HOOK_NAMES)})"
    )
    module = types.ModuleType("repro.core._ptpminer_hookfree")
    module.__file__ = source_file
    # dataclass machinery resolves string annotations through
    # sys.modules[cls.__module__], so the twin must be importable.
    sys.modules[module.__name__] = module
    exec(  # noqa: S102 -- our own transformed source
        compile(stripped, source_file, "exec"), module.__dict__
    )
    return module.PTPMiner


def _time_mine(db, config, miner_cls, **collectors: bool) -> tuple[float, float]:
    """Wall and CPU seconds of one mine under ``collectors``."""
    miner = miner_cls.from_config(config)
    with obs.observe(**collectors):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        miner.mine(db)
        return time.perf_counter() - wall0, time.process_time() - cpu0


def _alternated_pairs(
    pairs: int,
    base: Callable[[], tuple[float, float]],
    arm: Callable[[], tuple[float, float]],
    names: tuple[str, str],
) -> tuple[list[float], list[float]]:
    """Per-pair overheads ``arm / base - 1``, wall and CPU, over
    ``pairs`` pairs; the run that goes first alternates. Prints each."""
    walls: list[float] = []
    cpus: list[float] = []
    for pair in range(pairs):
        if pair % 2:
            on = arm()
            off = base()
        else:
            off = base()
            on = arm()
        walls.append(on[0] / off[0] - 1.0)
        cpus.append(on[1] / off[1] - 1.0)
        print(
            f"pair {pair} ({names[pair % 2]} first): "
            f"{names[0]}={off[0]:.4f}s (cpu {off[1]:.4f}s) "
            f"{names[1]}={on[0]:.4f}s (cpu {on[1]:.4f}s) "
            f"overhead wall {100 * walls[-1]:+.2f}% cpu {100 * cpus[-1]:+.2f}%"
        )
    return walls, cpus


def _spread(ratios: Sequence[float]) -> str:
    """Median and, from two pairs up, quartiles of per-pair overheads."""
    text = f"median {100 * statistics.median(ratios):+.2f}%"
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        text += f", quartiles {100 * q1:+.2f}% to {100 * q3:+.2f}%"
    return text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs", type=int, default=10, help="number of A/B pairs per arm"
    )
    args = parser.parse_args(argv)

    db = standard_dataset("sparse", num_sequences=NUM_SEQUENCES)
    config = MinerConfig(min_sup=MIN_SUP)
    stripped_cls = build_stripped_miner()

    # The twin must be behaviourally identical before its timings mean
    # anything.
    reference = PTPMiner.from_config(config).mine(db)
    twin = stripped_cls.from_config(config).mine(db)
    assert twin.as_dict() == reference.as_dict(), (
        "hook-free twin disagrees with the shipped miner"
    )
    assert twin.counters == reference.counters

    # Warm-up: one run of each arm so import/alloc effects hit neither.
    shipped = partial(_time_mine, db, config, PTPMiner)
    hookfree = partial(_time_mine, db, config, stripped_cls)
    hookfree()
    shipped()

    walls, cpus = _alternated_pairs(
        args.pairs, hookfree, shipped, ("hook-free", "shipped")
    )
    print(f"disabled-path overhead, wall: {_spread(walls)} (budget <= ~1%)")
    print(f"disabled-path overhead, cpu:  {_spread(cpus)}")
    print(
        f"the shipped miner was slower in {sum(r > 0 for r in walls)} of "
        f"{len(walls)} pairs by wall time, {sum(r > 0 for r in cpus)} by "
        "CPU time"
    )

    for kind in ("cost", "provenance"):
        walls, cpus = _alternated_pairs(
            args.pairs,
            shipped,
            partial(_time_mine, db, config, PTPMiner, **{kind: True}),
            ("off", kind),
        )
        print(
            f"for context, the {kind} collector ON costs, wall: "
            f"{_spread(walls)}; cpu: {_spread(cpus)}"
        )
    print("(provenance records every pattern's support set and every "
          "prune decision: enable it for audits, not benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
