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
arm. What the cost and provenance collectors cost when turned on is
reported after, for context.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --pairs 10

Prints per-pair timings, then the median and quartiles of the per-pair
overhead and how many pairs the shipped miner lost. Standalone (no
pytest); run it when the search hot path changes.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
import time
import types
from collections.abc import Sequence

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


def _time_mine(db, config, miner_cls, **collectors: bool) -> float:
    miner = miner_cls.from_config(config)
    with obs.observe(**collectors):
        t0 = time.perf_counter()
        miner.mine(db)
        return time.perf_counter() - t0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs", type=int, default=10, help="number of A/B pairs"
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
    _time_mine(db, config, stripped_cls)
    _time_mine(db, config, PTPMiner)

    ratios = []
    for pair in range(args.pairs):
        if pair % 2:
            disabled = _time_mine(db, config, PTPMiner)
            hookfree = _time_mine(db, config, stripped_cls)
        else:
            hookfree = _time_mine(db, config, stripped_cls)
            disabled = _time_mine(db, config, PTPMiner)
        ratios.append(disabled / hookfree - 1.0)
        print(
            f"pair {pair} ({'shipped' if pair % 2 else 'hook-free'} "
            f"first): hook-free={hookfree:.4f}s "
            f"disabled={disabled:.4f}s "
            f"overhead={100 * ratios[-1]:+.2f}%"
        )
    median = statistics.median(ratios)
    print(f"median disabled-path overhead: {100 * median:+.2f}% "
          "(budget <= ~1%)")
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        print(f"quartiles of the per-pair overhead: {100 * q1:+.2f}% "
              f"to {100 * q3:+.2f}%")
    lost = sum(ratio > 0 for ratio in ratios)
    print(f"the shipped miner was slower in {lost} of {len(ratios)} pairs")

    for kind in ("cost", "provenance"):
        on = _time_mine(db, config, PTPMiner, **{kind: True})
        off = _time_mine(db, config, PTPMiner)
        print(
            f"for context, the {kind} collector ON costs "
            f"{100 * (on / off - 1.0):+.1f}%"
        )
    print("(provenance records every pattern's support set and every "
          "prune decision: enable it for audits, not benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
