"""Fixture: R010 — unordered iteration feeding ordered emission.

Linted by the analyzer tests under the synthetic path
``src/repro/engine.py`` so the production merge seed (``mine_sharded``)
and everything it reaches in the module apply. Lines carrying an expect
marker must each be reported by exactly this fixture's rule.
"""


def mine_sharded(shard_results: list) -> list:
    """Seed: emits in the iteration order of a set-derived name."""
    seen = set(shard_results)
    out: list = []
    for item in seen:
        out.append(item)  # expect: R010
    ordered: list = []
    for item in sorted(seen):
        ordered.append(item)  # sanitized: sorted() iteration is fine
    return out + ordered + list(_reemit_events({}))


def _reemit_events(events: dict) -> object:
    """Reached from the seed: yields in dict-view order."""
    for payload in events.values():
        yield payload  # expect: R010
