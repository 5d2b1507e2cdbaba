"""Fixture: R015 — root-plan consumer purity.

Linted under the synthetic path ``src/repro/core/ptpminer.py`` so the
production consumer seeds (``PTPMiner.plan_root`` /
``PTPMiner.search_shard`` / ``PTPMiner.expand``) apply. The second
finding is reached by propagation: ``candidates`` flows into
``self._drain`` and is mutated there. The third is a shard writing to
the encoding every shard of a run shares.
"""


class PTPMiner:
    """Carrier for the cache-consumer seed methods."""

    def plan_root(self, db: dict, weights: dict, threshold: float) -> dict:
        """Directly mutates a protected parameter."""
        db["cached"] = True  # expect: R015
        return db

    def search_shard(
        self, mining_db: dict, weights: dict, candidates: list
    ) -> list:
        """Pure itself, but leaks ``candidates`` to an impure callee."""
        self._drain(candidates)
        return sorted(weights)

    def _drain(self, items: list) -> None:
        """Mutates what it is given."""
        items.pop()  # expect: R015

    def expand(
        self,
        encoded: dict,
        pairs: dict,
        weights: dict,
        threshold: float,
        candidates: dict,
    ) -> list:
        """Writes to the shared encoding."""
        encoded["labels"] = ()  # expect: R015
        return sorted(candidates)
