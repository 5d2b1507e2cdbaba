"""Support-counting primitives shared by the miners.

Provides the global frequency structures computed in one pass over the
encoded database before the search starts:

* per-symbol **document frequency** (weighted, so the probabilistic miner
  reuses the same code path with sequence weights);
* the **pair tables** behind P-TPMiner's pair pruning — for symbols
  ``a, b``:

  - ``s_pair(a, b)``: weight of sequences where some ``a`` token occurs in
    a strictly earlier pointset than some ``b`` token;
  - ``i_pair(a, b)``: weight of sequences where ``a`` and ``b`` co-occur
    inside one pointset (for ``a == b``: at least two tokens of ``a``).

Both tables are *sym-level upper bounds* on pattern support: any pattern
whose last two tokens are an ``(a, b)`` sequence-extension pair is
contained only in sequences counted by ``s_pair(a, b)`` (occurrence
pairing only removes embeddings, never adds them), so a candidate whose
pair weight is below the threshold can be discarded without projection.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from repro import contracts
from repro.temporal.endpoint import EncodedDatabase

__all__ = ["symbol_document_frequency", "PairTables", "PairRows"]

#: Slack of the pair bound's threshold test, as in the search.
_EPS = 1e-9


def symbol_document_frequency(
    encoded: EncodedDatabase, weights: Sequence[float]
) -> dict[int, float]:
    """Weighted number of sequences in which each symbol occurs."""
    df: dict[int, float] = {}
    for seq in encoded.sequences:
        weight = weights[seq.sid]
        seen: set[int] = set()
        for pointset in seq.pointsets:
            for sym, _occ in pointset:
                seen.add(sym)
        for sym in seen:
            df[sym] = df.get(sym, 0.0) + weight
    return df


class PairTables:
    """The S-pair / I-pair upper-bound tables used by pair pruning.

    Each table keys its cells by one int, ``a * n + b`` for ``n``
    symbols, and holds only occupied cells (a cell a zero-weight
    sequence touched is occupied at weight 0.0), so memory follows the
    pairs the database holds, not ``n * n``. The tables are read-only
    once built: every shard of a sharded run reads the same copy.
    """

    __slots__ = ("_n", "_s_pair", "_i_pair")

    def __init__(
        self, encoded: EncodedDatabase, weights: Sequence[float]
    ) -> None:
        n = self._n = 3 * len(encoded.labels)
        s_pair: defaultdict[int, float] = defaultdict(float)
        i_pair: defaultdict[int, float] = defaultdict(float)
        for seq in encoded.sequences:
            weight = weights[seq.sid]
            first: dict[int, int] = {}
            last: dict[int, int] = {}
            co_occur: set[int] = set()
            for pos, pointset in enumerate(seq.pointsets):
                if len(pointset) == 1:
                    sym = pointset[0][0]
                    if sym not in first:
                        first[sym] = pos
                    last[sym] = pos
                    continue
                # Tokens are sorted, so every pair below has a <= b, and
                # a == b exactly when the pointset holds a twice.
                syms = [sym for sym, _ in pointset]
                for i, a in enumerate(syms):
                    if a not in first:
                        first[a] = pos
                    last[a] = pos
                    row = a * n
                    for b in syms[i + 1 :]:
                        co_occur.add(row + b)
            # b follows a somewhere iff b's last position is after a's
            # first: walk the last positions latest first, and stop.
            lasts = sorted(
                ((at, b) for b, at in last.items()), reverse=True
            )
            for a, at in first.items():
                row = a * n
                for lb, b in lasts:
                    if lb <= at:
                        break
                    s_pair[row + b] += weight
            for key in co_occur:
                i_pair[key] += weight
        self._s_pair = s_pair
        self._i_pair = i_pair
        if contracts.checking:
            contracts.check(
                all(key // n <= key % n for key in i_pair),
                "i_pair keys must be normalized (a <= b)",
            )
            contracts.check(
                all(w >= 0 for w in s_pair.values())
                and all(w >= 0 for w in i_pair.values()),
                "pair-table weights must be non-negative",
            )

    def s_pair(self, a: int, b: int) -> float:
        """Upper bound on the support of any pattern placing ``b`` in a
        pointset strictly after ``a``."""
        n = self._n
        if 0 <= a < n and 0 <= b < n:
            return self._s_pair.get(a * n + b, 0.0)
        return 0.0

    def i_pair(self, a: int, b: int) -> float:
        """Upper bound on the support of any pattern placing ``a`` and
        ``b`` in the same pointset (symmetric; normalized internally)."""
        if a > b:
            a, b = b, a
        n = self._n
        if 0 <= a and b < n:
            return self._i_pair.get(a * n + b, 0.0)
        return 0.0

    def rows(self, threshold: float) -> "PairRows":
        """The symbols each symbol admits at ``threshold`` (a new
        :class:`PairRows`; the tables keep nothing)."""
        return PairRows(self._n, self._s_pair, self._i_pair, threshold)

    def stats(self) -> dict[str, int]:
        """Occupied cell counts (``s_pairs`` / ``i_pairs``) per table.

        Density figures for profiling: dividing by the number of
        possible cells (``n*n`` for S-pairs, ``n*(n+1)/2`` for the
        normalized I-pairs) says how constraining pair pruning can be
        on this dataset.
        """
        return {
            "s_pairs": len(self._s_pair),
            "i_pairs": len(self._i_pair),
        }


class PairRows:
    """Pair pruning's admissible symbols, per symbol, for one search.

    Bit ``b`` of ``s[a]`` is set when ``s_pair(a, b) + 1e-9 >=
    threshold``, and bit ``b`` of ``i[a]`` (and ``i[b]``'s bit ``a``)
    when ``i_pair(a, b)`` passes the same test. A search builds its own
    rows from the tables' occupied cells (:meth:`PairTables.rows`)
    rather than caching them in the tables, which every shard of a run
    shares. :meth:`raise_to` follows a rising threshold
    (:meth:`~repro.core.ptpminer.PTPMiner.mine_top_k`) by clearing only
    the bits of the cells it drops, each cell at most once per search.
    """

    __slots__ = ("threshold", "s", "i", "_cells")

    def __init__(
        self,
        n: int,
        s_pair: Mapping[int, float],
        i_pair: Mapping[int, float],
        threshold: float,
    ) -> None:
        self.threshold = threshold
        self.s = [0] * n
        self.i = [0] * n
        # Passing cells as (weight, key, is_i), heaviest first, so the
        # next cell a rising threshold drops is the last one.
        cells: list[tuple[float, int, bool]] = []
        for table, is_i in ((s_pair, False), (i_pair, True)):
            for key, weight in table.items():
                if weight + _EPS >= threshold:
                    cells.append((weight, key, is_i))
        cells.sort(reverse=True)
        self._cells = cells
        for _weight, key, is_i in cells:
            self._flip(n, key, is_i)

    def masks(
        self, pointsets: Sequence[Sequence[tuple[int, int]]]
    ) -> tuple[int, int]:
        """The symbols that may extend a pattern, as ``(I-mask, S-mask)``
        bit sets (indexed by extension kind, I = 0, S = 1).

        An S-extension ``b`` needs ``s_pair(a, b)`` to reach the
        threshold for every pattern symbol ``a``; an I-extension needs
        ``i_pair(a, b)`` for every ``a`` in the last pointset and
        ``s_pair(a, b)`` for every earlier one. ``pointsets`` holds the
        pattern's ``(sym, occ)`` tokens and must not be empty.
        """
        s_rows = self.s
        s_mask = -1
        for pointset in pointsets[:-1]:
            for a, _ in pointset:
                s_mask &= s_rows[a]
        i_mask = s_mask
        i_rows = self.i
        for a, _ in pointsets[-1]:
            s_mask &= s_rows[a]
            i_mask &= i_rows[a]
        return i_mask, s_mask

    def raise_to(self, threshold: float) -> None:
        """Drop the cells that fail ``threshold``, which must not be
        below the current one."""
        cells = self._cells
        n = len(self.s)
        while cells and cells[-1][0] + _EPS < threshold:
            _weight, key, is_i = cells.pop()
            self._flip(n, key, is_i)
        self.threshold = threshold

    def _flip(self, n: int, key: int, is_i: bool) -> None:
        """Toggle cell ``key``'s bit (both bits of an I-pair)."""
        a, b = divmod(key, n)
        if is_i:
            self.i[a] ^= 1 << b
            if a != b:
                self.i[b] ^= 1 << a
        else:
            self.s[a] ^= 1 << b
