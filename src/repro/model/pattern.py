"""Temporal patterns over the endpoint representation.

A **temporal pattern** is an endpoint sequence whose occurrence indices
refer to *pattern-local* interval occurrences: ``(A, 1, +)`` is "the first
A-interval of the pattern". Patterns come in the paper's two types:

* **TP** (type 1): start/finish tokens only — pure interval arrangements;
* **HTP** (type 2): point tokens may appear alongside interval tokens.

Well-formedness and canonical form
----------------------------------
A pattern is *valid* when every finish token is preceded (in pointset
order) by the start token of the same ``(label, occ)`` — prefixes produced
during mining are valid but possibly *incomplete* (some starts not yet
finished). A *complete* pattern has no open starts; only complete patterns
are mining output.

Canonical numbering removes the symmetry of duplicate labels: same-label
occurrences are numbered by ``(start pointset, finish pointset)``
lexicographically. Consequently, when two same-label intervals start in the
same pointset, the lower occurrence must finish no later than the higher
one — the miner enforces this during generation and
:meth:`TemporalPattern.canonical` re-establishes it for arbitrary input.

Containment
-----------
Pattern ``P`` is contained in e-sequence ``q`` when there is an injective,
label-preserving mapping of P's occurrences to q's occurrences and a
strictly increasing mapping of P's pointsets to q's pointsets under which
every pattern token lands in its image pointset. :meth:`contained_in`
implements this by backtracking and serves as the semantic oracle against
which all miners are tested.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional, Union

from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence
from repro.temporal.endpoint import (
    FINISH,
    POINT,
    START,
    Endpoint,
    EndpointSequence,
)

__all__ = ["TemporalPattern", "PatternWithSupport"]

_OccKey = tuple[str, int]


class TemporalPattern:
    """An immutable temporal pattern (see module docstring).

    Parameters
    ----------
    pointsets:
        Iterable of iterables of :class:`Endpoint` tokens with
        pattern-local occurrence indices.
    validate:
        When ``True`` (default), reject structurally invalid input:
        orphan finishes, duplicated tokens, empty pointsets, or
        non-contiguous occurrence numbering.
    """

    __slots__ = ("_pointsets", "_hash")

    def __init__(
        self,
        pointsets: Iterable[Iterable[Endpoint]],
        *,
        validate: bool = True,
    ) -> None:
        sets = tuple(
            tuple(sorted(ps, key=lambda e: e.sort_key)) for ps in pointsets
        )
        self._pointsets = sets
        self._hash: Optional[int] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if any(not ps for ps in self._pointsets):
            raise ValueError("patterns cannot contain empty pointsets")
        open_occs: set[_OccKey] = set()
        seen_occs: set[tuple[_OccKey, int]] = set()
        max_occ: dict[str, int] = {}
        for ps in self._pointsets:
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate token inside pointset {ps}")
            for ep in ps:
                key = (ep.label, ep.occ)
                if ep.occ < 1:
                    raise ValueError(f"occurrence index must be >= 1: {ep}")
                if ep.kind == FINISH:
                    if key not in open_occs:
                        raise ValueError(f"finish {ep} precedes its start")
                    open_occs.discard(key)
                else:
                    if (key, START) in seen_occs or (key, POINT) in seen_occs:
                        raise ValueError(f"occurrence {key} introduced twice")
                    seen_occs.add((key, START if ep.kind == START else POINT))
                    if ep.occ != max_occ.get(ep.label, 0) + 1:
                        raise ValueError(
                            f"occurrence numbering of label {ep.label!r} is "
                            f"not contiguous at {ep}"
                        )
                    max_occ[ep.label] = ep.occ
                    if ep.kind == START:
                        open_occs.add(key)
            # finishes within the same pointset as their start are invalid
            # for proper intervals; to_esequence() would reject them too.
            starts_here = {
                (e.label, e.occ) for e in ps if e.kind == START
            }
            finishes_here = {
                (e.label, e.occ) for e in ps if e.kind == FINISH
            }
            if starts_here & finishes_here:
                raise ValueError(
                    "an interval cannot start and finish in one pointset; "
                    "use a point token"
                )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def pointsets(self) -> tuple[tuple[Endpoint, ...], ...]:
        """The pattern's pointsets, canonically sorted internally."""
        return self._pointsets

    def __len__(self) -> int:
        return len(self._pointsets)

    def __iter__(self) -> Iterator[tuple[Endpoint, ...]]:
        return iter(self._pointsets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalPattern):
            return NotImplemented
        return self._pointsets == other._pointsets

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._pointsets)
        return self._hash

    def __str__(self) -> str:
        return " ".join(
            "(" + " ".join(str(e) for e in ps) + ")" for ps in self._pointsets
        )

    def __repr__(self) -> str:
        return f"TemporalPattern<{self}>"

    @classmethod
    def parse(cls, text: str) -> "TemporalPattern":
        """Parse the :meth:`__str__` form, e.g. ``"(A+ B+) (A-) (B-)"``."""
        pointsets: list[list[Endpoint]] = []
        depth_open = False
        for chunk in text.replace("(", " ( ").replace(")", " ) ").split():
            if chunk == "(":
                if depth_open:
                    raise ValueError("nested '(' in pattern text")
                pointsets.append([])
                depth_open = True
            elif chunk == ")":
                if not depth_open:
                    raise ValueError("unbalanced ')' in pattern text")
                depth_open = False
            else:
                if not depth_open:
                    raise ValueError(f"token {chunk!r} outside a pointset")
                pointsets[-1].append(Endpoint.parse(chunk))
        if depth_open:
            raise ValueError("unterminated pointset in pattern text")
        return cls(pointsets)

    # ------------------------------------------------------------------
    # structural properties
    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Total endpoint tokens."""
        return sum(len(ps) for ps in self._pointsets)

    @property
    def num_intervals(self) -> int:
        """Number of interval occurrences (start tokens)."""
        return sum(
            1 for ps in self._pointsets for e in ps if e.kind == START
        )

    @property
    def num_points(self) -> int:
        """Number of point-event occurrences."""
        return sum(
            1 for ps in self._pointsets for e in ps if e.kind == POINT
        )

    @property
    def size(self) -> int:
        """Number of event occurrences (intervals + points)."""
        return self.num_intervals + self.num_points

    @property
    def open_occurrences(self) -> frozenset[_OccKey]:
        """Interval occurrences started but not finished."""
        open_occs: set[_OccKey] = set()
        for ps in self._pointsets:
            for ep in ps:
                if ep.kind == START:
                    open_occs.add((ep.label, ep.occ))
                elif ep.kind == FINISH:
                    open_occs.discard((ep.label, ep.occ))
        return frozenset(open_occs)

    @property
    def is_complete(self) -> bool:
        """``True`` when every started interval is finished."""
        return not self.open_occurrences

    @property
    def is_hybrid(self) -> bool:
        """``True`` when the pattern contains a point token (HTP type)."""
        return self.num_points > 0

    @property
    def alphabet(self) -> frozenset[str]:
        """Labels appearing in the pattern."""
        return frozenset(
            e.label for ps in self._pointsets for e in ps
        )

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "TemporalPattern":
        """Return the canonically numbered equivalent pattern.

        Same-label occurrences are renumbered by their
        ``(start pointset, finish pointset)`` position, which is the unique
        representative of the isomorphism class under occurrence
        relabelling.
        """
        positions: dict[_OccKey, list[int]] = {}
        for idx, ps in enumerate(self._pointsets):
            for ep in ps:
                key = (ep.label, ep.occ)
                positions.setdefault(key, []).append(idx)
        renumber: dict[_OccKey, int] = {}
        by_label: dict[str, list[tuple[int, int, int]]] = {}
        for (label, occ), pos in positions.items():
            start_ps, finish_ps = pos[0], pos[-1]
            by_label.setdefault(label, []).append((start_ps, finish_ps, occ))
        for label, triples in by_label.items():
            triples.sort()
            for new_occ, (_, _, occ) in enumerate(triples, start=1):
                renumber[(label, occ)] = new_occ
        return TemporalPattern(
            (
                (
                    e._replace(occ=renumber[(e.label, e.occ)])
                    for e in ps
                )
                for ps in self._pointsets
            ),
            validate=False,
        )

    @property
    def is_canonical(self) -> bool:
        """``True`` when the pattern equals its canonical form."""
        return self == self.canonical()

    # ------------------------------------------------------------------
    # construction from concrete arrangements
    # ------------------------------------------------------------------
    @classmethod
    def from_arrangement(
        cls, events: Iterable[IntervalEvent]
    ) -> "TemporalPattern":
        """Canonical pattern of a concrete set of events.

        The arrangement of the given events (their joint endpoint order) is
        abstracted into a pattern; the resulting pattern is always complete
        and canonical, and is contained in any e-sequence that includes the
        events.
        """
        seq = ESequence(events)
        if not seq:
            raise ValueError("cannot build a pattern from zero events")
        eps = EndpointSequence.from_esequence(seq)
        return cls(eps.pointsets, validate=False)

    def to_esequence(self) -> ESequence:
        """Realize a complete pattern as a concrete e-sequence.

        Raises :class:`ValueError` for incomplete patterns.
        """
        return EndpointSequence(self._pointsets).to_esequence()

    # ------------------------------------------------------------------
    # containment oracle
    # ------------------------------------------------------------------
    def contained_in(
        self, target: Union[ESequence, EndpointSequence, "TemporalPattern"]
    ) -> bool:
        """Exact containment test (see module docstring for semantics).

        ``target`` may be an e-sequence, a prebuilt endpoint sequence, or
        another pattern (whose occurrence indices then play the role of the
        sequence occurrences — giving the pattern-subsumption order used by
        the closed-pattern filter).
        """
        if isinstance(target, ESequence):
            pointsets = EndpointSequence.from_esequence(target).pointsets
        elif isinstance(target, EndpointSequence):
            pointsets = target.pointsets
        else:
            pointsets = target.pointsets
        return _match(self._pointsets, pointsets)

    def support_in(self, db: ESequenceDatabase) -> int:
        """Number of database sequences containing the pattern (oracle)."""
        return sum(1 for seq in db if self.contained_in(seq))

    def embeddings_in(
        self, seq: ESequence, *, limit: Optional[int] = None
    ) -> list[dict[tuple[str, int], IntervalEvent]]:
        """Enumerate concrete embeddings of the pattern in ``seq``.

        Each embedding maps every pattern occurrence ``(label, occ)`` to
        the :class:`IntervalEvent` it matched — the "which events
        triggered this pattern" view applications need (highlighting a
        clinical pathway in a chart, locating the matched loans).
        ``limit`` caps the enumeration (embeddings can be combinatorial
        with duplicate labels); ``None`` returns all distinct occurrence
        assignments.
        """
        eps = EndpointSequence.from_esequence(seq)
        event_of: dict[tuple[str, int], IntervalEvent] = {
            (event.label, occ): event
            for event, occ in seq.occurrence_indexed()
        }
        out: list[dict[tuple[str, int], IntervalEvent]] = []
        for phi in _iter_embeddings(self._pointsets, eps.pointsets):
            out.append(
                {
                    pattern_occ: event_of[(pattern_occ[0], socc)]
                    for pattern_occ, socc in phi.items()
                }
            )
            if limit is not None and len(out) >= limit:
                break
        return out

    # ------------------------------------------------------------------
    # interpretation
    # ------------------------------------------------------------------
    def allen_description(self) -> list[str]:
        """Render the pattern as pairwise Allen relations.

        Returns lines like ``"A#1 overlaps B#1"`` for every ordered pair of
        occurrences (in canonical occurrence order) — the human-readable
        view used by the examples and the real-data practicability tables.
        """
        from repro.temporal.allen import relate_general

        seq = self.to_esequence()
        tagged = [
            (event, occ) for event, occ in seq.occurrence_indexed()
        ]
        lines = []
        for (ev_a, occ_a), (ev_b, occ_b) in itertools.combinations(tagged, 2):
            rel = relate_general(ev_a, ev_b)
            name_a = f"{ev_a.label}#{occ_a}" if occ_a > 1 else ev_a.label
            name_b = f"{ev_b.label}#{occ_b}" if occ_b > 1 else ev_b.label
            lines.append(f"{name_a} {rel.describe()} {name_b}")
        return lines


_Index = dict[tuple[str, int], tuple[int, ...]]


def _index_target(target: Sequence[Sequence[Endpoint]]) -> list[_Index]:
    """Index each target pointset: (label, kind) -> tuple of occs present."""
    indexed: list[_Index] = []
    for ps in target:
        idx: dict[tuple[str, int], list[int]] = {}
        for ep in ps:
            idx.setdefault((ep.label, ep.kind), []).append(ep.occ)
        indexed.append({k: tuple(v) for k, v in idx.items()})
    return indexed


def _match_pointset(
    ps: Sequence[Endpoint],
    available: _Index,
    phi: dict[_OccKey, int],
    used: set[_OccKey],
) -> Iterator[tuple[dict[_OccKey, int], set[_OccKey]]]:
    """Yield (phi additions, used additions) for injective assignments."""
    free: list[Endpoint] = []
    for ep in ps:
        if ep.kind == FINISH:
            socc = phi.get((ep.label, ep.occ))
            if socc is None or socc not in available.get(
                (ep.label, FINISH), ()
            ):
                return
        else:
            free.append(ep)
    # The finish tokens are fixed by phi and never collide with each
    # other or with the free tokens (distinct (label, kind, occ) triples).
    if not free:
        yield {}, set()
        return
    choice_lists: list[tuple[Endpoint, list[int]]] = []
    for ep in free:
        kind = START if ep.kind == START else POINT
        candidates = [
            socc
            for socc in available.get((ep.label, kind), ())
            if (ep.label, socc) not in used
        ]
        if not candidates:
            return
        choice_lists.append((ep, candidates))
    yield from _assign(choice_lists, 0, {}, set())


def _assign(
    choice_lists: list[tuple[Endpoint, list[int]]],
    i: int,
    phi_add: dict[_OccKey, int],
    used_add: set[_OccKey],
) -> Iterator[tuple[dict[_OccKey, int], set[_OccKey]]]:
    """Enumerate injective combinations over a pointset's free tokens."""
    if i == len(choice_lists):
        yield dict(phi_add), set(used_add)
        return
    ep, candidates = choice_lists[i]
    for socc in candidates:
        key = (ep.label, socc)
        if key in used_add:
            continue
        phi_add[(ep.label, ep.occ)] = socc
        used_add.add(key)
        yield from _assign(choice_lists, i + 1, phi_add, used_add)
        del phi_add[(ep.label, ep.occ)]
        used_add.discard(key)


def _iter_embeddings(
    pattern: Sequence[Sequence[Endpoint]],
    target: Sequence[Sequence[Endpoint]],
) -> Iterator[dict[_OccKey, int]]:
    """Yield distinct occurrence assignments phi for pattern in target.

    Each yielded value maps pattern occurrences ``(label, pocc)`` to
    sequence occurrence indices. Distinctness is by assignment — two
    different pointset alignments with the same occurrence binding yield
    one result.
    """
    if not pattern:
        yield {}
        return
    indexed = _index_target(target)
    n_pattern, n_target = len(pattern), len(target)
    seen: set[tuple[tuple[_OccKey, int], ...]] = set()

    def search(
        pi: int, t_from: int, phi: dict[_OccKey, int], used: set[_OccKey]
    ) -> Iterator[dict[_OccKey, int]]:
        if pi == n_pattern:
            key = tuple(sorted(phi.items()))
            if key not in seen:
                seen.add(key)
                yield dict(phi)
            return
        remaining = n_pattern - pi
        for ti in range(t_from, n_target - remaining + 1):
            for phi_add, used_add in _match_pointset(
                pattern[pi], indexed[ti], phi, used
            ):
                phi.update(phi_add)
                used |= used_add
                yield from search(pi + 1, ti + 1, phi, used)
                for key in phi_add:
                    del phi[key]
                used -= used_add

    yield from search(0, 0, {}, set())


def _match(
    pattern: Sequence[Sequence[Endpoint]],
    target: Sequence[Sequence[Endpoint]],
) -> bool:
    """Backtracking containment check of pattern pointsets in target."""
    if not pattern:
        return True
    indexed = _index_target(target)
    n_pattern, n_target = len(pattern), len(target)

    def search(
        pi: int, t_from: int, phi: dict[_OccKey, int], used: set[_OccKey]
    ) -> bool:
        if pi == n_pattern:
            return True
        remaining = n_pattern - pi
        for ti in range(t_from, n_target - remaining + 1):
            for phi_add, used_add in _match_pointset(
                pattern[pi], indexed[ti], phi, used
            ):
                phi.update(phi_add)
                used |= used_add
                if search(pi + 1, ti + 1, phi, used):
                    return True
                for key in phi_add:
                    del phi[key]
                used -= used_add
        return False

    return search(0, 0, {}, set())


class PatternWithSupport(tuple):
    """A ``(pattern, support)`` pair with named access and stable ordering.

    Mining results are lists of these, sorted by
    ``(-support, num_tokens, str(pattern))`` so results compare exactly
    across miners.
    """

    __slots__ = ()

    def __new__(
        cls, pattern: TemporalPattern, support: float
    ) -> "PatternWithSupport":
        return super().__new__(cls, (pattern, support))

    def __getnewargs__(self) -> tuple[TemporalPattern, float]:
        # A tuple subclass with a mandatory-argument __new__ must spell
        # out its construction args or pickling fails (shard results
        # cross process boundaries in repro.engine).
        return (self[0], self[1])

    @property
    def pattern(self) -> TemporalPattern:
        """The mined pattern."""
        pattern: TemporalPattern = self[0]
        return pattern

    @property
    def support(self) -> float:
        """Support weight: a sequence count, or expected support for
        weighted/probabilistic mining (integer-valued supports are
        stored as ``int`` for readable results)."""
        support: float = self[1]
        return support

    def relative_support(self, db_size: int) -> float:
        """Support as a fraction of the database size."""
        return self.support / db_size if db_size else 0.0

    def __repr__(self) -> str:
        return f"PatternWithSupport({self.pattern!s}, support={self.support})"

    @staticmethod
    def sort_key(item: "PatternWithSupport") -> tuple[float, int, str]:
        """Canonical result ordering used by every miner."""
        return (-item.support, item.pattern.num_tokens, str(item.pattern))
