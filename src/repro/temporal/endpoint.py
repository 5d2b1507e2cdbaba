"""The endpoint representation of interval sequences.

This is the representation at the heart of P-TPMiner. Every interval event
``(e, s, f)`` is decomposed into a **start endpoint** ``e+`` at time ``s``
and a **finish endpoint** ``e-`` at time ``f``; a point event contributes a
single **point endpoint** ``e.``. Endpoints that occur at the same instant
are grouped into a **pointset**, and the time-ordered list of pointsets is
the **endpoint sequence**.

The transform is *lossless with respect to arrangement*: the pairwise Allen
relation of any two intervals can be read back off the relative order of
their four endpoints, so mining over endpoint sequences finds exactly the
frequent arrangements — while reducing the "complex relation between two
intervals" (13 cases) to plain sequence/itemset structure.

Duplicate event types are disambiguated with **occurrence indices**: the
k-th event carrying label ``e`` (in the canonical ``(start, finish, label)``
order of the e-sequence) is occurrence ``k``, and its endpoints are
``(e, k, +)`` / ``(e, k, -)``. Matching the finish of occurrence ``k``
therefore always refers to the same interval as its start.

Two layers live here:

* a public, string-labelled layer (:class:`Endpoint`,
  :class:`EndpointSequence`) used by pattern objects, I/O and tests;
* an integer-interned layer (:class:`EncodedDatabase`,
  :class:`EncodedSequence`) used by the miners' hot loops, where a token is
  the pair ``(sym, occ)`` with ``sym = label_id * 3 + kind``, and every
  sequence carries a numbered index of its event occurrences.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from collections.abc import Set as AbstractSet
from operator import attrgetter
from typing import Any, NamedTuple, Optional

from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = [
    "START",
    "FINISH",
    "POINT",
    "KIND_CHARS",
    "token_name",
    "Endpoint",
    "EndpointSequence",
    "EncodedSequence",
    "EncodedDatabase",
    "KeptLabels",
    "endpoint_sequence_of",
]

#: Endpoint kind codes. The numeric order (point < start < finish) is the
#: canonical intra-pointset ordering used everywhere. Points sort *before*
#: starts so that generation order agrees with the canonical occurrence
#: numbering: a point occurrence ``(ps, ps)`` precedes an interval
#: occurrence ``(ps, later)`` under the ``(start_ps, finish_ps)`` rule.
POINT, START, FINISH = 0, 1, 2

#: Display characters per kind code.
KIND_CHARS = {START: "+", FINISH: "-", POINT: "."}
_CHAR_KINDS = {char: kind for kind, char in KIND_CHARS.items()}


def token_name(label: str, occ: int, kind: int) -> str:
    """The display string of an endpoint token, e.g. ``"A+"``, ``"B#2-"``.

    The single source of the display grammar (occurrence suffix omitted
    when 1). :meth:`Endpoint.__str__` and every place that needs a root
    or token name without holding an :class:`Endpoint` instance — e.g.
    :mod:`repro.engine` naming the root candidates of a failed shard,
    where constructing endpoints outside the encoder is forbidden —
    delegate here so names always agree.
    """
    suffix = f"#{occ}" if occ != 1 else ""
    return f"{label}{suffix}{KIND_CHARS[kind]}"


class Endpoint(NamedTuple):
    """One endpoint token: ``(label, occ, kind)``.

    ``occ`` is the occurrence index (1-based) of the interval this endpoint
    belongs to among same-label intervals; ``kind`` is one of
    :data:`START`, :data:`FINISH`, :data:`POINT`.
    """

    label: str
    occ: int
    kind: int

    @property
    def sort_key(self) -> tuple[str, int, int]:
        """Canonical ordering key: label, then kind, then occurrence."""
        return (self.label, self.kind, self.occ)

    def __str__(self) -> str:
        return token_name(self.label, self.occ, self.kind)

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse the :meth:`__str__` form, e.g. ``"A#2+"`` or ``"B-"``."""
        text = text.strip()
        if not text or text[-1] not in _CHAR_KINDS:
            raise ValueError(f"cannot parse endpoint token {text!r}")
        kind = _CHAR_KINDS[text[-1]]
        body = text[:-1]
        occ = 1
        if "#" in body:
            body, _, occ_text = body.rpartition("#")
            occ = int(occ_text)
        if not body:
            raise ValueError(f"endpoint token {text!r} has an empty label")
        return cls(body, occ, kind)


Pointset = tuple[Endpoint, ...]


def _sorted_pointset(endpoints: Iterable[Endpoint]) -> Pointset:
    return tuple(sorted(endpoints, key=lambda e: e.sort_key))


class EndpointSequence:
    """A canonical endpoint sequence: a tuple of sorted pointsets.

    Built from an e-sequence via :meth:`from_esequence`; the inverse
    transform :meth:`to_esequence` reconstructs an e-sequence with integer
    timestamps ``0..m-1`` that has the identical arrangement (and thus an
    identical endpoint sequence) — the losslessness property the paper's
    representation relies on.
    """

    __slots__ = ("_pointsets",)

    def __init__(self, pointsets: Iterable[Iterable[Endpoint]]) -> None:
        sets = tuple(_sorted_pointset(ps) for ps in pointsets)
        if any(not ps for ps in sets):
            raise ValueError("endpoint sequences cannot contain empty pointsets")
        self._pointsets = sets

    @property
    def pointsets(self) -> tuple[Pointset, ...]:
        """The pointsets in temporal order, canonically sorted internally."""
        return self._pointsets

    def __len__(self) -> int:
        return len(self._pointsets)

    def __iter__(self) -> "Iterator[Pointset]":
        return iter(self._pointsets)

    def __getitem__(self, index: int) -> Pointset:
        return self._pointsets[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndpointSequence):
            return NotImplemented
        return self._pointsets == other._pointsets

    def __hash__(self) -> int:
        return hash(self._pointsets)

    def __str__(self) -> str:
        return " ".join(
            "(" + " ".join(str(e) for e in ps) + ")" for ps in self._pointsets
        )

    def __repr__(self) -> str:
        return f"EndpointSequence<{self}>"

    @property
    def num_tokens(self) -> int:
        """Total number of endpoint tokens across pointsets."""
        return sum(len(ps) for ps in self._pointsets)

    @classmethod
    def from_esequence(cls, seq: ESequence) -> "EndpointSequence":
        """Decompose an e-sequence into its endpoint sequence."""
        by_time: dict[float, list[Endpoint]] = {}
        for event, occ in seq.occurrence_indexed():
            if event.is_point:
                by_time.setdefault(event.start, []).append(
                    Endpoint(event.label, occ, POINT)
                )
            else:
                by_time.setdefault(event.start, []).append(
                    Endpoint(event.label, occ, START)
                )
                by_time.setdefault(event.finish, []).append(
                    Endpoint(event.label, occ, FINISH)
                )
        return cls(by_time[t] for t in sorted(by_time))

    def to_esequence(self, sid: Optional[int] = None) -> ESequence:
        """Reconstruct an e-sequence with integer times ``0..m-1``.

        The reconstruction realizes the same arrangement: round-tripping
        through :meth:`from_esequence` yields an equal endpoint sequence.
        Raises :class:`ValueError` when the endpoint sequence is not
        well-formed (a finish without its start, or an unfinished start).
        """
        open_at: dict[tuple[str, int], int] = {}
        events: list[IntervalEvent] = []
        for time, pointset in enumerate(self._pointsets):
            for ep in pointset:
                key = (ep.label, ep.occ)
                if ep.kind == POINT:
                    events.append(IntervalEvent(time, time, ep.label))
                elif ep.kind == START:
                    if key in open_at:
                        raise ValueError(f"start {ep} appears twice")
                    open_at[key] = time
                else:
                    if key not in open_at:
                        raise ValueError(f"finish {ep} has no matching start")
                    start_time = open_at.pop(key)
                    if start_time == time:
                        raise ValueError(
                            f"interval {ep.label}#{ep.occ} starts and finishes "
                            "in the same pointset; encode it as a point event"
                        )
                    events.append(IntervalEvent(start_time, time, ep.label))
        if open_at:
            dangling = ", ".join(f"{l}#{o}" for l, o in sorted(open_at))
            raise ValueError(f"unfinished starts: {dangling}")
        return ESequence(events, sid=sid)


def endpoint_sequence_of(seq: ESequence) -> EndpointSequence:
    """Shorthand for :meth:`EndpointSequence.from_esequence`."""
    return EndpointSequence.from_esequence(seq)


# ---------------------------------------------------------------------------
# Integer-interned layer for the miners
# ---------------------------------------------------------------------------

#: An encoded token is ``(sym, occ)`` with ``sym = label_id * 3 + kind``.
Token = tuple[int, int]

#: Interning pool: maps each token, key or pointset tuple to the first
#: equal tuple seen, so a database stores each distinct value once.
InternPool = dict[tuple[Any, ...], tuple[Any, ...]]

#: An event's ``(start, finish, label)``, read in one call.
_EVENT_FIELDS = attrgetter("start", "finish", "label")


def _pooled(pool: InternPool, tokens: tuple[Token, ...]) -> tuple[Token, ...]:
    """The pooled copy of a tuple of tokens; a new one pools its tokens."""
    pooled = pool.get(tokens)
    if pooled is None:
        pooled = tuple(pool.setdefault(tok, tok) for tok in tokens)
        pool[pooled] = pooled
    return pooled


class EncodedSequence:
    """One sequence in interned form, with an index of its occurrences.

    The **occurrence index** numbers every event occurrence of the
    sequence ``e = 0, 1, ...`` in the order its start (or point) token
    appears: by pointset, then in canonical token order within one. The
    projection core (:mod:`repro.core.projection`) holds states as plain
    ints over these numbers, and uses the tables below to jump straight
    to the positions an extension can reach instead of rescanning the
    postfix.

    Attributes
    ----------
    pointsets:
        ``tuple`` of pointsets; each pointset is a non-empty sorted
        ``tuple`` of ``(sym, occ)`` tokens.
    times:
        The original timestamp of each pointset (same length as
        ``pointsets``); used by the time-constrained (``max_span``)
        mining mode, which bounds embeddings to a time window.
    occ_keys:
        ``occ_keys[e]`` is occurrence ``e``'s ``(label_id, occ)`` key.
    occ_start / occ_finish:
        Pointset index of occurrence ``e``'s start and finish endpoints
        (both the point's position for a point event). A pending
        interval can close at exactly one pointset, ``occ_finish[e]``.
    occ_pointsets:
        ``pointsets`` with each token's ``occ`` replaced by its
        occurrence index: ``(sym, e)`` tokens.
    sym_occs:
        For every start or point symbol, its occurrence indices in
        position order.
    sym_last:
        ``(last position, sym)`` for every start or point symbol, latest
        first: the symbols that still occur after a frontier ``pos`` are
        exactly the leading entries with ``last > pos``.

    Token, key and pointset tuples come from the ``pool`` of the
    :class:`EncodedDatabase` being built, when one is given.
    """

    __slots__ = (
        "sid",
        "pointsets",
        "times",
        "occ_keys",
        "occ_start",
        "occ_finish",
        "occ_pointsets",
        "sym_occs",
        "sym_last",
    )

    def __init__(
        self,
        sid: int,
        pointsets: Sequence[Sequence[Token]],
        times: Sequence[float] = (),
        pool: Optional[InternPool] = None,
    ) -> None:
        quads = [
            (pos, sym, occ, (sym // 3, occ))
            for pos, pointset in enumerate(pointsets)
            for sym, occ in pointset
        ]
        quads.sort()
        self._fill(sid, quads, {} if pool is None else pool)
        self.times = tuple(times)

    def _fill(
        self,
        sid: int,
        quads: Iterable[tuple[Any, int, int, Hashable]],
        pool: InternPool,
    ) -> None:
        """Fill every field in one walk over ``(time, sym, occ, event)``
        endpoint quads sorted by their first three fields.

        Equal times make one pointset, and :attr:`times` holds each
        pointset's time. ``event`` names the event an endpoint belongs
        to, so that a finish finds the occurrence its start opened.
        """
        intern = pool.setdefault
        occ_of: dict[Hashable, int] = {}  # event -> e
        keys: list[tuple[int, int]] = []
        starts: list[int] = []
        finishes: list[int] = []
        sym_occs: dict[int, list[int]] = {}
        last: dict[int, int] = {}
        sets: list[tuple[Token, ...]] = []
        occ_sets: list[tuple[Token, ...]] = []
        times: list[Any] = []
        tokens: list[Token] = []
        occ_tokens: list[Token] = []
        pos = -1
        current: Any = None  # no pointset yet
        for time, sym, occ, event in quads:
            if time != current:
                if tokens:
                    sets.append(_pooled(pool, tuple(tokens)))
                    occ_sets.append(_pooled(pool, tuple(occ_tokens)))
                    tokens = []
                    occ_tokens = []
                current = time
                times.append(time)
                pos += 1
            if sym % 3 == FINISH:
                e = occ_of[event]
                finishes[e] = pos
            else:
                e = occ_of[event] = len(keys)
                key = (sym // 3, occ)
                keys.append(intern(key, key))
                starts.append(pos)
                finishes.append(pos)
                if sym in sym_occs:
                    sym_occs[sym].append(e)
                else:
                    sym_occs[sym] = [e]
                last[sym] = pos
            tokens.append((sym, occ))
            occ_tokens.append((sym, e))
        if tokens:
            sets.append(_pooled(pool, tuple(tokens)))
            occ_sets.append(_pooled(pool, tuple(occ_tokens)))
        self.sid = sid
        self.pointsets = tuple(sets)
        self.times = tuple(times)
        self.occ_keys = tuple(keys)
        self.occ_start = tuple(starts)
        self.occ_finish = tuple(finishes)
        self.occ_pointsets = tuple(occ_sets)
        self.sym_occs: dict[int, tuple[int, ...]] = {}
        for sym, occs in sym_occs.items():
            packed = tuple(occs)
            self.sym_occs[sym] = intern(packed, packed)
        self.sym_last = _pooled(
            pool,
            tuple(
                sorted(((at, sym) for sym, at in last.items()), reverse=True)
            ),
        )

    def __len__(self) -> int:
        return len(self.pointsets)


#: What point pruning keeps: the labels whose interval events stay, and
#: the labels whose point events stay.
KeptLabels = tuple[AbstractSet[str], AbstractSet[str]]


class EncodedDatabase:
    """A whole database interned for mining.

    Labels are interned in **sorted lexicographic order**, so the integer
    token order coincides with the public canonical endpoint order — the
    miners and the string-level pattern objects therefore agree on pattern
    canonical form without any re-sorting.

    Encoding shares one interning pool (:data:`InternPool`) across the
    database's sequences, so equal token, key and pointset tuples —
    most of them recur from sequence to sequence — are stored once. The
    pool belongs to this database alone and is dropped once every
    sequence is encoded.

    ``keep`` applies point pruning as the database is encoded: only
    interval events whose label is in ``keep[0]`` and point events whose
    label is in ``keep[1]`` are encoded, and occurrences are numbered
    over those events alone. The result equals the encoding of the
    database with every other event deleted (empty sequences included),
    provided each kept label has an event of its kept flavour in ``db``,
    as the miner's point pruning guarantees.
    """

    __slots__ = ("labels", "label_ids", "sequences", "size")

    def __init__(
        self, db: ESequenceDatabase, keep: Optional[KeptLabels] = None
    ) -> None:
        labels = db.alphabet if keep is None else keep[0] | keep[1]
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.label_ids: dict[str, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        self.size = len(db)
        pool: InternPool = {}
        self.sequences: list[EncodedSequence] = [
            self._encode_sequence(seq, pool, keep) for seq in db
        ]

    def _encode_sequence(
        self, seq: ESequence, pool: InternPool, keep: Optional[KeptLabels]
    ) -> EncodedSequence:
        """Number the kept events' occurrences in canonical event order,
        sort their endpoints once, and fill the :class:`EncodedSequence`
        in one walk over them."""
        label_ids = self.label_ids
        seen: dict[str, int] = {}
        quads: list[tuple[Any, int, int, Hashable]] = []
        for event, (start, finish, label) in enumerate(
            map(_EVENT_FIELDS, seq.events)
        ):
            if keep is not None and label not in (
                keep[1] if start == finish else keep[0]
            ):
                continue
            occ = seen[label] = seen.get(label, 0) + 1
            sym = label_ids[label] * 3
            if start == finish:
                quads.append((start, sym + POINT, occ, event))
            else:
                quads.append((start, sym + START, occ, event))
                quads.append((finish, sym + FINISH, occ, event))
        quads.sort()
        assert seq.sid is not None
        encoded = EncodedSequence.__new__(EncodedSequence)
        encoded._fill(seq.sid, quads, pool)
        return encoded

    # -- sym helpers -------------------------------------------------------
    def sym(self, label: str, kind: int) -> int:
        """Interned symbol of ``(label, kind)``."""
        return self.label_ids[label] * 3 + kind

    def label_of(self, sym: int) -> str:
        """Label of an interned symbol."""
        return self.labels[sym // 3]

    @staticmethod
    def kind_of(sym: int) -> int:
        """Kind code of an interned symbol."""
        return sym % 3

    def decode_token(self, token: Token) -> Endpoint:
        """Convert an interned ``(sym, occ)`` token back to an Endpoint."""
        sym, occ = token
        return Endpoint(self.labels[sym // 3], occ, sym % 3)
