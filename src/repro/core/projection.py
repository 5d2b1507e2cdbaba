"""Projection states for P-TPMiner.

P-TPMiner performs PrefixSpan-style *pseudo-projection*: instead of
materializing projected databases, every sequence keeps a small set of
**projection states**, each describing one way the current pattern prefix
embeds into the sequence. A state is a plain tuple of ints over the
sequence's occurrence index (:class:`~repro.temporal.endpoint.EncodedSequence`
numbers its event occurrences ``e = 0, 1, ...``):

``pos``
    Index of the pointset matched by the pattern's *last* pointset
    (``-1`` for the empty prefix).
``binds``
    The sequence occurrence bound to each open (started, unfinished)
    *pattern* occurrence, in the order the search opened them. A pattern
    finish token can only close the bound occurrence ``e``, so it has
    exactly one candidate position, ``occ_finish[e]``.
``used``
    Bitmask over occurrence indices: every occurrence the embedding has
    consumed so far, which keeps the occurrence mapping injective.
``min_finish``
    The smallest finish position among ``binds`` (:data:`NO_FINISH` when
    nothing is bound), so dead-state elimination is one comparison.
``window_start``
    Timestamp of the first matched pointset; only set under a
    ``max_span`` time constraint (``None`` otherwise).

Unlike classical PrefixSpan, keeping only the earliest match is *not*
complete here: binding a start token to a different duplicate occurrence
changes where the matching finish can appear. Each sequence therefore
keeps all distinct states (:func:`dedupe_states`).

Three structural facts keep the state sets small and the scans short:

* **No dominance ordering exists to exploit.** Every embedding of the
  same prefix consumes exactly as many occurrences as the prefix
  introduces, so two states' ``used`` sets always have equal cardinality
  — one can never be a strict subset of another. Exact deduplication is
  therefore all the reduction there is.
* **Dead states are prunable.** When an embedding advances past the
  finish position of a bound occurrence (``min_finish < pos``), that
  occurrence can never be closed: the state supports no *complete*
  descendant pattern and P-TPMiner's postfix pruning drops it at
  projection time (see :mod:`repro.core.pruning`). Dropping it is sound
  because every embedding of a complete pattern keeps all pending
  finishes ahead of the frontier at every step.
* **Consumed starts never lie after the frontier.** Every occurrence in
  ``used`` was consumed by a start or point token matched at or before
  ``pos``. A start or point after the frontier is therefore never in
  ``used``, so the search gathers S-extension starts from the sequence's
  last-position table once per sequence, not once per state.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro import contracts
from repro.temporal.endpoint import EncodedSequence

__all__ = ["State", "EMPTY_STATE", "NO_FINISH", "check_state", "dedupe_states"]

#: One embedding frontier of the current prefix in one sequence:
#: ``(pos, binds, used, min_finish, window_start)``.
State = tuple[int, tuple[int, ...], int, int, Optional[float]]

#: ``min_finish`` of a state with nothing bound: past every position.
NO_FINISH = sys.maxsize

#: The root state: nothing matched yet.
EMPTY_STATE: State = (-1, (), 0, NO_FINISH, None)


def check_state(state: State, seq: EncodedSequence) -> None:
    """Contract: one projection state is internally consistent.

    Called from the miner's projection step when runtime contracts are
    enabled (:mod:`repro.contracts`); raises
    :class:`~repro.contracts.ContractViolation` on the first violated
    invariant. Checks:

    * the frontier ``pos`` indexes a real pointset (or is ``-1``);
    * every bound or used occurrence exists in the sequence;
    * every bound (open) occurrence is marked ``used`` — an open interval
      was necessarily introduced by a consumed start;
    * no sequence occurrence is bound to two pattern occurrences;
    * ``min_finish`` is the earliest finish among the bound occurrences.
    """
    pos, binds, used, min_finish, _window_start = state
    num_occ = len(seq.occ_keys)
    contracts.check(
        -1 <= pos < len(seq.pointsets),
        "projection frontier out of range",
        details=lambda: f"pos={pos}, len={len(seq.pointsets)}",
    )
    contracts.check(
        0 <= used < 1 << num_occ,
        "used occurrence missing from the sequence",
        details=lambda: f"used={used:#x}, occurrences={num_occ}",
    )
    contracts.check(
        all(0 <= e < num_occ for e in binds),
        "bound occurrence missing from the sequence",
        details=lambda: f"binds={binds}, occurrences={num_occ}",
    )
    contracts.check(
        all(used >> e & 1 for e in binds if e >= 0),
        "bound occurrence not marked used",
        details=lambda: f"binds={binds}, used={used:#x}",
    )
    contracts.check(
        len(set(binds)) == len(binds),
        "sequence occurrence bound twice",
        details=lambda: f"binds={binds}",
    )
    contracts.check(
        min_finish
        == min((seq.occ_finish[e] for e in binds), default=NO_FINISH),
        "min_finish disagrees with the bound occurrences",
        details=lambda: f"min_finish={min_finish}, binds={binds}",
    )


def dedupe_states(
    states: list[State], stats: Optional[dict[str, int]] = None
) -> tuple[State, ...]:
    """Remove exact duplicate states, preserving first-seen order.

    Duplicates arise when several of a state's extensions land on the
    same frontier (e.g. two identical duplicate events). See the module
    docstring for why subset-dominance reduction cannot apply.

    ``stats``, when given, accumulates the number of duplicates removed
    under the ``"states_deduped"`` key — the hook the observability
    layer uses (:mod:`repro.obs.metrics`) without costing the disabled
    path anything.
    """
    if len(states) <= 1:
        return tuple(states)
    deduped = tuple(dict.fromkeys(states))
    if stats is not None and len(deduped) != len(states):
        stats["states_deduped"] = (
            stats.get("states_deduped", 0) + len(states) - len(deduped)
        )
    return deduped
