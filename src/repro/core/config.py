"""Unified, serializable miner configuration.

Every miner in this repository — :class:`~repro.core.ptpminer.PTPMiner`
and the four baselines — historically exposed an ad-hoc constructor
signature and re-implemented the same argument validation. This module
hoists all of that into one **frozen, picklable** value object:

* :class:`MinerConfig` carries the complete mining-semantics surface
  (``min_sup``, ``mode``, ``pruning``, ``max_tokens``, ``max_size``,
  ``max_span``) and validates every field eagerly in
  ``__post_init__`` — a bad configuration fails at construction time,
  not halfway into a mining run;
* being frozen and built only from immutable parts, a config can be
  hashed, compared, and shipped across process boundaries unchanged —
  the property :mod:`repro.engine` relies on to describe shard work;
* miners that support only a subset of the surface (the baselines)
  reject unsupported non-default fields via
  :meth:`MinerConfig.require_only`, so the error message names the
  miner and the offending knob instead of silently ignoring it.

``min_sup`` follows the repo-wide convention: a value in ``(0, 1]`` is a
relative frequency, a value ``> 1`` an absolute (integral) count. The
conversion against a concrete database still happens in
:meth:`repro.model.database.ESequenceDatabase.absolute_support`; this
class only enforces the domain eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.core.pruning import PruningConfig

__all__ = ["MinerConfig"]

_MODES = ("tp", "htp")


@dataclass(frozen=True, slots=True)
class MinerConfig:
    """Frozen, picklable mining configuration shared by every miner.

    Attributes
    ----------
    min_sup:
        Relative support in ``(0, 1]`` or absolute integral count ``> 1``.
    mode:
        ``"tp"`` (interval-only patterns) or ``"htp"`` (hybrid patterns
        admitting point events).
    pruning:
        Which of P-TPMiner's pruning techniques run; ignored by miners
        that have no pruning switches unless explicitly rejected via
        :meth:`require_only`.
    max_tokens:
        Optional cap on pattern length in endpoint tokens.
    max_size:
        Optional cap on pattern size in event occurrences.
    max_span:
        Optional time-window constraint on embeddings.
    """

    min_sup: float = 0.1
    mode: str = "tp"
    pruning: PruningConfig = field(default_factory=PruningConfig.all)
    max_tokens: Optional[int] = None
    max_size: Optional[int] = None
    max_span: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.min_sup <= 0:
            raise ValueError(
                f"min_sup must be positive, got {self.min_sup}"
            )
        if self.min_sup > 1 and self.min_sup != int(self.min_sup):
            raise ValueError(
                f"absolute min_sup must be an integer, got {self.min_sup}"
            )
        if not isinstance(self.pruning, PruningConfig):
            raise TypeError(
                f"pruning must be a PruningConfig, got {self.pruning!r}"
            )
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.max_span is not None and self.max_span < 0:
            raise ValueError("max_span must be >= 0")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The configuration surface, for eager kwarg validation."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "MinerConfig":
        """Build a config, rejecting unknown keywords with a clear error.

        This is the validation seam behind the convenience
        :func:`repro.core.ptpminer.mine` API: unknown keywords raise
        ``TypeError`` naming the valid fields instead of surfacing as an
        opaque constructor failure deep in a miner.
        """
        known = cls.field_names()
        unknown = sorted(set(kwargs) - set(known))
        if unknown:
            raise TypeError(
                f"unknown miner option(s) {', '.join(map(repr, unknown))}; "
                f"valid options: {', '.join(known)}"
            )
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "MinerConfig":
        """A copy with ``changes`` applied (re-validated eagerly)."""
        return replace(self, **changes)

    def require_only(self, miner: str, *supported: str) -> None:
        """Reject non-default fields outside ``supported`` for ``miner``.

        Lets a miner that implements a subset of the configuration
        surface fail eagerly — ``IEMiner`` has no ``htp`` mode, the
        verification baselines have no pruning switches — with an error
        that names the miner and the unsupported option.
        """
        default = MinerConfig(min_sup=self.min_sup)
        for name in self.field_names():
            if name == "min_sup" or name in supported:
                continue
            if getattr(self, name) != getattr(default, name):
                raise ValueError(
                    f"{miner} does not support the {name!r} option "
                    f"(got {getattr(self, name)!r})"
                )

    def describe(self) -> dict[str, Any]:
        """Provenance dict for :class:`~repro.core.ptpminer.MiningResult`."""
        return {
            "min_sup": self.min_sup,
            "mode": self.mode,
            "pruning": self.pruning.describe(),
            "max_tokens": self.max_tokens,
            "max_size": self.max_size,
            "max_span": self.max_span,
        }
