"""The unified Miner API: protocol, registry, and builder.

Historically the CLI, the experiment harness, and the perf workloads
each hard-coded the five miner classes and their five ad-hoc
constructor signatures. This module replaces that with one seam:

* :class:`Miner` — the structural protocol every miner satisfies: it
  carries a frozen :class:`~repro.core.config.MinerConfig` and exposes
  ``mine(db) -> MiningResult``;
* a **registry** mapping stable names (``"ptpminer"``,
  ``"tprefixspan"``, ``"hdfs"``, ``"ieminer"``, ``"bruteforce"``) to
  factories of signature ``MinerConfig -> Miner``
  (:func:`get` / :func:`register` / :func:`available`);
* :func:`build` — the one-stop constructor used by the CLI, harness,
  and perf layers, which also routes ``workers > 1`` to the sharded
  engine (:class:`repro.engine.ShardedMiner`) for P-TPMiner.

Extending the registry (e.g. from an experiment script)::

    from repro import miners

    miners.register("myminer", MyMiner.from_config)
    miners.build("myminer", min_sup=0.2).mine(db)
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.baselines.bruteforce import BruteForceMiner
from repro.baselines.hdfs import HDFSMiner
from repro.baselines.ieminer import IEMiner
from repro.baselines.tprefixspan import TPrefixSpanMiner
from repro.core.config import MinerConfig
from repro.core.ptpminer import MiningResult, PTPMiner
from repro.model.database import ESequenceDatabase

__all__ = [
    "Miner",
    "MinerFactory",
    "available",
    "build",
    "get",
    "register",
]


@runtime_checkable
class Miner(Protocol):
    """What every miner looks like, structurally.

    ``config`` is the complete, frozen mining-semantics surface;
    ``mine`` produces the canonical result object. The five built-in
    miners (and :class:`repro.engine.ShardedMiner`) all satisfy this
    without inheriting anything.
    """

    config: MinerConfig

    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` and return the full result."""
        ...


#: A registered miner constructor: config in, ready miner out.
MinerFactory = Callable[[MinerConfig], Miner]

_REGISTRY: dict[str, MinerFactory] = {}


def register(
    name: str, factory: MinerFactory, *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Refuses to overwrite an existing name unless ``replace=True``, so
    a typo cannot silently shadow a built-in miner.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"miner {name!r} is already registered")
    _REGISTRY[name] = factory


def get(name: str) -> MinerFactory:
    """The factory registered under ``name``.

    Raises ``ValueError`` naming the known miners — the error surface
    the CLI and perf layers expose for ``--miner`` typos.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown miner {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available() -> tuple[str, ...]:
    """All registered miner names, sorted."""
    return tuple(sorted(_REGISTRY))


def build(
    name: str,
    config: Optional[MinerConfig] = None,
    *,
    workers: int = 1,
    executor: str = "auto",
    **kwargs: Any,
) -> Miner:
    """Build a ready-to-run miner by registry name.

    Pass either a :class:`MinerConfig` or keyword options that build
    one (unknown keywords fail eagerly). ``workers > 1`` — or an
    explicit ``executor`` — routes P-TPMiner through the sharded
    engine; the baselines have no parallel path and reject it.
    ``workers``/``executor`` are execution knobs, not mining
    semantics: any combination yields bit-for-bit identical results.
    """
    if config is None:
        config = MinerConfig.from_kwargs(**kwargs)
    elif kwargs:
        raise TypeError(
            "pass either config= or individual miner options, not both"
        )
    factory = get(name)
    if workers != 1 or executor != "auto":
        if name != "ptpminer":
            raise ValueError(
                "parallel mining (workers/executor) is only supported "
                f"by 'ptpminer', got {name!r}"
            )
        from repro.engine import ShardedMiner

        return ShardedMiner.from_config(
            config, workers=workers, executor=executor
        )
    return factory(config)


register("ptpminer", PTPMiner.from_config)
register("tprefixspan", TPrefixSpanMiner.from_config)
register("hdfs", HDFSMiner.from_config)
register("ieminer", IEMiner.from_config)
register("bruteforce", BruteForceMiner.from_config)
