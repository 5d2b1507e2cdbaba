"""Lazy package exports (PEP 562 module ``__getattr__``).

Every ``repro`` package ``__init__`` declares once which module serves
each name it exports and hands that mapping to :func:`lazy_exports`,
which returns the package's module-level ``__getattr__`` and
``__dir__``. A name is imported on first access and then cached in the
package namespace, so importing a package costs nothing until one of
its names is used: ``import repro.cli`` loads only the modules a mine
runs, and a spawned shard worker unpickling its payload loads only the
modules that payload references.

The mapping goes from a module to the names it serves, exactly as the
package's ``if TYPE_CHECKING:`` block imports them (that block is what
mypy and lint rule R004 read). Names served from the package itself
are its submodules.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` serving ``exports`` lazily.

    ``exports`` maps a module name to the names it serves; the names
    under ``package`` itself are submodules of ``package``.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        if module == package:
            value: Any = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
