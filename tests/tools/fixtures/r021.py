"""R021 fixture: the search core reaches repro.obs only through its seams.

Linted under the synthetic path ``src/repro/core/demo21.py``, a module
of a core package. It may import ``clock``, ``trace``, ``metrics``,
``recorder`` and ``seam`` from ``repro.obs``, and anything at all under
``if TYPE_CHECKING:``. A collector module, the ledger, or the
``repro.obs`` package itself is flagged wherever the import runs, at
module level or inside a function.
"""

from typing import TYPE_CHECKING

import repro.obs.provenance  # expect: R021
from repro import obs  # expect: R021
from repro.obs import clock, live, recorder  # expect: R021
from repro.obs.costmodel import CostCollector  # expect: R021
from repro.obs.metrics import MetricsRegistry
from repro.obs.seam import COST
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger


def uses_every_import(ledger: "RunLedger") -> tuple:
    with span("demo"):
        return (
            repro.obs.provenance, obs, clock.now(), live, recorder,
            CostCollector, MetricsRegistry, COST.active(), ledger,
        )


def imports_a_collector_late() -> object:
    from repro.obs.ledger import RunLedger  # expect: R021

    return RunLedger
