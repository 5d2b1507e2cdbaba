"""Put the program's sources and the benchmark's modules on ``sys.path``.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
