"""End-to-end benchmark: coins/s and payment latency through real daemons.

Measures the system from outside — daemon processes over loopback
sockets, the broker's WAL fsyncing — and never edits it. See
``bench/README.md`` for the workloads, the metrics and their bounds.
"""

import sys
from pathlib import Path

#: The checkout root (``bench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent

#: Where the measured program lives; the benchmark imports it from source.
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
