"""Two things the host does to a timing that are not the program's doing.

The reference host is a 2-vCPU guest on a shared machine.

**A halted vCPU is slow to wake.** Every party of an RPC ping-pong sleeps
while it waits for the other, so each message wakes a halted vCPU; what
that costs read anywhere from nothing to more than the handler itself
(refusal p50 3.0 ms halting, 1.5 ms not) and moved with the host's other
tenants. :func:`keep_awake` runs one busy loop per core at ``SCHED_IDLE``
— the guest-side equivalent of booting with ``idle=poll``: the vCPU never
halts, and any runnable daemon preempts the loop at once.

**The cores' speed moves.** The same bare ``pow`` loop reads 0.96 or
1.22 ms from one 50 ms window to the next and drifts by a quarter over
minutes, so ten runs of one commit spread by 10-30 % whichever estimator
summarises a run (medians, best-of and trimmed means were all tried).
:class:`HostSpeed` therefore times a fixed unit of work — a modular
exponentiation, some hashing, some interpreter work: the mix the daemons
run, none of it the program's code — on every core immediately before
and after each timed block, and the block's timings are scaled to what
they would have read at :data:`REFERENCE_CHUNK_S`. A change to the
program cannot move the unit, so a real gain or loss shows in full; the
host's drift cancels.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

#: Seconds one chunk of reference work takes on the reference host at its
#: usual speed; every corrected timing is "as if the host ran at this
#: speed". A constant of the benchmark: changing it rescales every
#: corrected metric.
REFERENCE_CHUNK_S = 1.5e-3

#: Chunks timed per core per sample; the median of them is the reading.
_CHUNKS = 7
#: A sample this fresh is reused as the next block's "before" reading.
_FRESH_S = 0.002

_P = (1 << 1024) - 105
_E = (1 << 160) - 47

def die_with_parent() -> None:
    """Have the kernel ``SIGKILL`` this process if its parent dies (Linux)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    if os.getppid() == 1:  # the parent was gone before the request landed
        sys.exit(1)


def _spin(core: int) -> None:
    """The spinner body (``python bench/hostspeed.py CORE``): pinned, idle priority, busy."""
    die_with_parent()
    os.sched_setaffinity(0, {core})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while True:
        pass


@contextlib.contextmanager
def keep_awake(cores: list[int]) -> Iterator[None]:
    """Keep every core out of the halted state while the block runs."""
    spinners: list[subprocess.Popen[bytes]] = []
    try:
        if hasattr(os, "SCHED_IDLE"):
            spinners = [
                subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(core)])
                for core in cores
            ]
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def _chunk() -> float:
    """Seconds one chunk of reference work took just now.

    Bigint, hashing, and interpreter work over freshly allocated objects
    (a message built, encoded, decoded) — what a handler does, in roughly
    a handler's proportions, and none of it the program's code.
    """
    started = time.perf_counter()
    x = 0x1234567890ABCDEF
    for _ in range(2):
        x = pow(x, _E, _P)
    digest = x.to_bytes(128, "big")
    fields = {}
    for i in range(120):
        digest = hashlib.sha256(digest).digest()
        fields[f"k{i & 31}"] = digest.hex()
    for _ in range(4):
        fields = json.loads(json.dumps(fields))
    return time.perf_counter() - started


class HostSpeed:
    """How fast the host runs right now, as a share of the reference speed.

    Args:
        cores: the cores the deployment runs on; each is sampled.
        home: the core the calling (load-generator) process lives on and
            is returned to after a sample (``None``: not pinned).
    """

    def __init__(self, cores: list[int], home: int | None) -> None:
        self._cores = cores if home is not None else []
        self._home = home
        self._last = (0.0, 0.0)  # (when, reading)
        #: Every block's factor, for the run's summary.
        self.factors: list[float] = []

    def sample(self) -> float:
        """Chunk seconds now: per core the median of a few chunks, then the mean.

        Blocks the calling event loop for ~20 ms on purpose: it is called
        between timed blocks, when no request is in flight.
        """
        if not self._cores:
            reading = statistics.median(_chunk() for _ in range(_CHUNKS))
        else:
            per_core = []
            for core in (*(c for c in self._cores if c != self._home), self._home):
                os.sched_setaffinity(0, {core})
                per_core.append(statistics.median(_chunk() for _ in range(_CHUNKS)))
            reading = statistics.mean(per_core)
        self._last = (time.perf_counter(), reading)
        return reading

    def before(self) -> float:
        """A reading to open a block with: the last one if it was taken just now."""
        when, reading = self._last
        if time.perf_counter() - when <= _FRESH_S:
            return reading
        return self.sample()

    def slowdown(self, before: float, after: float) -> float:
        """By how much the host stretched a block's timings (1 = reference speed)."""
        factor = (before + after) / 2.0 / REFERENCE_CHUNK_S
        self.factors.append(factor)
        return factor


if __name__ == "__main__":
    _spin(int(sys.argv[1]))
