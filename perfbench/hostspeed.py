"""Host-speed readings: a fixed pure-Python kernel timed next to each timed step.

The benchmark runs on shared hosts whose speed moves by up to twofold,
for seconds or for minutes, as other tenants load the same cores and
caches.  Two runs of the same code can then differ more than any useful
regression bound.  So every measuring interpreter takes a reading of
:func:`kernel` right before and right after each timed step, and during
the steps that last several seconds (:class:`Sampler`, whose time is
left out of the step's), and ``run.py`` reports each step's time scaled
by ``REFERENCE_S`` over its readings: seconds on a host where the
kernel takes ``REFERENCE_S``.  Rates are computed from the scaled
times.  The raw figures are printed next to the scaled ones.

The kernel does both kinds of work the simulator does: interpreter-bound
dict, string and tuple work with SHA-256, and a pointer chase over a
table larger than a core's share of the cache, which slows when other
tenants fill the cache.  It imports nothing from the program under test
and runs with the cyclic garbage collector off, so a change to the
program cannot move it: the scaled times move with the program and not
with the host.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from array import array
from typing import Any, List, Optional

#: Median :func:`reading` on the reference host (2-vCPU VM at 2.1 GHz,
#: CPython 3.11) while it ran at its usual speed.
REFERENCE_S = 0.017

#: Pointer-chase table: 2**21 entries of 4 bytes (8 MB).
_TABLE_BITS = 21
_table: Optional[array] = None


def _chase_table() -> array:
    """``i -> (5 i + 1) mod 2**21``: one cycle through every entry (an
    LCG with full period), each step far from the last."""
    global _table
    if _table is None:
        mask = (1 << _TABLE_BITS) - 1
        stride = 5 + (1 << 12) * 4 * 97  # = 1 (mod 4), so the period is full
        _table = array("i", ((stride * i + 1) & mask for i in range(1 << _TABLE_BITS)))
    return _table


def kernel() -> int:
    """One fixed unit of work: dict reads and writes under string keys,
    small tuples and lists, a sort, SHA-256 over short messages, then
    50000 dependent reads from the 8 MB table."""
    table: dict = {}
    total = 0
    for i in range(12000):
        key = f"n{i % 499}"
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    rows = sorted(table.items(), key=lambda item: item[1])
    digest = hashlib.sha256()
    for key, value in rows:
        digest.update(key.encode())
        digest.update(value.to_bytes(8, "little"))
    objects = [(i, [i], str(i)) for i in range(6000)]
    chase = _chase_table()
    at = 0
    for _ in range(50000):
        at = chase[at]
    return total + len(objects) + digest.digest()[0] + at


def reading(reps: int = 3) -> float:
    """Median wall time of ``reps`` back-to-back kernel runs."""
    _chase_table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Readings taken during a long timed step, one per ``interval``
    seconds, from a ``SIGALRM`` handler on the main thread.

    ``spent`` is the time the handler took; subtract it from the step's
    wall time.  Use it only on steps that run in the main thread.
    """

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self.readings: List[float] = []
        self.spent = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self.readings.append(reading(1))
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        _chase_table()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(raw_s: float, before: float, after: float) -> float:
    """``raw_s`` seconds measured between two readings, on the reference host."""
    return raw_s * REFERENCE_S / ((before + after) / 2.0)
