"""The host's speed at a moment, read from a fixed reference kernel.

The benchmark runs on shared hosts whose speed moves by 10-60% for seconds
to minutes at a time; CPU time moves with wall time, so the slow spells are
contention for the hardware, not waiting for a CPU.  ``reference()`` times a
small fixed kernel that uses no chernforms code: big-integer ``Fraction``
sums, tuple-keyed dict updates and 5x5 determinants, the operations the
program spends its time in.  An op's time divided by the reference time
measured next to it is the op's cost in units of host speed; times
``REF_SECONDS`` it reads as seconds on a host where the kernel takes
``REF_SECONDS``.  A change to the program moves that quotient in full; a
change of the host's speed moves numerator and denominator together.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

#: the kernel's time on an idle 2-vCPU Xeon (KVM) host with Python 3.11
#: and numpy 2.4; scaled times read as seconds on such a host
REF_SECONDS = 0.002

_MATRIX = np.random.default_rng(0).standard_normal((5, 5))


def reference() -> float:
    """Wall seconds of one run of the reference kernel, without GC pauses
    (a pause would charge the program's garbage to the host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i)
        table: dict = {}
        for i in range(5000):
            key = (i % 31, i % 29)
            table[key] = table.get(key, 0) + i
        for _ in range(150):
            np.linalg.det(_MATRIX)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median(samples: int = 3) -> float:
    """Median of a few back-to-back reference runs."""
    return statistics.median(reference() for _ in range(samples))
