"""Host-speed calibration: a fixed kernel timed around every timed segment.

On the shared 2-vCPU host this benchmark was built on, the speed of the
same code drifts by more than 2x over minutes and hours: ``classic``
passes took from 6.3 s to 27.5 s, with steal time near zero.  Longer
passes cannot average that out.  So the benchmark times this kernel
before and after each timed segment of a pass and reports times scaled
to the reference host speed::

    scaled = raw * REFERENCE_S / median of the run's kernel readings

The kernel is the benchmark's own code and calls nothing in the
program, so a change to the program cannot move it.  It is interpreter
work of the two kinds the workloads spend their time on:

* bit twiddling on small ints, short tuples and lists, and many small
  numpy calls, the shape of 6Gen's cluster-growth loop;
* set and dict traffic on 128-bit Python ints, the shape of the
  scanner's, dealiasing's and the hitlist's address sets.

A kernel that sorted large numpy columns tracked the workloads worse:
between a busy and a quiet period its time fell 1.85-fold while
``classic`` passes got 2.5 times faster.  README.md (*Host-speed
calibration*) gives the spreads measured with and without scaling.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: Median kernel time on the reference host, a 2-vCPU KVM guest on an
#: Intel Xeon (Sapphire Rapids) with Python 3.11 and numpy 2.4, in a
#: quiet period.
REFERENCE_S = 0.1

_GROWTHS = 12_000
_ADDRS = 150_000


def kernel() -> int:
    """Run the fixed calibration work once; returns a checksum."""
    rng = random.Random(0x5EED)
    distances = np.array([rng.randrange(33) for _ in range(256)], dtype=np.int16)
    masks = tuple(1 << rng.randrange(16) for _ in range(32))
    total = 0
    for g in range(_GROWTHS):
        grown = list(masks)
        size = 1
        m = (g * 0x9E3779B1) & 0xFFFFFFFF
        while m:
            low = m & -m
            m ^= low
            pos = low.bit_length() - 1
            count = grown[pos].bit_count()
            grown[pos] |= 1 << (g % 16)
            size = size // count * (count + 1)
        total += size % 7 + int(np.count_nonzero(distances == g % 33))
    addrs = [rng.getrandbits(128) for _ in range(_ADDRS)]
    live = set(addrs[::2])
    hits = sum(1 for a in addrs if a in live)
    per64: dict[int, int] = {}
    for a in addrs:
        per64[a >> 100] = per64.get(a >> 100, 0) + 1
    return total + hits + len(per64)


def measure(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(readings) -> float:
    """Reference-host seconds per host second, from a run's readings."""
    return REFERENCE_S / statistics.median(readings)
