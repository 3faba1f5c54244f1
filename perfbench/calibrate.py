"""Time the benchmark's calibration kernel in an interpreter of its own.

``run.py`` starts this once per run.  Each line read from standard input asks
for one measurement: the median of ``REPEATS`` kernel times, in seconds,
printed as one line.  ``run.py`` asks for one before the first benchmark
process, and one whenever a benchmark process has paused after its set-up
or after a pass; it scales each timed section by the kernel times around
it.  The kernel never shares a process with the program, so no state that
the program leaves behind (heap, caches, page mappings) can change its time;
only the host's speed does.  Exits at the end of its input.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

REPEATS = 3


def kernel():
    """A fixed amount of the work the workloads spend their time on.

    Interpreted float arithmetic, numpy calls on small and on large arrays,
    and exact rational arithmetic.  Returns the elapsed seconds.
    """
    small = np.linspace(0.0, 1.0, 64)
    big = np.linspace(0.01, 1.0, 100_000)
    buffer = big.copy()  # written before the clock starts, so no page faults
    start = time.perf_counter()
    total = 0.0
    for i in range(160_000):
        total += math.sqrt(i + 0.5)
    for _ in range(8_000):
        np.interp(0.3, small, small)
    for _ in range(80):
        np.log(big, out=buffer)
        np.multiply(buffer, buffer, out=buffer)
        np.add(buffer, 1.0, out=buffer)
        np.sqrt(buffer, out=buffer)
        total += float(buffer.sum())
    exact = Fraction(0)
    for i in range(1, 8_000):
        exact += Fraction(i % 7, i % 11 + 1)
    return time.perf_counter() - start


def main():
    kernel()  # warm-up: first calls into numpy, lazy imports
    for _ in sys.stdin:
        print(repr(statistics.median(kernel() for _ in range(REPEATS))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
