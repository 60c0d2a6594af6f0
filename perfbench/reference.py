"""Machine-speed reference.

The benchmark runs on shared machines whose speed drifts by 20% and more
over minutes, for all code alike.  `reference_loop` is a fixed pure-Python
computation, independent of the program.  It allocates no containers, so it
never triggers garbage collection and does not depend on the program's
heap.  Its time, sampled next to the measured work, gives the machine's
current slowdown.  Timings divided by that slowdown are the times the work
would take at nominal machine speed.
"""

from __future__ import annotations

import statistics
import time

REF_ITERS = 20_000
# Median time of reference_loop on the machine that measured the figures in
# README.md (2 vCPUs, Python 3.11.7) at a quiet time.
REF_NOMINAL_S = 0.00215


def reference_loop() -> int:
    x, acc = 0.5, 0
    for i in range(REF_ITERS):
        x = x * 3.7 * (1.0 - x)
        acc += i & 7
    return acc


def sample() -> float:
    """Seconds for one reference loop, after one untimed warm-up loop."""
    reference_loop()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Median sample over the nominal time: above 1 on a slow machine."""
    return statistics.median(samples) / REF_NOMINAL_S
