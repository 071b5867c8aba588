"""Calibration kernel: fixed pure-Python work timed next to the program.

The benchmark host is a small virtual machine whose speed drifts by up to
a factor of two over tens of seconds, as other machines load the shared
hardware.  The kernel is timed between commands, and every command's
latency is multiplied by (REFERENCE_S / kernel time nearby) ** EXPONENT,
so reported times are seconds at the speed at which the kernel takes
REFERENCE_S.  EXPONENT is below 1 because the toolkit slows less than the
kernel when the host is loaded; 0.8 gave the least run-to-run spread over
all four timed workloads (five seeds each, exponents 0.5 to 1.0 tried).
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0015
EXPONENT = 0.8
WINDOW_NS = 500_000_000  # kernel samples within 0.5 s of a command count


def _work() -> int:
    # dict, tuple and small-int traffic, like the toolkit's inner loops
    table: dict = {}
    for i in range(2500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i * 3 // 7
    # a memoised recursion over tuples, like the semigroup search
    memo: dict = {}

    def descend(vec, depth):
        if depth == 0:
            return 0
        key = (vec, depth)
        if key not in memo:
            memo[key] = descend(tuple(x - 1 for x in vec), depth - 1) + 1
        return memo[key]

    for j in range(30):
        descend((j, j + 1, j + 2), 40)
    return len(table) + len(memo)


def kernel_ns() -> int:
    """One timed run of the kernel."""
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start


def scale(samples: list, start: int, end: int) -> float:
    """The speed factor for a command that ran during [start, end].

    samples holds (timestamp_ns, kernel_ns) pairs in time order.  The
    factor compares REFERENCE_S with the median kernel time within
    WINDOW_NS of the command; the window widens until it holds a sample.
    """
    window = WINDOW_NS
    while True:
        near = [k for t, k in samples if start - window <= t <= end + window]
        if near:
            return (REFERENCE_S * 1e9 / statistics.median(near)) ** EXPONENT
        window *= 2
