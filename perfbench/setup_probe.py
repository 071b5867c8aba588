"""Set-up probe: interpreter start until gt_toolkit.cli is imported.

Prints the CLOCK_MONOTONIC time at which the import finished, then the
median of three calibration-kernel times measured right after it.
"""

import time

import gt_toolkit.cli  # noqa: F401

ready = time.perf_counter_ns()

import statistics  # noqa: E402

import speed  # noqa: E402

print(ready, statistics.median(speed.kernel_ns() for _ in range(3)))
