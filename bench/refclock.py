"""Reference clock: durations reported at a fixed host speed.

The small shared virtual machines this benchmark runs on change speed by
up to 2x over tens of seconds, the same for every process, so two runs of
the same code a few minutes apart can differ by more than any useful
regression bound.  To take that drift out, a fixed pure-Python kernel
(integer arithmetic and calls, no qlat code, nothing the garbage collector
tracks) is timed between requests, and every duration is scaled by
``REF_KERNEL_S`` over the median kernel time of the samples taken around
it.  A reported millisecond is therefore a millisecond on a host where the
kernel takes ``REF_KERNEL_S``; a change to qlat moves it exactly as it
moves the raw time, while a change of host speed moves both the request
and the kernel and cancels.

``REF_KERNEL_S`` is about the median kernel time on a 2-vCPU x86-64 VM
with Python 3.11, so there reference times and raw times agree.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_KERNEL_S = 0.004
SAMPLE_EVERY_S = 0.1  # at most one kernel sample per this much request time
WINDOW = 4  # samples on each side of a duration that set its scale


def kernel() -> int:
    """Fixed work: 64-bit LCG steps and Euclid on the results."""
    a, total = 1234567891011, 0
    for _ in range(4000):
        a = (a * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        x, y = a % 1000003, (a >> 20) % 999983 + 1
        while y:
            x, y = y, x % y
        total += x
    return total


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Kernel samples taken during a run, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SAMPLE_EVERY_S

    def mark(self) -> int:
        """Index of the latest sample; pass it to `scale` later."""
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Reference seconds per raw second around sample `mark`."""
        window = self.samples[max(0, mark - WINDOW + 1): mark + WINDOW + 1]
        return REF_KERNEL_S / statistics.median(window)
