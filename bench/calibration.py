"""Calibration of CPU times against a fixed reference kernel.

On a shared host the same work can take up to 1.6x more CPU time from one
second to the next (frequency, a busy sibling hyperthread, cache sharing).
The benchmark runs ``reference_kernel`` next to the work it measures and
rescales the work's CPU time to a machine on which the kernel takes
``REFERENCE_S``.  The kernel never calls the program, so no change to the
program can move it.
"""

import math
import time
from fractions import Fraction

# The median of the kernel's time over the baseline runs (bench/results), so
# that calibrated figures read as CPU times of the baseline machine.
REFERENCE_S = 0.00415


def reference_kernel():
    """Fixed exact-rational work: the same kind of interpreter, allocation
    and gcd load that rankloci puts on the machine, so it slows down with
    the machine the way rankloci does."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, i % 7 + 1)
    return acc


def calibrate():
    """CPU seconds of the reference kernel right now (the lesser of two)."""
    best = math.inf
    for _ in range(2):
        t0 = time.process_time()
        reference_kernel()
        best = min(best, time.process_time() - t0)
    return best
