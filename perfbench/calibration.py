"""The calibration kernel: a fixed piece of work that measures machine speed.

run.py times it around and during every job, and setup_probe.py times it
inside each fresh interpreter, to rescale wall times to the uncontended
machine (see Speedometer in run.py).
"""

import gc
import statistics
import time
from fractions import Fraction

# seconds of one kernel run on the tuning machine when it is not
# contended (2-core x86-64, Python 3.11)
NOMINAL_KERNEL_S = 0.0018
KERNEL_REPEATS = 5


def kernel():
    """Fixed exact-arithmetic work, like the package's Fraction loops."""
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i * i + 1)
    return acc


def kernel_seconds() -> float:
    """One timed kernel run; no collection of the job's heap may land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def mean_speed(samples) -> float:
    """Mean machine speed over kernel samples, 1 on the uncontended machine.

    Speeds lie between 0 and about 1.2, so one slow sample moves the mean
    by no more than its share of the samples.
    """
    return statistics.fmean(NOMINAL_KERNEL_S / k for k in samples)
