"""Machine-speed calibration for the benchmark's timings.

On a shared host a small virtual machine's speed drifts by tens of percent
over tens of seconds, because other tenants load the physical cores.  The
benchmark therefore times a fixed pure-Python kernel, which calls nothing in
jumpspectra, next to each timed task or import and reports the measured
seconds scaled by REFERENCE_S / kernel seconds: the time the work would take
on a machine where the kernel takes REFERENCE_S.  REFERENCE_S is the
kernel's typical time on the 2-vCPU Xeon virtual machine where the first
baseline was recorded; it sets the scale only, and must not change between
two measurements that are compared.

The module imports only the standard library, so that a fresh interpreter
can calibrate before it imports numpy.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_S = 0.025


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    start = perf_counter()
    acc = 0.0
    for i in range(120_000):
        acc += math.sin(i * 1e-3) * (i % 7)
    return perf_counter() - start


def scaled(seconds: float, kernel: float) -> float:
    """Seconds measured next to kernel runs, at the reference machine speed."""
    return seconds * REFERENCE_S / kernel
