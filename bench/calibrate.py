"""Machine-speed calibration of item and set-up times.

On a shared host the same work takes up to 1.6 times longer from one
moment to the next, and a 20 s run does not average that out: split
into 20 s pieces, three minutes of campaign items spread by 15% in
throughput and 20% in median latency (quartile distance over median).
So the worker times a fixed kernel of pure-Python rational and float
elimination, the kind of work tpflag does, just before and just after
each item, and scales the item's wall time by REF_KERNEL_S over the
mean of the two kernel times.  Set-up is scaled by a kernel time taken
just after it, since a kernel run before it would import modules that
the set-up is timed importing.  A calibrated time is what the work
would take on a machine where the kernel takes REF_KERNEL_S; it keeps
its unit and compares across runs and commits.  Wall times are
reported beside it.

The machine's speed changes within a second, so the kernel runs right
next to each item: on the same three minutes, calibrating each item
this way left spreads of 2 to 5%, while smoothing over windows of
seconds left more; timing the kernel on both sides of an item rather
than one halved the spread of the membership 90th percentile.  The
kernel tracks the machine only on the same CPU as the work, so run.py
pins itself and every process it starts to one CPU.

The ``cli`` items are new processes, which slow less than the kernel
does when the host is busy: calibrated by the kernel, their times fell
by a fifth in busy stretches.  They are calibrated the same way, but by
a bare interpreter start (``python -c pass``) before and after each.

Neither probe uses tpflag code, so a change to tpflag cannot move them.
"""

import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

from source import child_env

# About the kernel's time between items on one vCPU of a 2.1 GHz Xeon
# host at a quiet moment, so that calibrated times read close to wall
# times there.
REF_KERNEL_S = 0.6e-3
# Kernel runs per calibration; their median is used.
SAMPLES = 3
# About a bare interpreter start between cli items on the same host.
REF_STARTUP_S = 0.065


def kernel():
    """Exact elimination of the 6 x 6 Hilbert matrix, then float
    elimination of the same matrix twenty times."""
    n = 6
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    b = [[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]
    for _ in range(20):
        m = [row[:] for row in b]
        for c in range(n):
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return a, m


def kernel_s() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def kernel_time() -> float:
    """The machine's current speed: the median of SAMPLES kernel times."""
    return median(kernel_s() for _ in range(SAMPLES))


def startup_time(code: str = "pass") -> float:
    """Wall time of a fresh interpreter running ``code``.  By default a
    bare interpreter start: the probe for work that is mostly process
    start-up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
    return perf_counter() - t0


def calibrated(wall_s: float, probe_s: float, ref_s: float = REF_KERNEL_S) -> float:
    """A wall time as it would read where the probe takes ``ref_s``."""
    return wall_s * ref_s / probe_s
