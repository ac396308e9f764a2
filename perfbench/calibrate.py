"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the interpreter's speed drifts:
on a shared two-vCPU Linux VM the same op took anywhere between 1x and
2x its fastest time, in CPU time as well as wall time, switching between
speed regimes that typically last a few seconds.  The benchmark
therefore runs a fixed pure-Python kernel just before and just after
each timed interval and reports the interval at reference speed::

    reported = measured * REFERENCE_KERNEL_S / mean(kernel before, after)

Most ops take well under a second, so the two kernel runs bracketing
an op mostly see the regime it ran in.

The kernel does the kind of work wirebox does (tuple keys, dict lookups,
small allocations, a sort) and uses no wirebox code, so a change to the
program moves the reported times and a change in machine speed mostly
does not.  The raw times are printed and stored beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

# kernel time on the machine the reference was taken on (seconds)
REFERENCE_KERNEL_S = 0.008

_KEYS = [(i % 97, str(i % 13)) for i in range(3000)]


def kernel() -> int:
    table = {}
    for i, key in enumerate(_KEYS):
        table[key] = (i, key[1])
    acc = 0
    for _ in range(8):
        for key in _KEYS:
            value = table[key]
            acc += len(value[1]) + (value[0] & 3)
        acc += len(sorted(table.items()))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Multiplier taking a time measured between kernel runs that took
    ``samples`` seconds to reference speed."""
    return REFERENCE_KERNEL_S / statistics.mean(samples)


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process and its children on one CPU of those allowed, so
    the kernel and the ops it calibrates share a core.

    Returns (number of CPUs allowed before, the CPU chosen).
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu
