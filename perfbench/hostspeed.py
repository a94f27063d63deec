"""Host-speed calibration for the timed metrics.

On a shared 2-vCPU host the speed one thread gets jumps between levels
up to about 1.9x apart, for seconds to minutes at a time, with the same
code and inputs, because of load elsewhere on the machine.  A fixed
kernel owned by the benchmark is timed next to every op and every
set-up, and each time is scaled by REF_MS / kernel time: the figure
reported is what the op takes when the kernel takes REF_MS, its time in
the host's fast state.  The kernel mixes Python-level loops with
whole-array numpy passes, as boltvision does, and does not change with
the program under test.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time in the fast state of an idle 2-vCPU x86-64 VM, so
# scaled times read as uncontended ones there
REF_MS = 2.7

_BITS = np.random.default_rng(0).random(1 << 20) < 0.3
_POINTS = [(i % 97, i % 89) for i in range(20000)]


def _pass() -> None:
    acc = 0
    for (ax, ay), (bx, by) in zip(_POINTS, _POINTS[1:]):
        acc += ax * by - ay * bx
    np.flatnonzero(np.diff(_BITS.view(np.int8)) == 1)
    np.count_nonzero(_BITS)


def kernel_ms() -> float:
    """Time one kernel pass, in ms, after an untimed pass warms the caches."""
    _pass()
    t0 = time.perf_counter()
    _pass()
    return (time.perf_counter() - t0) * 1000.0


def settled_kernel_ms() -> float:
    """Median of five kernel passes, for spans too long to pair per op."""
    return statistics.median(kernel_ms() for _ in range(5))
