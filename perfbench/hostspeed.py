"""Host-speed probe used to put benchmark times on one scale.

On a shared host the same operation's wall time can change by a factor
of two from one second or minute to the next, as neighbours load the
CPUs, and a whole run moves with it.  The benchmark therefore runs this fixed probe next to
every measurement and reports each time scaled to a host on which the
probe takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / probe

The probe mixes what isscert spends its time on: interpreted scalar
arithmetic, float ``repr`` formatting and small numpy array operations.
It is independent of isscert, so a change to the program cannot move it.
Never edit it: figures from different probes are not comparable.  The raw
times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.01

# probes on each side of an operation that smooth its scale factor: one
# probe is noisy, and host speed holds for several operations at least
WINDOW = 4


def probe() -> float:
    """Seconds this host takes for a fixed mixed workload (about 10 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25000):
        acc += float(i) * 0.5
    text = ",".join(f"{x!r}" for x in np.linspace(0.0, 1.0, 5000).tolist())
    arr = np.linspace(0.0, 1.0, 201)
    for _ in range(500):
        arr = np.asarray(arr * 0.999 + 0.001, dtype=float)
    elapsed = time.perf_counter() - t0
    if not (acc > 0 and text and arr[0] > 0):
        raise RuntimeError("host-speed probe computed nothing")
    return elapsed


def typical(probes) -> float:
    """Mean probe after dropping the fastest and slowest fifth.

    A mean, not a median: the host flips between a fast and a slow state
    within seconds, and an operation's time follows the share of time
    spent in each, which the median of a two-state sample does not.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut: len(ordered) - cut])


def scale_factors(probes) -> list:
    """REFERENCE_S over the typical probe of each point's window."""
    return [REFERENCE_S / typical(probes[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(probes))]
