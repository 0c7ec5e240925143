"""The machine's speed, from a fixed piece of pure-Python work.

On a shared 2-vCPU virtual machine (Intel Xeon, 2 GHz) the same single-threaded
code ran up to 2x slower or faster from one minute to the next, with almost no
steal time, so CPU time drifted as much as wall time. A run of 20 s cannot
average out a slow phase that lasts minutes. The benchmark therefore times this
reference between goals and reports acdterm's times at the speed at which the
reference takes NOMINAL_S seconds: a time t measured while the reference takes
r seconds is reported as t * NOMINAL_S / r.

The reference has two parts, as acdterm's time has. One is interpreter-bound:
it hashes tuples, inserts into a small dict, makes and frees small objects and
sorts, as matching does. The other follows a chain through a 1 MiB table in an
order that defeats the caches, as the oracle's search over large state sets
does. Over one 30 s stretch the first kind took up to 1.9x longer in slow
phases while whole oracle_check passes took up to 1.6x longer; scaled by the
first part alone, the per-pass time of the oracle's two long searches spread
more (quartiles 0.17 of the median apart) than unscaled (0.15). The reference
never calls acdterm, so a change to acdterm moves the reported times and not
the scale.
"""

import gc
from array import array
from statistics import median
from time import perf_counter

NOMINAL_S = 0.002
# Seconds of goal time between two reference samples within a pass, and how
# many samples on each side of a goal scale its time.
EVERY_S = 0.05
WINDOW = 2

CHAIN_SIZE = 1 << 18
# Slot j holds the slot after j: a full-period linear congruential sequence
# modulo CHAIN_SIZE, so consecutive reads land far apart.
CHAIN = array("i", ((j * 1_103_515_245 + 12_345) % CHAIN_SIZE for j in range(CHAIN_SIZE)))


def reference():
    # At most 122 entries live at once, so the reference adds no memory of
    # its own to the run's peak RSS; each insert frees the value it replaces.
    table = {}
    for i in range(4000):
        table[(i * 7919) % 61, i & 1] = [i, str(i)]
    j = 0
    for _ in range(8000):
        j = CHAIN[j]
    return sorted(table.items()), j


def sample() -> float:
    """Seconds the reference takes now. The collector is off while it runs: a
    collection would scan the caller's heap, which grows with the workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """The factor that brings times measured next to `samples` to NOMINAL_S speed."""
    return NOMINAL_S / median(samples)
