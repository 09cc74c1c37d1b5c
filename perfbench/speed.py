"""Reference-speed scaling for a shared, drifting machine.

On a shared VM the same work can take anywhere from 1x to 2.5x its quiet
time, and the machine's speed changes from one tenth of a second to the
next.  So right before every stretch of at most a few hundred
milliseconds of program work the benchmark times a fixed pure-Python
kernel, and scales the stretch's wall and CPU times by the kernel's
reference time over its measured time.  The kernel is the benchmark's own
code and imports nothing from the program, so no change to the program
can move it.

The kernel allocates, sorts and hashes a few thousand tuples, as the
program does with its slots, rather than spinning on a small dictionary:
when the machine slowed, the program slowed less than a small-dictionary
kernel did, so scaling by such a kernel over-corrected by 10-15 %.
"""

from __future__ import annotations

import random
from time import perf_counter

#: About the kernel's fastest time on a 2-vCPU Xeon VM with Python 3.11.
#: It only sets the scale of the reported times.
KERNEL_REFERENCE_S = 0.003


def speed_factor() -> float:
    """Reference time over the kernel's time now: below 1 on a slow machine."""
    began = perf_counter()
    rng = random.Random(5)
    rows = [(rng.random(), rng.randrange(1_000_000), step) for step in range(4000)]
    rows.sort()
    totals: dict[int, int] = {}
    for _, key, step in rows:
        totals[key] = totals.get(key, 0) + step
    found = 0
    for _, key, _ in rows[::2]:
        found += totals.get(key, 0)
    return KERNEL_REFERENCE_S / (perf_counter() - began)
