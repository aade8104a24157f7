"""How fast the host runs Python right now, to take host drift out of times.

On a shared host the same simulation runs 10-25% faster or slower from
one minute to the next, because other tenants load the machine; that is
as large as the regressions the benchmark must catch.  Each child
therefore times this fixed loop of pure-Python work (calls through
closures, integer arithmetic, dict updates, the mix the simulator runs)
right before and right after what it measures, and the end-to-end times
are scaled by ``NOMINAL_S / loop time``: they read as on a host where the loop takes
``NOMINAL_S``.  The loop is the benchmark's own code, so no change to the
program can move it.  The raw times stay in the ``-o`` report.
"""

from __future__ import annotations

import statistics
import time

#: The loop's median time on the shared 2-vCPU host the benchmark was
#: calibrated on, so that scaled times there read close to raw ones.
NOMINAL_S = 0.004


def _loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    steps = [lambda x, k=k: (x * 31 + k) & 0xFFFF for k in range(16)]
    for i in range(20_000):
        acc = steps[i & 15](acc ^ i)
        table[acc & 255] = table.get(acc & 255, 0) + 1
    return acc


def loop_seconds(samples: int = 3) -> float:
    """Median time of the loop over ``samples`` runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, loop_s: float) -> float:
    """``seconds`` as they would read on the nominal host."""
    return seconds * NOMINAL_S / loop_s
