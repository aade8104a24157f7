#!/usr/bin/env python3
"""CI guard for the parallel executor and disk-cache keying.

Runs E6 (the tuned mechanism grid), E13 (cache pressure, half of its
cells under the pinned ``chaos:1234`` fault plan) and E15 (self-modifying
guests under every coherence policy) at tiny scale three times:

1. serial, no cache          — the reference tables,
2. ``--jobs 2``, cold cache  — must produce byte-identical CSV output,
3. ``--jobs 2``, warm cache  — must be served >= 90% from the disk cache
                               and still match byte-for-byte.

A keying bug (a field missing from the fingerprint, fuel aliasing, a
faulted cell served to a clean one, a nondeterministic row order) breaks
one of these invariants.  So does a cell whose result depends on what
earlier cells of its process left in the per-process walk and block
stores: the serial pass runs every cell in one process, the 2-worker
passes spread them over others, and E15's cells rewrite their own code.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

EXPERIMENTS = ["e6", "e13", "e15"]
CSV_NAMES = ("e6_mechanism_comparison.csv", "e13_cache_pressure.csv",
             "e15_coherence.csv")
MIN_HIT_RATE = 0.90


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cache-check-") as tmp:
        return check(Path(tmp))


def check(workdir: Path) -> int:
    from repro.eval.diskcache import DiskCache
    from repro.eval.parallel import run_experiments
    from repro.eval.runner import clear_caches

    cache = DiskCache(workdir / "cache")

    _t, serial = run_experiments(EXPERIMENTS, scale="tiny", jobs=1,
                                 results_dir=workdir / "serial")
    print(f"serial:        {serial.computed} simulated "
          f"in {serial.elapsed:.1f}s", flush=True)

    clear_caches()
    _t, cold = run_experiments(EXPERIMENTS, scale="tiny", jobs=2,
                               cache=cache, results_dir=workdir / "cold")
    print(f"jobs=2 cold:   {cold.computed} simulated, "
          f"{cold.cache_hits} cached in {cold.elapsed:.1f}s", flush=True)

    clear_caches()
    _t, warm = run_experiments(EXPERIMENTS, scale="tiny", jobs=2,
                               cache=cache, results_dir=workdir / "warm")
    print(f"jobs=2 warm:   {warm.computed} simulated, "
          f"{warm.cache_hits}/{warm.unique} cached "
          f"({warm.hit_rate:.0%}) in {warm.elapsed:.1f}s", flush=True)

    failures = []
    for name in CSV_NAMES:
        reference = (workdir / "serial" / name).read_bytes()
        for label in ("cold", "warm"):
            if (workdir / label / name).read_bytes() != reference:
                failures.append(
                    f"{label} parallel run produced different {name} "
                    f"bytes than the serial run"
                )
    if warm.hit_rate < MIN_HIT_RATE:
        failures.append(
            f"warm pass hit rate {warm.hit_rate:.0%} is below the "
            f"{MIN_HIT_RATE:.0%} floor — cache keying or persistence "
            f"is broken"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: parallel output byte-identical; warm pass "
              f"{warm.hit_rate:.0%} cache-served")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
