#!/usr/bin/env python3
"""Benchmark the oracle, threaded and tier-2 execution engines.

For every workload in the suite, times a native-baseline run and an SDT
run under every engine, verifies the results are identical (output, exit
code, retired count, iclass counts and the per-category cycle breakdown:
``repro.eval.differential.ALL``), and reports simulated guest
instructions per second.  Writes ``results/ci/BENCH_engine.json``
so the performance trajectory of the simulator itself is tracked over
time; ``scripts/perf_gate.py`` compares that report against the committed
baseline in ``benchmarks/baselines/``.

The quick variant runs at small scale: the tier-2 JIT pays a per-region
compile cost that only amortizes once the hot loops re-enter their
regions, and tiny-scale runs finish before that happens.

Usage::

    python scripts/bench_engine.py                 # full suite, small scale
    python scripts/bench_engine.py --quick         # CI smoke: 3 workloads, small
    python scripts/bench_engine.py --check         # exit 1 unless each tier beats
                                                   # the one below it (aggregate)
    python scripts/bench_engine.py -o out.json

See docs/performance.md for the engine design and current numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

QUICK_WORKLOADS = ("gzip_like", "perl_like", "mcf_like")


def _timed(program, profile, harness: str, engine: str, fuel: int):
    """Time ``run(fuel)`` alone, then snapshot the runner."""
    from repro.eval.differential import make_runner, snapshot

    runner = make_runner(program, harness, engine=engine, profile=profile)
    start = time.perf_counter()
    runner.run(fuel)
    seconds = time.perf_counter() - start
    return seconds, snapshot(runner)


def bench(scale: str, names: list[str], profile_name: str, fuel: int) -> dict:
    from repro.eval.differential import ALL, HARNESSES, diff
    from repro.host.profile import get_profile
    from repro.machine.engine import ENGINES
    from repro.workloads import get_workload

    profile = get_profile(profile_name)
    rows = []
    totals = {
        engine: {"retired": 0, "seconds": 0.0} for engine in ENGINES
    }
    for name in names:
        workload = get_workload(name, scale)
        program = workload.compile()  # compile outside the timed region
        row: dict = {"workload": name}
        for mode in HARNESSES:
            per_engine = {
                engine: _timed(program, profile, mode, engine, fuel)
                for engine in ENGINES
            }
            oracle = per_engine["oracle"][1]
            for engine, (_, observation) in per_engine.items():
                field = diff(oracle, observation, ALL)
                if field is not None:
                    raise SystemExit(
                        f"ENGINE DIVERGENCE: {name}/{mode}: {engine} "
                        f"differs from oracle on {field}"
                    )
            row[mode] = {
                engine: {
                    "seconds": round(seconds, 6),
                    "retired": observation.retired,
                    "instrs_per_sec": round(
                        observation.retired / seconds
                    ) if seconds else None,
                }
                for engine, (seconds, observation) in per_engine.items()
            }
            for engine, (seconds, observation) in per_engine.items():
                totals[engine]["retired"] += observation.retired
                totals[engine]["seconds"] += seconds
        rows.append(row)
        print(
            f"{name:16s} native thr {_speedup(row['native']):5.2f}x "
            f"t2 {_speedup(row['native'], 'tier2'):5.2f}x   "
            f"sdt thr {_speedup(row['sdt']):5.2f}x "
            f"t2 {_speedup(row['sdt'], 'tier2'):5.2f}x",
            flush=True,
        )

    for engine, agg in totals.items():
        agg["instrs_per_sec"] = (
            round(agg["retired"] / agg["seconds"]) if agg["seconds"] else None
        )
        agg["seconds"] = round(agg["seconds"], 6)
    def _ratio(num: str, den: str):
        hi = totals[num]["instrs_per_sec"]
        lo = totals[den]["instrs_per_sec"]
        return round(hi / lo, 3) if hi and lo else None

    speedups = {
        "threaded/oracle": _ratio("threaded", "oracle"),
        "tier2/oracle": _ratio("tier2", "oracle"),
        "tier2/threaded": _ratio("tier2", "threaded"),
    }
    return {
        "bench": "engine",
        "scale": scale,
        "profile": profile_name,
        "fuel": fuel,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workloads": rows,
        "totals": totals,
        # legacy key read by older perf-gate baselines
        "speedup": speedups["threaded/oracle"],
        "speedups": speedups,
    }


def _speedup(per_mode: dict, engine: str = "threaded") -> float:
    oracle = per_mode["oracle"]["instrs_per_sec"] or 0
    tier = per_mode[engine]["instrs_per_sec"] or 0
    return tier / oracle if oracle else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "large"))
    parser.add_argument("--profile", default="x86_p4")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke: workloads {', '.join(QUICK_WORKLOADS)} at small scale",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless threaded and tier2 both beat oracle",
    )
    parser.add_argument("-o", "--output",
                        default="results/ci/BENCH_engine.json",
                        metavar="FILE", help="JSON report path")
    args = parser.parse_args(argv)

    from repro.workloads import workload_names

    if args.quick:
        scale = "small"
        names = list(QUICK_WORKLOADS)
    else:
        scale = args.scale
        names = list(workload_names())

    from repro.eval.runner import DEFAULT_FUEL

    report = bench(scale, names, args.profile, DEFAULT_FUEL)
    totals = report["totals"]
    speedups = report["speedups"]
    print(
        f"\ntotal: oracle {totals['oracle']['instrs_per_sec']:,} i/s, "
        f"threaded {totals['threaded']['instrs_per_sec']:,} i/s, "
        f"tier2 {totals['tier2']['instrs_per_sec']:,} i/s "
        f"-> thr/oracle {speedups['threaded/oracle']:.2f}x, "
        f"t2/oracle {speedups['tier2/oracle']:.2f}x, "
        f"t2/thr {speedups['tier2/threaded']:.2f}x "
        f"({len(report['workloads'])} workloads, scale={scale})"
    )
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check:
        failed = False
        for key in ("threaded/oracle", "tier2/oracle"):
            ratio = speedups[key]
            if ratio is None or ratio <= 1.0:
                print(f"FAIL: {key} speedup is {ratio} (must exceed 1.0)",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
