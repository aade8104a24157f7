#!/usr/bin/env python3
"""CI differential for the tier-2 region JIT (``engine="tier2"``).

Runs every workload in the suite through all three execution engines
(oracle, threaded, tier2) in both harnesses (native interpreter and the
SDT VM) and asserts byte-identical architectural results *and* an
identical per-category cycle breakdown — clean and under the pinned
``chaos:1234`` fault plan.
The chaos variant exercises the deopt paths: superblock plans are
perturbed mid-run, so compiled regions must bail to the threaded tier
through their guards without drifting a single retired instruction.

A fuel-limited pass additionally forces the fuel guard: regions may
never retire past the budget, so a region whose next member exceeds the
remaining fuel must deoptimize (``deopt.fuel``) and let the threaded
tier hit the boundary exactly.

The aggregate bar (any miss fails CI):

* zero divergences across every workload x harness x variant cell,
* in each harness, zero region compile errors and at least one
  promotion (``vm.stats.tier2`` / ``InterpreterTier2.stats``) — a
  silently cold tier-2 run would pass the differential vacuously,
* at least one deopt observed overall.

Promotion is forced hot (``REPRO_TIER2_THRESHOLD=4``) so even tiny-scale
runs form and re-enter regions.  Writes ``results/ci/TIER2_report.json``
(uploaded as a CI artifact) and exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

CHAOS = "chaos:1234"
SCALE = "tiny"
ENGINES = ("oracle", "threaded", "tier2")
FIELDS = ("output", "exit_code", "retired", "iclass_counts", "cycles")
#: Promotion bar for the differential: hot enough that tiny runs JIT.
THRESHOLD = "4"
#: Fuel for the fuel-guard pass: mid-run, so regions see exhaustion.
SHORT_FUEL = 5000
REPORT_PATH = Path("results/ci/TIER2_report.json")


def _native(program, engine: str, fuel: int | None, faults: str | None):
    from repro.host.costs import HostModel, NativeCostObserver
    from repro.host.profile import SIMPLE
    from repro.machine.errors import FuelExhausted
    from repro.machine.interpreter import Interpreter

    if faults is not None:
        # chaos plans live in the SDT layer; the native harness only
        # runs the clean and fuel-limited variants
        raise AssertionError("native harness has no fault plans")
    model = HostModel(SIMPLE)
    interp = Interpreter(
        program, observer=NativeCostObserver(model), engine=engine
    )
    try:
        result = interp.run(fuel)
        output, exit_code = result.output, result.exit_code
    except FuelExhausted:
        output, exit_code = interp.syscalls.output, None
    return {
        "output": output,
        "exit_code": exit_code,
        "retired": interp.retired,
        "iclass_counts": {
            ic.value: n for ic, n in sorted(
                interp.iclass_counts.items(), key=lambda kv: kv[0].value
            )
        },
        "cycles": model.breakdown(),
        "tier2": dict(interp._tier2.stats) if interp._tier2 else {},
    }


def _sdt(program, engine: str, fuel: int | None, faults: str | None):
    from repro.host.profile import SIMPLE
    from repro.machine.errors import FuelExhausted
    from repro.sdt.config import SDTConfig
    from repro.sdt.vm import SDTVM

    config = SDTConfig(profile=SIMPLE, engine=engine, faults=faults)
    vm = SDTVM(program, config=config)
    try:
        result = vm.run(fuel)
        output, exit_code = result.output, result.exit_code
    except FuelExhausted:
        output, exit_code = vm.syscalls.output, None
    return {
        "output": output,
        "exit_code": exit_code,
        "retired": vm.retired,
        "iclass_counts": {
            ic.value: n for ic, n in sorted(
                vm.iclass_counts.items(), key=lambda kv: kv[0].value
            )
        },
        "cycles": vm.model.breakdown(),
        "tier2": dict(vm.stats.tier2),
    }


def _diff_cell(failures, report, name, harness, variant, runner, program,
               fuel, faults, tier2_totals) -> None:
    from repro.eval.runner import DEFAULT_FUEL

    per_engine = {
        engine: runner(program, engine, fuel or DEFAULT_FUEL, faults)
        for engine in ENGINES
    }
    cell = f"{name}/{harness}/{variant}"
    oracle = per_engine["oracle"]
    diverged = []
    for engine in ("threaded", "tier2"):
        for field in FIELDS:
            if per_engine[engine][field] != oracle[field]:
                diverged.append(f"{engine}.{field}")
                failures.append(
                    f"{cell}: {engine} diverged from oracle on {field}"
                )
    stats = per_engine["tier2"]["tier2"]
    totals = tier2_totals[harness]
    for key, value in stats.items():
        totals[key] = totals.get(key, 0) + value
    report["cells"].append({
        "workload": name, "harness": harness, "variant": variant,
        "retired": oracle["retired"], "cycles": oracle["cycles"],
        "diverged": diverged, "tier2": stats,
    })


def main() -> int:
    os.environ["REPRO_TIER2_THRESHOLD"] = THRESHOLD
    from repro.workloads import get_workload, workload_names

    failures: list[str] = []
    tier2_totals: dict[str, dict[str, int]] = {"native": {}, "sdt": {}}
    report: dict = {"scale": SCALE, "threshold": int(THRESHOLD),
                    "cells": []}

    for name in workload_names():
        program = get_workload(name, SCALE).compile()
        for harness, runner in (("native", _native), ("sdt", _sdt)):
            variants = [("clean", None, None), ("fuel", SHORT_FUEL, None)]
            if harness == "sdt":
                variants.append(("chaos", None, CHAOS))
            for variant, fuel, faults in variants:
                _diff_cell(failures, report, name, harness, variant,
                           runner, program, fuel, faults, tier2_totals)
        print(f"{name:16s} ok" if not failures else
              f"{name:16s} {len(failures)} failure(s) so far", flush=True)

    report["tier2_totals"] = tier2_totals
    for harness, totals in tier2_totals.items():
        if totals.get("promote", 0) == 0:
            failures.append(
                f"{harness}: tier2 never promoted a region (vacuous pass)"
            )
        if totals.get("compile_error", 0):
            failures.append(
                f"{harness}: {totals['compile_error']} region compile "
                "error(s)"
            )
    deopts = sum(v for totals in tier2_totals.values()
                 for k, v in totals.items() if k.startswith("deopt."))
    if deopts == 0:
        failures.append("tier2 never deoptimized (guards untested)")

    report["failures"] = failures
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{len(report['cells'])} differential cells, {deopts} deopts")
    for harness, totals in tier2_totals.items():
        print(f"{harness:6s}: {totals.get('promote', 0)} promotions, "
              f"{totals.get('compile_error', 0)} compile errors")
    print(f"report: {REPORT_PATH}")

    if failures:
        print("\nTIER2 CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("tier2 check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
