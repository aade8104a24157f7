#!/usr/bin/env python3
"""Every correctness gate of the simulator, on one differential harness.

Five slices run reference -> candidate cells through
:mod:`repro.eval.differential` and fail on the first field a candidate
differs on (``ARCH``: output, exit code, retired count, class counts;
``ALL``: those plus the per-category cycle breakdown):

- ``engines`` — 12 workloads x {native, sdt} x {clean, fuel 5000, chaos
  (sdt only)}: oracle -> threaded, tier2 on ``ALL`` plus ``pc`` and
  registers.  Bars: in each harness at least one promotion and no
  region compile error; at least one ``deopt.fuel`` at the SDT's fuel
  stops and one ``discard.*`` under its chaos plan.
- ``faults`` — 12 workloads x {reentry, ibtc, sieve}: clean ->
  ``chaos:1234`` on ``ARCH``.  Bar: every cell injects a fault.
- ``storm`` — gzip/bzip2/vortex/perl x 3 mechanisms at 1 KiB: clean ->
  ``storm:1234`` on ``ARCH``.  Bar: at least 100 checked flushes.
- ``coherence`` — 3 self-modifying scenarios x 3 mechanisms x {flush,
  page, targeted}: reference interpreter -> SDT under chaos at 2 KiB on
  ``ARCH``.  Bar: at least one checked selective invalidation.
- ``static`` — 12 workloads x {simple, x86_p4} x 3 mechanisms:
  ``static_targets`` off -> on, both under chaos, on ``ARCH``.  Bars:
  zero ``escaped`` dispatches and devirt-guard mismatches, at least one
  ``devirt_hit``.

No run may report an invariant-checker violation.  Every SDT cell names
its fault plan (``None`` when clean), so the report does not depend on
``REPRO_FAULTS``; promotion is forced hot (``REPRO_TIER2_THRESHOLD=4``)
so tiny runs form regions.  Three gates that do not compare two runs
follow: the target-set certificates against the committed strict
baseline, the dynamic-in-static cross-validation and the E13 chaos
smoke.

Writes ``results/ci/DIFFERENTIAL_report.json`` and exits non-zero on any
failure::

    python scripts/differential.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

from repro.analysis.targets import analyze_targets, verify_report
from repro.eval.differential import ALL, ARCH, HARNESSES, diff, observe
from repro.eval.parallel import run_experiments
from repro.eval.runner import clear_caches
from repro.eval.static_dynamic import cross_validate_suite
from repro.host.profile import SIMPLE, X86_P4
from repro.lang import compile_to_program
from repro.sdt.config import COHERENCE_POLICIES
from repro.workloads import coherence_suite, get_workload, workload_names

CHAOS = "chaos:1234"
STORM = "storm:1234"
SCALE = "tiny"
MECHANISMS = ("reentry", "ibtc", "sieve")
#: Promotion threshold: hot enough that tiny runs form regions.
THRESHOLD = "4"
#: Fuel for the engines slice's fuel variant: every workload stops mid-run.
SHORT_FUEL = 5000
STORM_WORKLOADS = ("gzip_like", "bzip2_like", "vortex_like", "perl_like")
MIN_STORM_FLUSHES = 100
#: ``faults.*`` counters the injector fires (the other ``faults.*`` keys
#: count recoveries and checker walks).
INJECTED = ("faults.flush_storm", "faults.ibtc.", "faults.sieve.",
            "faults.translate_fail", "faults.plan_perturb.")
EXAMPLES = Path("examples/guest")
REPORT_PATH = Path("results/ci/DIFFERENTIAL_report.json")

#: Committed ``unknown``-verdict baseline per workload (the --strict
#: bar).  crafty_like's single unknown is the return of its never-called
#: ``_start`` shim (zero recorded return sites — nothing to bound, and
#: the site never dispatches).  Any workload exceeding its baseline is a
#: precision regression and fails the gate.
STRICT_BASELINE = {"crafty_like": 1}


def _program(name: str):
    return get_workload(name, SCALE).compile()


def _sum(counters: Counter, prefixes: str | tuple[str, ...]) -> int:
    return sum(n for key, n in counters.items() if key.startswith(prefixes))


def _bar(failures: list[str], what: str, count: int, *, floor: int = 1,
         ceiling: int | None = None) -> None:
    """Report one bar's count and fail outside ``[floor, ceiling]``."""
    print(f"  {what}: {count}")
    if count < floor or (ceiling is not None and count > ceiling):
        bound = f"<= {ceiling}" if ceiling is not None else f">= {floor}"
        failures.append(f"{what}: {count} (need {bound})")


# -- slices: each yields (label, fields, reference, candidates) ---------------

def engines(failures: list[str]):
    """oracle -> threaded, tier2 in both harnesses: clean, at a fuel stop
    and (SDT only) under chaos."""
    variants = {
        "native": {"clean": {}, "fuel": {"fuel": SHORT_FUEL}},
        "sdt": {"clean": {"faults": None},
                "fuel": {"fuel": SHORT_FUEL, "faults": None},
                "chaos": {"faults": CHAOS}},
    }
    tier2: defaultdict[str, Counter] = defaultdict(Counter)
    for name in workload_names():
        program = _program(name)
        for harness in HARNESSES:
            for variant, kwargs in variants[harness].items():
                reference = observe(program, harness, engine="oracle",
                                    **kwargs)
                candidates = {
                    engine: observe(program, harness, engine=engine, **kwargs)
                    for engine in ("threaded", "tier2")
                }
                tier2[harness].update(candidates["tier2"].counters)
                tier2[f"{harness}/{variant}"].update(
                    candidates["tier2"].counters)
                # a fuel stop leaves cpu.pc on the next unexecuted
                # instruction, a clean exit where the exit sent it
                yield (f"{name}/{harness}/{variant}", ALL + ("pc", "regs"),
                       reference, candidates)
    for harness in HARNESSES:
        _bar(failures, f"engines {harness} promotions",
             tier2[harness]["tier2.promote"])
        _bar(failures, f"engines {harness} compile errors",
             tier2[harness]["tier2.compile_error"], floor=0, ceiling=0)
    _bar(failures, "engines sdt/fuel deopt.fuel",
         tier2["sdt/fuel"]["tier2.deopt.fuel"])
    _bar(failures, "engines sdt/chaos discards",
         _sum(tier2["sdt/chaos"], "tier2.discard."))


def faults(failures: list[str]):
    """Clean -> ``chaos:1234`` on every workload and mechanism."""
    injected = {}
    for mechanism in MECHANISMS:
        for name in workload_names():
            program = _program(name)
            label = f"{name}/{mechanism}"
            chaos = observe(program, "sdt", ib=mechanism, faults=CHAOS)
            injected[label] = _sum(chaos.counters, INJECTED)
            clean = observe(program, "sdt", ib=mechanism, faults=None)
            yield label, ARCH, clean, {CHAOS: chaos}
    fewest = min(injected, key=injected.get)
    _bar(failures, f"faults fewest injected ({fewest})", injected[fewest])


def storm(failures: list[str]):
    """Clean -> ``storm:1234`` with a 1 KiB fragment cache."""
    flushes = 0
    for mechanism in MECHANISMS:
        for name in STORM_WORKLOADS:
            program = _program(name)
            clean, stormy = (
                observe(program, "sdt", ib=mechanism, faults=plan,
                        fragment_cache_bytes=1024)
                for plan in (None, STORM)
            )
            flushes += stormy.counters["checker.flushes_checked"]
            yield f"{name}/{mechanism}", ARCH, clean, {STORM: stormy}
    _bar(failures, "storm checked flushes", flushes,
         floor=MIN_STORM_FLUSHES)


def coherence(failures: list[str]):
    """Reference interpreter -> SDT under chaos at 2 KiB, for every
    self-modifying scenario, mechanism and invalidating policy."""
    invalidations = 0
    for workload in coherence_suite(SCALE):
        program = workload.compile()
        reference = observe(program, "native", engine="oracle")
        for mechanism in MECHANISMS:
            for policy in COHERENCE_POLICIES:
                if policy == "none":
                    continue  # would execute stale fragments by design
                sdt = observe(program, "sdt", ib=mechanism, coherence=policy,
                              faults=CHAOS, fragment_cache_bytes=2048)
                invalidations += sdt.counters["checker.invalidations_checked"]
                yield (f"{workload.name}/{mechanism}/coh={policy}", ARCH,
                       reference, {"sdt": sdt})
    _bar(failures, "coherence checked invalidations", invalidations)


def static(failures: list[str]):
    """``static_targets`` off -> on, both under chaos, on every workload,
    profile and mechanism."""
    totals: Counter = Counter()
    for profile in (SIMPLE, X86_P4):
        for mechanism in MECHANISMS:
            for name in workload_names():
                program = _program(name)
                off, on = (
                    observe(program, "sdt", profile=profile, ib=mechanism,
                            static_targets=static_targets, faults=CHAOS)
                    for static_targets in (False, True)
                )
                totals.update(on.counters)
                yield (f"{name}/{profile.name}/{mechanism}", ARCH, off,
                       {"static": on})
    _bar(failures, "static escaped", totals["static.escaped"],
         floor=0, ceiling=0)
    _bar(failures, "static devirt_mismatch",
         totals["static.devirt_mismatch"], floor=0, ceiling=0)
    _bar(failures, "static devirt_hit", totals["static.devirt_hit"])


SLICES = (engines, faults, storm, coherence, static)


def run_slice(slice_fn, failures: list[str], report: dict) -> None:
    """Diff every cell of one slice and record it."""
    name = slice_fn.__name__
    print(f"{name}:", flush=True)
    records = report["slices"][name] = []
    for label, fields, reference, candidates in slice_fn(failures):
        diverged = {}
        for candidate, observation in candidates.items():
            field = diff(reference, observation, fields)
            if field is not None:
                diverged[candidate] = field
                failures.append(f"{name} {label}: {candidate} differs "
                                f"from the reference on {field}")
        for side, observation in (("reference", reference),
                                  *candidates.items()):
            violations = observation.counters["checker.violations"]
            if violations:
                failures.append(f"{name} {label}: {violations} invariant "
                                f"violation(s) in the {side} run")
        records.append({
            "cell": label,
            "diverged": diverged,
            "counters": {candidate: observation.counters
                         for candidate, observation in candidates.items()},
        })
    print(f"  {len(records)} cells, "
          f"{sum(bool(r['diverged']) for r in records)} diverged",
          flush=True)


# -- gates that do not compare two runs ---------------------------------------

def check_certificates(failures: list[str], report: dict) -> None:
    images: list[tuple[str, object]] = [
        (name, _program(name)) for name in workload_names()
    ]
    for path in sorted(EXAMPLES.glob("*.mc")):
        images.append((path.name, compile_to_program(path.read_text())))

    for label, program in images:
        ts = analyze_targets(program)
        problems = verify_report(ts)
        counts = ts.verdict_counts()
        report["certificates"].append(
            {"image": label, "counts": counts, "violations": problems}
        )
        for problem in problems:
            failures.append(f"{label}: certificate check: {problem}")
        allowed = STRICT_BASELINE.get(label, 0)
        if label.endswith("_like") and counts.get("unknown", 0) > allowed:
            failures.append(
                f"{label}: {counts['unknown']} unknown verdict(s) "
                f"(baseline {allowed}) — strict precision regression"
            )
    examples = len(images) - len(workload_names())
    print(f"certs:     {len(images)} images verified "
          f"({examples} compiled examples)", flush=True)


def check_cross_validation(failures: list[str], report: dict) -> None:
    for cv in cross_validate_suite(scale=SCALE):
        record = cv.to_dict()
        del record["per_site"]  # keep the artifact small
        report["crossval"].append(record)
        if not cv.all_sound:
            failures.append(
                f"{cv.workload}: dynamic target outside the static set "
                f"({len(cv.violations)} site(s))"
            )
    print(f"crossval:  {len(report['crossval'])} workloads, "
          f"dynamic ⊆ static required", flush=True)


def check_e13(failures: list[str], report: dict) -> None:
    # faulted cells are memoised and disk-cached like clean ones: clear
    # the memo and pass no disk cache, so every chaos cell really runs
    clear_caches()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-e13-") as workdir:
        tables, exec_report = run_experiments(["e13"], scale=SCALE,
                                              results_dir=Path(workdir))
    if not exec_report.ok:
        failures.append(
            f"e13 executor quarantined {len(exec_report.failures)} cell(s)"
        )
        return
    headers, rows = tables["e13"]
    clean_fl = headers.index("fl")
    chaos_fl = headers.index("fl*")
    for row in rows:
        if row[chaos_fl] < row[clean_fl]:
            failures.append(f"e13 row {row[0]}: chaos flush volume "
                            f"below clean")
    report["e13_rows"] = len(rows)
    print(f"e13 smoke: {len(rows)} rows regenerated at {SCALE} scale",
          flush=True)


def main() -> int:
    os.environ["REPRO_TIER2_THRESHOLD"] = THRESHOLD
    failures: list[str] = []
    report: dict = {"scale": SCALE, "threshold": int(THRESHOLD),
                    "slices": {}, "certificates": [], "crossval": []}

    for slice_fn in SLICES:
        run_slice(slice_fn, failures, report)
    check_certificates(failures, report)
    check_cross_validation(failures, report)
    check_e13(failures, report)

    report["failures"] = failures
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    print(f"report:    {REPORT_PATH}", flush=True)

    if failures:
        print("\nDIFFERENTIAL CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("differential check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
