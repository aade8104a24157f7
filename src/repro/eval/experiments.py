"""E1–E15: the specs that regenerate the paper's tables and figures.

Each experiment is declared in two halves so the shared executor
(:mod:`repro.eval.parallel`) can schedule, deduplicate, parallelise and
persist the underlying simulations:

- ``cells(scale)`` — the declarative list of :class:`repro.eval.cells.Cell`
  grid cells the experiment needs (duplicates across experiments are
  simulated once; e.g. E9 reuses the whole E3 grid and the
  ``ibtc(shared,4096)`` column is shared by E3/E4/E6/E9),
- ``build(lookup, scale)`` — assembles ``(headers, rows)`` from the cell
  results, in declared order, so output is byte-identical whatever the
  worker count or execution order.

:func:`repro.eval.parallel.run_experiment` (one) and
:func:`~repro.eval.parallel.run_experiments` (several, ``repro-sdt
experiments``) run them and persist each table under ``results/`` via
:func:`repro.eval.report.write_results`.  See DESIGN.md for the
experiment index and EXPERIMENTS.md for paper-vs-measured notes.

The default host profile for single-architecture experiments is the
P4-like x86 profile (the paper's headline machine); E8 sweeps all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval.cells import Cell, fanout_cell, measure_cell, native_cell
from repro.eval.report import geomean
from repro.host.profile import ArchProfile, SPARC_US3, X86_K8, X86_P4
from repro.sdt.cache import DEFAULT_CAPACITY
from repro.sdt.config import SDTConfig
from repro.workloads import workload_names

DEFAULT_PROFILE = X86_P4

#: IBTC sizes swept in E3/E4/E9 (entries).
IBTC_SIZES = (16, 64, 256, 1024, 4096, 16384)
#: Sieve bucket counts swept in E5.
SIEVE_SIZES = (32, 128, 512, 2048)
#: The tuned configurations compared head-to-head in E6/E8.
BEST_IBTC = 4096
BEST_SIEVE = 512

#: ``build`` receives this: resolves a declared cell to its result.
CellLookup = Callable[[Cell], object]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, split into a cell list and a table builder."""

    name: str       #: short id ("e3")
    slug: str       #: results/ file stem ("e3_ibtc_sweep")
    title: Callable[[str], str]
    cells: Callable[[str], list[Cell]]
    build: Callable[[CellLookup, str], tuple[list[str], list[list[object]]]]


def _suite_names() -> list[str]:
    return workload_names()


def _overhead_row_foot(
    rows: list[list[object]], first_data_col: int = 1
) -> list[object]:
    """Geomean row across the numeric columns of per-workload rows."""
    foot: list[object] = ["geomean"]
    for col in range(first_data_col, len(rows[0])):
        foot.append(geomean([float(row[col]) for row in rows]))
    return foot


# -- E1: Table 1 — indirect branch characteristics ---------------------------


def _cells_e1(scale: str) -> list[Cell]:
    return [native_cell(name, scale, DEFAULT_PROFILE)
            for name in _suite_names()]


def _build_e1(lookup: CellLookup, scale: str):
    headers = [
        "benchmark", "retired", "ijump", "icall", "ret",
        "IB total", "instrs/IB",
    ]
    rows: list[list[object]] = []
    for name in _suite_names():
        base = lookup(native_cell(name, scale, DEFAULT_PROFILE))
        total = base.indirect_branches
        rows.append(
            [
                name, base.retired, base.ijumps, base.icalls, base.rets,
                total, round(base.retired / max(total, 1), 1),
            ]
        )
    return headers, rows


# -- E2: baseline overhead (translator re-entry on every IB) -----------------


def _e2_configs() -> dict[str, SDTConfig]:
    return {
        "reentry": SDTConfig(profile=DEFAULT_PROFILE, ib="reentry"),
        "reentry+nolink": SDTConfig(
            profile=DEFAULT_PROFILE, ib="reentry", linking=False
        ),
    }


def _cells_e2(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, config)
        for name in _suite_names()
        for config in _e2_configs().values()
    ]


def _build_e2(lookup: CellLookup, scale: str):
    configs = _e2_configs()
    headers = ["benchmark"] + list(configs)
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for config in configs.values():
            row.append(lookup(measure_cell(name, scale, config)).overhead)
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E3: shared IBTC size sweep ------------------------------------------------


def _e3_config(size: int) -> SDTConfig:
    return SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                     ibtc_entries=size, ibtc_shared=True)


def _cells_e3(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, _e3_config(size))
        for name in _suite_names()
        for size in IBTC_SIZES
    ]


def _build_e3(lookup: CellLookup, scale: str):
    headers = ["benchmark"] + [str(size) for size in IBTC_SIZES]
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for size in IBTC_SIZES:
            row.append(
                lookup(measure_cell(name, scale, _e3_config(size))).overhead
            )
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E4: shared vs per-site IBTC ------------------------------------------------

E4_SHARED_SIZES = (64, 1024, 4096)
E4_PERSITE_SIZES = (4, 16, 64)


def _e4_config(size: int, shared: bool) -> SDTConfig:
    return SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                     ibtc_entries=size, ibtc_shared=shared)


def _cells_e4(scale: str) -> list[Cell]:
    cells = []
    for name in _suite_names():
        for size in E4_SHARED_SIZES:
            cells.append(measure_cell(name, scale, _e4_config(size, True)))
        for size in E4_PERSITE_SIZES:
            cells.append(measure_cell(name, scale, _e4_config(size, False)))
    return cells


def _build_e4(lookup: CellLookup, scale: str):
    headers = (
        ["benchmark"]
        + [f"shared/{s}" for s in E4_SHARED_SIZES]
        + [f"persite/{s}" for s in E4_PERSITE_SIZES]
    )
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for size in E4_SHARED_SIZES:
            row.append(
                lookup(measure_cell(name, scale, _e4_config(size, True)))
                .overhead
            )
        for size in E4_PERSITE_SIZES:
            row.append(
                lookup(measure_cell(name, scale, _e4_config(size, False)))
                .overhead
            )
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E5: sieve bucket sweep -------------------------------------------------------


def _e5_config(buckets: int) -> SDTConfig:
    return SDTConfig(profile=DEFAULT_PROFILE, ib="sieve",
                     sieve_buckets=buckets)


def _cells_e5(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, _e5_config(buckets))
        for name in _suite_names()
        for buckets in SIEVE_SIZES
    ]


def _build_e5(lookup: CellLookup, scale: str):
    headers = ["benchmark"] + [str(b) for b in SIEVE_SIZES]
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for buckets in SIEVE_SIZES:
            row.append(
                lookup(measure_cell(name, scale, _e5_config(buckets)))
                .overhead
            )
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E6: tuned mechanism comparison --------------------------------------------------


def _e6_configs(profile: ArchProfile) -> dict[str, SDTConfig]:
    return {
        "reentry": SDTConfig(profile=profile, ib="reentry"),
        "ibtc": SDTConfig(profile=profile, ib="ibtc", ibtc_entries=BEST_IBTC),
        "sieve": SDTConfig(profile=profile, ib="sieve",
                           sieve_buckets=BEST_SIEVE),
        "ibtc+fastret": SDTConfig(profile=profile, ib="ibtc",
                                  ibtc_entries=BEST_IBTC, returns="fast"),
    }


def _cells_e6(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, config)
        for name in _suite_names()
        for config in _e6_configs(DEFAULT_PROFILE).values()
    ]


def _build_e6(lookup: CellLookup, scale: str):
    configs = _e6_configs(DEFAULT_PROFILE)
    headers = ["benchmark"] + list(configs)
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for config in configs.values():
            row.append(lookup(measure_cell(name, scale, config)).overhead)
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E7: return handling ------------------------------------------------------------

E7_SCHEMES = ("same", "shadow", "retcache", "fast")


def _e7_config(scheme: str) -> SDTConfig:
    return SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                     ibtc_entries=BEST_IBTC, returns=scheme)


def _cells_e7(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, _e7_config(scheme))
        for name in _suite_names()
        for scheme in E7_SCHEMES
    ]


def _build_e7(lookup: CellLookup, scale: str):
    headers = ["benchmark"] + [f"ret={s}" for s in E7_SCHEMES]
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for scheme in E7_SCHEMES:
            row.append(
                lookup(measure_cell(name, scale, _e7_config(scheme)))
                .overhead
            )
        rows.append(row)
    rows.append(_overhead_row_foot(rows))
    return headers, rows


# -- E8: cross-architecture sensitivity ------------------------------------------------

E8_PROFILES = (X86_P4, X86_K8, SPARC_US3)


def _cells_e8(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, config)
        for profile in E8_PROFILES
        for config in _e6_configs(profile).values()
        for name in _suite_names()
    ]


def _build_e8(lookup: CellLookup, scale: str):
    config_names = list(_e6_configs(X86_P4))
    headers = ["profile"] + config_names + ["winner"]
    rows: list[list[object]] = []
    for profile in E8_PROFILES:
        configs = _e6_configs(profile)
        row: list[object] = [profile.name]
        means = []
        for config in configs.values():
            overheads = [
                lookup(measure_cell(name, scale, config)).overhead
                for name in _suite_names()
            ]
            means.append(geomean(overheads))
        row.extend(means)
        row.append(config_names[means.index(min(means))])
        rows.append(row)
    return headers, rows


# -- E9: IBTC hit rates -----------------------------------------------------------------


def _cells_e9(scale: str) -> list[Cell]:
    # the exact E3 grid: cross-experiment dedup makes E9 free after E3
    return _cells_e3(scale)


def _build_e9(lookup: CellLookup, scale: str):
    headers = ["benchmark"] + [str(size) for size in IBTC_SIZES]
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        for size in IBTC_SIZES:
            m = lookup(measure_cell(name, scale, _e3_config(size)))
            mechanism = f"ibtc-shared-{size}"
            row.append(m.hit_rates.get(mechanism, 0.0))
        rows.append(row)
    return headers, rows


# -- E10: design-choice ablations ---------------------------------------------------


def _e10_ablations() -> dict[str, tuple[SDTConfig, SDTConfig]]:
    return {
        "ibtc inline vs outline": (
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, ibtc_inline=True),
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, ibtc_inline=False),
        ),
        "ibtc hash fold vs shift": (
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=64, ibtc_hash="fold"),
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=64, ibtc_hash="shift"),
        ),
        "sieve prepend vs append": (
            SDTConfig(profile=DEFAULT_PROFILE, ib="sieve",
                      sieve_buckets=16, sieve_policy="prepend"),
            SDTConfig(profile=DEFAULT_PROFILE, ib="sieve",
                      sieve_buckets=16, sieve_policy="append"),
        ),
        "linking on vs off": (
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, linking=True),
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, linking=False),
        ),
        "blocks vs traces": (
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, trace_jumps=False),
            SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                      ibtc_entries=BEST_IBTC, trace_jumps=True),
        ),
    }


def _cells_e10(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, config)
        for base_config, variant_config in _e10_ablations().values()
        for config in (base_config, variant_config)
        for name in _suite_names()
    ]


def _build_e10(lookup: CellLookup, scale: str):
    headers = ["ablation", "base", "variant", "variant/base"]
    rows: list[list[object]] = []
    for name, (base_config, variant_config) in _e10_ablations().items():
        base = geomean(
            [lookup(measure_cell(w, scale, base_config)).overhead
             for w in _suite_names()]
        )
        variant = geomean(
            [lookup(measure_cell(w, scale, variant_config)).overhead
             for w in _suite_names()]
        )
        rows.append([name, base, variant, variant / base])
    return headers, rows


# -- E11: per-site target fan-out ------------------------------------------------


def _cells_e11(scale: str) -> list[Cell]:
    return [fanout_cell(name, scale) for name in _suite_names()]


def _build_e11(lookup: CellLookup, scale: str):
    headers = [
        "benchmark", "IB sites", "mono", "2-4", "5-16", ">16",
        "mono disp%", ">16 disp%", "max fanout", "wmean fanout",
    ]
    rows: list[list[object]] = []
    for name in _suite_names():
        profile = lookup(fanout_cell(name, scale))
        rows.append(
            [
                name,
                len(profile.sites),
                profile.sites_with_fanout(1, 1),
                profile.sites_with_fanout(2, 4),
                profile.sites_with_fanout(5, 16),
                profile.sites_with_fanout(17),
                round(100 * profile.dispatch_share(1, 1), 1),
                round(100 * profile.dispatch_share(17), 1),
                profile.max_fanout,
                round(profile.weighted_mean_fanout, 2),
            ]
        )
    return headers, rows


# -- E12: overhead vs site fan-out (synthetic sweep) -----------------------------

E12_FANOUTS = (1, 2, 4, 8, 16, 32)
E12_ITERATIONS = {"tiny": 500, "small": 2000, "large": 8000}


def _e12_configs() -> dict[str, SDTConfig]:
    return {
        "reentry": SDTConfig(profile=DEFAULT_PROFILE, ib="reentry"),
        "ibtc": SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc"),
        "ibtc+predict": SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                                  inline_predict=True),
        "sieve": SDTConfig(profile=DEFAULT_PROFILE, ib="sieve"),
    }


def _e12_workload(fanout: int, skewed: bool, scale: str):
    from repro.workloads.microbench import dispatch_microbench

    return dispatch_microbench(
        fanout, iterations=E12_ITERATIONS[scale], skewed=skewed
    )


def _cells_e12(scale: str) -> list[Cell]:
    return [
        measure_cell(_e12_workload(fanout, skewed, scale), scale, config)
        for skewed in (False, True)
        for fanout in E12_FANOUTS
        for config in _e12_configs().values()
    ]


def _build_e12(lookup: CellLookup, scale: str):
    """Overhead of each mechanism as one site's fan-out grows.

    A controlled version of the paper's polymorphism discussion: with a
    uniform (round-robin) target pattern the host BTB — and the inline
    target prediction — collapse as fan-out passes 1, while table-based
    mechanisms only pay the hardware misprediction; a skewed pattern
    restores the cheap cases.  ``scale`` selects iteration count.
    """
    configs = _e12_configs()
    headers = ["site", *configs]
    rows: list[list[object]] = []
    for skewed in (False, True):
        for fanout in E12_FANOUTS:
            workload = _e12_workload(fanout, skewed, scale)
            label = f"{'skew' if skewed else 'unif'}/{fanout}"
            row: list[object] = [label]
            for config in configs.values():
                row.append(
                    lookup(measure_cell(workload, scale, config)).overhead
                )
            rows.append(row)
    return headers, rows


# -- E13: fragment-cache pressure & fault resilience --------------------------

#: Swept fragment-cache capacities (label, bytes).  The floor must stay
#: above the largest single fragment the suite produces (~260 bytes at
#: ``max_fragment_instrs=128``), else ``FragmentTooLarge``; 8M is the
#: effectively-unbounded default.
E13_CAPACITIES: tuple[tuple[str, int], ...] = (
    ("1K", 1024),
    ("2K", 2048),
    ("4K", 4096),
    ("8M", DEFAULT_CAPACITY),
)

#: Pinned fault plan for the starred (chaos) columns.  A fixed seed makes
#: the injected fault sequence — and therefore every chaos cycle count —
#: fully reproducible; the runner still verifies each chaos run against
#: the native baseline, so regenerating E13 re-proves that injected
#: faults never change architectural results.
E13_CHAOS = "chaos:1234"


def _e13_mechs() -> dict[str, dict]:
    return {
        "reentry": dict(ib="reentry"),
        "ibtc": dict(ib="ibtc", ibtc_entries=BEST_IBTC),
        "sieve": dict(ib="sieve", sieve_buckets=BEST_SIEVE),
    }


def _e13_config(
    mech_kwargs: dict, capacity: int, faults: str | None
) -> SDTConfig:
    # faults is passed explicitly (None pins the clean columns clean even
    # under a REPRO_FAULTS environment), so E13 output is env-independent.
    return SDTConfig(
        profile=DEFAULT_PROFILE, fragment_cache_bytes=capacity,
        faults=faults, **mech_kwargs,
    )


def _cells_e13(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, _e13_config(kwargs, capacity, faults))
        for name in _suite_names()
        for kwargs in _e13_mechs().values()
        for _label, capacity in E13_CAPACITIES
        for faults in (None, E13_CHAOS)
    ]


def _build_e13(lookup: CellLookup, scale: str):
    """Overhead and flush volume vs fragment-cache capacity, clean + chaos.

    Per mechanism: geomean overhead over the suite and summed whole-cache
    flush count, fault-free and (starred) under the pinned chaos plan.
    Capacity pressure dominates at the small end; the chaos flush surplus
    (storms, drops, failed translations, demotions) stays visible even
    when the cache is effectively unbounded.
    """
    mechs = _e13_mechs()
    headers = ["capacity"]
    for mech in mechs:
        headers += [mech, "fl", f"{mech}*", "fl*"]
    rows: list[list[object]] = []
    for label, capacity in E13_CAPACITIES:
        row: list[object] = [label]
        for kwargs in mechs.values():
            for faults in (None, E13_CHAOS):
                cells = [
                    lookup(measure_cell(
                        name, scale, _e13_config(kwargs, capacity, faults)
                    ))
                    for name in _suite_names()
                ]
                row.append(geomean([m.overhead for m in cells]))
                row.append(sum(m.stats["cache_flushes"] for m in cells))
        rows.append(row)
    return headers, rows


# -- E14: static target-set analysis — devirtualization & preseeding ----------


def _e14_mechs() -> dict[str, dict]:
    return {
        "reentry": dict(ib="reentry"),
        "ibtc": dict(ib="ibtc", ibtc_entries=BEST_IBTC),
        "sieve": dict(ib="sieve", sieve_buckets=BEST_SIEVE),
    }


def _e14_config(mech_kwargs: dict, static: bool) -> SDTConfig:
    return SDTConfig(
        profile=DEFAULT_PROFILE, static_targets=static, **mech_kwargs,
    )


def _cells_e14(scale: str) -> list[Cell]:
    return [
        measure_cell(name, scale, _e14_config(kwargs, static))
        for name in _suite_names()
        for kwargs in _e14_mechs().values()
        for static in (False, True)
    ]


def _build_e14(lookup: CellLookup, scale: str):
    """Effect of translator-time devirtualization + IBTC/sieve preseeding.

    Per mechanism: overhead without and with ``static_targets``, plus the
    IB-dispatch cycle delta (positive = cycles saved by the static
    pipeline).  The final column is the dispatch-weighted static
    precision (share of dynamic IB resolutions whose target the analysis
    predicted); ``escaped`` dispatches would be soundness violations and
    the crossval oracle pins them to zero.  Architectural results are
    verified identical on/off by the runner for every cell.
    """
    mechs = _e14_mechs()
    headers = ["benchmark"]
    for mech in mechs:
        headers += [mech, f"{mech}+s", f"Δib({mech})"]
    headers.append("precision")
    rows: list[list[object]] = []
    for name in _suite_names():
        row: list[object] = [name]
        precision = 0.0
        for kwargs in mechs.values():
            off = lookup(measure_cell(name, scale, _e14_config(kwargs, False)))
            on = lookup(measure_cell(name, scale, _e14_config(kwargs, True)))
            row += [
                off.overhead, on.overhead,
                off.ib_overhead_cycles - on.ib_overhead_cycles,
            ]
            static = on.stats.get("static") or {}
            scored = sum(static.get(k, 0)
                         for k in ("predicted", "unpredicted", "escaped"))
            if scored:
                precision = static.get("predicted", 0) / scored
        row.append(round(precision, 4))
        rows.append(row)
    foot: list[object] = ["geomean/sum"]
    for col in range(1, len(headers) - 1):
        values = [float(row[col]) for row in rows]
        if headers[col].startswith("Δib"):
            foot.append(sum(int(v) for v in values))
        else:
            foot.append(geomean(values))
    foot.append(round(
        sum(float(row[-1]) for row in rows) / max(len(rows), 1), 4
    ))
    rows.append(foot)
    return headers, rows


# -- E15: code-cache coherence — invalidation policy cost ---------------------

#: Invalidation policies compared (``none`` would execute stale fragments
#: on these guests, so it is excluded by construction).
E15_POLICIES = ("flush", "page", "targeted")

#: Capacities: unconstrained, plus one E13-style pressure point so
#: coherence invalidations compound with capacity flushes.
E15_CAPACITIES: tuple[tuple[str, int], ...] = (
    ("2K", 2048),
    ("8M", DEFAULT_CAPACITY),
)


def _e15_mechs() -> dict[str, dict]:
    return {
        "reentry": dict(ib="reentry"),
        "ibtc": dict(ib="ibtc", ibtc_entries=BEST_IBTC),
        "sieve": dict(ib="sieve", sieve_buckets=BEST_SIEVE),
    }


def _e15_config(
    mech_kwargs: dict, policy: str, capacity: int
) -> SDTConfig:
    # faults pinned to None so E15 output is env-independent (cf. E13)
    return SDTConfig(
        profile=DEFAULT_PROFILE, coherence=policy,
        fragment_cache_bytes=capacity, faults=None, **mech_kwargs,
    )


def _e15_workloads(scale: str) -> list:
    from repro.workloads.coherence import coherence_suite

    return coherence_suite(scale)


def _cells_e15(scale: str) -> list[Cell]:
    return [
        measure_cell(workload, scale, _e15_config(kwargs, policy, capacity))
        for workload in _e15_workloads(scale)
        for kwargs in _e15_mechs().values()
        for policy in E15_POLICIES
        for _label, capacity in E15_CAPACITIES
    ]


def _build_e15(lookup: CellLookup, scale: str):
    """Invalidation-policy cost on the self-modifying scenario suite.

    Per (scenario, capacity, policy): overhead under each IB mechanism,
    plus the coherence counters (guest code writes seen, fragments
    selectively invalidated, whole-cache flushes) from the IBTC cell —
    the counters are mechanism-independent, only the overhead differs.
    Every cell is verified against the reference interpreter by the
    runner, so this table doubles as the coherence correctness gate:
    flush must cost the most, targeted the least, with page between.
    """
    mechs = _e15_mechs()
    headers = ["scenario", "cap", "policy"]
    headers += list(mechs)
    headers += ["writes", "inval", "flushes"]
    rows: list[list[object]] = []
    for workload in _e15_workloads(scale):
        for cap_label, capacity in E15_CAPACITIES:
            for policy in E15_POLICIES:
                row: list[object] = [workload.name, cap_label, policy]
                stats_cell = None
                for mech, kwargs in mechs.items():
                    cell = lookup(measure_cell(
                        workload, scale, _e15_config(kwargs, policy, capacity)
                    ))
                    row.append(cell.overhead)
                    if mech == "ibtc":
                        stats_cell = cell
                assert stats_cell is not None
                coherence = stats_cell.stats.get("coherence") or {}
                row += [
                    coherence.get("code_writes", 0),
                    coherence.get("fragments_invalidated", 0),
                    stats_cell.stats.get("cache_flushes", 0),
                ]
                rows.append(row)
    return headers, rows


# -- registry -----------------------------------------------------------------

EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="e1",
            slug="e1_ib_characteristics",
            title=lambda scale: (
                f"E1 (Table 1): dynamic indirect-branch characteristics "
                f"[scale={scale}]"
            ),
            cells=_cells_e1,
            build=_build_e1,
        ),
        ExperimentSpec(
            name="e2",
            slug="e2_baseline_overhead",
            title=lambda scale: (
                f"E2 (Fig.): baseline SDT overhead vs native "
                f"({DEFAULT_PROFILE.name}) [scale={scale}]"
            ),
            cells=_cells_e2,
            build=_build_e2,
        ),
        ExperimentSpec(
            name="e3",
            slug="e3_ibtc_sweep",
            title=lambda scale: (
                f"E3 (Fig.): overhead vs shared IBTC entries [scale={scale}]"
            ),
            cells=_cells_e3,
            build=_build_e3,
        ),
        ExperimentSpec(
            name="e4",
            slug="e4_ibtc_scope",
            title=lambda scale: (
                f"E4 (Fig.): shared vs per-site IBTC [scale={scale}]"
            ),
            cells=_cells_e4,
            build=_build_e4,
        ),
        ExperimentSpec(
            name="e5",
            slug="e5_sieve_sweep",
            title=lambda scale: (
                f"E5 (Fig.): overhead vs sieve buckets [scale={scale}]"
            ),
            cells=_cells_e5,
            build=_build_e5,
        ),
        ExperimentSpec(
            name="e6",
            slug="e6_mechanism_comparison",
            title=lambda scale: (
                f"E6 (Fig.): tuned mechanism comparison [scale={scale}]"
            ),
            cells=_cells_e6,
            build=_build_e6,
        ),
        ExperimentSpec(
            name="e7",
            slug="e7_return_handling",
            title=lambda scale: (
                f"E7 (Fig.): return-handling mechanisms (generic=IBTC/"
                f"{BEST_IBTC}) [scale={scale}]"
            ),
            cells=_cells_e7,
            build=_build_e7,
        ),
        ExperimentSpec(
            name="e8",
            slug="e8_cross_arch",
            title=lambda scale: (
                f"E8 (Fig.): cross-architecture geomean overhead "
                f"[scale={scale}]"
            ),
            cells=_cells_e8,
            build=_build_e8,
        ),
        ExperimentSpec(
            name="e9",
            slug="e9_ibtc_hitrate",
            title=lambda scale: (
                f"E9 (Table): shared IBTC hit rates by size [scale={scale}]"
            ),
            cells=_cells_e9,
            build=_build_e9,
        ),
        ExperimentSpec(
            name="e10",
            slug="e10_ablations",
            title=lambda scale: (
                f"E10 (ablations): design choices, geomean overhead "
                f"[scale={scale}]"
            ),
            cells=_cells_e10,
            build=_build_e10,
        ),
        ExperimentSpec(
            name="e11",
            slug="e11_site_fanout",
            title=lambda scale: (
                f"E11 (Table): per-site indirect-branch target fan-out "
                f"[scale={scale}]"
            ),
            cells=_cells_e11,
            build=_build_e11,
        ),
        ExperimentSpec(
            name="e12",
            slug="e12_fanout_sweep",
            title=lambda scale: (
                f"E12 (Fig.): overhead vs dispatch-site fan-out "
                f"[scale={scale}]"
            ),
            cells=_cells_e12,
            build=_build_e12,
        ),
        ExperimentSpec(
            name="e13",
            slug="e13_cache_pressure",
            title=lambda scale: (
                f"E13 (resilience): overhead & flushes vs fragment-cache "
                f"capacity (*: faults={E13_CHAOS}) [scale={scale}]"
            ),
            cells=_cells_e13,
            build=_build_e13,
        ),
        ExperimentSpec(
            name="e14",
            slug="e14_static_targets",
            title=lambda scale: (
                f"E14 (static targets): devirtualization + preseeding "
                f"delta (+s: static_targets on; Δib: IB dispatch cycles "
                f"saved) [scale={scale}]"
            ),
            cells=_cells_e14,
            build=_build_e14,
        ),
        ExperimentSpec(
            name="e15",
            slug="e15_coherence",
            title=lambda scale: (
                f"E15 (coherence): invalidation policy cost on "
                f"self-modifying / dyn-load / mini-JIT scenarios "
                f"[scale={scale}]"
            ),
            cells=_cells_e15,
            build=_build_e15,
        ),
    )
}
