"""E1–E15: the specs that regenerate the paper's tables and figures.

Each experiment declares one *grid*: its cells, nested in the shape its
table reads (dicts and lists whose leaves are
:class:`repro.eval.cells.Cell` values; e.g. ``{workload: {column:
cell}}``).  The shared executor (:mod:`repro.eval.parallel`) flattens
the grid into the experiment's cell list, deduplicates it against the
other experiments' (E9 reuses the whole E3 grid; the
``ibtc(shared,4096)`` column is shared by E3/E4/E6/E9), simulates or
loads each unique cell once, and hands ``build(results, scale)`` the
results in the grid's own shape.  Tables are therefore assembled in
declared order and are byte-identical whatever the worker count or
execution order.

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
from typing import Any, Callable, Mapping

from repro.eval.cells import fanout_cell, measure_cell, native_cell
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

#: The three generic mechanisms at their tuned sizes (E13–E15).
TUNED_MECHS: dict[str, dict] = {
    "reentry": dict(ib="reentry"),
    "ibtc": dict(ib="ibtc", ibtc_entries=BEST_IBTC),
    "sieve": dict(ib="sieve", sieve_buckets=BEST_SIEVE),
}

#: Cells nested in dicts and lists; results come back in the same shape.
Grid = Any
Table = tuple[list[str], list[list[object]]]


class GridCells(list):
    """A grid's cells in declared (depth-first) order.

    It keeps the grid it was flattened from, so :meth:`fill` can hand the
    results back in the shape the experiment's table reads.
    """

    def __init__(self, grid: Grid) -> None:
        super().__init__(_leaves(grid))
        self.grid = grid

    def fill(self, results: Mapping[str, object]) -> Grid:
        """The grid with every cell replaced by ``results[cell.key()]``."""
        return _fill(self.grid, results)


def _leaves(grid: Grid):
    if not isinstance(grid, (dict, list)):
        yield grid
        return
    for item in grid.values() if isinstance(grid, dict) else grid:
        yield from _leaves(item)


def _fill(grid: Grid, results: Mapping[str, object]) -> Grid:
    if isinstance(grid, dict):
        return {key: _fill(item, results) for key, item in grid.items()}
    if isinstance(grid, list):
        return [_fill(item, results) for item in grid]
    return results[grid.key()]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a cell grid and the table built from its results."""

    name: str       #: short id ("e3")
    slug: str       #: results/ file stem ("e3_ibtc_sweep")
    title: Callable[[str], str]
    grid: Callable[[str], Grid]
    build: Callable[[Grid, str], Table]

    def cells(self, scale: str) -> GridCells:
        return GridCells(self.grid(scale))


def _suite_names() -> list[str]:
    return workload_names()


def _suite_grid(scale: str, configs: dict[str, SDTConfig]) -> Grid:
    """``{workload: {column: cell}}`` over the suite, one column per config."""
    return {
        name: {column: measure_cell(name, scale, config)
               for column, config in configs.items()}
        for name in _suite_names()
    }


def _geomean_row(rows: list[list[object]]) -> list[object]:
    """Geomean row across the numeric columns of per-workload rows."""
    return ["geomean", *(geomean([float(row[col]) for row in rows])
                         for col in range(1, len(rows[0])))]


def _overhead(column: str, measurement) -> float:
    return measurement.overhead


def _row_table(first: str, read=_overhead, foot: bool = True):
    """``build`` for a ``{row: {column: cell}}`` grid: one table row per
    grid row, one ``read(column, result)`` value per configuration and,
    with ``foot``, a geomean row underneath."""

    def build(results: Grid, scale: str) -> Table:
        columns = list(next(iter(results.values())))
        rows: list[list[object]] = [
            [label, *(read(column, result) for column, result in row.items())]
            for label, row in results.items()
        ]
        if foot:
            rows.append(_geomean_row(rows))
        return [first, *columns], rows

    return build


# -- E1: Table 1 — indirect branch characteristics ---------------------------


def _grid_e1(scale: str) -> Grid:
    return {name: native_cell(name, scale, DEFAULT_PROFILE)
            for name in _suite_names()}


def _build_e1(results: Grid, scale: str) -> Table:
    headers = [
        "benchmark", "retired", "ijump", "icall", "ret",
        "IB total", "instrs/IB",
    ]
    rows: list[list[object]] = []
    for name, base in results.items():
        total = base.indirect_branches
        rows.append(
            [
                name, base.retired, base.ijumps, base.icalls, base.rets,
                total, round(base.retired / max(total, 1), 1),
            ]
        )
    return headers, rows


# -- E2: baseline overhead (translator re-entry on every IB) -----------------


def _grid_e2(scale: str) -> Grid:
    return _suite_grid(scale, {
        "reentry": SDTConfig(profile=DEFAULT_PROFILE, ib="reentry"),
        "reentry+nolink": SDTConfig(
            profile=DEFAULT_PROFILE, ib="reentry", linking=False
        ),
    })


# -- E3/E9: shared IBTC size sweep, E4: shared vs per-site IBTC ---------------

E4_SHARED_SIZES = (64, 1024, 4096)
E4_PERSITE_SIZES = (4, 16, 64)


def _ibtc_config(size: int, shared: bool = True) -> SDTConfig:
    return SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                     ibtc_entries=size, ibtc_shared=shared)


def _grid_e3(scale: str) -> Grid:
    return _suite_grid(
        scale, {str(size): _ibtc_config(size) for size in IBTC_SIZES}
    )


def _grid_e4(scale: str) -> Grid:
    return _suite_grid(scale, {
        **{f"shared/{s}": _ibtc_config(s) for s in E4_SHARED_SIZES},
        **{f"persite/{s}": _ibtc_config(s, shared=False)
           for s in E4_PERSITE_SIZES},
    })


def _ibtc_hit_rate(size: str, measurement) -> float:
    return measurement.hit_rates.get(f"ibtc-shared-{size}", 0.0)


# -- E5: sieve bucket sweep -------------------------------------------------------


def _grid_e5(scale: str) -> Grid:
    return _suite_grid(scale, {
        str(buckets): SDTConfig(profile=DEFAULT_PROFILE, ib="sieve",
                                sieve_buckets=buckets)
        for buckets in SIEVE_SIZES
    })


# -- E6: tuned mechanism comparison, E8: across host profiles ------------------


def _e6_configs(profile: ArchProfile) -> dict[str, SDTConfig]:
    return {
        "reentry": SDTConfig(profile=profile, ib="reentry"),
        "ibtc": SDTConfig(profile=profile, ib="ibtc", ibtc_entries=BEST_IBTC),
        "sieve": SDTConfig(profile=profile, ib="sieve",
                           sieve_buckets=BEST_SIEVE),
        "ibtc+fastret": SDTConfig(profile=profile, ib="ibtc",
                                  ibtc_entries=BEST_IBTC, returns="fast"),
    }


E8_PROFILES = (X86_P4, X86_K8, SPARC_US3)


def _grid_e8(scale: str) -> Grid:
    return {
        profile.name: {
            column: [measure_cell(name, scale, config)
                     for name in _suite_names()]
            for column, config in _e6_configs(profile).items()
        }
        for profile in E8_PROFILES
    }


def _build_e8(results: Grid, scale: str) -> Table:
    config_names = list(next(iter(results.values())))
    headers = ["profile", *config_names, "winner"]
    rows: list[list[object]] = []
    for profile, configs in results.items():
        means = [geomean([m.overhead for m in cells])
                 for cells in configs.values()]
        rows.append(
            [profile, *means, config_names[means.index(min(means))]]
        )
    return headers, rows


# -- E7: return handling ------------------------------------------------------------

E7_SCHEMES = ("same", "shadow", "retcache", "fast")


def _grid_e7(scale: str) -> Grid:
    return _suite_grid(scale, {
        f"ret={scheme}": SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                                   ibtc_entries=BEST_IBTC, returns=scheme)
        for scheme in E7_SCHEMES
    })


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


def _grid_e10(scale: str) -> Grid:
    return {
        ablation: [[measure_cell(name, scale, config)
                    for name in _suite_names()]
                   for config in pair]
        for ablation, pair in _e10_ablations().items()
    }


def _build_e10(results: Grid, scale: str) -> Table:
    headers = ["ablation", "base", "variant", "variant/base"]
    rows: list[list[object]] = []
    for ablation, pair in results.items():
        base, variant = (geomean([m.overhead for m in cells])
                         for cells in pair)
        rows.append([ablation, base, variant, variant / base])
    return headers, rows


# -- E11: per-site target fan-out ------------------------------------------------


def _grid_e11(scale: str) -> Grid:
    return {name: fanout_cell(name, scale) for name in _suite_names()}


def _build_e11(results: Grid, scale: str) -> Table:
    headers = [
        "benchmark", "IB sites", "mono", "2-4", "5-16", ">16",
        "mono disp%", ">16 disp%", "max fanout", "wmean fanout",
    ]
    rows: list[list[object]] = []
    for name, profile in results.items():
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


def _grid_e12(scale: str) -> Grid:
    """Overhead of each mechanism as one site's fan-out grows.

    A controlled version of the paper's polymorphism discussion: with a
    uniform (round-robin) target pattern the host BTB — and the inline
    target prediction — collapse as fan-out passes 1, while table-based
    mechanisms only pay the hardware misprediction; a skewed pattern
    restores the cheap cases.  ``scale`` selects iteration count.
    """
    from repro.workloads.microbench import dispatch_microbench

    configs = {
        "reentry": SDTConfig(profile=DEFAULT_PROFILE, ib="reentry"),
        "ibtc": SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc"),
        "ibtc+predict": SDTConfig(profile=DEFAULT_PROFILE, ib="ibtc",
                                  inline_predict=True),
        "sieve": SDTConfig(profile=DEFAULT_PROFILE, ib="sieve"),
    }
    grid: dict[str, dict] = {}
    for skewed in (False, True):
        for fanout in E12_FANOUTS:
            workload = dispatch_microbench(
                fanout, iterations=E12_ITERATIONS[scale], skewed=skewed
            )
            grid[f"{'skew' if skewed else 'unif'}/{fanout}"] = {
                column: measure_cell(workload, scale, config)
                for column, config in configs.items()
            }
    return grid


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
#: the native baseline, so simulating E13 re-proves that injected
#: faults never change architectural results.
E13_CHAOS = "chaos:1234"


def _grid_e13(scale: str) -> Grid:
    # faults is passed explicitly (None pins the clean columns clean even
    # under a REPRO_FAULTS environment), so E13 output is env-independent.
    return {
        name: {
            mech: {
                label: [
                    measure_cell(name, scale, SDTConfig(
                        profile=DEFAULT_PROFILE,
                        fragment_cache_bytes=capacity,
                        faults=faults, **kwargs,
                    ))
                    for faults in (None, E13_CHAOS)
                ]
                for label, capacity in E13_CAPACITIES
            }
            for mech, kwargs in TUNED_MECHS.items()
        }
        for name in _suite_names()
    }


def _build_e13(results: Grid, scale: str) -> Table:
    """Overhead and flush volume vs fragment-cache capacity, clean + chaos.

    Per mechanism: geomean overhead over the suite and summed whole-cache
    flush count, fault-free and (starred) under the pinned chaos plan.
    Capacity pressure dominates at the small end; the chaos flush surplus
    (storms, drops, failed translations, demotions) stays visible even
    when the cache is effectively unbounded.
    """
    headers = ["capacity"]
    for mech in TUNED_MECHS:
        headers += [mech, "fl", f"{mech}*", "fl*"]
    rows: list[list[object]] = []
    for label, _capacity in E13_CAPACITIES:
        row: list[object] = [label]
        for mech in TUNED_MECHS:
            for run in (0, 1):      # clean, then chaos
                cells = [by_mech[mech][label][run]
                         for by_mech in results.values()]
                row.append(geomean([m.overhead for m in cells]))
                row.append(sum(m.stats["cache_flushes"] for m in cells))
        rows.append(row)
    return headers, rows


# -- E14: static target-set analysis — devirtualization & preseeding ----------


def _grid_e14(scale: str) -> Grid:
    return {
        name: {
            mech: [
                measure_cell(name, scale, SDTConfig(
                    profile=DEFAULT_PROFILE, static_targets=static, **kwargs,
                ))
                for static in (False, True)
            ]
            for mech, kwargs in TUNED_MECHS.items()
        }
        for name in _suite_names()
    }


def _build_e14(results: Grid, scale: str) -> Table:
    """Effect of translator-time devirtualization + IBTC/sieve preseeding.

    Per mechanism: overhead without and with ``static_targets``, plus the
    IB-dispatch cycle delta (positive = cycles saved by the static
    pipeline).  The final column is the dispatch-weighted static
    precision (share of dynamic IB resolutions whose target the analysis
    predicted); ``escaped`` dispatches would be soundness violations and
    the crossval oracle pins them to zero.  Architectural results are
    verified identical on/off by the runner for every cell.
    """
    headers = ["benchmark"]
    for mech in TUNED_MECHS:
        headers += [mech, f"{mech}+s", f"Δib({mech})"]
    headers.append("precision")
    rows: list[list[object]] = []
    for name, by_mech in results.items():
        row: list[object] = [name]
        precision = 0.0
        for off, on in by_mech.values():
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


def _grid_e15(scale: str) -> Grid:
    from repro.workloads.coherence import coherence_suite

    # faults pinned to None so E15 output is env-independent (cf. E13)
    return {
        workload.name: {
            mech: {
                policy: {
                    label: measure_cell(workload, scale, SDTConfig(
                        profile=DEFAULT_PROFILE, coherence=policy,
                        fragment_cache_bytes=capacity, faults=None,
                        **kwargs,
                    ))
                    for label, capacity in E15_CAPACITIES
                }
                for policy in E15_POLICIES
            }
            for mech, kwargs in TUNED_MECHS.items()
        }
        for workload in coherence_suite(scale)
    }


def _build_e15(results: Grid, scale: str) -> Table:
    """Invalidation-policy cost on the self-modifying scenario suite.

    Per (scenario, capacity, policy): overhead under each IB mechanism,
    plus the coherence counters (guest code writes seen, fragments
    selectively invalidated, whole-cache flushes) from the IBTC cell —
    the counters are mechanism-independent, only the overhead differs.
    Every cell is verified against the reference interpreter by the
    runner, so this table doubles as the coherence correctness gate:
    flush must cost the most, targeted the least, with page between.
    """
    headers = ["scenario", "cap", "policy", *TUNED_MECHS,
               "writes", "inval", "flushes"]
    rows: list[list[object]] = []
    for scenario, by_mech in results.items():
        for label, _capacity in E15_CAPACITIES:
            for policy in E15_POLICIES:
                cells = {mech: by_policy[policy][label]
                         for mech, by_policy in by_mech.items()}
                stats = cells["ibtc"].stats
                coherence = stats.get("coherence") or {}
                rows.append([
                    scenario, label, policy,
                    *(m.overhead for m in cells.values()),
                    coherence.get("code_writes", 0),
                    coherence.get("fragments_invalidated", 0),
                    stats.get("cache_flushes", 0),
                ])
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
            grid=_grid_e1,
            build=_build_e1,
        ),
        ExperimentSpec(
            name="e2",
            slug="e2_baseline_overhead",
            title=lambda scale: (
                f"E2 (Fig.): baseline SDT overhead vs native "
                f"({DEFAULT_PROFILE.name}) [scale={scale}]"
            ),
            grid=_grid_e2,
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e3",
            slug="e3_ibtc_sweep",
            title=lambda scale: (
                f"E3 (Fig.): overhead vs shared IBTC entries [scale={scale}]"
            ),
            grid=_grid_e3,
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e4",
            slug="e4_ibtc_scope",
            title=lambda scale: (
                f"E4 (Fig.): shared vs per-site IBTC [scale={scale}]"
            ),
            grid=_grid_e4,
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e5",
            slug="e5_sieve_sweep",
            title=lambda scale: (
                f"E5 (Fig.): overhead vs sieve buckets [scale={scale}]"
            ),
            grid=_grid_e5,
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e6",
            slug="e6_mechanism_comparison",
            title=lambda scale: (
                f"E6 (Fig.): tuned mechanism comparison [scale={scale}]"
            ),
            grid=lambda scale: _suite_grid(
                scale, _e6_configs(DEFAULT_PROFILE)
            ),
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e7",
            slug="e7_return_handling",
            title=lambda scale: (
                f"E7 (Fig.): return-handling mechanisms (generic=IBTC/"
                f"{BEST_IBTC}) [scale={scale}]"
            ),
            grid=_grid_e7,
            build=_row_table("benchmark"),
        ),
        ExperimentSpec(
            name="e8",
            slug="e8_cross_arch",
            title=lambda scale: (
                f"E8 (Fig.): cross-architecture geomean overhead "
                f"[scale={scale}]"
            ),
            grid=_grid_e8,
            build=_build_e8,
        ),
        ExperimentSpec(
            name="e9",
            slug="e9_ibtc_hitrate",
            title=lambda scale: (
                f"E9 (Table): shared IBTC hit rates by size [scale={scale}]"
            ),
            # the exact E3 grid: cross-experiment dedup makes E9 free
            # after E3
            grid=_grid_e3,
            build=_row_table("benchmark", read=_ibtc_hit_rate, foot=False),
        ),
        ExperimentSpec(
            name="e10",
            slug="e10_ablations",
            title=lambda scale: (
                f"E10 (ablations): design choices, geomean overhead "
                f"[scale={scale}]"
            ),
            grid=_grid_e10,
            build=_build_e10,
        ),
        ExperimentSpec(
            name="e11",
            slug="e11_site_fanout",
            title=lambda scale: (
                f"E11 (Table): per-site indirect-branch target fan-out "
                f"[scale={scale}]"
            ),
            grid=_grid_e11,
            build=_build_e11,
        ),
        ExperimentSpec(
            name="e12",
            slug="e12_fanout_sweep",
            title=lambda scale: (
                f"E12 (Fig.): overhead vs dispatch-site fan-out "
                f"[scale={scale}]"
            ),
            grid=_grid_e12,
            build=_row_table("site", foot=False),
        ),
        ExperimentSpec(
            name="e13",
            slug="e13_cache_pressure",
            title=lambda scale: (
                f"E13 (resilience): overhead & flushes vs fragment-cache "
                f"capacity (*: faults={E13_CHAOS}) [scale={scale}]"
            ),
            grid=_grid_e13,
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
            grid=_grid_e14,
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
            grid=_grid_e15,
            build=_build_e15,
        ),
    )
}
