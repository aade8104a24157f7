"""Measurement runner: one (workload, config, profile) cell at a time.

Every SDT measurement is verified against the reference interpreter
(output, exit code, retired-instruction count) before its cycles are
trusted — a run that diverges raises instead of producing a number.

Native baselines and SDT measurements are cached in-process keyed on
(workload, scale, fuel, profile/config), so experiment drivers can share
cells (e.g. the `ibtc(shared,4096)` column appears in E3, E6 and E7 but
is simulated once).  ``fuel`` is part of every key: a short-fuel run must
never be served to a full-fuel caller.  Config identity comes from
:meth:`repro.sdt.config.SDTConfig.fingerprint`, which enumerates every
declared field.  The persistent, cross-process counterpart of these
caches lives in :mod:`repro.eval.diskcache`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.host.costs import Category, HostModel, NativeCostObserver
from repro.host.profile import ArchProfile
from repro.isa.opcodes import InstrClass
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTRunResult, SDTVM
from repro.workloads import Workload, get_workload

DEFAULT_FUEL = 30_000_000


class DivergenceError(AssertionError):
    """The SDT produced different behaviour than the interpreter."""


@dataclass(frozen=True)
class NativeBaseline:
    """Reference-interpreter run with native cycle accounting."""

    workload: str
    scale: str
    profile: str
    output: str
    exit_code: int
    retired: int
    cycles: int
    ijumps: int
    icalls: int
    rets: int

    @property
    def indirect_branches(self) -> int:
        return self.ijumps + self.icalls + self.rets


@dataclass(frozen=True)
class Measurement:
    """One verified SDT measurement, normalised to its native baseline."""

    workload: str
    scale: str
    profile: str
    config_label: str
    native_cycles: int
    sdt_cycles: int
    breakdown: dict[str, int]
    stats: dict[str, object]
    hit_rates: dict[str, float]

    @property
    def overhead(self) -> float:
        """Slowdown vs native — the paper's y-axis."""
        if self.native_cycles <= 0:
            raise ValueError(
                f"cell {self.workload}/{self.scale}/{self.profile}/"
                f"{self.config_label} has non-positive native_cycles="
                f"{self.native_cycles}; cannot normalise overhead"
            )
        return self.sdt_cycles / self.native_cycles

    @property
    def ib_overhead_cycles(self) -> int:
        """Cycles attributable to IB handling (dispatch + slow paths)."""
        ib_categories = (
            Category.CONTEXT_SWITCH,
            Category.MAP_LOOKUP,
            Category.IBTC,
            Category.SIEVE,
            Category.SHADOW_STACK,
            Category.FAST_RETURN,
            Category.RETCACHE,
            Category.STATIC,
        )
        return sum(self.breakdown.get(cat.value, 0) for cat in ib_categories)


_NATIVE_CACHE: dict[tuple, NativeBaseline] = {}
_MEASURE_CACHE: dict[tuple, Measurement] = {}


def clear_caches() -> None:
    """Drop all cached runs (tests use this for isolation)."""
    _NATIVE_CACHE.clear()
    _MEASURE_CACHE.clear()


def run_native(
    workload: Workload | str,
    profile: ArchProfile,
    scale: str = "small",
    fuel: int = DEFAULT_FUEL,
    engine: str | None = None,
) -> NativeBaseline:
    """Interpreter run of a workload with native cost accounting (cached).

    ``engine`` selects the simulation engine (see
    :data:`repro.machine.engine.ENGINES`); it is deliberately *not* part
    of the memo key because every engine produces identical baselines.
    """
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    key = (workload.name, scale, fuel, profile.fingerprint())
    cached = _NATIVE_CACHE.get(key)
    if cached is not None:
        return cached

    model = HostModel(profile)
    interp = Interpreter(
        workload.compile(), observer=NativeCostObserver(model), engine=engine
    )
    result = interp.run(fuel)
    baseline = NativeBaseline(
        workload=workload.name,
        scale=scale,
        profile=profile.name,
        output=result.output,
        exit_code=result.exit_code,
        retired=result.retired,
        cycles=model.total_cycles,
        ijumps=result.iclass_counts[InstrClass.IJUMP],
        icalls=result.iclass_counts[InstrClass.ICALL],
        rets=result.iclass_counts[InstrClass.RET],
    )
    _NATIVE_CACHE[key] = baseline
    return baseline


def verified_run(
    workload: Workload, config: SDTConfig, scale: str, fuel: int
) -> tuple[NativeBaseline, SDTVM, SDTRunResult]:
    """The native baseline, then one SDT run verified against it.

    Raises :class:`DivergenceError` when the SDT's output, exit code or
    retired count differs from the interpreter's.  Returns the baseline,
    the VM (its trace session, if any, holds the run's events) and the
    result.
    """
    baseline = run_native(workload, config.profile, scale=scale, fuel=fuel,
                          engine=config.engine)
    vm = SDTVM(workload.compile(), config=config)
    result = vm.run(fuel)
    where = f"{baseline.workload}/{config.label}"
    if result.output != baseline.output:
        raise DivergenceError(
            f"{where}: output diverged "
            f"({result.output!r} vs {baseline.output!r})"
        )
    if result.exit_code != baseline.exit_code:
        raise DivergenceError(f"{where}: exit code diverged")
    if result.retired != baseline.retired:
        raise DivergenceError(
            f"{where}: retired count diverged "
            f"({result.retired} vs {baseline.retired})"
        )
    return baseline, vm, result


#: Where a traced run's exports go when its trace spec names no ``dir``.
DEFAULT_TRACE_DIR = "results/trace"


def export_trace(session, workload: str, scale: str, config: SDTConfig,
                 native_cycles: int, result: SDTRunResult) -> tuple[Path, Path]:
    """Write one traced run's ``.trace.json`` (Chrome ``trace_event``)
    and ``.metrics.json`` and return both paths.

    Every trace export is written here: the file stem
    ``{workload}-{scale}-{profile}-{label}`` and the metrics ``run``
    block are built nowhere else.  The directory is ``config.trace.dir``
    (default ``results/trace``), created if missing.  The ``run``
    block's ``fingerprint`` is the first 16 hex digits of the SHA-256 of
    ``repr(config.fingerprint())``, the digest the benchmark manifest
    records per op, so an export and a benchmark report can be matched.
    """
    from repro.trace.export import chrome_trace_json, metrics_json, slug

    digest = hashlib.sha256(repr(config.fingerprint()).encode()).hexdigest()
    context = {
        "workload": workload,
        "scale": scale,
        "config": config.label,
        "profile": config.profile.name,
        "engine": config.engine,
        "native_cycles": native_cycles,
        "version": repro.__version__,
        "fingerprint": digest[:16],
    }
    directory = Path(config.trace.dir or DEFAULT_TRACE_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    stem = slug(f"{workload}-{scale}-{config.profile.name}-{config.label}")
    trace_path = directory / f"{stem}.trace.json"
    metrics_path = directory / f"{stem}.metrics.json"
    trace_path.write_text(chrome_trace_json(session))
    metrics_path.write_text(metrics_json(session, result, context))
    return trace_path, metrics_path


def build_measurement(workload: str, scale: str, config: SDTConfig,
                      native_cycles: int, result: SDTRunResult) -> Measurement:
    """One verified SDT run, normalised to its native baseline."""
    hit_rates = {}
    for counter_key in result.stats.mechanism:
        mechanism = counter_key.rsplit(".", 1)[0]
        if mechanism not in hit_rates:
            hit_rates[mechanism] = result.stats.hit_rate(mechanism)
    return Measurement(
        workload=workload,
        scale=scale,
        profile=config.profile.name,
        config_label=config.label,
        native_cycles=native_cycles,
        sdt_cycles=result.total_cycles,
        breakdown=dict(result.cycles),
        stats=result.stats.as_dict(),
        hit_rates=hit_rates,
    )


def measure(
    workload: Workload | str,
    config: SDTConfig,
    scale: str = "small",
    fuel: int = DEFAULT_FUEL,
) -> Measurement:
    """Run a workload under an SDT config; verify and normalise (cached)."""
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    # A dir-sink traced call must actually simulate to produce its
    # export, so it skips the memo read; tracing is pure observation,
    # so the recomputed measurement is identical and may still be
    # stored for later callers.
    traced_sink = config.trace is not None and bool(config.trace.dir)
    key = (workload.name, scale, fuel, config.fingerprint())
    if not traced_sink:
        cached = _MEASURE_CACHE.get(key)
        if cached is not None:
            return cached

    baseline, vm, result = verified_run(workload, config, scale, fuel)
    # Directory-sink tracing (REPRO_TRACE="dir=..."): cells that actually
    # simulate drop their trace + metrics exports next to the results.
    # Cache-served cells carry no event stream, so they (correctly) skip
    # this — tracing observes simulations, it does not replay them.
    if traced_sink:
        export_trace(vm.trace, workload.name, scale, config, baseline.cycles,
                     result)
    measurement = build_measurement(workload.name, scale, config,
                                    baseline.cycles, result)
    _MEASURE_CACHE[key] = measurement
    return measurement
