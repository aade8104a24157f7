"""The benchmark's workloads and the operations each one runs.

This module imports nothing from the program, so the parent process can
plan rounds without loading it.  An *op* is one ``repro-sdt run``
equivalent: a native baseline, then the SDT run, then verification.  Its
id names the guest program, the scale and every non-default
``SDTConfig`` field except the engine, which never changes results; the
golden reference is keyed by that id, so ``run-threaded`` and
``run-tier2`` share their reference entries.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILE = "x86_p4"

#: The 12 SPEC-like guests, fixed here so that a workload added to the
#: program later does not silently change what the benchmark measures.
SUITE = (
    "bzip2_like", "crafty_like", "eon_like", "gap_like", "gcc_like",
    "gzip_like", "mcf_like", "parser_like", "perl_like", "twolf_like",
    "vortex_like", "vpr_like",
)

#: One experiment per kind of cell the executor handles: native baselines
#: (E1), measurements under every generic mechanism and fast returns (E6),
#: fan-out profiles (E11) and inline guests, here self-modifying ones
#: under coherence policies (E15).  The whole E1-E15 plan takes 40-50 s
#: per serial pass on a 2-core host, more than a run can spend.
EXPERIMENTS = ("e1", "e6", "e11", "e15")
SMOKE_EXPERIMENTS = ("e1", "e15")

#: Self-modifying guests; they need a coherence policy other than none.
COHERENCE_SCENARIOS = ("smc_loop", "dyn_loader", "mini_jit")


@dataclass(frozen=True)
class Op:
    """One verified simulation: a guest program under one SDT config."""

    program: str
    scale: str
    config: tuple[tuple[str, object], ...] = ()

    @property
    def id(self) -> str:
        text = f"{self.program}@{self.scale}"
        if self.config:
            text += "/" + ",".join(f"{k}={v}" for k, v in self.config)
        return text

    def to_json(self) -> list:
        return [self.program, self.scale, [list(kv) for kv in self.config]]

    @classmethod
    def from_json(cls, data: list) -> "Op":
        program, scale, config = data
        return cls(program, scale, tuple((k, v) for k, v in config))


def _op(program: str, scale: str = "small", **config: object) -> Op:
    return Op(program, scale, tuple(sorted(config.items())))


@dataclass(frozen=True)
class Workload:
    """A named set of ops (simulation) or an experiment plan."""

    name: str
    engine: str = "threaded"
    ops: tuple[Op, ...] = ()
    experiments: tuple[str, ...] = ()

    @property
    def is_experiments(self) -> bool:
        return bool(self.experiments)

    def smoke(self) -> "Workload":
        """Two ops at ``tiny`` (or E1+E15): a quick end-to-end check."""
        if self.is_experiments:
            return Workload(self.name, self.engine,
                            experiments=SMOKE_EXPERIMENTS)
        picked = (self.ops[0], self.ops[len(self.ops) // 2])
        return Workload(
            self.name, self.engine,
            ops=tuple(Op(op.program, "tiny", op.config) for op in picked),
        )


_SLOWPATH_OPS = (
    # E13's flush storm: a 1 KiB fragment cache flushes constantly
    *(
        _op(program, ib=ib, fragment_cache_bytes=1024)
        for program in ("parser_like", "vortex_like", "bzip2_like")
        for ib in ("reentry", "ibtc", "sieve")
    ),
    # E2's ablation: every fragment exit re-enters the translator
    _op("parser_like", linking=False),
    _op("vortex_like", linking=False),
    # E7's return schemes on the return-heaviest guest
    *(_op("eon_like", returns=scheme)
      for scheme in ("fast", "shadow", "retcache")),
    # E15: self-modifying code under whole-cache and selective coherence
    *(
        _op(program, "large", coherence=policy)
        for program in COHERENCE_SCENARIOS
        for policy in ("flush", "targeted")
    ),
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The default ``repro-sdt run`` path: steady-state execution and
        # IBTC dispatch dominate; translation is about 2% of the time.
        Workload("run-threaded", "threaded",
                 ops=tuple(_op(program) for program in SUITE)),
        # The same runs on the tier-2 region JIT: promotion, region
        # compilation and region execution, which run-threaded never
        # enters.  Each round is a fresh process, so compilation is cold.
        Workload("run-tier2", "tier2",
                 ops=tuple(_op(program) for program in SUITE)),
        # The translator side of the SDT (re-entry, translation, flushes,
        # invalidation) carries about a third of the time here, against
        # about 3% in run-threaded; every IB mechanism and return scheme
        # runs.
        Workload("sdt-slowpath", "threaded", ops=_SLOWPATH_OPS),
        # The other wait users have: ``repro-sdt experiments`` cold, then
        # again over the filled disk cache.  The only workload that plans
        # cells, uses the disk cache and builds tables.
        Workload("experiments", "threaded", experiments=EXPERIMENTS),
    )
}
