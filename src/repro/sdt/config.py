"""SDT configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.faults.plan import FaultPlan, default_fault_plan, parse_fault_plan
from repro.host.profile import ArchProfile, SIMPLE
from repro.machine.engine import ENGINES, default_engine
from repro.sdt.cache import DEFAULT_CAPACITY
from repro.sdt.translator import DEFAULT_MAX_FRAGMENT_INSTRS
from repro.trace.spec import TraceSpec, default_trace_spec, parse_trace_spec

GENERIC_MECHANISMS = ("reentry", "ibtc", "sieve")
RETURN_SCHEMES = ("same", "fast", "shadow", "retcache")

#: Code-cache coherence policies (see repro.sdt.coherence):
#: ``none``  — no write detection; guest code is assumed immutable
#:             (every pre-coherence workload; zero store-path cost),
#: ``flush`` — any store to a translated page drops the whole cache,
#: ``page``  — invalidate the fragments overlapping the written page,
#: ``targeted`` — invalidate only fragments whose instruction byte
#:             range intersects the written bytes.
COHERENCE_POLICIES = ("none", "flush", "page", "targeted")

#: Fields excluded from :meth:`SDTConfig.fingerprint`.  Only fields that
#: change no result at all — neither architectural state nor cycle
#: counts — may appear here: ``engine`` selects *how* the simulation
#: executes (oracle dispatch vs threaded superblocks), never *what* it
#: computes, so a cache entry produced by one engine must be served to
#: the other (tests/test_engine_differential.py proves the
#: byte-identity; tests/test_sdt_config.py pins the exemption).
#: ``trace`` is pure observation (tests/test_trace_invariants.py pins the
#: byte-identity), so a traced run may be served from, and stored into,
#: every cache.  ``faults`` is *not* exempt: an injected fault never
#: changes architectural results, but it does change cycle counts, so
#: the plan is part of every cache key and a faulted measurement is
#: cached like any other.
FINGERPRINT_EXEMPT = frozenset({"engine", "trace"})


@dataclass(frozen=True)
class SDTConfig:
    """Everything that defines one SDT configuration in the paper's space.

    Attributes:
        profile: host architecture cost profile.
        ib: generic indirect-branch mechanism for ``jr``/``jalr``
            (``"reentry"``, ``"ibtc"`` or ``"sieve"``).
        ibtc_entries / ibtc_shared: IBTC geometry.
        sieve_buckets / sieve_policy: sieve geometry and stub insertion
            order (``"prepend"`` or ``"append"``).
        returns: return scheme — ``"same"`` routes returns through the
            generic mechanism; ``"fast"``, ``"shadow"``, ``"retcache"``
            select the dedicated schemes.
        shadow_depth: shadow-stack depth limit (0 = unbounded).
        retcache_entries: return-cache geometry.
        linking: patch direct-branch fragment exits (Strata's default);
            disabling it is the E2 ablation where *every* fragment exit
            re-enters the translator.
        static_targets: run the whole-program target-set analysis
            (:mod:`repro.analysis.targets`) at VM construction and use it
            at translation time — singleton-target IB sites are
            devirtualized into guarded direct branches and bounded sites
            preseed IBTC/sieve entries (see
            :mod:`repro.sdt.static_targets`).  Changes cycle counts, so
            it is fingerprint-relevant; architectural results are
            byte-identical either way (tests pin this).
        fragment_cache_bytes: fragment-cache capacity (whole-cache flush
            when exceeded).
        max_fragment_instrs: fragment length limit.
        coherence: code-cache coherence policy for guest writes to
            translated code (:data:`COHERENCE_POLICIES`).  ``none``
            (the default) performs no write detection — correct for
            static code and free on the store path; ``flush``/``page``/
            ``targeted`` install the write watch and invalidate at
            whole-cache / page / byte-range granularity
            (:mod:`repro.sdt.coherence`).  The policy changes which
            fragments survive a write — and under ``none`` potentially
            the architectural results of self-modifying guests — so it
            is fingerprint-relevant and appears in :attr:`label`.
        engine: simulation execution engine — ``"threaded"`` (closure
            superblocks, the default), ``"oracle"`` (per-instruction
            reference dispatch) or ``"tier2"`` (threaded plus
            profile-guided region compilation to generated Python,
            :mod:`repro.machine.tier2`).  Results — output, retired
            count, cycle totals, fault timing — are identical across all
            three; only simulator wall-clock speed differs, so this
            field is exempt from :meth:`fingerprint` and from
            :attr:`label` (tier-2 promotion state is profile data, never
            architecture; see docs/performance.md).  The default can be
            overridden with the ``REPRO_ENGINE`` environment variable.
        faults: optional deterministic fault-injection plan
            (:class:`repro.faults.plan.FaultPlan`, a spec string, or
            ``None``).  Injected faults never change architectural
            results, but they do change cycle counts, so the plan is part
            of :meth:`fingerprint`.  A plan that can fire no fault is
            stored as ``None``, so it keys like a clean run.  The
            default comes from the ``REPRO_FAULTS`` environment variable.
        trace: optional structured-event tracing spec
            (:class:`repro.trace.spec.TraceSpec`, a spec string, or
            ``None`` = tracing off).  Tracing is pure observation — it
            changes neither results nor cycle counts — so the field is
            fingerprint-exempt like ``engine`` and absent from
            :attr:`label`.  The default comes from the ``REPRO_TRACE``
            environment variable.  See docs/observability.md.
    """

    profile: ArchProfile = field(default_factory=lambda: SIMPLE)
    ib: str = "ibtc"
    ibtc_entries: int = 4096
    ibtc_shared: bool = True
    ibtc_inline: bool = True
    ibtc_hash: str = "fold"
    inline_predict: bool = False
    sieve_buckets: int = 512
    sieve_policy: str = "prepend"
    returns: str = "same"
    shadow_depth: int = 0
    retcache_entries: int = 64
    linking: bool = True
    static_targets: bool = False
    trace_jumps: bool = False
    fragment_cache_bytes: int = DEFAULT_CAPACITY
    max_fragment_instrs: int = DEFAULT_MAX_FRAGMENT_INSTRS
    coherence: str = "none"
    engine: str = field(default_factory=default_engine)
    faults: FaultPlan | None = field(default_factory=default_fault_plan)
    trace: TraceSpec | None = field(default_factory=default_trace_spec)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", parse_fault_plan(self.faults))
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan, spec string or None, "
                f"got {self.faults!r}"
            )
        if self.faults is not None and not self.faults.active:
            object.__setattr__(self, "faults", None)
        if isinstance(self.trace, str):
            object.__setattr__(self, "trace", parse_trace_spec(self.trace))
        if self.trace is not None and not isinstance(self.trace, TraceSpec):
            raise ValueError(
                f"trace must be a TraceSpec, spec string or None, "
                f"got {self.trace!r}"
            )
        if self.fragment_cache_bytes <= 0:
            raise ValueError("fragment_cache_bytes must be positive")
        if self.ib not in GENERIC_MECHANISMS:
            raise ValueError(
                f"unknown ib mechanism {self.ib!r}; "
                f"expected one of {GENERIC_MECHANISMS}"
            )
        if self.returns not in RETURN_SCHEMES:
            raise ValueError(
                f"unknown return scheme {self.returns!r}; "
                f"expected one of {RETURN_SCHEMES}"
            )
        if self.ibtc_hash not in ("fold", "shift"):
            raise ValueError(f"unknown ibtc hash {self.ibtc_hash!r}")
        if self.sieve_policy not in ("prepend", "append"):
            raise ValueError(f"unknown sieve policy {self.sieve_policy!r}")
        if self.coherence not in COHERENCE_POLICIES:
            raise ValueError(
                f"unknown coherence policy {self.coherence!r}; "
                f"expected one of {COHERENCE_POLICIES}"
            )

    @property
    def label(self) -> str:
        """Compact human-readable identifier for reports."""
        if self.ib == "ibtc":
            scope = "shared" if self.ibtc_shared else "persite"
            generic = f"ibtc({scope},{self.ibtc_entries})"
            if not self.ibtc_inline:
                generic += "+outline"
            if self.ibtc_hash != "fold":
                generic += f"+hash={self.ibtc_hash}"
        elif self.ib == "sieve":
            generic = f"sieve({self.sieve_buckets})"
        else:
            generic = "reentry"
        if self.inline_predict:
            generic += "+predict"
        parts = [generic]
        if self.returns != "same":
            parts.append(f"ret={self.returns}")
        if not self.linking:
            parts.append("nolink")
        if self.static_targets:
            parts.append("static")
        if self.trace_jumps:
            parts.append("trace")
        if self.coherence != "none":
            parts.append(f"coh={self.coherence}")
        return "+".join(parts)

    def fingerprint(self) -> tuple:
        """Canonical, hashable identity covering *every* declared field.

        This is the one true cache key for a configuration: it is built by
        introspecting the dataclass fields, so a newly added field can
        never be silently omitted (the failure mode of a hand-enumerated
        key, which aliases configs that differ only in the new field).
        The sole exception is :data:`FINGERPRINT_EXEMPT` — fields that
        cannot change any result, which therefore must *not* split the
        caches (a warm ``oracle`` cache serves ``threaded`` runs).  The
        fault plan is included, so a faulted run never aliases a clean
        one.
        """
        items: list[tuple[str, object]] = []
        for spec in fields(self):
            if spec.name in FINGERPRINT_EXEMPT:
                continue
            items.append((spec.name, _canonical(getattr(self, spec.name))))
        return tuple(items)

    def with_profile(self, profile: ArchProfile) -> "SDTConfig":
        """The same configuration under a different host profile."""
        return replace(self, profile=profile)


def _canonical(value: object) -> object:
    """Reduce a config field value to a hashable canonical form."""
    if isinstance(value, (ArchProfile, FaultPlan)):
        return value.fingerprint()
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        canon = [_canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            canon = sorted(canon)
        return tuple(canon)
    return value
