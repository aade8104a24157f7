"""SDTConfig/ArchProfile canonical fingerprints (cache-key identity)."""

import dataclasses

import pytest

from repro.faults import FaultPlan
from repro.host.profile import SIMPLE, SPARC_US3, X86_K8, X86_P4
from repro.sdt.config import FINGERPRINT_EXEMPT, SDTConfig
from repro.trace.spec import TraceSpec

#: A valid alternate value per field, used to prove each field reaches the
#: fingerprint.  A new SDTConfig field must be added here (the coverage
#: test fails loudly otherwise) — which is exactly the point: it can no
#: longer be silently omitted from cache keys.  Fields in
#: FINGERPRINT_EXEMPT are covered the other way round: their alternate
#: must NOT change the fingerprint (engines produce identical results, so
#: engine choice must not split caches).
FIELD_ALTERNATES = {
    "profile": X86_K8,
    "ib": "sieve",
    "ibtc_entries": 999,
    "ibtc_shared": False,
    "ibtc_inline": False,
    "ibtc_hash": "shift",
    "inline_predict": True,
    "sieve_buckets": 77,
    "sieve_policy": "append",
    "returns": "fast",
    "shadow_depth": 5,
    "retcache_entries": 99,
    "linking": False,
    "trace_jumps": True,
    "static_targets": True,
    "fragment_cache_bytes": 12345,
    "max_fragment_instrs": 7,
    "coherence": "targeted",
    "engine": "oracle",
    "faults": FaultPlan(seed=31337, flush_storm=0.5),
    "trace": TraceSpec(ring=4096),
}


class TestConfigFingerprint:
    def test_every_declared_field_affects_the_fingerprint(self):
        base = SDTConfig(profile=SIMPLE, engine="threaded")
        for spec in dataclasses.fields(SDTConfig):
            assert spec.name in FIELD_ALTERNATES, (
                f"new config field {spec.name!r}: add an alternate value to "
                f"FIELD_ALTERNATES so fingerprint coverage is proven"
            )
            alternate = FIELD_ALTERNATES[spec.name]
            assert alternate != getattr(base, spec.name), spec.name
            variant = dataclasses.replace(base, **{spec.name: alternate})
            if spec.name in FINGERPRINT_EXEMPT:
                assert variant.fingerprint() == base.fingerprint(), (
                    f"exempt field {spec.name!r} must not affect "
                    f"SDTConfig.fingerprint() (it cannot change results)"
                )
            else:
                assert variant.fingerprint() != base.fingerprint(), (
                    f"field {spec.name!r} does not affect "
                    f"SDTConfig.fingerprint()"
                )

    def test_no_stale_alternates(self):
        declared = {spec.name for spec in dataclasses.fields(SDTConfig)}
        assert set(FIELD_ALTERNATES) == declared

    def test_exempt_fields_are_declared(self):
        declared = {spec.name for spec in dataclasses.fields(SDTConfig)}
        assert FINGERPRINT_EXEMPT <= declared

    def test_only_result_free_fields_are_exempt(self):
        # a fault plan changes cycle counts, so it must split every cache
        assert FINGERPRINT_EXEMPT == {"engine", "trace"}

    def test_faulted_and_clean_fingerprints_differ(self):
        clean = SDTConfig(profile=SIMPLE, faults=None)
        chaos = SDTConfig(profile=SIMPLE, faults="chaos:1234")
        reseeded = SDTConfig(profile=SIMPLE, faults="chaos:99")
        prints = {c.fingerprint() for c in (clean, chaos, reseeded)}
        assert len(prints) == 3

    def test_inactive_plan_fingerprints_like_none(self):
        idle = SDTConfig(profile=SIMPLE, faults=FaultPlan())
        assert idle.faults is None
        assert idle.fingerprint() == \
            SDTConfig(profile=SIMPLE, faults=None).fingerprint()

    def test_engine_does_not_reach_label(self):
        a = SDTConfig(profile=SIMPLE, engine="oracle")
        b = SDTConfig(profile=SIMPLE, engine="threaded")
        assert a.label == b.label

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            SDTConfig(profile=SIMPLE, engine="warp")

    def test_equal_configs_equal_fingerprints(self):
        a = SDTConfig(profile=X86_P4, ib="ibtc", ibtc_entries=64)
        b = SDTConfig(profile=X86_P4, ib="ibtc", ibtc_entries=64)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_is_hashable(self):
        hash(SDTConfig(profile=SPARC_US3).fingerprint())

    def test_same_name_derived_profile_changes_fingerprint(self):
        """derive() reusing a preset name must still produce a new key."""
        lookalike = X86_P4.derive("x86_p4", mispredict_penalty=1)
        a = SDTConfig(profile=X86_P4)
        b = SDTConfig(profile=lookalike)
        assert a.fingerprint() != b.fingerprint()


class TestProfileFingerprint:
    def test_distinct_presets_distinct(self):
        prints = {p.fingerprint() for p in (SIMPLE, X86_P4, X86_K8, SPARC_US3)}
        assert len(prints) == 4

    def test_class_cycles_reach_the_fingerprint(self):
        from repro.isa.opcodes import InstrClass

        tweaked = dict(SIMPLE.class_cycles)
        tweaked[InstrClass.MUL] += 1
        variant = SIMPLE.derive(SIMPLE.name, class_cycles=tweaked)
        assert variant.fingerprint() != SIMPLE.fingerprint()

    def test_covers_every_declared_field(self):
        names = [name for name, _value in SIMPLE.fingerprint()]
        declared = [spec.name for spec in dataclasses.fields(SIMPLE)]
        assert names == declared


def test_validation_still_rejects_bad_values():
    with pytest.raises(ValueError):
        SDTConfig(profile=SIMPLE, ib="oracle")
