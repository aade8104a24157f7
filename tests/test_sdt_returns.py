"""Return-handling mechanisms: fast returns, shadow stack, return cache."""

import pytest

from conftest import assert_equivalent, run_minic, run_minic_sdt
from repro.host.costs import Category
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.ib.returns import ReturnCache, ShadowReturnStack


CALL_HEAVY = """
int leaf(int x) { return x + 1; }
int middle(int x) { return leaf(x) + leaf(x + 1); }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 120; i++) total += middle(i);
    print_int(total);
    return 0;
}
"""

RECURSIVE = """
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(14)); return 0; }
"""


def run_returns(source: str, scheme: str, **kwargs):
    config = SDTConfig(profile=SIMPLE, ib="ibtc", returns=scheme, **kwargs)
    return run_minic_sdt(source, config)


class TestFastReturns:
    def test_equivalence(self):
        for source in (CALL_HEAVY, RECURSIVE):
            assert_equivalent(source, SDTConfig(profile=SIMPLE, returns="fast"))

    def test_hit_rate_near_perfect(self):
        result = run_returns(CALL_HEAVY, "fast")
        assert result.stats.hit_rate("fast-return") > 0.95

    def test_no_ibtc_traffic_for_returns(self):
        """Under fast returns the IBTC only serves ijumps/icalls."""
        result = run_returns(CALL_HEAVY, "fast")
        ibtc_traffic = sum(
            count for key, count in result.stats.mechanism.items()
            if key.startswith("ibtc")
        )
        # CALL_HEAVY has no icalls or ijumps at all
        assert ibtc_traffic == 0

    def test_fixup_charged_per_call(self):
        from repro.isa.opcodes import InstrClass

        result = run_returns(CALL_HEAVY, "fast")
        calls = result.iclass_counts[InstrClass.CALL] + \
            result.iclass_counts[InstrClass.ICALL]
        assert result.cycles[Category.FAST_RETURN.value] == \
            calls * SIMPLE.fast_return_fixup

    def test_cheaper_than_returns_as_ib(self):
        generic = run_returns(RECURSIVE, "same")
        fast = run_returns(RECURSIVE, "fast")
        assert fast.total_cycles < generic.total_cycles

    def test_transparency_violation_is_contained(self):
        """Guest code that stores and reloads its return address still
        works (the pad round-trips through memory)."""
        source = """
        int save;
        int f(int x) { return x * 2; }
        int main() {
            int total = 0;
            int i;
            for (i = 0; i < 50; i++) total += f(i);
            print_int(total);
            return 0;
        }
        """
        assert_equivalent(source, SDTConfig(profile=SIMPLE, returns="fast"))

    def test_survives_cache_flush(self):
        config = SDTConfig(profile=SIMPLE, returns="fast",
                           fragment_cache_bytes=400)
        result = assert_equivalent(CALL_HEAVY, config)
        assert result.stats.cache_flushes > 0


class TestShadowStack:
    def test_equivalence(self):
        for source in (CALL_HEAVY, RECURSIVE):
            assert_equivalent(
                source, SDTConfig(profile=SIMPLE, returns="shadow")
            )

    def test_hit_rate_on_balanced_code(self):
        result = run_returns(CALL_HEAVY, "shadow")
        assert result.stats.hit_rate("shadow-stack") > 0.9

    def test_depth_limit_degrades_deep_recursion(self):
        deep = run_returns(RECURSIVE, "shadow", shadow_depth=4)
        unbounded = run_returns(RECURSIVE, "shadow", shadow_depth=0)
        assert deep.stats.hit_rate("shadow-stack") < \
            unbounded.stats.hit_rate("shadow-stack")
        assert deep.output == unbounded.output

    def test_push_pop_cycles_charged(self):
        result = run_returns(CALL_HEAVY, "shadow")
        assert result.cycles[Category.SHADOW_STACK.value] > 0

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            ShadowReturnStack(fallback=None, depth=-1)

    def test_mismatch_falls_back(self):
        """A return that does not match the shadow top (depth-trimmed)
        must still resolve through the fallback mechanism."""
        result = run_returns(RECURSIVE, "shadow", shadow_depth=2)
        assert result.stats.mechanism["shadow-stack.miss"] > 0
        assert result.output == run_minic(RECURSIVE).output


class TestReturnCache:
    def test_equivalence(self):
        for source in (CALL_HEAVY, RECURSIVE):
            assert_equivalent(
                source, SDTConfig(profile=SIMPLE, returns="retcache")
            )

    def test_monomorphic_returns_hit(self):
        result = run_returns(CALL_HEAVY, "retcache", retcache_entries=64)
        assert result.stats.hit_rate("return-cache-64") > 0.8

    def test_tiny_cache_conflicts(self):
        big = run_returns(RECURSIVE, "retcache", retcache_entries=256)
        tiny = run_returns(RECURSIVE, "retcache", retcache_entries=1)
        assert tiny.stats.hit_rate("return-cache-1") < \
            big.stats.hit_rate("return-cache-256")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ReturnCache(entries=3)

    def test_probe_cycles_charged(self):
        result = run_returns(CALL_HEAVY, "retcache")
        assert result.cycles[Category.RETCACHE.value] > 0


class TestSameReturns:
    def test_rets_flow_through_generic_mechanism(self):
        result = run_returns(CALL_HEAVY, "same")
        name = "ibtc-shared-4096"
        total = (
            result.stats.mechanism[f"{name}.hit"]
            + result.stats.mechanism[f"{name}.miss"]
        )
        assert total == result.stats.ib_dispatches["ret"]  # no icalls here

    def test_no_return_mechanism(self):
        """Under ``same`` there is no return scheme: no call hook, no
        holder, and a return reaches whatever ``vm.generic_ib`` is when
        it dispatches."""
        from repro.lang import compile_to_program
        from repro.sdt.ib.base import ReturnMechanism
        from repro.sdt.ib.ibtc import IBTC
        from repro.sdt.vm import SDTVM

        vm = SDTVM(compile_to_program(CALL_HEAVY),
                   SDTConfig(profile=SIMPLE, ib="ibtc"))
        assert vm.return_mech is None and vm._on_call is None
        assert not any(isinstance(holder, ReturnMechanism)
                       for holder in vm.cache.holders)
        swapped = IBTC(entries=64)
        vm.generic_ib = swapped
        swapped.bind(vm)
        result = vm.run()
        stats = result.stats.mechanism
        assert stats["ibtc-shared-64.hit"] + stats["ibtc-shared-64.miss"] \
            == result.stats.ib_dispatches["ret"] > 0
        assert "ibtc-shared-4096.hit" not in stats
