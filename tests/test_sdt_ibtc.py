"""IBTC mechanism: hit/miss dynamics, sizing, scopes, flush."""

from conftest import run_minic_sdt
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.ib.ibtc import IBTC, ibtc_index
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload

import pytest

#: exact hit/miss dynamics are clean-spec behaviour
pytestmark = pytest.mark.usefixtures("no_faults")


#: One hot indirect-call site cycling over N targets.
def dispatch_source(n_targets: int, iterations: int = 200) -> str:
    funcs = "".join(
        f"int f{i}(int x) {{ return x + {i}; }}\n" for i in range(n_targets)
    )
    table = "int tab[] = { " + ", ".join(
        f"&f{i}" for i in range(n_targets)
    ) + " };\n"
    return funcs + table + f"""
    int main() {{
        int total = 0;
        int i;
        for (i = 0; i < {iterations}; i++) {{
            int f = tab[i % {n_targets}];
            total += f(i);
        }}
        print_int(total);
        return 0;
    }}
    """


def run_ibtc(source: str, entries: int, shared: bool = True):
    config = SDTConfig(
        profile=SIMPLE, ib="ibtc", ibtc_entries=entries, ibtc_shared=shared
    )
    return run_minic_sdt(source, config)


class TestHash:
    def test_index_in_range(self):
        mask = 63
        for addr in range(0, 1 << 16, 52):
            assert 0 <= ibtc_index(addr, mask) <= mask

    def test_word_granularity(self):
        # addresses 4 apart should usually map to different slots
        indices = {ibtc_index(0x400000 + 4 * i, 1023) for i in range(64)}
        assert len(indices) > 32

    def test_validation(self):
        with pytest.raises(ValueError):
            IBTC(entries=0)
        with pytest.raises(ValueError):
            IBTC(entries=100)


class TestHitRates:
    def test_warm_monomorphic_site_hits(self):
        result = run_ibtc(dispatch_source(1), entries=256)
        stats = result.stats
        hits = stats.mechanism["ibtc-shared-256.hit"]
        misses = stats.mechanism["ibtc-shared-256.miss"]
        assert misses <= 3  # cold fill only (per target + ret targets)
        assert hits > 150

    def test_capacity_effect(self):
        """More distinct targets than entries -> thrashing misses."""
        source = dispatch_source(16, iterations=320)
        big = run_ibtc(source, entries=1024)
        small = run_ibtc(source, entries=2)
        assert big.stats.hit_rate("ibtc-shared-1024") > 0.9
        assert small.stats.hit_rate("ibtc-shared-2") < 0.6
        assert small.total_cycles > big.total_cycles

    def test_miss_falls_back_to_translator(self):
        result = run_ibtc(dispatch_source(4), entries=256)
        misses = result.stats.mechanism["ibtc-shared-256.miss"]
        assert result.stats.translator_reentries >= misses

    def test_returns_share_table_when_same(self):
        # with returns="same", rets dispatch through the IBTC too
        result = run_ibtc(dispatch_source(2), entries=256)
        dispatches = result.stats.ib_dispatches
        total = (
            result.stats.mechanism["ibtc-shared-256.hit"]
            + result.stats.mechanism["ibtc-shared-256.miss"]
        )
        assert total == dispatches["icall"] + dispatches["ret"] + \
            dispatches["ijump"]


class TestScope:
    def test_per_site_isolates_conflicts(self):
        """Two monomorphic sites thrash a shared single-entry table (the
        icall target and the return target evict each other every
        dispatch) but both hit in per-site tables of the same size —
        regardless of how the targets happen to hash."""
        source = dispatch_source(1, iterations=400)
        shared = run_ibtc(source, entries=1, shared=True)
        persite = run_ibtc(source, entries=1, shared=False)
        shared_rate = shared.stats.hit_rate("ibtc-shared-1")
        persite_rate = persite.stats.hit_rate("ibtc-persite-1")
        assert persite_rate > 0.9
        assert shared_rate < 0.5
        assert persite_rate > shared_rate

    def test_persite_label(self):
        config = SDTConfig(ib="ibtc", ibtc_shared=False, ibtc_entries=16)
        assert config.label == "ibtc(persite,16)"


class TestCosts:
    def test_probe_cost_charged_per_dispatch(self):
        from repro.host.costs import Category

        result = run_ibtc(dispatch_source(2, iterations=100), entries=256)
        dispatches = sum(result.stats.ib_dispatches.values())
        expected = dispatches * (SIMPLE.ibtc_probe + SIMPLE.ibtc_spill)
        assert result.cycles[Category.IBTC.value] == expected


class TestFlush:
    def test_flush_clears_tables(self):
        mechanism = IBTC(entries=16)

        class FakeFrag:
            fc_addr = 0
            valid = True

        mechanism._table_for(0)[0] = (0x1234, FakeFrag())
        mechanism.on_flush()
        # an empty slot is a missing one: no tag, no fragment
        assert mechanism._table_for(0).get(0) is None

    def test_correct_after_flush_pressure(self):
        source = dispatch_source(4, iterations=150)
        config = SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_entries=64,
                           fragment_cache_bytes=256)
        result = run_minic_sdt(source, config)
        assert result.stats.cache_flushes > 0
        # equivalence: recompute natively
        from conftest import run_minic

        assert result.output == run_minic(source).output

    @pytest.mark.parametrize("shared", (True, False),
                             ids=("shared", "persite"))
    def test_refill_survives_flush_during_reentry(self, shared):
        """A miss whose re-entry flushes the fragment cache fills the
        table that the site's next dispatch probes.  The flush drops
        the per-site tables, so a fill into the table fetched before
        re-entry would land in an orphan."""
        program = get_workload("perl_like", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(ibtc_shared=shared,
                                             fragment_cache_bytes=1024))
        ibtc = vm.generic_ib
        dispatch = ibtc.dispatch
        kept = []

        def checking(fragment, ib_pc, target):
            flushes = vm.stats.cache_flushes
            successor = dispatch(fragment, ib_pc, target)
            if vm.stats.cache_flushes != flushes:
                table = (ibtc._shared_table if shared
                         else ibtc._site_tables.get(ib_pc, {}))
                index = ibtc_index(target, ibtc.entries - 1)
                kept.append(table.get(index) is successor)
            return successor

        ibtc.dispatch = checking
        vm.run()
        assert kept, "no miss flushed the cache"
        assert all(kept), f"{kept.count(False)} of {len(kept)} fills lost"


class TestInlining:
    """Inline probe vs shared out-of-line stub (ablation axis)."""

    def test_outline_charges_stub_jump(self):
        from repro.host.costs import Category

        source = dispatch_source(2, iterations=100)
        inline = run_minic_sdt(
            source, SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_inline=True)
        )
        outline = run_minic_sdt(
            source, SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_inline=False)
        )
        dispatches = sum(inline.stats.ib_dispatches.values())
        extra = outline.cycles[Category.IBTC.value] - \
            inline.cycles[Category.IBTC.value]
        assert extra == dispatches * SIMPLE.ibtc_stub_jump

    def test_outline_shares_one_predictor_site(self):
        """Out-of-line funnels every IB through one host jump site, so two
        alternating monomorphic sites now thrash each other's prediction."""
        source = dispatch_source(2, iterations=200)
        inline = run_minic_sdt(
            source, SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_inline=True)
        )
        outline = run_minic_sdt(
            source, SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_inline=False)
        )
        assert outline.total_cycles > inline.total_cycles
        assert outline.output == inline.output

    def test_outline_label_and_name(self):
        config = SDTConfig(ib="ibtc", ibtc_inline=False)
        assert "outline" in config.label
        result = run_minic_sdt(
            dispatch_source(1, iterations=20),
            SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_inline=False),
        )
        assert any("outline" in key for key in result.stats.mechanism)


class TestHashKinds:
    def test_shift_hash_is_plain_mask(self):
        assert ibtc_index(0x400010, 0xFF, "shift") == (0x400010 >> 2) & 0xFF

    def test_fold_differs_from_shift_for_aliasing_addresses(self):
        # two addresses 2^12 words apart alias under shift with a small
        # mask but not (necessarily) under fold
        a, b = 0x400000, 0x400000 + (1 << 14)
        mask = (1 << 10) - 1
        assert ibtc_index(a, mask, "shift") == ibtc_index(b, mask, "shift")
        assert ibtc_index(a, mask, "fold") != ibtc_index(b, mask, "fold")

    def test_unknown_hash_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            IBTC(hash_kind="crc")
        with _pytest.raises(ValueError):
            SDTConfig(ibtc_hash="crc")

    def test_both_hashes_equivalent_behaviour(self):
        from conftest import run_minic

        source = dispatch_source(4, iterations=80)
        expected = run_minic(source).output
        for hash_kind in ("fold", "shift"):
            result = run_minic_sdt(
                source,
                SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_hash=hash_kind),
            )
            assert result.output == expected
