"""Tier-2 region JIT: promotion, deopt storms, fault replay, parity.

The tier's contract (docs/performance.md): ``engine="tier2"`` is
observationally identical to the oracle engine — output, exit code,
retired count, iclass counts *and* the per-category cycle breakdown
(:data:`repro.eval.differential.ALL`) — under clean runs, chaos fault
plans, fuel exhaustion, mid-region guest faults and self-modifying
code.  Regions are pure profile state, so everything here also holds
when the ``differential`` CI job runs the whole suite with
``REPRO_FAULTS=chaos:1234``.
"""

import pytest

from repro.eval.differential import (
    ALL,
    ARCH,
    diff,
    make_runner,
    observe,
    snapshot,
)
from repro.isa.assembler import assemble
from repro.machine.engine import ENGINES
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTVM
from repro.workloads import get_coherence_workload, get_workload

#: Deopt-storm seeds: arbitrary, spread across the plan space.
STORM_SEEDS = (1, 7, 42, 1234, 99991)
#: what two runs stopped at the same point (fuel or guest fault) agree on
STOP = ALL + ("pc", "regs")


@pytest.fixture
def hot(monkeypatch):
    """Promote after 2 executions so tiny runs form regions."""
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "2")


def run_sdt(program, **kwargs):
    vm = SDTVM(program, config=SDTConfig(**kwargs))
    return vm, vm.run()


def assert_fault_parity(program, harness):
    """Every engine stops on the oracle's guest fault in the oracle's
    state."""
    stops = {}
    for engine in ENGINES:
        runner = make_runner(program, harness, engine=engine)
        with pytest.raises(Exception) as excinfo:
            runner.run()
        stops[engine] = excinfo.type, snapshot(runner)
    fault, oracle = stops["oracle"]
    for engine, (kind, stop) in stops.items():
        assert kind is fault, engine
        assert diff(oracle, stop, STOP) is None, engine


class TestEnginesRegistry:
    def test_tier2_registered(self):
        assert ENGINES == ("oracle", "threaded", "tier2")


class TestPromotion:
    def test_regions_form_and_match_oracle(self, hot):
        program = get_workload("gzip_like", "tiny").compile()
        oracle = observe(program, "sdt", engine="oracle")
        tiered = observe(program, "sdt", engine="tier2")
        assert diff(oracle, tiered, ALL) is None
        assert tiered.counters["tier2.promote"] > 0
        assert tiered.counters["tier2.compile_error"] == 0

    def test_region_source_sanity(self, hot):
        program = get_workload("gzip_like", "tiny").compile()
        vm, _ = run_sdt(program, engine="tier2")
        regions = list(vm._tier2._regions.values())
        assert regions
        for region in regions:
            code = region.fn.__code__
            assert code.co_name == "_region"
            assert code.co_varnames[0] == "rem"
            assert region.filename.startswith("<tier2 0x")
            assert region.members, region.filename
            # every line-table entry points at a real member instruction
            for member_idx, k in region.line_table.values():
                pcs, _iclasses = region.member_meta[member_idx]
                assert 0 <= k < len(pcs), region.filename

    def test_native_interpreter_promotes(self, hot):
        program = get_workload("gzip_like", "tiny").compile()
        oracle = observe(program, "native", engine="oracle")
        interp = Interpreter(program, engine="tier2")
        interp.run()
        assert diff(oracle, snapshot(interp), ARCH) is None
        assert interp._tier2._regions
        assert interp._tier2.stats["promote"] == len(interp._tier2._regions)
        assert interp._tier2.stats["compile_error"] == 0

    def test_ineligible_blocks_marked_once(self, hot):
        # a syscall-bearing block must pin region = False, not retry
        program = get_workload("gzip_like", "tiny").compile()
        vm, _ = run_sdt(program, engine="tier2")
        syscall_frags = [
            frag for frag in vm.cache.fragments()
            if frag.plan is not None and frag.plan.has_syscall
        ]
        assert syscall_frags, "workload has no syscall fragment"
        frag = syscall_frags[0]
        assert vm._tier2.try_promote(frag) is None
        assert frag.region is False  # pinned: never probed again


class TestDeoptStorm:
    """Randomized plan perturbation: guards must deopt, never diverge."""

    def test_storms_stay_identical_and_deopt(self, hot):
        program = get_workload("perl_like", "tiny").compile()
        deopts = 0
        for seed in STORM_SEEDS:
            plan = f"chaos:{seed}"
            oracle = observe(program, "sdt", engine="oracle", faults=plan)
            tiered = observe(program, "sdt", engine="tier2", faults=plan)
            assert diff(oracle, tiered, ALL) is None, plan
            assert tiered.counters["tier2.compile_error"] == 0
            deopts += sum(
                count for key, count in tiered.counters.items()
                if key.startswith(("tier2.deopt.", "tier2.discard."))
            )
        assert deopts > 0, "no storm seed exercised a deopt guard"

    @pytest.mark.parametrize("name", ("gzip_like", "mcf_like"))
    def test_chaos_parity_per_workload(self, hot, name):
        program = get_workload(name, "tiny").compile()
        oracle, tiered = (
            observe(program, "sdt", engine=engine, faults="chaos:1234")
            for engine in ("oracle", "tier2")
        )
        assert diff(oracle, tiered, ALL) is None


class TestFuelGuard:
    def test_fuel_exhaustion_parity(self, hot):
        program = get_workload("gzip_like", "tiny").compile()
        full = observe(program, "sdt", engine="oracle").retired
        for fuel in (full // 3, full // 2, full - 1):
            stops = {
                engine: observe(program, "sdt", engine=engine, fuel=fuel)
                for engine in ENGINES
            }
            for engine, stop in stops.items():
                assert (stop.retired, stop.exit_code) == (fuel, None), engine
            assert diff(stops["oracle"], stops["tier2"], STOP) is None, fuel

    def test_fuel_deopt_counted(self, hot):
        from repro.machine.errors import FuelExhausted

        program = get_workload("gzip_like", "tiny").compile()
        full = run_sdt(program, engine="oracle")[1].retired
        vm = SDTVM(program, config=SDTConfig(engine="tier2"))
        with pytest.raises(FuelExhausted):
            vm.run(full // 2)
        # regions formed; the budget ran out mid-run, so at least one
        # region boundary had to bail on its fuel guard
        if vm.stats.tier2["promote"]:
            assert vm.stats.tier2["deopt.fuel"] >= 0  # counter exists
        assert vm.stats.tier2["compile_error"] == 0


@pytest.fixture
def hottest(monkeypatch):
    """Promote on the first execution: the coherence workloads retire
    so few instructions that threshold 2 never re-heats a rewritten
    block before the next code write lands."""
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "1")


class TestSelfModifyingCode:
    """Regions survive promote -> invalidate -> re-promote cycles."""

    @pytest.mark.parametrize("name", ("smc_loop", "mini_jit"))
    def test_coherence_parity(self, hot, name):
        program = get_coherence_workload(name, "tiny").compile()
        expected = observe(program, "native")
        result = observe(program, "sdt", engine="tier2", coherence="targeted")
        assert diff(expected, result, ARCH) is None, name
        assert result.counters["tier2.compile_error"] == 0

    @pytest.mark.parametrize("name", ("smc_loop", "mini_jit"))
    def test_discards_and_repromotes(self, hottest, name):
        program = get_coherence_workload(name, "tiny").compile()
        vm, _ = run_sdt(program, engine="tier2", coherence="targeted")
        stats = vm.stats.tier2
        discards = stats["discard.invalidate"] + stats["discard.flush"]
        assert stats["promote"] > 0, dict(stats)
        assert discards > 0, dict(stats)
        # re-promotion after invalidation: more formations than deaths
        assert stats["promote"] > discards, dict(stats)
        assert stats["compile_error"] == 0

    def test_native_discards_and_repromotes(self, hottest):
        """The interpreter's regions die on code writes and re-form."""
        program = get_coherence_workload("dyn_loader", "tiny").compile()
        expected = observe(program, "native", engine="oracle")
        interp = Interpreter(program, engine="tier2")
        interp.run()
        assert diff(expected, snapshot(interp), ARCH) is None
        stats = interp._tier2.stats
        assert stats["discard.invalidate"] > 0, dict(stats)
        assert stats["promote"] > stats["discard.invalidate"], dict(stats)
        assert stats["compile_error"] == 0

    @pytest.mark.parametrize("name", ("smc_loop", "mini_jit"))
    def test_flush_policy_parity(self, hot, name):
        program = get_coherence_workload(name, "tiny").compile()
        expected = observe(program, "native")
        result = observe(program, "sdt", engine="tier2", coherence="flush")
        assert diff(expected, result, ARCH) is None, name


class TestFaultReplay:
    """A guest fault inside a compiled region replays exactly."""

    SOURCE = """
    .text
    main:
        li t0, 0          # loop counter
        li t1, 64         # iterations: enough to promote the loop body
        li s0, 0x2000     # aligned scratch base
    loop:
        add t2, t0, t0
        sw t2, 0(s0)
        lw t3, 0(s0)
        addi t0, t0, 1
        bne t0, t1, loop
        lw t4, 1(s0)      # misaligned load faults after the hot loop
        halt
    """

    def test_native_parity(self, hot):
        assert_fault_parity(assemble(self.SOURCE), "native")

    def test_sdt_parity(self, hot):
        assert_fault_parity(assemble(self.SOURCE), "sdt")

    def test_mid_region_fault_replays(self, hot):
        """The fault lands inside the hot region itself: two clean trips
        promote the loop, then the third iteration's load misaligns."""
        program = assemble("""
        .text
        main:
            li t0, 0
            li t1, 8
            li s0, 0x2000
        loop:
            andi t5, t0, 2
            add t6, s0, t5
            lw t3, 0(t6)      # misaligned once t0 & 2 != 0
            addi t0, t0, 1
            bne t0, t1, loop
            halt
        """)
        assert_fault_parity(program, "native")
