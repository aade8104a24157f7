"""The shared differential harness (repro.eval.differential)."""

from dataclasses import replace

import pytest

from repro.eval.differential import (
    ALL,
    ARCH,
    HARNESSES,
    diff,
    observe,
    snapshot,
)
from repro.isa.assembler import assemble
from repro.lang import compile_to_program
from repro.machine.engine import ENGINES
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload

_FIB = r"""
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(8));
    return 0;
}
"""


@pytest.fixture(scope="module")
def fib():
    return compile_to_program(_FIB)


class TestDiff:
    def test_first_differing_field_in_declared_order(self, fib):
        base = observe(fib, "native")
        other = replace(base, retired=base.retired + 1, output="x")
        assert diff(base, base, ALL) is None
        assert diff(base, other, ALL) == "output"
        assert diff(base, other, ("retired", "output")) == "retired"
        assert diff(base, other, ("cycles", "exit_code")) is None

    def test_cycle_moved_between_categories(self, fib):
        """A cycle that moves between categories keeps the total: only
        ``ALL`` sees it."""
        base = observe(fib, "sdt", faults=None)
        cycles = dict(base.cycles)
        cycles["app"] -= 1
        cycles["ibtc"] += 1
        moved = replace(base, cycles=cycles)
        assert sum(moved.cycles.values()) == sum(base.cycles.values())
        assert diff(base, moved, ARCH) is None
        assert diff(base, moved, ALL) == "cycles"


class TestObserve:
    @pytest.mark.parametrize("fuel", (1, 37, 500))
    def test_fuel_stop(self, fib, fuel):
        """``exit_code`` is ``None`` and ``pc`` is the next unexecuted
        instruction, in every harness and engine."""
        stepped = Interpreter(fib, engine="oracle")
        for _ in range(fuel):
            stepped.step()
        for harness in HARNESSES:
            for engine in ENGINES:
                stop = observe(fib, harness, engine=engine, fuel=fuel)
                context = (harness, engine)
                assert stop.exit_code is None, context
                assert stop.retired == fuel, context
                assert stop.pc == stepped.cpu.pc, context
        assert observe(fib, "native").exit_code == 0

    @pytest.mark.parametrize("guest", (
        "fib", "halt", "gzip_like", "parser_like", "eon_like",
    ))
    def test_clean_exit_pc_and_regs(self, fib, guest):
        """A clean exit leaves ``cpu.pc`` where the exiting instruction
        sent it (the exit syscall's successor, or the spinning ``halt``)
        and the same registers, in every harness and engine."""
        if guest == "fib":
            program = fib
        elif guest == "halt":
            program = assemble(
                ".text\nmain:\nli r8, 5\nloop:\naddi r8, r8, -1\n"
                "bne r8, r0, loop\nhalt\n")
        else:
            program = get_workload(guest, "tiny").compile()
        reference = observe(program, "native", engine="oracle")
        assert reference.exit_code == 0
        for harness in HARNESSES:
            for engine in ENGINES:
                options = {"faults": None} if harness == "sdt" else {}
                run = observe(program, harness, engine=engine, **options)
                assert diff(reference, run, ARCH + ("pc", "regs")) is None, \
                    (harness, engine, hex(run.pc), hex(reference.pc))

    def test_tier2_counters_in_both_harnesses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "2")
        program = get_workload("gzip_like", "tiny").compile()
        interp = Interpreter(program, engine="tier2")
        interp.run()
        vm = SDTVM(program, config=SDTConfig(engine="tier2", faults=None))
        vm.run()
        for runner, stats in ((interp, interp._tier2.stats),
                              (vm, vm.stats.tier2)):
            counters = snapshot(runner).counters
            assert counters["tier2.promote"] == stats["promote"] > 0
            assert "checker.violations" not in counters

    def test_checker_counts_in_sdt(self):
        program = get_workload("gzip_like", "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(
            faults="storm:1234", fragment_cache_bytes=1024))
        vm.run()
        counters = snapshot(vm).counters
        checker = vm.invariant_checker
        assert counters["checker.flushes_checked"] == \
            checker.flushes_checked > 0
        assert counters["checker.invalidations_checked"] == 0
        assert counters["checker.violations"] == 0
        assert counters["faults.flush_storm"] > 0

    def test_environment_fault_plan_applies_by_default(self, fib,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chaos:1234")
        assert "checker.violations" in observe(fib, "sdt").counters
        assert "checker.violations" not in observe(
            fib, "sdt", faults=None).counters
        monkeypatch.delenv("REPRO_FAULTS")
        assert "checker.violations" not in observe(fib, "sdt").counters

    def test_rejects_bad_harness_arguments(self, fib):
        with pytest.raises(ValueError):
            observe(fib, "jit")
        with pytest.raises(TypeError):
            observe(fib, "native", faults=None)
