"""Interpreter behaviour: syscalls, counting, fuel, observers, CPU state."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.opcodes import InstrClass
from repro.machine.cpu import CPUState, s32, u32
from repro.machine.engine import ENGINES
from repro.machine.errors import FuelExhausted, InvalidSyscall
from repro.machine.interpreter import Interpreter

from conftest import ExitRecorder, run_asm, stepped_exits


class TestCPUState:
    def test_zero_register_immutable(self):
        cpu = CPUState()
        cpu.write(0, 99)
        assert cpu.read(0) == 0

    def test_writes_masked_to_32_bits(self):
        cpu = CPUState()
        cpu.write(1, -1)
        assert cpu.read(1) == 0xFFFFFFFF
        cpu.write(2, 1 << 35)
        assert cpu.read(2) == 0

    def test_snapshot_captures_pc_and_regs(self):
        cpu = CPUState(pc=0x400000, sp=0x7000)
        snap = cpu.snapshot()
        cpu.write(5, 1)
        assert snap != cpu.snapshot()

    def test_u32_s32_helpers(self):
        assert u32(-1) == 0xFFFFFFFF
        assert s32(0xFFFFFFFF) == -1
        assert s32(0x7FFFFFFF) == 0x7FFFFFFF
        assert s32(0x80000000) == -0x80000000


class TestSyscalls:
    def test_print_int_negative(self):
        out = run_asm(
            ".text\nmain:\nli a0, -42\nli v0, 1\nsyscall\n"
            "li v0, 10\nsyscall\n"
        )
        assert out.output == "-42"

    def test_print_char_and_string(self):
        out = run_asm(
            '.text\nmain:\nli a0, 65\nli v0, 11\nsyscall\n'
            "la a0, s\nli v0, 4\nsyscall\nli v0, 10\nsyscall\n"
            '.data\ns: .asciiz "bc"\n'
        )
        assert out.output == "Abc"

    def test_exit_code(self):
        out = run_asm(".text\nmain:\nli a0, 3\nli v0, 10\nsyscall\n")
        assert out.exit_code == 3

    def test_read_int_from_inputs(self):
        out = run_asm(
            ".text\nmain:\nli v0, 5\nsyscall\nmv a0, v0\nli v0, 1\n"
            "syscall\nli v0, 10\nsyscall\n",
            inputs=[123],
        )
        assert out.output == "123"

    def test_read_int_exhausted_returns_zero(self):
        out = run_asm(
            ".text\nmain:\nli v0, 5\nsyscall\nmv a0, v0\nli v0, 1\n"
            "syscall\nli v0, 10\nsyscall\n",
        )
        assert out.output == "0"

    def test_sbrk_monotonic_and_aligned(self):
        out = run_asm(
            ".text\nmain:\nli a0, 5\nli v0, 9\nsyscall\nmv t0, v0\n"
            "li a0, 8\nli v0, 9\nsyscall\nsub a0, v0, t0\n"
            "li v0, 1\nsyscall\nli v0, 10\nsyscall\n"
        )
        assert int(out.output) == 16  # 5 rounded up to 16

    def test_invalid_service_faults(self):
        prog = assemble(".text\nmain:\nli v0, 77\nsyscall\n")
        with pytest.raises(InvalidSyscall):
            Interpreter(prog).run()

    def test_halt_without_exit_sets_code_zero(self):
        out = run_asm(".text\nmain:\nhalt\n")
        assert out.exit_code == 0


class TestCounting:
    def test_retired_counts_all(self):
        out = run_asm(".text\nmain:\nnop\nnop\nli v0, 10\nsyscall\n")
        assert out.retired == 4

    def test_iclass_counts(self):
        out = run_asm(
            ".text\nmain:\njal f\nli v0, 10\nsyscall\nf:\nret\n"
        )
        assert out.iclass_counts[InstrClass.CALL] == 1
        assert out.iclass_counts[InstrClass.RET] == 1
        assert out.indirect_branches == 1

    def test_fuel_exhaustion(self):
        prog = assemble(".text\nmain:\nloop:\nj loop\n")
        with pytest.raises(FuelExhausted):
            Interpreter(prog).run(fuel=100)


class TestObserver:
    def test_observer_sees_every_control_transfer(self):
        """``exit`` fires once per retired control transfer, in order,
        with the same sequence under every engine."""
        prog = assemble(
            ".text\nmain:\nli t0, 3\nloop:\njal f\naddi t0, t0, -1\n"
            "bnez t0, loop\nla t1, done\njr t1\ndone:\nli v0, 10\n"
            "syscall\nf:\nret\n"
        )
        expected = stepped_exits(prog)
        assert {iclass for _pc, iclass, _next in expected} == {
            InstrClass.CALL, InstrClass.RET, InstrClass.BRANCH,
            InstrClass.IJUMP,
        }
        for engine in ENGINES:
            recorder = ExitRecorder()
            Interpreter(prog, observer=recorder, engine=engine).run()
            assert recorder.exits == expected, engine

    def test_observer_gets_branch_resolution(self):
        prog = assemble(
            ".text\nmain:\nli t0, 1\nbeq t0, zero, skip\nli v0, 10\n"
            "syscall\nskip:\nhalt\n"
        )
        for engine in ENGINES:
            recorder = ExitRecorder()
            Interpreter(prog, observer=recorder, engine=engine).run()
            transfers = [
                next_pc == pc + 4 for pc, iclass, next_pc in recorder.exits
                if iclass is InstrClass.BRANCH
            ]
            assert transfers == [True], engine  # not taken -> fallthrough


class TestDeterminism:
    def test_same_program_same_result(self):
        source = (
            ".text\nmain:\nli t0, 0\nli t1, 100\nloop:\n"
            "add t0, t0, t1\naddi t1, t1, -1\nbnez t1, loop\n"
            "mv a0, t0\nli v0, 1\nsyscall\nli v0, 10\nsyscall\n"
        )
        first = run_asm(source)
        second = run_asm(source)
        assert first.output == second.output == "5050"
        assert first.retired == second.retired
