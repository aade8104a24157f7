"""Closure compiler + superblock unit tests (repro.machine.engine).

Every specialised closure must match :func:`repro.machine.executor.execute`
bit-for-bit; these tests drive each opcode through both paths on
randomised machine state and compare the complete architectural outcome.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.faults.inject import apply_plan_perturbation
from repro.host.costs import Category, HostModel, NativeCostObserver
from repro.host.profile import SIMPLE
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_TABLE, Fmt, InstrClass, Op
from repro.machine.cpu import CPUState
from repro.machine.engine import (
    ENGINES,
    MAX_SUPERBLOCK_INSTRS,
    Superblock,
    compile_instr,
    default_engine,
    resolve_engine,
)
from repro.machine.errors import (
    AlignmentFault,
    DivideByZeroFault,
    FuelExhausted,
    GuestFault,
    MemoryFault,
)
from repro.machine.executor import execute
from repro.machine.interpreter import Interpreter
from repro.machine.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Memory
from repro.machine.runner import BlockRunner
from repro.machine.syscalls import SyscallHandler
from repro.sdt.fragment import ExitKind
from repro.sdt.ib.base import Mechanism
from repro.sdt.ib.ibtc import IBTC
from repro.sdt.ib.predict import InlinePrediction
from repro.sdt.ib.returns import (
    FastReturns,
    ReturnCache,
    ReturnsAsIB,
    ShadowReturnStack,
)
from repro.sdt.ib.sieve import Sieve
from repro.sdt.translator import Translator
from repro.sdt.vm import SDTVM

from conftest import ExitRecorder, run_minic, stepped_exits

PC = 0x0040_0100
MEM_BASE = 0x2000_0000  # scratch data region for load/store operands


def _fresh_state(seed: int) -> tuple[CPUState, Memory, SyscallHandler]:
    rng = random.Random(seed)
    cpu = CPUState(pc=PC)
    for reg in range(1, 32):
        cpu.regs[reg] = rng.getrandbits(32)
    mem = Memory()
    for offset in range(0, 64, 4):
        mem.store_word(MEM_BASE + offset, rng.getrandbits(32))
    return cpu, mem, SyscallHandler()


def _prepare(instr: Instruction, cpu: CPUState, rng: random.Random) -> None:
    """Constrain operands so the instruction cannot fault."""
    op = instr.op
    if OP_TABLE[op].fmt is Fmt.MEM:
        width = {Op.LW: 4, Op.SW: 4, Op.LH: 2, Op.LHU: 2, Op.SH: 2}.get(op, 1)
        aligned = MEM_BASE + rng.randrange(0, 48, width or 1)
        cpu.regs[instr.rs] = (aligned - instr.imm) & 0xFFFFFFFF
    elif op in (Op.DIV, Op.REM) and cpu.regs[instr.rt] == 0:
        cpu.regs[instr.rt] = 7


def _random_instr(op: Op, rng: random.Random) -> Instruction:
    fmt = OP_TABLE[op].fmt
    rd = rng.randrange(1, 32)
    rs = rng.randrange(0, 32)
    rt = rng.randrange(0, 32)
    if fmt is Fmt.R3:
        return Instruction(op=op, rd=rd, rs=rs, rt=rt)
    if fmt is Fmt.SHIFT:
        return Instruction(op=op, rd=rd, rt=rt, shamt=rng.randrange(32))
    if fmt is Fmt.I2:
        imm = rng.randrange(-0x8000, 0x8000)
        if OP_TABLE[op].zero_ext_imm:
            imm = rng.randrange(0, 0x10000)
        return Instruction(op=op, rt=rd, rs=rs, imm=imm)
    if fmt is Fmt.LUI:
        return Instruction(op=op, rt=rd, imm=rng.randrange(0, 0x10000))
    if fmt is Fmt.MEM:
        return Instruction(op=op, rt=rt, rs=rs, imm=rng.randrange(0, 16, 4))
    if fmt is Fmt.BR:
        return Instruction(op=op, rs=rs, rt=rt, imm=rng.randrange(-64, 64))
    if fmt is Fmt.J:
        return Instruction(op=op, imm=(PC + rng.randrange(-64, 64) * 4)
                           % (1 << 28) >> 2)
    if fmt is Fmt.JR:
        return Instruction(op=op, rs=rs)
    if fmt is Fmt.JALR:
        return Instruction(op=op, rd=rd, rs=rs)
    return Instruction(op=op)  # NONE: ret, syscall, halt


def _run_both(instr: Instruction, seed: int):
    """Execute one instruction via oracle and closure on twin states."""
    cpu_a, mem_a, sys_a = _fresh_state(seed)
    cpu_b, mem_b, sys_b = _fresh_state(seed)
    rng = random.Random(seed + 1)
    _prepare(instr, cpu_a, rng)
    _prepare(instr, cpu_b, random.Random(seed + 1))

    cpu_a.pc = PC
    next_a = execute(instr, cpu_a, mem_a, sys_a)
    fn = compile_instr(PC, instr, cpu_b, mem_b, sys_b)
    next_b = fn()

    assert next_a == next_b, f"{instr}: next_pc {next_a:#x} != {next_b:#x}"
    assert cpu_a.regs == cpu_b.regs, f"{instr}: register files diverged"
    for offset in range(0, 64, 4):
        assert (mem_a.load_word(MEM_BASE + offset)
                == mem_b.load_word(MEM_BASE + offset)), instr
    assert sys_a.exit_code == sys_b.exit_code, instr


NON_SYSCALL_OPS = [op for op in Op if op is not Op.SYSCALL]


#: ``lw``/``sw`` effective addresses beyond the resident aligned words
#: of ``_fresh_state``: every fallback of the word closures' fast path,
#: and the top of the address space
WORD_ADDRESSES = {
    "untouched": 0x3000_0000,  # no page yet: a load reads 0, a store allocates
    "misaligned": MEM_BASE + 6,
    "top": 0xFFFF_FFFC,  # last aligned word below 2**32, page made resident
    "watched": MEM_BASE + 16,  # resident page under a write watch
}


def _word_outcome(instr: Instruction, addr: int, kind: str, closure: bool):
    """Run one ``lw``/``sw`` at ``addr`` through the oracle executor or
    the threaded closure; return everything it can observably change."""
    cpu, mem, syscalls = _fresh_state(5)
    calls: list[tuple[int, int]] = []
    mem.set_write_watch(lambda at, length: calls.append((at, length)))
    if kind == "watched":
        mem.watch_page(addr >> PAGE_SHIFT)
    if kind == "top":
        mem.store_word(addr, 0x1234_5678)
    cpu.regs[instr.rs] = (addr - instr.imm) & 0xFFFFFFFF
    cpu.pc = PC
    fault = None
    try:
        if closure:
            compile_instr(PC, instr, cpu, mem, syscalls)()
        else:
            execute(instr, cpu, mem, syscalls)
    except GuestFault as exc:
        fault = (type(exc), str(exc))
    page = addr & ~PAGE_MASK
    return {
        "fault": fault,
        "regs": list(cpu.regs),
        "resident": mem.resident_pages,
        "page": mem.read_bytes(page, PAGE_SIZE),
        "data": mem.read_bytes(MEM_BASE, 64),
        "calls": calls,
    }


@pytest.mark.parametrize("cls", (InstrClass, Op, ExitKind, Category),
                         ids=lambda cls: cls.__name__)
def test_hot_enums_hash_by_identity(cls):
    """The enums keyed on every block hash in C, not through
    ``Enum.__hash__`` (docs/performance.md, "Host hot path")."""
    assert cls.__hash__ is object.__hash__
    assert all(hash(member) == object.__hash__(member) for member in cls)


@pytest.mark.parametrize("fn", (
    NativeCostObserver.exit, BlockRunner._run_block, HostModel.charge_instr,
    IBTC.dispatch, Sieve.dispatch, InlinePrediction.dispatch,
    ReturnsAsIB.dispatch_ret, FastReturns.on_call, FastReturns.dispatch_ret,
    ShadowReturnStack.on_call, ShadowReturnStack.dispatch_ret,
    ReturnCache.dispatch_ret, SDTVM.reenter_translator,
    SDTVM._direct_successor, Translator.translate,
), ids=lambda fn: fn.__qualname__)
def test_hot_enum_members_bound_once(fn):
    """Per-block and per-dispatch code reads enum members from module
    globals, not off the class through ``EnumType.__getattr__``
    (docs/performance.md, "Host hot path")."""
    names = fn.__code__.co_names
    assert "InstrClass" not in names
    assert "Category" not in names
    assert "ExitKind" not in names


def test_mechanism_counter_keys_built_once():
    """A hit or a miss bumps a counter under a key built in ``bind``,
    not an f-string of ``name`` per dispatch."""
    from repro.isa.assembler import assemble

    for fn in (Mechanism._hit, Mechanism._miss):
        assert "name" not in fn.__code__.co_names
    vm = SDTVM(assemble(".text\nmain:\n    halt\n"))
    mech = IBTC(entries=64)
    mech.bind(vm)
    mech._hit()
    mech._miss()
    mech._miss()
    assert vm.stats.mechanism["ibtc-shared-64.hit"] == 1
    assert vm.stats.mechanism["ibtc-shared-64.miss"] == 2


def test_block_body_bumps_one_counter():
    """The whole-block body bumps its class vector's run counter instead
    of looping over the class counts, and the tables the hot paths
    subscript are exact dicts keyed by every member (docs/performance.md,
    "Host hot path", rule 5)."""
    from repro.isa.assembler import assemble

    names = BlockRunner._run_block.__code__.co_names
    assert "class_counts" not in names
    assert "items" not in names
    cycles = HostModel(SIMPLE).cycles
    assert type(cycles) is dict and list(cycles) == list(Category)
    direct = BlockRunner(assemble(".text\nmain:\n    halt\n"), None,
                         None)._direct_counts
    assert type(direct) is dict and list(direct) == list(InstrClass)


class TestClosureSemantics:
    @pytest.mark.parametrize("op", NON_SYSCALL_OPS, ids=lambda o: o.value)
    def test_matches_oracle_on_random_state(self, op):
        # crc32, not hash(): str hashes are salted per process
        rng = random.Random(zlib.crc32(op.value.encode()) & 0xFFFF)
        for trial in range(16):
            instr = _random_instr(op, rng)
            _run_both(instr, seed=trial * 1021 + 7)

    def test_write_to_r0_discarded(self):
        for op in (Op.ADD, Op.LW, Op.JALR, Op.LUI, Op.SLL):
            rng = random.Random(3)
            instr = _random_instr(op, rng)
            fields = {
                "op": instr.op, "rd": instr.rd, "rs": instr.rs,
                "rt": instr.rt, "imm": instr.imm, "shamt": instr.shamt,
            }
            if OP_TABLE[op].fmt in (Fmt.I2, Fmt.LUI, Fmt.MEM):
                fields["rt"] = 0
            else:
                fields["rd"] = 0
            _run_both(Instruction(**fields), seed=99)

    def test_jalr_rd_equals_rs_reads_target_first(self):
        _run_both(Instruction(op=Op.JALR, rd=5, rs=5), seed=123)

    def test_divide_by_zero_raises_in_both(self):
        instr = Instruction(op=Op.DIV, rd=3, rs=1, rt=2)
        cpu_a, mem_a, sys_a = _fresh_state(0)
        cpu_b, mem_b, sys_b = _fresh_state(0)
        cpu_a.regs[2] = cpu_b.regs[2] = 0
        cpu_a.pc = PC
        with pytest.raises(DivideByZeroFault):
            execute(instr, cpu_a, mem_a, sys_a)
        fn = compile_instr(PC, instr, cpu_b, mem_b, sys_b)
        with pytest.raises(DivideByZeroFault):
            fn()

    @pytest.mark.parametrize("kind", WORD_ADDRESSES)
    @pytest.mark.parametrize("op", (Op.LW, Op.SW), ids=lambda o: o.value)
    def test_word_fallbacks_match_oracle(self, op, kind):
        """On every address the word fast path hands on to
        ``load_word``/``store_word``, and at the top of memory, the
        closure ends exactly as the oracle: registers, memory, page
        allocation, fault type and message, watch-hook calls."""
        addr = WORD_ADDRESSES[kind]
        instr = Instruction(op=op, rt=3, rs=1, imm=8)
        oracle = _word_outcome(instr, addr, kind, closure=False)
        threaded = _word_outcome(instr, addr, kind, closure=True)
        assert threaded == oracle
        watched_store = op is Op.SW and kind == "watched"
        assert threaded["calls"] == ([(addr, 4)] if watched_store else [])
        if kind == "misaligned":
            assert threaded["fault"][0] is AlignmentFault
        else:
            assert threaded["fault"] is None

    def test_memory_fault_raises_in_both(self):
        instr = Instruction(op=Op.LW, rt=3, rs=1, imm=0)
        for misaligned in (0x2000_0001, 0xFFFF_FFFD):
            cpu_a, mem_a, sys_a = _fresh_state(0)
            cpu_b, mem_b, sys_b = _fresh_state(0)
            cpu_a.regs[1] = cpu_b.regs[1] = misaligned
            cpu_a.pc = PC
            a = b = None
            try:
                execute(instr, cpu_a, mem_a, sys_a)
            except Exception as exc:
                a = type(exc)
            fn = compile_instr(PC, instr, cpu_b, mem_b, sys_b)
            try:
                fn()
            except Exception as exc:
                b = type(exc)
            assert a is not None and a is b


class TestSuperblock:
    def _block(self, ops, class_cycles=None):
        pairs = [
            (PC + 4 * i, Instruction(op=op, rd=1, rs=2, rt=3))
            for i, op in enumerate(ops)
        ]
        cpu, mem, sys_ = _fresh_state(1)
        return Superblock(pairs, cpu, mem, sys_, class_cycles=class_cycles)

    def test_counts_and_cycles(self):
        block = self._block(
            [Op.ADD, Op.ADD, Op.MUL, Op.RET],
            class_cycles=SIMPLE.class_cycles,
        )
        assert block.n == 4
        assert block.class_counts == {
            InstrClass.ALU: 2, InstrClass.MUL: 1, InstrClass.RET: 1,
        }
        expected = (
            2 * SIMPLE.class_cycles[InstrClass.ALU]
            + SIMPLE.class_cycles[InstrClass.MUL]
            + SIMPLE.class_cycles[InstrClass.RET]
        )
        assert block.app_cycles == expected
        assert block.term_iclass is InstrClass.RET
        assert block.term_pc == PC + 12
        assert not block.has_syscall

    def test_syscall_flag(self):
        block = self._block([Op.ADD, Op.SYSCALL, Op.ADD])
        assert block.has_syscall

    def test_without_cost_model(self):
        assert self._block([Op.ADD]).app_cycles == 0

    def test_empty_block_rejected(self):
        cpu, mem, sys_ = _fresh_state(0)
        with pytest.raises(ValueError):
            Superblock([], cpu, mem, sys_)

    def test_rebuild_does_not_recount_classes(self, monkeypatch):
        block = self._block([Op.ADD, Op.MUL, Op.ADD, Op.RET])
        pristine = dict(block.class_counts)
        apply_plan_perturbation(block, "classes")
        calls = []
        monkeypatch.setattr("repro.machine.engine._class_counts",
                            lambda iclasses: calls.append(iclasses))
        rebuilt = block.rebuilt()
        assert calls == []
        assert rebuilt.class_counts == pristine
        assert list(rebuilt.class_counts) == list(pristine)


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("oracle", "threaded", "tier2")

    def test_default_is_threaded(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "threaded"
        assert resolve_engine(None) == "threaded"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "oracle")
        assert resolve_engine(None) == "oracle"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "oracle")
        assert resolve_engine("threaded") == "threaded"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("jit")


SOURCE = r"""
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(12));
    return 0;
}
"""


class TestInterpreterThreaded:
    def _program(self):
        from repro.lang import compile_to_program

        return compile_to_program(SOURCE)

    def test_results_identical(self):
        program = self._program()
        oracle = Interpreter(program, engine="oracle").run()
        threaded = Interpreter(program, engine="threaded").run()
        assert threaded.output == oracle.output
        assert threaded.exit_code == oracle.exit_code
        assert threaded.retired == oracle.retired
        assert threaded.iclass_counts == oracle.iclass_counts

    def test_cycles_identical_with_observer(self):
        program = self._program()
        cycles = {}
        for engine in ENGINES:
            model = HostModel(SIMPLE)
            Interpreter(
                program, observer=NativeCostObserver(model), engine=engine
            ).run()
            cycles[engine] = (model.total_cycles, dict(model.cycles))
        for engine in ENGINES[1:]:
            assert cycles[engine] == cycles["oracle"], engine

    def test_fuel_parity_at_every_boundary(self):
        """Both engines stop at exactly the same retired count."""
        program = self._program()
        full = Interpreter(program, engine="oracle").run().retired
        for fuel in (0, 1, 2, 3, 7, 50, 51, 52, 53, full - 1):
            interps = {
                engine: Interpreter(program, engine=engine)
                for engine in ENGINES
            }
            for engine, interp in interps.items():
                with pytest.raises(FuelExhausted):
                    interp.run(fuel)
                assert interp.retired == fuel, (engine, fuel)
            for engine in ENGINES[1:]:
                assert (interps[engine].iclass_counts
                        == interps["oracle"].iclass_counts), (engine, fuel)

    def test_fuel_exactly_sufficient(self):
        program = self._program()
        full = Interpreter(program, engine="oracle").run().retired
        result = Interpreter(program, engine="threaded").run(full)
        assert result.retired == full

    def test_fault_parity(self):
        """A mid-run fault fires at the same retired count in both engines."""
        from repro.isa.assembler import assemble

        program = assemble("""
        .text
        main:
            li t0, 5
            li t1, 3
            add t2, t0, t1
            lw t3, 1(t0)      # misaligned load faults here
            halt
        """)
        outcomes = {}
        for engine in ENGINES:
            interp = Interpreter(program, engine=engine)
            with pytest.raises(Exception) as excinfo:
                interp.run()
            outcomes[engine] = (type(excinfo.value), interp.retired,
                                interp.cpu.pc)
        for engine in ENGINES[1:]:
            assert outcomes[engine] == outcomes["oracle"], engine

    def test_arbitrary_observer_runs_block_engine(self):
        """A non-native observer runs superblocks, not the oracle loop,
        and sees the oracle's exit sequence."""
        program = self._program()
        expected = stepped_exits(program)
        assert expected
        for engine in ENGINES[1:]:
            recorder = ExitRecorder()
            interp = Interpreter(program, observer=recorder, engine=engine)
            interp.run()
            assert interp._blocks, engine
            assert recorder.exits == expected, engine

    def test_blocks_cached_by_entry_pc(self):
        program = self._program()
        interp = Interpreter(program, engine="threaded")
        interp.run()
        assert interp._blocks  # populated
        assert all(pc == block.entry_pc
                   for pc, block in interp._blocks.items())
        assert all(block.n <= MAX_SUPERBLOCK_INSTRS
                   for block in interp._blocks.values())

    def test_minic_conftest_helper_unchanged(self):
        # the shared helper should keep working whatever the default engine
        assert run_minic(SOURCE).exit_code == 0


class TestMemoryFastPath:
    def test_bounds_and_alignment_error_order(self):
        from repro.machine.errors import AlignmentFault

        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.load_word(0xFFFF_FFFE)  # out of range beats misalignment
        with pytest.raises(AlignmentFault):
            mem.load_word(0x1002)
        with pytest.raises(AlignmentFault):
            mem.store_half(0x1001, 1)
        with pytest.raises(MemoryFault):
            mem.store_word(-4, 1)

    def test_roundtrip(self):
        mem = Memory()
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF
        mem.store_half(0x1004, 0xBEEF)
        assert mem.load_half(0x1004) == 0xBEEF
        assert mem.load_byte(0x1005) == 0xBE
