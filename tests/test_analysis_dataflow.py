"""Value-set dataflow fixed point (repro.analysis.dataflow).

The class names below mirror the soundness edge cases the analysis must
survive: loop-carried redefinitions must widen (never retain a stale
constant), loads must see every store the program can perform, and
degenerate jump tables (duplicate entries, self-referential entries)
must converge to sound sets.
"""

import pytest

from repro.analysis.classify import analyze_program
from repro.analysis.dataflow import (
    BOT,
    ConstSet,
    K_CONST,
    MAX_ROUNDS,
    Strided,
    StoreModel,
    TOP,
    _binop,
    analyze_dataflow,
    concrete,
    const,
    join,
)
from repro.analysis.targets import build_report
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.registers import reg_number
from repro.machine.cpu import CPUState, u32
from repro.machine.errors import DivideByZeroFault
from repro.machine.executor import execute
from repro.machine.memory import Memory
from repro.machine.syscalls import SyscallHandler

INT_MIN = 0x8000_0000


def dataflow_for(source: str):
    program = assemble(source)
    analysis = analyze_program(program)
    extra = {t for s in analysis.sites.values() for t in s.targets}
    return program, analysis, analyze_dataflow(analysis.cfg, extra)


def site_value(program, analysis, dataflow, mnemonic: str):
    """Abstract value at the first IB site using ``mnemonic``."""
    instrs = dict(analysis.cfg.linear())
    for pc in sorted(analysis.sites):
        if instrs[pc].op.value == mnemonic:
            return dataflow.site_values[pc]
    raise AssertionError(f"no {mnemonic} site")


class TestDomain:
    def test_const_widens_past_budget(self):
        assert isinstance(const(*range(K_CONST)), ConstSet)
        assert const(*range(K_CONST + 1)) is TOP

    def test_join_absorbs_bot_and_top(self):
        v = const(4)
        assert join(BOT, v) == v
        assert join(v, BOT) == v
        assert join(TOP, v) is TOP

    def test_join_strided_absorbs_contained_consts(self):
        s = Strided(0, 4, 8)
        assert join(s, const(0, 4)) == s
        assert join(const(12), s) == s

    def test_join_disjoint_past_budget_is_top(self):
        a = const(*range(0, 2 * K_CONST, 2))
        b = const(*range(1, 2 * K_CONST, 2))
        assert join(a, b) is TOP

    def test_strided_concretises(self):
        assert concrete(Strided(0x100, 4, 3)) == frozenset(
            {0x100, 0x104, 0x108}
        )


def executed(op: Op, a: int, b: int) -> int:
    """``rd`` after the executor runs ``op rd, rs, rt`` on ``a`` and ``b``."""
    cpu = CPUState()
    cpu.regs[1], cpu.regs[2] = a, b
    execute(Instruction(op=op, rd=3, rs=1, rt=2), cpu, Memory(),
            SyscallHandler())
    return cpu.regs[3]


class TestBinop:
    """Constant folding of register-register ops is the executor's
    arithmetic: truncating signed division, sign-following remainder,
    signed compare and arithmetic shift by the low five bits."""

    @pytest.mark.parametrize("op", (Op.DIV, Op.REM, Op.SLT, Op.SRAV))
    @pytest.mark.parametrize("a, b", [
        (INT_MIN, u32(-1)),  # the one quotient that overflows
        (INT_MIN, 1),
        (INT_MIN, 3),
        (u32(-7), 2),
        (7, u32(-2)),
        (u32(-7), u32(-2)),
        (0x7FFF_FFFF, u32(-1)),
        (u32(-1), 33),
        (5, 7),
    ])
    def test_matches_executor(self, op, a, b):
        assert _binop(op, a, b) == executed(op, a, b)

    @pytest.mark.parametrize("op", (Op.DIV, Op.REM))
    @pytest.mark.parametrize("a", (0, 7, INT_MIN, u32(-1)))
    def test_zero_divisor_is_unknown(self, op, a):
        with pytest.raises(DivideByZeroFault):
            executed(op, a, 0)
        assert _binop(op, a, 0) is None


class TestStoreModel:
    def test_unbounded_store_address_untracks(self):
        store = StoreModel()
        store.record(TOP, const(1))
        assert store.untracked

    def test_subword_granularity(self):
        store = StoreModel()
        store.record(const(0x1002), const(7))  # sub-word address
        assert store.stores_to(frozenset({0x1000}))


class TestLoopCarriedWidening:
    SOURCE = """
.text
main:
    li   t0, 0
    la   t1, main
loop:
    addi t0, t0, 1
    addi t1, t1, 0
    li   t2, 100
    bne  t0, t2, loop
    jr   t1
"""

    def test_loop_counter_widens_to_top(self):
        # t0 takes 100 distinct values: the join must widen past K_CONST
        # to TOP rather than retaining any stale partial constant set
        program, analysis, dataflow = dataflow_for(self.SOURCE)
        jr_pc = next(iter(analysis.sites))
        block_start = analysis.cfg.block_start_of[jr_pc]
        in_state = dataflow.block_in[block_start]
        assert in_state.get(reg_number("t0"), TOP) is TOP

    def test_loop_invariant_value_survives(self):
        # t1 is redefined each iteration to the same value (+0): the
        # fixed point must still know it exactly at the jr
        program, analysis, dataflow = dataflow_for(self.SOURCE)
        value = site_value(program, analysis, dataflow, "jr")
        assert concrete(value) == frozenset({program.symbol("main")})


class TestOverwrittenMemoryWord:
    SOURCE = """
.text
main:
    la   t0, slot
    lw   t1, 0(t0)
    la   t2, g
    sw   t2, 0(t0)
    jalr t1
    halt
f:
    jr ra
g:
    jr ra

.data
slot: .word f
"""

    def test_icall_value_includes_image_and_stored_word(self):
        # the word is overwritten between the load and the call; the
        # (flow-insensitive) store model must make the load see *both*
        # the image value f and the stored value g
        program, analysis, dataflow = dataflow_for(self.SOURCE)
        value = site_value(program, analysis, dataflow, "jalr")
        values = concrete(value)
        assert values is not None
        assert program.symbol("f") in values
        assert program.symbol("g") in values

    def test_verdict_remains_sound_superset(self):
        program, analysis, dataflow = dataflow_for(self.SOURCE)
        report = build_report(program, analysis=analysis,
                              dataflow=dataflow)
        jalr_pc = next(
            pc for pc, s in analysis.sites.items() if s.kind == "icall"
        )
        bound = report.static_bound(jalr_pc)
        assert bound is not None
        assert {program.symbol("f"), program.symbol("g")} <= set(bound)


class TestDegenerateTables:
    DUPLICATE = """
.text
main:
    li    t0, 1
    sltiu t9, t0, 3
    beq   t9, zero, default
    sll   t8, t0, 2
    la    t9, table
    add   t8, t8, t9
    lw    t8, 0(t8)
    jr    t8
case0:
    halt
case1:
    halt
default:
    halt

.data
table: .word case0, case1, case0
"""

    def test_duplicate_entries_deduplicate(self):
        # three slots, two distinct targets: the verdict set is the
        # *deduplicated* target set, still exact
        program, analysis, _ = dataflow_for(self.DUPLICATE)
        report = build_report(program, analysis=analysis)
        (pc,) = [
            p for p, s in analysis.sites.items() if s.role == "jump-table"
        ]
        v = report.verdicts[pc]
        assert v.verdict == "exact"
        assert v.targets == frozenset(
            {program.symbol("case0"), program.symbol("case1")}
        )

    SELF_REFERENTIAL = """
.text
main:
    li    t0, 0
    sltiu t9, t0, 2
    beq   t9, zero, done
    sll   t8, t0, 2
    la    t9, table
    add   t8, t8, t9
    lw    t8, 0(t8)
jrsite:
    jr    t8
done:
    halt

.data
table: .word jrsite, done
"""

    def test_self_referential_entry_converges_conservatively(self):
        # one table slot points back at the jr itself, which makes the
        # jr its *own* indirect entry point: the def-window floor must
        # refuse table recovery (control can enter at the jr with an
        # arbitrary register state), the fixed point must still converge,
        # and the verdict falls back to a sound unknown
        program, analysis, dataflow = dataflow_for(self.SELF_REFERENTIAL)
        assert dataflow.rounds < MAX_ROUNDS  # converged, not pinned
        jr_pc = program.symbol("jrsite")
        assert analysis.sites[jr_pc].role == "computed-jump"
        assert jr_pc in analysis.address_taken  # its own table target
        report = build_report(program, analysis=analysis,
                              dataflow=dataflow)
        v = report.verdicts[jr_pc]
        assert v.verdict == "unknown"
        assert v.certificate.rule == "trivial-top"


class TestGuardRefinement:
    def test_sltiu_guard_refines_fallthrough_index(self):
        program, analysis, dataflow = dataflow_for(
            TestDegenerateTables.DUPLICATE
        )
        # the refined strided index makes the table load a bounded
        # gather: the jr value must concretise (not TOP)
        value = site_value(program, analysis, dataflow, "jr")
        assert concrete(value) is not None


class TestSeeding:
    def test_post_call_block_is_all_top_seed(self):
        source = """
.text
main:
    li  t0, 7
    jal f
    jr  t0
f:
    jr  ra
"""
        program, analysis, dataflow = dataflow_for(source)
        # t0 survives the call *dynamically*, but the analysis must not
        # assume it: the post-call block is seeded all-TOP
        value = site_value(program, analysis, dataflow, "jr")
        assert value is TOP
