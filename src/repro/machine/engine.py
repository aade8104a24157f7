"""Threaded-code execution engine: closure-specialised dispatch.

The reference executor (:func:`repro.machine.executor.execute`) pays a
~40-way opcode dispatch, per-field attribute loads and a ``cpu.write``
call for every retired guest instruction.  This module removes that cost
by *specialising* each decoded :class:`~repro.isa.instruction.Instruction`
into a Python closure at decode/translation time: operands, immediates,
sign-extension masks, branch targets and the bound memory accessors are
pre-resolved into the closure's cell/default variables, so executing an
instruction is one argumentless call with no dispatch at all.

Closures are grouped into :class:`Superblock` plans — straight-line runs
executed as a flat list — and each plan precomputes its total APP cycle
cost under the active :class:`~repro.host.profile.ArchProfile`, so cycle
accounting is charged once per block execution instead of once per
instruction (:meth:`repro.machine.runner.BlockRunner._run_block`).
Instruction-class counting costs one counter bump per block execution:
the runner that builds a plan interns its
:class:`~repro.isa.opcodes.InstrClass` multiset and counts the plan's
runs against it, deriving the class counts only when they are read.
The ``lw`` and ``sw`` closures come from
:class:`~repro.machine.memory.Memory`, which owns the page layout they
access in place.  Closures are compiled once per distinct block: a
runner rebuilding a block from equal ``(pc, instruction)`` pairs gets a
fresh plan from :meth:`Superblock.rebuilt` that shares them and
re-derives every field fault injection may perturb.

Invariants the block layer relies on (see docs/performance.md):

- only the final instruction of a plan can transfer control, so host
  predictor events fire exactly once per block, at the terminator;
- ``SYSCALL`` can appear mid-plan only in SDT fragments (interpreter
  superblocks terminate at syscalls); plans flag ``has_syscall`` so
  callers keep per-step exit checks on those blocks;
- fuel is decremented in block-sized strides; when a stride would
  overshoot, callers execute a per-instruction prefix instead so runs
  stop at exactly the same retired count as the oracle engine.

:class:`repro.machine.runner.BlockRunner` executes plans under these
rules for both harnesses.

The oracle engine remains the single source of SR32 semantics; every
closure here must match it bit-for-bit (enforced by
tests/test_engine_differential.py).  Unusual cases — writes to ``r0``,
loads into ``r0`` — fall back to a closure that simply calls the oracle
executor, so unspecialised paths cannot drift.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass, Op
from repro.isa.registers import REG_RA
from repro.machine.cpu import CPUState, s32
from repro.machine.executor import _sdiv, _srem, execute
from repro.machine.memory import Memory
from repro.machine.syscalls import SyscallHandler

#: The execution engines.  ``oracle`` steps through
#: :func:`repro.machine.executor.execute` (the semantics reference);
#: ``threaded`` runs closure-specialised superblocks; ``tier2`` adds
#: profile-guided region compilation to generated Python source on top
#: of the threaded tier (:mod:`repro.machine.tier2`), deoptimizing back
#: to it at any guard failure.  All three are architecturally and
#: cycle-count identical.
ENGINES = ("oracle", "threaded", "tier2")

#: Straight-line superblock length cap for the interpreter (fragments are
#: already capped by ``max_fragment_instrs``).
MAX_SUPERBLOCK_INSTRS = 256

U32 = 0xFFFFFFFF
_SBIT = 0x8000_0000

StepFn = Callable[[], int]


def default_engine() -> str:
    """Engine selected by ``REPRO_ENGINE`` (default: ``threaded``)."""
    return os.environ.get("REPRO_ENGINE", "threaded")


def resolve_engine(engine: str | None) -> str:
    """Validate an engine name, resolving ``None`` via the environment."""
    engine = engine if engine is not None else default_engine()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def compile_instr(
    pc: int,
    instr: Instruction,
    cpu: CPUState,
    mem: Memory,
    syscalls: SyscallHandler,
) -> StepFn:
    """Specialise one instruction at ``pc`` into an argumentless closure.

    The closure executes the instruction against the bound machine state
    and returns the next guest PC, exactly like the oracle executor.
    Operands and constants are captured as default arguments so every
    name the closure touches is a fast local.
    """
    regs = cpu.regs
    op = instr.op
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    imm, shamt = instr.imm, instr.shamt
    npc = (pc + 4) & U32

    # Fallback for shapes not worth specialising (e.g. ALU writes to the
    # hardwired-zero register, loads into r0): defer to the oracle so the
    # semantics cannot diverge.  Side effects (faults) still occur.
    def oracle(pc=pc, instr=instr, cpu=cpu, mem=mem, syscalls=syscalls):
        cpu.pc = pc
        return execute(instr, cpu, mem, syscalls)

    # -- ALU register forms -------------------------------------------------
    if op is Op.ADD:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = (regs[rs] + regs[rt]) & U32
            return npc
        return step
    if op is Op.ADDI:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc):
            regs[rt] = (regs[rs] + imm) & U32
            return npc
        return step
    if op is Op.SUB:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = (regs[rs] - regs[rt]) & U32
            return npc
        return step
    if op is Op.AND:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = regs[rs] & regs[rt]
            return npc
        return step
    if op is Op.OR:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = regs[rs] | regs[rt]
            return npc
        return step
    if op is Op.XOR:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = regs[rs] ^ regs[rt]
            return npc
        return step
    if op is Op.NOR:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = ~(regs[rs] | regs[rt]) & U32
            return npc
        return step
    if op is Op.SLT:
        if not rd:
            return oracle

        # signed compare via bias: s32(a) < s32(b)  <=>  a^SBIT < b^SBIT
        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = 1 if (regs[rs] ^ _SBIT) < (regs[rt] ^ _SBIT) else 0
            return npc
        return step
    if op is Op.SLTU:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = 1 if regs[rs] < regs[rt] else 0
            return npc
        return step
    if op is Op.MUL:
        if not rd:
            return oracle

        # s32(a)*s32(b) is congruent to a*b mod 2^32
        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = (regs[rs] * regs[rt]) & U32
            return npc
        return step
    if op is Op.DIV:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc,
                 sdiv=_sdiv, sx=s32):
            regs[rd] = sdiv(sx(regs[rs]), sx(regs[rt])) & U32
            return npc
        return step
    if op is Op.REM:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc,
                 srem=_srem, sx=s32):
            regs[rd] = srem(sx(regs[rs]), sx(regs[rt])) & U32
            return npc
        return step

    # -- ALU immediate forms ------------------------------------------------
    if op is Op.ANDI:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc):
            regs[rt] = regs[rs] & imm
            return npc
        return step
    if op is Op.ORI:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc):
            regs[rt] = regs[rs] | imm
            return npc
        return step
    if op is Op.XORI:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc):
            regs[rt] = regs[rs] ^ imm
            return npc
        return step
    if op is Op.SLTI:
        if not rt:
            return oracle
        biased = (imm & U32) ^ _SBIT

        def step(regs=regs, rt=rt, rs=rs, biased=biased, npc=npc):
            regs[rt] = 1 if (regs[rs] ^ _SBIT) < biased else 0
            return npc
        return step
    if op is Op.SLTIU:
        if not rt:
            return oracle
        uimm = imm & U32

        def step(regs=regs, rt=rt, rs=rs, uimm=uimm, npc=npc):
            regs[rt] = 1 if regs[rs] < uimm else 0
            return npc
        return step
    if op is Op.LUI:
        if not rt:
            return oracle
        value = (imm << 16) & U32

        def step(regs=regs, rt=rt, value=value, npc=npc):
            regs[rt] = value
            return npc
        return step

    # -- shifts -------------------------------------------------------------
    if op is Op.SLL:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rt=rt, sh=shamt, npc=npc):
            regs[rd] = (regs[rt] << sh) & U32
            return npc
        return step
    if op is Op.SRL:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rt=rt, sh=shamt, npc=npc):
            regs[rd] = regs[rt] >> sh
            return npc
        return step
    if op is Op.SRA:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rt=rt, sh=shamt, npc=npc, sx=s32):
            regs[rd] = (sx(regs[rt]) >> sh) & U32
            return npc
        return step
    if op is Op.SLLV:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = (regs[rs] << (regs[rt] & 31)) & U32
            return npc
        return step
    if op is Op.SRLV:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc):
            regs[rd] = regs[rs] >> (regs[rt] & 31)
            return npc
        return step
    if op is Op.SRAV:
        if not rd:
            return oracle

        def step(regs=regs, rd=rd, rs=rs, rt=rt, npc=npc, sx=s32):
            regs[rd] = (sx(regs[rs]) >> (regs[rt] & 31)) & U32
            return npc
        return step

    # -- memory -------------------------------------------------------------
    if op is Op.LW:
        if not rt:
            return oracle
        return mem.load_word_step(regs, rt, rs, imm, npc)
    if op is Op.SW:
        return mem.store_word_step(regs, rt, rs, imm, npc)
    if op is Op.LB:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, load=mem.load_byte,
                 npc=npc):
            value = load((regs[rs] + imm) & U32)
            regs[rt] = value | 0xFFFFFF00 if value & 0x80 else value
            return npc
        return step
    if op is Op.LBU:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, load=mem.load_byte,
                 npc=npc):
            regs[rt] = load((regs[rs] + imm) & U32)
            return npc
        return step
    if op is Op.LH:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, load=mem.load_half,
                 npc=npc):
            value = load((regs[rs] + imm) & U32)
            regs[rt] = value | 0xFFFF0000 if value & 0x8000 else value
            return npc
        return step
    if op is Op.LHU:
        if not rt:
            return oracle

        def step(regs=regs, rt=rt, rs=rs, imm=imm, load=mem.load_half,
                 npc=npc):
            regs[rt] = load((regs[rs] + imm) & U32)
            return npc
        return step
    if op is Op.SB:
        def step(regs=regs, rt=rt, rs=rs, imm=imm, store=mem.store_byte,
                 npc=npc):
            store((regs[rs] + imm) & U32, regs[rt])
            return npc
        return step
    if op is Op.SH:
        def step(regs=regs, rt=rt, rs=rs, imm=imm, store=mem.store_half,
                 npc=npc):
            store((regs[rs] + imm) & U32, regs[rt])
            return npc
        return step

    # -- control ------------------------------------------------------------
    if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
        tgt = instr.branch_target(pc)
        if op is Op.BEQ:
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if regs[rs] == regs[rt] else npc
        elif op is Op.BNE:
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if regs[rs] != regs[rt] else npc
        elif op is Op.BLT:
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if (regs[rs] ^ _SBIT) < (regs[rt] ^ _SBIT) else npc
        elif op is Op.BGE:
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if (regs[rs] ^ _SBIT) >= (regs[rt] ^ _SBIT) else npc
        elif op is Op.BLTU:
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if regs[rs] < regs[rt] else npc
        else:  # BGEU
            def step(regs=regs, rs=rs, rt=rt, tgt=tgt, npc=npc):
                return tgt if regs[rs] >= regs[rt] else npc
        return step
    if op is Op.J:
        tgt = instr.branch_target(pc)

        def step(tgt=tgt):
            return tgt
        return step
    if op is Op.JAL:
        tgt = instr.branch_target(pc)

        def step(regs=regs, ra=npc, tgt=tgt):
            regs[REG_RA] = ra
            return tgt
        return step
    if op is Op.JR:
        def step(regs=regs, rs=rs):
            return regs[rs]
        return step
    if op is Op.JALR:
        if not rd:
            def step(regs=regs, rs=rs):
                return regs[rs]
            return step

        # target is read before the link write, as in the oracle (rd == rs)
        def step(regs=regs, rd=rd, rs=rs, ra=npc):
            target = regs[rs]
            regs[rd] = ra
            return target
        return step
    if op is Op.RET:
        def step(regs=regs):
            return regs[REG_RA]
        return step
    if op is Op.SYSCALL:
        def step(dispatch=syscalls.dispatch, cpu=cpu, mem=mem, npc=npc):
            dispatch(cpu, mem)
            return npc
        return step
    if op is Op.HALT:
        def step(syscalls=syscalls, pc=pc):
            if syscalls.exit_code is None:
                syscalls.exit_code = 0
            return pc  # halt spins; run loops stop on `exited`
        return step

    return oracle  # pragma: no cover - exhaustive over Op


def _class_counts(iclasses) -> dict[InstrClass, int]:
    """``InstrClass -> count``, keyed in first-occurrence order."""
    counts: dict[InstrClass, int] = {}
    for iclass in iclasses:
        counts[iclass] = counts.get(iclass, 0) + 1
    return counts


class Superblock:
    """A compiled straight-line block: closures plus block-level costs.

    Attributes:
        entry_pc: guest address of the first instruction.
        pcs / fns / iclasses: per-instruction guest PCs, step closures and
            instruction classes (parallel tuples).
        n: instruction count.
        class_counts: ``InstrClass -> count`` vector for the whole block
            (the plan-coherence check and tier2's commits read it).
        class_items: the same counts as an immutable ``(class, count)``
            tuple, fixed at compile time; a rebuild makes its fresh
            ``class_counts`` from it.
        app_cycles: total APP cycles under the profile the block was
            compiled for (0 when compiled without a cost model).
        has_syscall: the block contains a ``SYSCALL``; callers must keep
            per-step exit checks when executing it.
        term_pc / term_iclass / term_rd: terminator metadata (host
            predictor events and SDT call/return bookkeeping key on these).
        hits: full fast-path executions — the tier-2 engine's heat
            counter; crossing the promotion threshold triggers region
            formation (:mod:`repro.machine.tier2`).
        region: tier-2 promotion state — ``None`` until probed, a
            compiled region once promoted, or ``False`` when the block
            is permanently region-ineligible.
        vector: index of the run counter of this block's class multiset
            in the :class:`~repro.machine.runner.BlockRunner` that built
            it (``None`` for a block built outside a runner).
    """

    __slots__ = (
        "entry_pc", "pcs", "fns", "iclasses", "n", "class_counts",
        "class_items", "app_cycles", "has_syscall", "term_pc",
        "term_iclass", "term_rd", "hits", "region", "vector",
    )

    def __init__(
        self,
        pairs: list[tuple[int, Instruction]],
        cpu: CPUState,
        mem: Memory,
        syscalls: SyscallHandler,
        class_cycles: dict[InstrClass, int] | None = None,
        trace=None,
    ):
        if not pairs:
            raise ValueError("cannot compile an empty block")
        self.fns = tuple(
            compile_instr(pc, instr, cpu, mem, syscalls)
            for pc, instr in pairs
        )
        iclasses = tuple(instr.iclass for _pc, instr in pairs)
        counts = _class_counts(iclasses)
        self.class_items = tuple(counts.items())
        self.app_cycles = (
            sum(class_cycles[ic] * c for ic, c in counts.items())
            if class_cycles is not None else 0
        )
        self.has_syscall = InstrClass.SYSCALL in counts
        self.term_iclass = iclasses[-1]
        self.term_rd = pairs[-1][1].rd
        self.vector = None
        self._start(tuple(pc for pc, _instr in pairs), iclasses, counts,
                    trace)

    def _start(self, pcs, iclasses, counts, trace) -> None:
        """Set the fields a rebuild derives afresh (the ones fault
        injection may perturb, and the tier-2 state) and emit
        ``plan.build``."""
        self.entry_pc = pcs[0]
        self.pcs = pcs
        self.iclasses = iclasses
        self.n = len(pcs)
        self.class_counts = counts
        self.term_pc = pcs[-1]
        self.hits = 0
        self.region = None
        if trace is not None:
            trace.emit("plan.build", entry=self.entry_pc, instrs=self.n,
                       syscall=self.has_syscall)

    def rebuilt(self, trace=None) -> "Superblock":
        """A fresh block sharing this block's compiled closures.

        For a rebuild from pairs equal to the ones this block was
        compiled from (:meth:`repro.machine.runner.BlockRunner._build`).
        Only fields that fault injection never perturbs are shared or
        copied: ``pcs``, ``iclasses``, ``fns``, ``class_items``,
        ``app_cycles``, ``vector`` and the terminator class, register
        and syscall flag.  Entry, length, terminator PC and class counts
        are derived again from the immutable tuples, and the tier-2 heat
        starts over, so the new block is exactly what a fresh compile
        would build.
        """
        block = Superblock.__new__(Superblock)
        block.fns = self.fns
        block.class_items = self.class_items
        block.app_cycles = self.app_cycles
        block.has_syscall = self.has_syscall
        block.term_iclass = self.term_iclass
        block.term_rd = self.term_rd
        block.vector = self.vector
        block._start(self.pcs, self.iclasses, dict(self.class_items), trace)
        return block

    def coherent_with(self, entry_pc: int, pairs) -> bool:
        """Does this plan still describe the block it was compiled from?

        ``pairs`` is the fragment's ``(guest_pc, instruction)`` list.  The
        SDT's graceful-degradation path calls this before executing a
        plan under fault injection: any metadata corruption (entry,
        length, terminator, class-count vector) is caught here and the
        fragment is demoted to the oracle engine instead of executing a
        lying plan (see repro.faults and docs/robustness.md).
        """
        n = len(pairs)
        if self.entry_pc != entry_pc or self.n != n:
            return False
        if self.term_pc != pairs[-1][0]:
            return False
        if sum(self.class_counts.values()) != n:
            return False
        pcs = self.pcs
        return len(pcs) == n and all(
            pcs[i] == pairs[i][0] for i in range(n)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Superblock(entry={self.entry_pc:#x}, n={self.n}, "
            f"term={self.term_iclass.value})"
        )

