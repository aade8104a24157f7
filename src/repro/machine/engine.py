"""Threaded-code execution engine: one compiled function per block.

The reference executor (:func:`repro.machine.executor.execute`) pays a
~40-way opcode dispatch, per-field attribute loads and a ``cpu.write``
call for every retired guest instruction.  This module removes that cost
by compiling each straight-line block of guest code — a
:class:`Superblock` — into one Python function of straight-line source,
one template per instruction from one per-opcode table: register
numbers are spelled into the text, and the instruction's immediates,
PCs and branch targets, the machine's register list, its syscall handler
and its memory accessors are the function's default arguments.
Executing a block is one argumentless call that returns the next guest
PC.

The code depends only on the block's *shape*, its ``(op, rd, rs, rt,
shamt)`` per instruction, so it is generated and compiled once per
process per shape (:func:`compile_shape`), keyed on those tuples, never
on :class:`~repro.isa.instruction.Instruction` hashes.  Each block binds
the shared code object to its own values, so the native and SDT copies
of a block, the same code at another address and each rewritten version
of self-modifying code share one code object.  ``lw`` and ``sw`` are
source lines from :mod:`repro.machine.memory`, which owns the page
layout they access in place.

What is per process and what is per machine: a :class:`BlockCode` is a
compiled block with no machine (code object, line table, immediates,
PCs, classes), kept per process by :mod:`repro.machine.runner`; a
:class:`Superblock` is one binding of it to one machine (its function,
APP cycles under that runner's profile, run counter, and the fields
fault injection may perturb).  :meth:`Superblock.__init__` is the one
place a block is compiled; every other build binds a kept
``BlockCode`` (:meth:`BlockCode.bind`).

Each plan precomputes its total APP cycle cost under the active
:class:`~repro.host.profile.ArchProfile`, so cycle accounting is charged
once per block execution instead of once per instruction, inline in
each harness's block step
(:meth:`repro.machine.interpreter.Interpreter._run_threaded`,
:meth:`repro.sdt.vm.SDTVM.execute_fragment`).
Instruction-class counting costs one counter bump per block execution:
the runner that builds a plan interns its
:class:`~repro.isa.opcodes.InstrClass` multiset and counts the plan's
runs against it, deriving the class counts only when they are read.
A runner building a block from ``(pc, instruction)`` pairs equal to a
kept :class:`BlockCode`'s gets a fresh plan from :meth:`BlockCode.bind`
that re-derives every field fault injection may perturb.

Invariants the block layer relies on (see docs/performance.md):

- only the final instruction of a plan can transfer control, so host
  predictor events fire exactly once per block, at the terminator;
- ``SYSCALL`` can appear mid-plan only in SDT fragments (interpreter
  superblocks terminate at syscalls): the function checks for program
  exit right after such a ``SYSCALL`` and raises :class:`ProgramExit`;
- fuel is decremented in block-sized strides; when a stride would
  overshoot, callers run their oracle loop for the remaining budget
  instead, so runs stop at exactly the same retired count as the oracle
  engine;
- a fault raised inside a block is placed by the function frame's line:
  the shape's line table maps it to the faulting instruction.

Both harnesses execute plans under these rules;
:class:`repro.machine.runner.BlockRunner` holds what they share.

The oracle engine remains the single source of SR32 semantics; every
template here must match it bit-for-bit (enforced by
tests/test_machine_engine.py and tests/test_engine_differential.py).
Unusual cases — writes to ``r0``, loads into ``r0`` — fall back to a line
that simply calls the oracle executor, so unspecialised paths cannot
drift.
"""

from __future__ import annotations

import builtins
import functools
import os
import re
import string
from types import FunctionType
from typing import Callable

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass, Op, spec
from repro.isa.registers import REG_RA
from repro.machine.cpu import CPUState
from repro.machine.executor import _sdiv, _srem, execute
from repro.machine.memory import (
    WORD_NAMES,
    Memory,
    load_word_source,
    store_word_source,
)
from repro.machine.syscalls import SyscallHandler

#: The execution engines.  ``oracle`` steps through
#: :func:`repro.machine.executor.execute` (the semantics reference);
#: ``threaded`` runs superblocks compiled to functions; ``tier2`` adds
#: profile-guided region compilation to generated Python source on top
#: of the threaded tier (:mod:`repro.machine.tier2`), deoptimizing back
#: to it at any guard failure.  All three are architecturally and
#: cycle-count identical.
ENGINES = ("oracle", "threaded", "tier2")

#: Straight-line superblock length cap for the interpreter (fragments are
#: already capped by ``max_fragment_instrs``).
MAX_SUPERBLOCK_INSTRS = 256

#: Block shapes whose compiled code :func:`compile_shape` keeps, least
#: recently used dropped first.  A benchmark round of the 12 guests
#: compiles about 350.
SHAPE_CACHE_SIZE = 4096

U32 = 0xFFFFFFFF
_SBIT = 0x8000_0000

#: ``(op, rd, rs, rt, shamt)`` per instruction: all a block function's
#: code depends on.
Shape = tuple[tuple[Op, int, int, int, int], ...]


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


class ProgramExit(Exception):
    """A ``SYSCALL`` before the last instruction of a block exited the
    program.

    Only SDT fragments hold a ``SYSCALL`` there.  The block function
    raises this right after it, and
    :meth:`repro.machine.runner.BlockRunner._block_raised` accounts the
    block up to and including the ``SYSCALL``.
    """


def _falls(dest: str | None, *stmts: str):
    """The template of an instruction whose successor is the next one."""
    return dest, stmts, "{npc}"


#: One template per opcode: ``(destination, statements, next PC)``.
#: ``{d}``, ``{s}``, ``{t}`` and ``{sh}`` are the instruction's register
#: numbers and shift amount, spelled into the source: they are part of
#: the shape.  Every other field names a value of the instruction
#: (:data:`_VALUES`) that the block function takes as a default
#: argument.  ``destination`` names the register an ALU op or a load
#: writes; writing ``r0`` compiles to :data:`_ORACLE` instead.  Masks are
#: spelled out: 4294967295 is ``2**32 - 1``, 2147483648 the sign bit
#: (signed compares go through it: ``s32(a) < s32(b)`` iff
#: ``a ^ 2**31 < b ^ 2**31``, and ``s32(a)`` is ``(a ^ 2**31) - 2**31``,
#: with no call).  Each line matches the oracle executor bit for bit,
#: and faults fire at the same point in the same order.
_TEMPLATES: dict[Op, tuple[str | None, tuple[str, ...], str]] = {
    Op.ADD: _falls("d", "regs[{d}] = (regs[{s}] + regs[{t}]) & 4294967295"),
    Op.SUB: _falls("d", "regs[{d}] = (regs[{s}] - regs[{t}]) & 4294967295"),
    Op.AND: _falls("d", "regs[{d}] = regs[{s}] & regs[{t}]"),
    Op.OR: _falls("d", "regs[{d}] = regs[{s}] | regs[{t}]"),
    Op.XOR: _falls("d", "regs[{d}] = regs[{s}] ^ regs[{t}]"),
    Op.NOR: _falls("d", "regs[{d}] = ~(regs[{s}] | regs[{t}]) & 4294967295"),
    Op.SLT: _falls("d", "regs[{d}] = 1 if (regs[{s}] ^ 2147483648) "
                        "< (regs[{t}] ^ 2147483648) else 0"),
    Op.SLTU: _falls("d", "regs[{d}] = 1 if regs[{s}] < regs[{t}] else 0"),
    # s32(a) * s32(b) is congruent to a * b mod 2**32
    Op.MUL: _falls("d", "regs[{d}] = (regs[{s}] * regs[{t}]) & 4294967295"),
    Op.DIV: _falls("d", "regs[{d}] = _sdiv((regs[{s}] ^ 2147483648) "
                        "- 2147483648, (regs[{t}] ^ 2147483648) "
                        "- 2147483648) & 4294967295"),
    Op.REM: _falls("d", "regs[{d}] = _srem((regs[{s}] ^ 2147483648) "
                        "- 2147483648, (regs[{t}] ^ 2147483648) "
                        "- 2147483648) & 4294967295"),
    Op.SLLV: _falls("d", "regs[{d}] = (regs[{s}] << (regs[{t}] & 31)) "
                         "& 4294967295"),
    Op.SRLV: _falls("d", "regs[{d}] = regs[{s}] >> (regs[{t}] & 31)"),
    Op.SRAV: _falls("d", "regs[{d}] = (((regs[{s}] ^ 2147483648) "
                         "- 2147483648) >> (regs[{t}] & 31)) & 4294967295"),
    Op.SLL: _falls("d", "regs[{d}] = (regs[{t}] << {sh}) & 4294967295"),
    Op.SRL: _falls("d", "regs[{d}] = regs[{t}] >> {sh}"),
    Op.SRA: _falls("d", "regs[{d}] = (((regs[{t}] ^ 2147483648) "
                        "- 2147483648) >> {sh}) & 4294967295"),
    Op.ADDI: _falls("t", "regs[{t}] = (regs[{s}] + {imm}) & 4294967295"),
    Op.ANDI: _falls("t", "regs[{t}] = regs[{s}] & {imm}"),
    Op.ORI: _falls("t", "regs[{t}] = regs[{s}] | {imm}"),
    Op.XORI: _falls("t", "regs[{t}] = regs[{s}] ^ {imm}"),
    Op.SLTI: _falls("t", "regs[{t}] = 1 if (regs[{s}] ^ 2147483648) "
                         "< {biased} else 0"),
    Op.SLTIU: _falls("t", "regs[{t}] = 1 if regs[{s}] < {uimm} else 0"),
    Op.LUI: _falls("t", "regs[{t}] = {upper}"),
    Op.LW: _falls("t", *load_word_source(
        "regs[{t}]", "(regs[{s}] + {imm}) & 4294967295")),
    Op.SW: _falls(None, *store_word_source(
        "(regs[{s}] + {imm}) & 4294967295", "regs[{t}]")),
    Op.LB: _falls("t", "_v = _lb((regs[{s}] + {imm}) & 4294967295)",
                  "regs[{t}] = _v | 4294967040 if _v & 128 else _v"),
    Op.LBU: _falls("t", "regs[{t}] = _lb((regs[{s}] + {imm}) & 4294967295)"),
    Op.LH: _falls("t", "_v = _lh((regs[{s}] + {imm}) & 4294967295)",
                  "regs[{t}] = _v | 4294901760 if _v & 32768 else _v"),
    Op.LHU: _falls("t", "regs[{t}] = _lh((regs[{s}] + {imm}) & 4294967295)"),
    Op.SB: _falls(None, "_sb((regs[{s}] + {imm}) & 4294967295, regs[{t}])"),
    Op.SH: _falls(None, "_sh((regs[{s}] + {imm}) & 4294967295, regs[{t}])"),
    Op.BEQ: (None, (), "{tgt} if regs[{s}] == regs[{t}] else {npc}"),
    Op.BNE: (None, (), "{tgt} if regs[{s}] != regs[{t}] else {npc}"),
    Op.BLT: (None, (), "{tgt} if (regs[{s}] ^ 2147483648) "
                       "< (regs[{t}] ^ 2147483648) else {npc}"),
    Op.BGE: (None, (), "{tgt} if (regs[{s}] ^ 2147483648) "
                       ">= (regs[{t}] ^ 2147483648) else {npc}"),
    Op.BLTU: (None, (), "{tgt} if regs[{s}] < regs[{t}] else {npc}"),
    Op.BGEU: (None, (), "{tgt} if regs[{s}] >= regs[{t}] else {npc}"),
    Op.J: (None, (), "{tgt}"),
    Op.JAL: (None, (f"regs[{REG_RA}] = {{npc}}",), "{tgt}"),
    Op.JR: (None, (), "regs[{s}]"),
    # the target is read before the link write, as in the oracle (rd == rs)
    Op.JALR: (None, ("_j = regs[{s}]", "regs[{d}] = {npc}"), "_j"),
    Op.RET: (None, (), f"regs[{REG_RA}]"),
    Op.SYSCALL: _falls(None, "_sc(_cpu, _mem)"),
    # halt spins; run loops stop on ``exited``
    Op.HALT: (None, ("if _sys.exit_code is None: _sys.exit_code = 0",),
              "{pc}"),
}

#: Writes to the hardwired-zero register are not worth specialising: the
#: line calls the oracle executor, so their semantics cannot drift.
#: Side effects (faults) still occur.
_ORACLE = (None, ("_cpu.pc = {pc}", "_n = _ex({ins}, _cpu, _mem, _sys)"),
           "_n")

#: The per-instruction values a template can name, from ``(pc,
#: instruction)``.
_VALUES: dict[str, Callable[[int, Instruction], object]] = {
    "imm": lambda pc, instr: instr.imm,
    "biased": lambda pc, instr: (instr.imm & U32) ^ _SBIT,
    "uimm": lambda pc, instr: instr.imm & U32,
    "upper": lambda pc, instr: (instr.imm << 16) & U32,
    "npc": lambda pc, instr: (pc + 4) & U32,
    "tgt": lambda pc, instr: instr.branch_target(pc),
    "pc": lambda pc, instr: pc,
    "ins": lambda pc, instr: instr,
}

#: What a block function reads of its machine, in parameter order.
_MACHINE = ("regs", "_cpu", "_mem", "_sys", "_sc", "_lb", "_lh", "_sb",
            "_sh") + WORD_NAMES


def machine_names(cpu: CPUState, mem: Memory,
                  syscalls: SyscallHandler) -> dict[str, object]:
    """The :data:`_MACHINE` names bound to one machine."""
    names = mem.word_names()
    names.update(regs=cpu.regs, _cpu=cpu, _mem=mem, _sys=syscalls,
                 _sc=syscalls.dispatch, _lb=mem.load_byte,
                 _lh=mem.load_half, _sb=mem.store_byte, _sh=mem.store_half)
    return names


#: The globals of every block function: pure helpers and the exit signal.
_GLOBALS = {"__builtins__": builtins, "_sdiv": _sdiv, "_srem": _srem,
            "_ex": execute, "ProgramExit": ProgramExit}

_FORMATTER = string.Formatter()
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _template(op: Op, rd: int, rt: int) -> tuple[tuple[str, ...], str]:
    """The statements and next-PC expression of one instruction."""
    dest, stmts, next_pc = _TEMPLATES[op]
    if dest == "d" and not rd or dest == "t" and not rt:
        _dest, stmts, next_pc = _ORACLE
    elif op is Op.JALR and not rd:
        _dest, stmts, next_pc = _TEMPLATES[Op.JR]  # links nowhere: a ``jr``
    return stmts, next_pc


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def compile_shape(shape: Shape):
    """Generate and compile the function of every block of ``shape``.

    Straight-line source, one template per instruction: the statements
    of each, then ``return`` of the last one's next PC, and after a
    ``SYSCALL`` that is not last, the exit check.  Returns ``(code,
    lines, machine, values, iclasses, class_items)``: the function's
    code object; its line table (source line number -> index of the
    instruction the line belongs to); the :data:`_MACHINE` names it
    takes first; for each further parameter, ``(k, value)``: the index
    of its instruction and the :data:`_VALUES` function that gives its
    argument; and, since an instruction's class follows from its
    opcode, the blocks' instruction classes and ``(class, count)`` in
    first-occurrence order, shared by every block of the shape.
    """
    body: list[str] = []
    lines = [0, 0]  # no line 0; line 1 is the ``def``
    params: list[str] = []
    values: list[tuple[int, Callable]] = []
    last = len(shape) - 1
    for k, (op, rd, rs, rt, shamt) in enumerate(shape):
        stmts, next_pc = _template(op, rd, rt)
        if k == last:
            stmts += (f"return {next_pc}",)
        elif op is Op.SYSCALL:
            stmts += ("if _sys.exited: raise ProgramExit",)
        names = {field: f"{field}{k}" for field in _VALUES}
        taken: set[str] = set()
        for stmt in stmts:
            for _text, field, _spec, _conv in _FORMATTER.parse(stmt):
                if field in names and field not in taken:
                    taken.add(field)
                    params.append(names[field])
                    values.append((k, _VALUES[field]))
            body.append("    " + stmt.format(d=rd, s=rs, t=rt, sh=shamt,
                                             **names))
            lines.append(k)
    text = "\n".join(body)
    used = set(_TOKEN.findall(text))
    machine = tuple(name for name in _MACHINE if name in used)
    source = f"def block({', '.join(machine + tuple(params))}):\n{text}\n"
    namespace: dict = {}
    exec(compile(source, "<block>", "exec"), namespace)
    iclasses = tuple([spec(op).iclass for op, _rd, _rs, _rt, _sh in shape])
    return (namespace["block"].__code__, tuple(lines), machine,
            tuple(values), iclasses, tuple(_class_counts(iclasses).items()))


def _class_counts(iclasses) -> dict[InstrClass, int]:
    """``InstrClass -> count``, keyed in first-occurrence order."""
    counts: dict[InstrClass, int] = {}
    for iclass in iclasses:
        counts[iclass] = counts.get(iclass, 0) + 1
    return counts


class BlockCode:
    """A compiled block without a machine: what the process keeps of it.

    Everything that depends only on the block's ``(pc, instruction)``
    pairs: its shape's code object and line table, the :data:`_MACHINE`
    names the code takes first, its immediates, its PCs and classes and
    its class counts.  It holds no bound function, register list, memory
    or syscall handler, so one ``BlockCode`` serves every runner of the
    process (:data:`repro.machine.runner.BLOCKS`): each runner makes its
    own function of it (:meth:`function`) and binds blocks with that
    (:meth:`bind`).

    Attributes:
        code / lines / machine: :func:`compile_shape`'s code object, line
            table and machine names.
        values: the arguments after the machine names, in parameter
            order.
        pairs: the ``(pc, instruction)`` pairs of its latest build,
            equal to the ones it was compiled from; a runner reuses it
            only for pairs equal to these.
        pcs / iclasses: per-instruction guest PCs and instruction
            classes (parallel tuples).
        class_items: ``(class, count)`` in first-occurrence order.
        has_syscall / term_iclass / term_rd: as on :class:`Superblock`.
    """

    __slots__ = (
        "code", "lines", "machine", "values", "pairs", "pcs", "iclasses",
        "class_items", "has_syscall", "term_iclass", "term_rd",
    )

    def __init__(self, pairs: list[tuple[int, Instruction]]):
        if not pairs:
            raise ValueError("cannot compile an empty block")
        (self.code, self.lines, self.machine, values, self.iclasses,
         self.class_items) = compile_shape(tuple([
             (instr.op, instr.rd, instr.rs, instr.rt, instr.shamt)
             for _pc, instr in pairs
         ]))
        self.values = tuple([value(*pairs[k]) for k, value in values])
        self.pairs = pairs
        self.pcs = tuple([pc for pc, _instr in pairs])
        self.has_syscall = InstrClass.SYSCALL in self.iclasses
        self.term_iclass = self.iclasses[-1]
        self.term_rd = pairs[-1][1].rd

    def function(self, names: dict[str, object]) -> FunctionType:
        """The block function on the machine ``names``
        (:func:`machine_names`) binds."""
        return FunctionType(
            self.code, _GLOBALS, None,
            tuple(map(names.__getitem__, self.machine)) + self.values,
        )

    def app_cycles(self, class_cycles: dict[InstrClass, int] | None) -> int:
        """Total APP cycles under ``class_cycles`` (0 without)."""
        if class_cycles is None:
            return 0
        return sum(class_cycles[ic] * c for ic, c in self.class_items)

    def bind(self, fn: FunctionType, app_cycles: int, vector: int | None,
             trace=None, block: "Superblock | None" = None) -> "Superblock":
        """This block on one machine: ``block`` (a fresh
        :class:`Superblock` by default) running ``fn``, this block's
        :meth:`function` there, charging ``app_cycles`` and counting its
        runs at ``vector``.

        Every field fault injection may perturb is derived afresh, and
        the tier-2 heat starts at zero, so each binding is exactly what
        a compile on that machine builds.  Emits ``plan.build``.
        """
        if block is None:
            block = Superblock.__new__(Superblock)
        block.unbound = self
        block.fn = fn
        block.lines = self.lines
        block.class_items = self.class_items
        block.app_cycles = app_cycles
        block.has_syscall = self.has_syscall
        block.term_iclass = self.term_iclass
        block.term_rd = self.term_rd
        block.vector = vector
        pcs = self.pcs
        block.entry_pc = pcs[0]
        block.pcs = pcs
        block.iclasses = self.iclasses
        block.n = len(pcs)
        block.class_counts = dict(self.class_items)
        block.term_pc = pcs[-1]
        block.hits = 0
        block.region = None
        if trace is not None:
            trace.emit("plan.build", entry=block.entry_pc, instrs=block.n,
                       syscall=block.has_syscall)
        return block


class Superblock:
    """A compiled straight-line block bound to one machine: its function
    plus block-level costs.

    Attributes:
        unbound: the machine-free :class:`BlockCode` it binds.
        entry_pc: guest address of the first instruction.
        pcs / iclasses: per-instruction guest PCs and instruction classes
            (parallel tuples).
        fn: the block function: executes the whole block on the machine
            it was built for and returns the next guest PC.
        lines: the line table of its shape: source line number -> index
            of the instruction the line belongs to (fault placement).
        n: instruction count.
        class_counts: ``InstrClass -> count`` vector for the whole block
            (the plan-coherence check and tier2's commits read it).
        class_items: the same counts as an immutable ``(class, count)``
            tuple, fixed at compile time; each binding makes its fresh
            ``class_counts`` from it.
        app_cycles: total APP cycles under the profile the block was
            bound for (0 when bound without a cost model).
        has_syscall: the block contains a ``SYSCALL``; callers check for
            program exit after executing it.
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
        "unbound", "entry_pc", "pcs", "fn", "lines", "iclasses", "n",
        "class_counts", "class_items", "app_cycles", "has_syscall",
        "term_pc", "term_iclass", "term_rd", "hits", "region", "vector",
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
        """Compile ``pairs`` (:class:`BlockCode`) and bind the result to
        this machine: the one place a block is compiled."""
        code = BlockCode(pairs)
        code.bind(code.function(machine_names(cpu, mem, syscalls)),
                  code.app_cycles(class_cycles), None, trace, block=self)

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

