"""Reference interpreter for SR32 programs.

This is the baseline execution engine: it runs a program directly from its
text section, with no translation.  It serves two roles:

1. **Correctness oracle** — the SDT must produce the same output, exit code
   and retired-instruction count.
2. **Native-performance baseline** — attach a host cost model as the
   ``observer`` and the interpreter charges exactly the cycles the program
   would cost when running natively (no SDT dispatch code).

An :class:`Observer` sees a run at its control transfers: every engine
charges APP cycles to ``observer.model`` and calls ``observer.exit`` once
per retired control-transfer instruction — per instruction in the oracle
loop, at the block terminator in the block engines.  The native cost
model and the fan-out profiler (:mod:`repro.eval.fanout`) are its two
implementations.

Three execution engines are available (see docs/performance.md):

``oracle``
    one :func:`repro.machine.executor.execute` call per instruction — the
    semantics reference.
``threaded``
    superblocks from :mod:`repro.machine.engine`, each one compiled
    function, cached by entry PC and invalidated together with
    ``_decoded``; a block compiled before in the process, by any
    runner, is bound again rather than compiled
    (:meth:`~repro.machine.runner.BlockRunner._build`).  The loop runs each block itself: one call of its
    function, the block's accounting inline, then the observer's
    ``exit`` at a control-transfer terminator; the loop stops on
    ``syscalls.exit_code``, read as an attribute.
    Observable results (output, exit code, retired count, iclass counts,
    charged cycles, observer exits, fault timing, fuel semantics) are
    identical; only wall-clock speed differs.
``tier2``
    the threaded engine plus profile-guided region compilation
    (:mod:`repro.machine.tier2`): superblocks whose execution counter
    crosses the promotion threshold are compiled — along their hot
    static successors — into generated Python functions with registers
    as locals, deoptimizing back to this loop at any guard failure.
    Same observable-identity contract as ``threaded``.  Region code
    inlines the native cost model's exit events, so an observer other
    than a :class:`~repro.host.costs.NativeCostObserver` runs the
    threaded tier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Protocol

from repro.host.costs import Category, HostModel, NativeCostObserver
from repro.isa.encoding import DecodeError, decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONTROL_CLASSES, InstrClass
from repro.isa.program import Program
from repro.machine.engine import (
    MAX_SUPERBLOCK_INSTRS,
    Superblock,
    resolve_engine,
)
from repro.machine.errors import FuelExhausted, MemoryFault
from repro.machine.executor import execute
from repro.machine.memory import PAGE_SHIFT
from repro.machine.runner import BlockRunner

DEFAULT_FUEL = 50_000_000

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_APP = Category.APP


class Observer(Protocol):
    """What a run reports to, once per retired control transfer."""

    #: charged each retired instruction's APP cycles; ``None`` for none
    model: HostModel | None

    def exit(self, pc: int, iclass: InstrClass, next_pc: int) -> None:
        """Called after each retired instruction in ``CONTROL_CLASSES``;
        ``next_pc`` is where it sent control."""


@dataclass(slots=True)
class RunResult:
    """Outcome of one program run."""

    output: str
    exit_code: int
    retired: int
    iclass_counts: Counter = field(default_factory=Counter)

    @property
    def indirect_branches(self) -> int:
        """Total dynamic indirect control transfers."""
        return (
            self.iclass_counts[InstrClass.IJUMP]
            + self.iclass_counts[InstrClass.ICALL]
            + self.iclass_counts[InstrClass.RET]
        )


class Interpreter(BlockRunner):
    """Directly interprets a loaded program."""

    def __init__(
        self,
        program: Program,
        inputs: list[int] | None = None,
        observer: Observer | None = None,
        engine: str | None = None,
    ):
        super().__init__(
            program, inputs, observer.model if observer is not None else None
        )
        self.observer = observer
        self.engine = resolve_engine(engine)
        self._decoded: dict[int, Instruction] = {}
        self._blocks: dict[int, Superblock] = {}
        self._tier2 = None
        # region code inlines the native exit events, so any other
        # observer runs the threaded tier
        if self.engine == "tier2" and (
            observer is None or isinstance(observer, NativeCostObserver)
        ):
            from repro.machine.tier2 import InterpreterTier2

            self._tier2 = InterpreterTier2(self)
        self._text_lo = program.text.base
        self._text_hi = program.text.end
        # The interpreter is the correctness oracle, so it must observe
        # self-modifying code: pages are watched as they are decoded and
        # a store into one drops the overlapping decode/superblock cache
        # entries (docs/robustness.md, "Code-cache coherence").
        self.mem.set_write_watch(self._on_code_write)

    def fetch(self, pc: int) -> Instruction:
        """Fetch and decode the instruction at ``pc`` (cached)."""
        instr = self._decoded.get(pc)
        if instr is None:
            if not (self._text_lo <= pc < self._text_hi) or pc % 4:
                raise MemoryFault(pc, "fetch")
            instr = decode(self.mem.load_word(pc))
            self._decoded[pc] = instr
            self.mem.watch_page(pc >> PAGE_SHIFT)
        return instr

    def _on_code_write(self, addr: int, length: int) -> None:
        """A store hit a page holding decoded code: drop stale entries.

        SR32's SMC visibility rule: a store to code becomes
        architecturally visible at the next control transfer.  Both
        caches are consulted at control-transfer boundaries (per-pc
        fetch, block lookup by entry), so dropping every overlapping
        entry here is exactly that boundary.
        """
        decoded = self._decoded
        if decoded:
            first = addr & ~3
            last = (addr + length - 1) & ~3
            for pc in range(first, last + 4, 4):
                decoded.pop(pc, None)
        blocks = self._blocks
        if blocks:
            end = addr + length
            stale = [
                entry for entry, block in blocks.items()
                if entry < end and entry + 4 * block.n > addr
            ]
            for entry in stale:
                del blocks[entry]
        if self._tier2 is not None:
            self._tier2.on_code_write(addr, length)

    def step(self) -> None:
        """Execute exactly one instruction."""
        cpu = self.cpu
        pc = cpu.pc
        instr = self.fetch(pc)
        next_pc = execute(instr, cpu, self.mem, self.syscalls)
        cpu.pc = next_pc
        self.retired += 1
        iclass = instr.iclass
        self._direct_counts[iclass] += 1
        model = self.model
        if model is not None:
            model.charge_instr(iclass)
        observer = self.observer
        if observer is not None and iclass in CONTROL_CLASSES:
            observer.exit(pc, iclass, next_pc)

    def run(self, fuel: int = DEFAULT_FUEL) -> RunResult:
        """Run until the program exits or ``fuel`` instructions retire."""
        if self.engine == "oracle":
            self._run_oracle(fuel)
        else:
            self._run_threaded(fuel)
        syscalls = self.syscalls
        return RunResult(
            output=syscalls.output,
            exit_code=syscalls.exit_code or 0,
            retired=self.retired,
            iclass_counts=self.iclass_counts,
        )

    def _run_oracle(self, fuel: int, remaining: int | None = None) -> None:
        """Step until the program exits; after ``remaining`` instructions
        (all of ``fuel`` by default) raise ``FuelExhausted(fuel)``."""
        syscalls = self.syscalls
        step = self.step
        if remaining is None:
            remaining = fuel
        while not syscalls.exited:
            if remaining <= 0:
                raise FuelExhausted(fuel)
            step()
            remaining -= 1

    # -- threaded engine -----------------------------------------------------

    def _block_at(self, pc: int) -> Superblock:
        """Build (and cache) the superblock starting at ``pc``.

        Blocks end at the first control-transfer *or* ``SYSCALL``
        instruction, so exits and predictor events only ever occur at
        block terminators.  A fetch/decode failure beyond the first
        instruction truncates the block instead of faulting: the fault
        must fire when execution actually reaches that PC, exactly as in
        the oracle loop.
        """
        model = self.model
        class_cycles = (
            model.profile.class_cycles if model is not None else None
        )
        pairs = [(pc, self.fetch(pc))]
        probe = pc
        while (
            pairs[-1][1].iclass not in CONTROL_CLASSES
            and pairs[-1][1].iclass is not InstrClass.SYSCALL
            and len(pairs) < MAX_SUPERBLOCK_INSTRS
        ):
            probe += 4
            try:
                pairs.append((probe, self.fetch(probe)))
            except (MemoryFault, DecodeError):
                break
        block = self._build(pairs, class_cycles)
        self._blocks[pc] = block
        return block

    def _run_threaded(self, fuel: int) -> None:
        cpu = self.cpu
        syscalls = self.syscalls
        on_exit = self.observer.exit if self.observer is not None else None
        blocks = self._blocks
        block_at = self._block_at
        runs = self._vector_runs
        cycles = self.model.cycles if self.model is not None else None
        tier2 = self._tier2
        threshold = tier2.threshold if tier2 is not None else 0
        remaining = fuel

        while syscalls.exit_code is None:
            if remaining <= 0:
                raise FuelExhausted(fuel)
            pc = cpu.pc
            block = blocks.get(pc)
            if block is None:
                block = block_at(pc)
            n = block.n
            if n > remaining:
                # fuel runs out inside this block (before its terminator,
                # the only place a block can exit): the oracle loop
                # raises after exactly ``remaining`` instructions
                self._run_oracle(fuel, remaining)
            if tier2 is not None:
                region = block.region
                if region is None and block.hits >= threshold:
                    region = tier2.try_promote(block)
                if region:
                    # head-block fuel already checked (n <= remaining);
                    # every further block is fuel-guarded in-region
                    remaining = tier2.execute(region, remaining)
                    continue
                block.hits += 1
            # the whole block: one call, then its accounting inline (the
            # block's precomputed APP sum is cycle-identical to charging
            # each instruction)
            try:
                next_pc = block.fn()
            except BaseException as exc:
                self._block_raised(block, exc)
                raise
            self.retired += n
            runs[block.vector] += 1
            if cycles is not None:
                cycles[_APP] += block.app_cycles
            remaining -= n
            if on_exit is not None and block.term_iclass in CONTROL_CLASSES:
                on_exit(block.term_pc, block.term_iclass, next_pc)
            cpu.pc = next_pc


def run_program(
    program: Program,
    inputs: list[int] | None = None,
    fuel: int = DEFAULT_FUEL,
    observer: Observer | None = None,
    engine: str | None = None,
) -> RunResult:
    """Convenience wrapper: load and run a program to completion."""
    return Interpreter(
        program, inputs=inputs, observer=observer, engine=engine
    ).run(fuel)
