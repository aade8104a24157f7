"""Block execution shared by the reference interpreter and the SDT.

A translated block runs exactly as the native block would; only its exit
differs (a static edge in the interpreter, a patched link or an IB
mechanism dispatch in the SDT).  :class:`BlockRunner` therefore owns
everything below the exit for both harnesses:

- the whole-block body (closure list, one class-count commit, one APP
  cycle commit),
- the per-instruction body (exact fuel stop, mid-block exit ``SYSCALL``),
- the partial-block accounting after a fault, which the tier-2 fault
  replay (:mod:`repro.machine.tier2`) reuses.

A stop — fault or fuel — leaves ``cpu.pc`` on the next unexecuted guest
instruction (the faulting one, for a fault), exactly like the oracle
loops.  A clean exit leaves it where the exiting instruction sent it.
Each harness keeps its oracle reference loop, its block lookup and its
exit hook.
"""

from __future__ import annotations

from collections import Counter

from repro.host.costs import Category
from repro.isa.opcodes import InstrClass
from repro.isa.program import Program
from repro.machine.engine import Superblock
from repro.machine.errors import FuelExhausted
from repro.machine.loader import load_program

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_APP = Category.APP
_SYSCALL = InstrClass.SYSCALL


class BlockRunner:
    """Machine state plus the block bodies both harnesses execute.

    Attributes:
        cpu / mem / syscalls: the loaded guest machine.
        retired: instructions retired so far.
        iclass_counts: ``InstrClass -> count`` of retired instructions.
        model: the :class:`repro.host.costs.HostModel` charged for
            execution, or ``None`` when the run has no cost model.
        trace: the run's trace session (SDT only; ``None`` otherwise).
    """

    trace = None

    def __init__(self, program: Program, inputs: list[int] | None, model):
        self.program = program
        self.cpu, self.mem, self.syscalls = load_program(program, inputs)
        self.model = model
        self.retired = 0
        self.iclass_counts: Counter = Counter()

    def _run_block(self, block: Superblock) -> int:
        """Execute a whole block with block-level accounting.

        Only for blocks that fit the remaining fuel and cannot exit
        mid-block, so no per-instruction checks are needed.  Returns the
        next guest PC.
        """
        k = 0
        try:
            for k, fn in enumerate(block.fns):
                next_pc = fn()
        except BaseException:
            self._account_partial(block.pcs, block.iclasses, k)
            raise
        self.retired += block.n
        counts = self.iclass_counts
        for iclass, count in block.class_counts.items():
            counts[iclass] += count
        model = self.model
        if model is not None:
            # the block's precomputed APP sum: cycle-identical to
            # charging each instruction
            model.cycles[_APP] += block.app_cycles
        return next_pc

    def _run_steps(self, block: Superblock, budget: int,
                   fuel: int) -> int | None:
        """Execute a block one instruction at a time.

        Raises :class:`FuelExhausted` after exactly ``budget``
        instructions and returns ``None`` when a ``SYSCALL`` exits the
        program mid-block (``cpu.pc`` on its successor); otherwise
        returns the next guest PC.
        """
        syscalls = self.syscalls
        counts = self.iclass_counts
        model = self.model
        iclasses = block.iclasses
        k = 0
        next_pc = block.entry_pc
        try:
            for fn in block.fns:
                if k >= budget:
                    raise FuelExhausted(fuel)
                next_pc = fn()
                iclass = iclasses[k]
                k += 1
                counts[iclass] += 1
                if model is not None:
                    model.charge_instr(iclass)
                if iclass is _SYSCALL and syscalls.exited:
                    self.cpu.pc = next_pc
                    return None
        except BaseException:
            # fault or fuel stop: cpu.pc on the next unexecuted instruction
            self.cpu.pc = block.pcs[min(k, block.n - 1)]
            raise
        finally:
            self.retired += k
        return next_pc

    def _account_partial(self, pcs, iclasses, k: int) -> None:
        """Account a block's first ``k`` instructions after a fault and
        leave ``cpu.pc`` on the faulting instruction."""
        counts = self.iclass_counts
        model = self.model
        for iclass in iclasses[:k]:
            counts[iclass] += 1
            if model is not None:
                model.charge_instr(iclass)
        self.retired += k
        self.cpu.pc = pcs[min(k, len(pcs) - 1)]
