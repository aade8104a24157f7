"""Block execution shared by the reference interpreter and the SDT.

A translated block runs exactly as the native block would; only its exit
differs (a static edge in the interpreter, a patched link or an IB
mechanism dispatch in the SDT).  :class:`BlockRunner` therefore owns
everything below the exit for both harnesses:

- what follows a block function that raised
  (:meth:`BlockRunner._block_raised`).  Each harness runs a whole block
  itself, in its main loop: one call of the block's compiled function,
  then, inline, the ``retired`` add, the run-counter bump and the APP
  cycle commit.  Only when the function raises does its ``except``
  clause call into the runner: a guest fault inside the block is placed
  by the line the function's frame stopped on, through its shape's line
  table, and a ``SYSCALL`` before an SDT fragment's last instruction
  that exits the program stops the block right after it
  (:class:`~repro.machine.engine.ProgramExit`); both account exactly
  the retired prefix,
- the partial-block accounting after a fault or a mid-block exit, which
  the tier-2 fault replay (:mod:`repro.machine.tier2`) reuses,
- the instruction-class counts.  Every block a harness builds goes
  through :meth:`BlockRunner._build`, which interns the block's class
  multiset into a per-runner table with one run counter per distinct
  vector; a whole-block run bumps that counter instead of adding up
  class counts.  The per-instruction paths (the harnesses' oracle
  loops, the partial-block accounting) count into a plain dict, and
  :attr:`BlockRunner.iclass_counts` adds the two up on read
  (block-count profiling: count the blocks, derive the rest).  The
  counters live in the runner, not in the blocks, so a block that is
  dropped (a code write, a flush, an eviction, a demotion) takes no
  counts with it,
- the blocks.  :meth:`BlockRunner._build` compiles each distinct block
  once per process: :data:`BLOCKS` keeps the last few versions compiled
  at each entry PC by any runner, machine-free
  (:class:`~repro.machine.engine.BlockCode`), and a build from pairs
  equal to one of them (the native baseline and the SDT run of one
  guest, every experiment cell that runs it again, an SDT
  re-translation after a flush or an invalidation, a guest writing code
  back to an earlier version) binds that version to this runner's
  machine instead.  What is per runner: the machine, the function it
  made of each stored version it built (one ``FunctionType`` each), the
  run counters, and each block's APP cycles under the runner's
  profile.  What is per process: the stored versions, which hold no
  machine.

A block that does not fit the remaining fuel is not run here: each
harness runs its oracle reference loop for the remaining budget, which
stops it exactly.  A stop — fault or fuel — leaves ``cpu.pc`` on the
next unexecuted guest instruction (the faulting one, for a fault),
exactly like the oracle loops.  A clean exit leaves it where the exiting
instruction sent it.  Each harness keeps its oracle reference loop, its
block lookup, its whole-block step and its exit hook.
"""

from __future__ import annotations

from collections import Counter

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass
from repro.isa.program import Program
from repro.machine.engine import (
    BlockCode,
    ProgramExit,
    Superblock,
    machine_names,
)
from repro.machine.loader import load_program

_ICLASSES = tuple(InstrClass)

#: Blocks :data:`BLOCKS` keeps per entry PC, and walks the SDT
#: translator keeps per entry PC, most recently built or reused first.
#: smc_loop and dyn_loader switch between two versions of a block;
#: mini_jit writes a new one each time (256 at one entry at ``large``)
#: and never returns to an old one, so the bound keeps those from piling
#: up.
BLOCK_VERSIONS = 8

#: entry PC -> the :class:`~repro.machine.engine.BlockCode` compiled
#: there by any runner of the process, most recently built or reused
#: first, at most :data:`BLOCK_VERSIONS`.  Machine-free: each runner
#: binds what it reuses to its own machine (see
#: :meth:`BlockRunner._build`).
BLOCKS: dict[int, list[BlockCode]] = {}


class BlockRunner:
    """Machine state plus the block bodies both harnesses execute.

    Attributes:
        cpu / mem / syscalls: the loaded guest machine.
        retired: instructions retired so far.
        iclass_counts: ``InstrClass -> count`` of retired instructions,
            a fresh :class:`~collections.Counter` with no zero entries,
            materialised on read from the direct counts and the block
            run counters (read-only).
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
        #: classes counted one instruction at a time: the oracle loops,
        #: the partial-block accounting, tier2 commits
        self._direct_counts: dict[InstrClass, int] = dict.fromkeys(
            InstrClass, 0
        )
        #: dense class vector (counts in ``InstrClass`` order) -> index
        #: of its run counter in ``_vector_runs``
        self._vectors: dict[tuple[int, ...], int] = {}
        #: whole-block executions per interned class vector
        self._vector_runs: list[int] = []
        #: what every block function of this runner binds
        self._names = machine_names(self.cpu, self.mem, self.syscalls)
        #: stored block -> ``(function, APP cycles, run counter index)``
        #: on this machine (see :meth:`_build`)
        self._bound: dict[BlockCode, tuple] = {}

    @property
    def iclass_counts(self) -> Counter:
        """``InstrClass -> count`` of retired instructions: the direct
        counts plus Σ runs × vector over the interned block vectors."""
        totals = dict(self._direct_counts)
        for vector, runs in zip(self._vectors, self._vector_runs):
            for iclass, count in zip(_ICLASSES, vector):
                totals[iclass] += runs * count
        return Counter({ic: count for ic, count in totals.items() if count})

    def _bind(self, code: BlockCode, fn, class_cycles) -> tuple:
        """Keep ``fn``, ``code``'s function on this machine, as its
        binding here, with the APP cycles and the run counter of its
        class multiset (interned on first use)."""
        counts = dict(code.class_items)
        vector = tuple([counts.get(iclass, 0) for iclass in _ICLASSES])
        index = self._vectors.get(vector)
        if index is None:
            index = self._vectors[vector] = len(self._vector_runs)
            self._vector_runs.append(0)
        binding = self._bound[code] = (fn, code.app_cycles(class_cycles),
                                       index)
        return binding

    def _build(self, pairs: list[tuple[int, Instruction]], class_cycles,
               trace=None) -> Superblock:
        """Build ``pairs`` into a block on this machine and give it the
        run counter of its class multiset.

        Each distinct block is compiled once per process: when a
        version in :data:`BLOCKS` at this entry PC came from pairs equal
        to ``pairs``, that version moves to the front and is bound to
        this machine (:meth:`BlockCode.bind`), with the function this
        runner made of it the first time.  ``pairs`` always hold what
        guest memory holds now (the SDT translator checks each walk it
        reuses against live bytes, the interpreter drops a decode when
        its word is written), so equal pairs mean the same code.
        Versions are compared, never hashed: the list ``==`` finds the
        same pair tuples (the translator's stored walk) or the same
        ``Instruction`` objects (:func:`repro.isa.encoding.decode`'s
        memo) and compares them by identity.  ``class_cycles`` is fixed
        per runner, and no caller changes ``pairs`` once built.
        """
        entry = pairs[0][0]
        versions = BLOCKS.get(entry, ())
        for at, code in enumerate(versions):
            if code.pairs == pairs:
                if at:
                    versions.insert(0, versions.pop(at))
                # keep the latest equal pairs: after the SDT's build they
                # are the pair tuples its stored walk holds anyway
                code.pairs = pairs
                binding = self._bound.get(code)
                if binding is None:
                    binding = self._bind(code, code.function(self._names),
                                         class_cycles)
                return code.bind(*binding, trace)
        block = Superblock(pairs, self.cpu, self.mem, self.syscalls,
                           class_cycles=class_cycles, trace=trace)
        code = block.unbound
        block.vector = self._bind(code, block.fn, class_cycles)[2]
        if not versions:
            versions = BLOCKS[entry] = []
        versions.insert(0, code)
        del versions[BLOCK_VERSIONS:]
        return block

    def _block_raised(self, block: Superblock, exc: BaseException) -> bool:
        """Account a block whose function raised ``exc``.

        Only a harness's ``except`` clause around ``block.fn()`` calls
        this, with the exception it caught there.  The block frame's
        line, through the shape's line table, names the instruction
        (never ``n``, which fault injection may perturb).  For a guest
        fault the retired prefix before it is accounted and ``cpu.pc``
        left on it; the caller re-raises.  For a :class:`ProgramExit`
        the ``SYSCALL`` retired too, and ``cpu.pc`` is left on its
        successor, the block's next instruction; returns True.
        """
        tb = exc.__traceback__.tb_next
        k = block.lines[tb.tb_lineno] if tb is not None else 0
        if exc.__class__ is ProgramExit:
            self._account_partial(block.pcs, block.iclasses, k + 1)
            return True
        self._account_partial(block.pcs, block.iclasses, k)
        return False

    def _account_partial(self, pcs, iclasses, k: int) -> None:
        """Account a block's first ``k`` instructions and leave ``cpu.pc``
        on the next one: the faulting instruction, after a fault."""
        counts = self._direct_counts
        model = self.model
        for iclass in iclasses[:k]:
            counts[iclass] += 1
            if model is not None:
                model.charge_instr(iclass)
        self.retired += k
        self.cpu.pc = pcs[min(k, len(pcs) - 1)]
