"""Block execution shared by the reference interpreter and the SDT.

A translated block runs exactly as the native block would; only its exit
differs (a static edge in the interpreter, a patched link or an IB
mechanism dispatch in the SDT).  :class:`BlockRunner` therefore owns
everything below the exit for both harnesses:

- the whole-block body (closure list, one run-counter bump, one APP
  cycle commit),
- the per-instruction body (exact fuel stop, mid-block exit ``SYSCALL``),
- the partial-block accounting after a fault, which the tier-2 fault
  replay (:mod:`repro.machine.tier2`) reuses,
- the instruction-class counts.  Every block a harness builds goes
  through :meth:`BlockRunner._build`, which interns the block's class
  multiset into a per-runner table with one run counter per distinct
  vector; the whole-block body bumps that counter instead of adding up
  class counts.  The per-instruction paths count into a plain dict, and
  :attr:`BlockRunner.iclass_counts` adds the two up on read
  (block-count profiling: count the blocks, derive the rest).  The
  counters live in the runner, not in the blocks, so a block that is
  dropped (a code write, a flush, an eviction, a demotion) takes no
  counts with it,
- the compiled closures.  :meth:`BlockRunner._build` compiles each
  distinct block once per runner: it keeps the last few versions built
  at each entry PC, and a rebuild from pairs equal to one of them (an
  SDT re-translation after a flush or an invalidation, a guest writing
  code back to an earlier version) gets a fresh block sharing that
  version's closures (:meth:`Superblock.rebuilt`).

A stop — fault or fuel — leaves ``cpu.pc`` on the next unexecuted guest
instruction (the faulting one, for a fault), exactly like the oracle
loops.  A clean exit leaves it where the exiting instruction sent it.
Each harness keeps its oracle reference loop, its block lookup and its
exit hook.
"""

from __future__ import annotations

from collections import Counter
from operator import length_hint

from repro.host.costs import Category
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass
from repro.isa.program import Program
from repro.machine.engine import Superblock
from repro.machine.errors import FuelExhausted
from repro.machine.loader import load_program

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_APP = Category.APP
_SYSCALL = InstrClass.SYSCALL
_ICLASSES = tuple(InstrClass)

#: Compiled versions :meth:`BlockRunner._build` keeps per entry PC, most
#: recently built or reused first.  smc_loop and dyn_loader switch
#: between two versions of a block; mini_jit writes a new one each time
#: (256 at one entry at ``large``) and never returns to an old one, so
#: the bound keeps those from piling up.
BLOCK_VERSIONS = 8


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
        #: the per-instruction and partial-fault bodies, tier2 commits
        self._direct_counts: dict[InstrClass, int] = dict.fromkeys(
            InstrClass, 0
        )
        #: dense class vector (counts in ``InstrClass`` order) -> index
        #: of its run counter in ``_vector_runs``
        self._vectors: dict[tuple[int, ...], int] = {}
        #: whole-block executions per interned class vector
        self._vector_runs: list[int] = []
        #: entry PC -> ``(pairs, block)`` of the versions compiled there,
        #: most recent first, at most :data:`BLOCK_VERSIONS`
        self._built: dict[int, list[tuple[list, Superblock]]] = {}

    @property
    def iclass_counts(self) -> Counter:
        """``InstrClass -> count`` of retired instructions: the direct
        counts plus Σ runs × vector over the interned block vectors."""
        totals = dict(self._direct_counts)
        for vector, runs in zip(self._vectors, self._vector_runs):
            for iclass, count in zip(_ICLASSES, vector):
                totals[iclass] += runs * count
        return Counter({ic: count for ic, count in totals.items() if count})

    def _build(self, pairs: list[tuple[int, Instruction]], class_cycles,
               trace=None) -> Superblock:
        """Compile ``pairs`` into a block on this machine and give it the
        run counter of its class multiset.

        Each distinct block is compiled once per runner: when a version
        kept at this entry PC came from pairs equal to ``pairs``, the
        result is a fresh block sharing its closures
        (:meth:`Superblock.rebuilt`), and that version moves to the
        front.  ``pairs`` always hold what guest memory holds now (the
        SDT translator checks each walk it reuses against live bytes,
        the interpreter drops a decode when its word is written), so
        equal pairs mean the same code.  Versions are compared, never
        hashed: a re-translation of unchanged code is one dict hit and
        one list ``==`` whose elements are mostly the very same objects
        (the translator's kept walk, :func:`repro.isa.encoding.decode`'s
        memo).  ``class_cycles`` is fixed per runner.

        The vector is read from the immutable ``iclasses`` tuple, never
        from ``class_counts``, which fault injection may corrupt.
        """
        entry = pairs[0][0]
        versions = self._built.get(entry)
        if versions is None:
            versions = self._built[entry] = []
        for at, (seen, block) in enumerate(versions):
            if seen == pairs:
                if at:
                    versions.insert(0, versions.pop(at))
                return block.rebuilt(trace)
        block = Superblock(pairs, self.cpu, self.mem, self.syscalls,
                           class_cycles=class_cycles, trace=trace)
        vector = tuple(map(block.iclasses.count, _ICLASSES))
        index = self._vectors.get(vector)
        if index is None:
            index = self._vectors[vector] = len(self._vector_runs)
            self._vector_runs.append(0)
        block.vector = index
        versions.insert(0, (pairs, block))
        del versions[BLOCK_VERSIONS:]
        return block

    def _run_block(self, block: Superblock) -> int:
        """Execute a whole block with block-level accounting.

        Only for blocks that fit the remaining fuel and cannot exit
        mid-block, so no per-instruction checks are needed.  Returns the
        next guest PC.
        """
        it = iter(block.fns)
        try:
            for fn in it:
                next_pc = fn()
        except BaseException:
            # the faulting closure's index, counted on the immutable
            # ``fns`` (fault injection may perturb ``n``)
            self._account_partial(block.pcs, block.iclasses,
                                  len(block.fns) - 1 - length_hint(it))
            raise
        self.retired += block.n
        self._vector_runs[block.vector] += 1
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
        counts = self._direct_counts
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
        counts = self._direct_counts
        model = self.model
        for iclass in iclasses[:k]:
            counts[iclass] += 1
            if model is not None:
                model.charge_instr(iclass)
        self.retired += k
        self.cpu.pc = pcs[min(k, len(pcs) - 1)]
