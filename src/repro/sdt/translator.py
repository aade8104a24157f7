"""Fragment builder: discovers and translates guest basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.host.costs import Category, HostModel
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.machine.errors import MemoryFault
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, Memory
from repro.sdt.cache import FragmentCache
from repro.sdt.fragment import ExitKind, Fragment, exit_kind_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.inject import FaultInjector

DEFAULT_MAX_FRAGMENT_INSTRS = 128

#: Compiles a fragment body into an execution plan (threaded engine).
PlanFactory = Callable[[list[tuple[int, Instruction]]], object]


class Translator:
    """Builds fragments from guest text on demand.

    Translation is charged to the host model (``translate_fragment`` fixed
    cost plus ``translate_per_instr`` per guest instruction) so the
    cold-start component of SDT overhead is part of every measurement, as
    in the paper.
    """

    def __init__(
        self,
        program: Program,
        mem: Memory,
        cache: FragmentCache,
        model: HostModel,
        max_fragment_instrs: int = DEFAULT_MAX_FRAGMENT_INSTRS,
        trace_jumps: bool = False,
        plan_factory: PlanFactory | None = None,
    ):
        if max_fragment_instrs < 1:
            raise ValueError("max_fragment_instrs must be >= 1")
        self.program = program
        self.cache = cache
        self.model = model
        #: When set (threaded engine), every translated fragment gets a
        #: compiled execution plan attached at translation time.  Plan
        #: compilation is the simulator's own speed trick, not modelled
        #: SDT work, so it is *not* charged to the host model.
        self.plan_factory = plan_factory
        self.max_fragment_instrs = max_fragment_instrs
        #: NET-style trace formation: keep translating through
        #: unconditional direct jumps (``j``), building superblocks.
        #: The elided jump still executes (so retired counts match the
        #: interpreter) but its successor is inlined instead of linked.
        self.trace_jumps = trace_jumps
        #: when set, translations consult the injector for mid-fragment
        #: failures and plan perturbations (see repro.faults)
        self.fault_injector: "FaultInjector | None" = None
        #: optional observability sink (repro.trace.session.TraceSession);
        #: the owning VM wires it after construction
        self.trace = None
        #: instruction fetches decode live guest memory, so a
        #: retranslation after a coherence invalidation sees the bytes the
        #: guest wrote; fetches stay inside the program's text section
        self._mem = mem
        self._text_base = program.text.base
        self._text_end = program.text.base + len(program.text.data)
        self._decoded: dict[int, Instruction] = {}

    def invalidate_decoded(self, addr: int, length: int) -> None:
        """Drop cached decodes overlapping ``[addr, addr + length)``.

        Called by the coherence manager on every guest write to a
        translated page, so a later (re)translation decodes the new
        bytes rather than serving a stale cached instruction.
        """
        decoded = self._decoded
        if not decoded or length <= 0:
            return
        first = addr & ~3
        last = (addr + length - 1) & ~3
        for pc in range(first, last + 4, 4):
            decoded.pop(pc, None)

    def invalidate_decoded_page(self, page_index: int) -> None:
        """Drop every cached decode on one guest page.

        Called by the coherence manager when it stops *watching* a page
        (whole-cache flush, or a selective invalidation that emptied the
        page): once unwatched, further guest stores to the page are
        invisible, so any decode kept beyond that point could silently
        go stale.  The invariant is that a cached decode only outlives a
        write watch on its page.
        """
        decoded = self._decoded
        if not decoded:
            return
        lo = page_index << PAGE_SHIFT
        hi = lo + PAGE_SIZE
        stale = [pc for pc in decoded if lo <= pc < hi]
        for pc in stale:
            del decoded[pc]

    def _in_text(self, pc: int) -> bool:
        return pc % 4 == 0 and self._text_base <= pc < self._text_end

    def _fetch(self, pc: int) -> Instruction:
        instr = self._decoded.get(pc)
        if instr is None:
            if not self._in_text(pc):
                raise MemoryFault(pc, "translate-fetch")
            instr = decode(self._mem.load_word(pc))
            self._decoded[pc] = instr
        return instr

    def get_or_translate(self, guest_pc: int) -> Fragment:
        """Return the fragment for ``guest_pc``, translating on a miss.

        Injected translation failures are retried with bounded attempts
        (each aborted attempt's decode work is still charged); after
        :data:`repro.faults.inject.MAX_TRANSLATE_ATTEMPTS` consecutive
        failures the final attempt runs with injection suppressed, so
        forward progress is guaranteed at any fault rate.
        """
        fragment = self.cache.lookup(guest_pc)
        if fragment is not None:
            return fragment
        if self.fault_injector is None:
            return self.translate(guest_pc)

        from repro.faults.inject import (
            InjectedTranslationFault,
            MAX_TRANSLATE_ATTEMPTS,
        )

        for _attempt in range(MAX_TRANSLATE_ATTEMPTS - 1):
            try:
                return self.translate(guest_pc)
            except InjectedTranslationFault:
                self.cache.stats.faults["translate_retry"] += 1
        return self.translate(guest_pc, inject=False)

    def translate(self, guest_pc: int, inject: bool = True) -> Fragment:
        """Translate one basic block starting at ``guest_pc``."""
        trace = self.trace
        if trace is not None:
            trace.emit("translate.start", pc=guest_pc)
        instrs: list[tuple[int, Instruction]] = []
        pc = guest_pc
        exit_kind = ExitKind.FALL
        visited_jump_targets: set[int] = set()
        for _ in range(self.max_fragment_instrs):
            instr = self._fetch(pc)
            instrs.append((pc, instr))
            if instr.is_control:
                exit_kind = exit_kind_for(instr.iclass)
                if (
                    self.trace_jumps
                    and exit_kind is ExitKind.JUMP
                    and len(instrs) < self.max_fragment_instrs
                ):
                    target = instr.branch_target(pc)
                    fresh = (
                        target not in visited_jump_targets
                        and target != guest_pc
                        and self.cache.lookup(target) is None
                        and self._in_text(target)
                    )
                    if fresh:
                        # inline the jump's successor into this trace
                        visited_jump_targets.add(target)
                        pc = target
                        exit_kind = ExitKind.FALL
                        continue
                break
            pc += 4

        injector = self.fault_injector if inject else None
        profile = self.model.profile
        if injector is not None and injector.should_fail_translation():
            # mid-fragment abort: the decode work above is real and gets
            # charged, but nothing was reserved or inserted, so the
            # retrying caller sees a clean cache
            from repro.faults.inject import InjectedTranslationFault

            self.model.charge(
                Category.TRANSLATE,
                profile.translate_fragment
                + profile.translate_per_instr * len(instrs),
            )
            if trace is not None:
                trace.emit("translate.abort", pc=guest_pc,
                           instrs=len(instrs))
            raise InjectedTranslationFault(
                f"injected translation failure at {guest_pc:#x} "
                f"after {len(instrs)} instrs"
            )

        fragment = Fragment(
            guest_pc=guest_pc,
            fc_addr=0,
            instrs=instrs,
            exit_kind=exit_kind,
        )
        if self.plan_factory is not None:
            fragment.plan = self.plan_factory(instrs)
        if injector is not None:
            # always consumes the same number of draws whether or not a
            # plan exists, keeping fault streams engine-invariant
            kind = injector.plan_perturbation()
            if kind is not None and fragment.plan is not None:
                from repro.faults.inject import apply_plan_perturbation

                apply_plan_perturbation(fragment.plan, kind)
        fragment.fc_addr = self.cache.reserve(fragment.size_bytes)
        self.model.charge(
            Category.TRANSLATE,
            profile.translate_fragment
            + profile.translate_per_instr * len(instrs),
        )
        stats = self.cache.stats
        stats.fragments_translated += 1
        stats.instrs_translated += len(instrs)
        if trace is not None:
            trace.emit("translate.end", pc=guest_pc, instrs=len(instrs),
                       fc_addr=fragment.fc_addr,
                       exit=fragment.exit_kind.name.lower())
        # inserted only now, so the holders hear of the fragment after
        # its TRANSLATE charge and ``translate.end``
        self.cache.insert(fragment)
        return fragment
