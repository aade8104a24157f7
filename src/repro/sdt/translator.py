"""Fragment builder: discovers and translates guest basic blocks.

A fragment is one straight-line walk from its entry PC, or, with
``trace_jumps``, several joined through fresh jump targets.  Walks decode
live guest memory, and the process keeps the last few walks from each
entry PC (:data:`WALKS`), whichever translator made them: a translation
of unchanged code (after a flush or an invalidation, in the next VM of
the same guest, in the next experiment cell) reuses one once it lies
inside this program's text section and one compare shows that guest
memory still holds the bytes it decoded.  Every reuse is checked against
live bytes, so the translator needs no word from the write watch: a
store that no watch saw (on a page unwatched by a flush, or under
``coherence="none"``) is decoded anew.  A walk holds no machine, only
bytes and decoded instructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.host.costs import Category, HostModel
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.machine.errors import MemoryFault
from repro.machine.memory import Memory
from repro.machine.runner import BLOCK_VERSIONS
from repro.sdt.cache import FragmentCache
from repro.sdt.fragment import ExitKind, Fragment, exit_kind_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.inject import FaultInjector

DEFAULT_MAX_FRAGMENT_INSTRS = 128

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_TRANSLATE = Category.TRANSLATE
_FALL = ExitKind.FALL
_JUMP = ExitKind.JUMP

#: Compiles a fragment body into an execution plan (threaded engine).
PlanFactory = Callable[[list[tuple[int, Instruction]]], object]

#: entry PC -> the walks from it, ``(room, guest bytes, pairs, exit
#: kind)``, most recently made or reused first, at most
#: :data:`~repro.machine.runner.BLOCK_VERSIONS`; every translator of the
#: process shares them (see :meth:`Translator._walk`)
WALKS: dict[int, list[tuple]] = {}


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
        #: the live guest memory walks decode, inside the program's
        #: text section
        self._mem = mem
        self._text_base = program.text.base
        self._text_end = program.text.base + len(program.text.data)

    def _in_text(self, pc: int) -> bool:
        return pc % 4 == 0 and self._text_base <= pc < self._text_end

    def _walk(
        self, pc: int, room: int
    ) -> tuple[tuple[tuple[int, Instruction], ...], ExitKind]:
        """The ``(pc, instruction)`` pairs of at most ``room`` instructions
        from ``pc``, up to the first control transfer, and their exit kind.

        A walk from ``pc`` in :data:`WALKS` is reused when it had the
        same room, lies inside this program's text section and guest
        memory still holds the bytes it decoded: walking again would
        decode the same instructions and stop at the same one.
        """
        mem = self._mem
        versions = WALKS.get(pc, ())
        for at, walk in enumerate(versions):
            if (walk[0] == room and self._text_base <= pc
                    and pc + len(walk[1]) <= self._text_end
                    and mem.holds(pc, walk[1])):
                if at:
                    versions.insert(0, versions.pop(at))
                return walk[2], walk[3]
        walked = []
        exit_kind = _FALL
        for at in range(pc, pc + 4 * room, 4):
            if not self._in_text(at):
                raise MemoryFault(at, "translate-fetch")
            instr = decode(mem.load_word(at))
            walked.append((at, instr))
            if instr.is_control:
                exit_kind = exit_kind_for(instr.iclass)
                break
        pairs = tuple(walked)
        if not versions:
            versions = WALKS[pc] = []
        versions.insert(0, (room, mem.read_bytes(pc, 4 * len(pairs)), pairs,
                            exit_kind))
        del versions[BLOCK_VERSIONS:]
        return pairs, exit_kind

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
        # straight-line walks, joined through fresh jump targets when
        # tracing; a fresh list, never a walk's own pairs
        instrs: list[tuple[int, Instruction]] = []
        room = self.max_fragment_instrs
        pc = guest_pc
        visited_jump_targets: set[int] = set()
        while True:
            pairs, exit_kind = self._walk(pc, room)
            instrs += pairs
            room -= len(pairs)
            if not (self.trace_jumps and exit_kind is _JUMP
                    and room):
                break
            jump_pc, jump = pairs[-1]
            target = jump.branch_target(jump_pc)
            if (
                target in visited_jump_targets
                or target == guest_pc
                or self.cache.lookup(target) is not None
                or not self._in_text(target)
            ):
                break
            # inline the jump's successor into this trace
            visited_jump_targets.add(target)
            pc = target

        injector = self.fault_injector if inject else None
        profile = self.model.profile
        if injector is not None and injector.should_fail_translation():
            # mid-fragment abort: the decode work above is real and gets
            # charged, but nothing was reserved or inserted, so the
            # retrying caller sees a clean cache
            from repro.faults.inject import InjectedTranslationFault

            self.model.charge(
                _TRANSLATE,
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
        fragment.exit_site = fragment.fc_addr + 4 * max(len(instrs) - 1, 0)
        self.model.charge(
            _TRANSLATE,
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
