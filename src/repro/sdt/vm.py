"""The SDT virtual machine: fragment-cache execution main loop.

Execution alternates between *translated code* (fragments, executed here
with real guest semantics via :func:`repro.machine.executor.execute`) and
the *translator* (entered on fragment-cache misses and unhandled indirect
branches).  All cycle costs — application work, dispatch code, context
switches, translation, host branch mispredictions — are charged to the
bound :class:`repro.host.costs.HostModel` as they occur.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.host.costs import Category, HostModel
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass
from repro.isa.program import Program
from repro.isa.registers import REG_RA
from repro.machine.engine import Superblock
from repro.machine.errors import FuelExhausted
from repro.machine.executor import execute
from repro.machine.interpreter import DEFAULT_FUEL
from repro.machine.runner import BlockRunner
from repro.sdt.cache import FragmentCache
from repro.sdt.config import SDTConfig
from repro.sdt.fragment import ExitKind, Fragment
from repro.sdt.ib.factory import build_mechanisms
from repro.sdt.stats import SDTStats
from repro.sdt.translator import Translator

#: Synthetic host address of the translator's jump back into the fragment
#: cache — a single, maximally polymorphic indirect jump site.
TRANSLATOR_DISPATCH_SITE = 0xFFFF_0000

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_CONTEXT_SWITCH = Category.CONTEXT_SWITCH
_MAP_LOOKUP = Category.MAP_LOOKUP
_LINK = Category.LINK


@dataclass(slots=True)
class SDTRunResult:
    """Outcome of one program run under the SDT."""

    output: str
    exit_code: int
    retired: int
    iclass_counts: Counter
    total_cycles: int
    cycles: dict[str, int]
    stats: SDTStats
    config_label: str

    @property
    def app_cycles(self) -> int:
        return self.cycles[Category.APP.value]

    def overhead_vs(self, native_cycles: int) -> float:
        """Slowdown relative to a native run (the paper's metric)."""
        if native_cycles <= 0:
            raise ValueError("native_cycles must be positive")
        return self.total_cycles / native_cycles


class SDTVM(BlockRunner):
    """Software dynamic translator for SR32 programs."""

    def __init__(
        self,
        program: Program,
        config: SDTConfig | None = None,
        inputs: list[int] | None = None,
    ):
        self.config = config if config is not None else SDTConfig()
        super().__init__(program, inputs, HostModel(self.config.profile))
        self.stats = SDTStats()
        # observability (repro.trace): one session per VM, or None when
        # tracing is off — every emit site guards on that None, so the
        # disabled cost is a single attribute test on already-cold paths.
        self.trace = None
        if self.config.trace is not None:
            from repro.trace.session import TraceSession

            self.trace = TraceSession(self.model, self.config.trace)
        self.cache = FragmentCache(
            capacity=self.config.fragment_cache_bytes, stats=self.stats
        )
        self.cache.trace = self.trace
        # tier2 layers region compilation on top of the threaded tier, so
        # every threaded structure (plans, block accounting) stays active
        self._threaded = self.config.engine in ("threaded", "tier2")
        self.translator = Translator(
            program,
            self.mem,
            self.cache,
            self.model,
            max_fragment_instrs=self.config.max_fragment_instrs,
            trace_jumps=self.config.trace_jumps,
            plan_factory=self._compile_plan if self._threaded else None,
        )
        self.translator.trace = self.trace
        # Fragment holders (repro.sdt.cache.FragmentHolder) hear every
        # translation, flush and selective invalidation in the order they
        # are held: the generic mechanism (then a prediction wrapper's
        # inner mechanism), the return mechanism, the static-targets
        # runtime (its preseeding fills the mechanisms), the coherence
        # manager, tier-2 regions, and the invariant checker last, so its
        # walks see every other holder's post-event state.
        self.generic_ib, self.return_mech = build_mechanisms(self.config)
        self.generic_ib.bind(self)
        self.return_mech.bind(self)
        self.static_rt = None
        if self.config.static_targets:
            from repro.sdt.static_targets import StaticTargetsRuntime

            self.static_rt = StaticTargetsRuntime(self)
        self.coherence = None
        if self.config.coherence != "none":
            from repro.sdt.coherence import CoherenceManager

            self.coherence = CoherenceManager(self)
        self._tier2 = None
        if self.config.engine == "tier2":
            from repro.machine.tier2 import Tier2Runtime

            self._tier2 = Tier2Runtime(self)
        self.fault_injector = None
        self.invariant_checker = None
        if self.config.faults is not None:
            from repro.faults.inject import FaultInjector
            from repro.faults.invariants import InvariantChecker

            self.fault_injector = FaultInjector(self.config.faults, self.stats)
            self.fault_injector.trace = self.trace
            self.cache.fault_injector = self.fault_injector
            self.translator.fault_injector = self.fault_injector
            self.invariant_checker = InvariantChecker(self)
        self._chaos = self.fault_injector is not None
        self._fuel = DEFAULT_FUEL
        #: one exit handler per kind, ``handler(fragment, next_pc,
        #: last_pc, term_rd) -> successor | None``, shared by the block
        #: and oracle bodies
        self._exits = {
            ExitKind.HALT: self._exit_halt,
            ExitKind.FALL: self._exit_jump,
            ExitKind.COND: self._exit_cond,
            ExitKind.JUMP: self._exit_jump,
            ExitKind.CALL: self._exit_call,
            ExitKind.ICALL: self._exit_icall,
            ExitKind.IJUMP: self._exit_ijump,
            ExitKind.RET: self._exit_ret,
        }

    def _compile_plan(self, instrs: list[tuple[int, Instruction]]) -> Superblock:
        """Compile a fragment body into a threaded execution plan."""
        return self._build(instrs, self.config.profile.class_cycles,
                           trace=self.trace)

    # -- translator interactions --------------------------------------------

    def reenter_translator(self, guest_target: int) -> Fragment:
        """Full slow path: context switch, map probe, translate-if-missing.

        Every unoptimised IB dispatch, every cold fragment exit, and every
        mechanism miss funnels through here — this is the cost the paper's
        mechanisms exist to avoid.
        """
        model = self.model
        profile = model.profile
        trace = self.trace
        if trace is not None:
            trace.emit("reentry.enter", target=guest_target)
        self.stats.translator_reentries += 1
        model.charge(_CONTEXT_SWITCH, 2 * profile.context_half_switch)
        model.charge(_MAP_LOOKUP, profile.map_lookup)
        # the translator's own execution trashes the hardware RAS
        model.ras.flush()
        fragment = self.translator.get_or_translate(guest_target)
        # dispatch back into the fragment cache: one polymorphic host
        # indirect jump shared by every slow path
        model.indirect_jump(
            TRANSLATOR_DISPATCH_SITE,
            fragment.fc_addr,
            category=_CONTEXT_SWITCH,
        )
        if trace is not None:
            trace.emit("reentry.exit", target=guest_target,
                       fc_addr=fragment.fc_addr)
        return fragment

    def _direct_successor(
        self, fragment: Fragment, key: str, guest_target: int
    ) -> Fragment:
        """Follow (or establish) a linked direct exit."""
        linked = fragment.links.get(key)
        if linked is not None and linked.valid:
            return linked
        successor = self.reenter_translator(guest_target)
        if self.config.linking and fragment.valid:
            fragment.links[key] = successor
            self.model.charge(_LINK, self.model.profile.link_patch)
            self.stats.links_patched += 1
            if self.trace is not None:
                self.trace.emit("fragment.link", from_pc=fragment.guest_pc,
                                key=key, to_pc=guest_target)
        return successor

    # -- execution -----------------------------------------------------------

    def execute_fragment(self, fragment: Fragment) -> Fragment | None:
        """Execute one fragment; returns the successor or ``None`` on exit.

        Fuel semantics match the interpreter instruction-for-instruction:
        when the budget would be exceeded *inside* this fragment,
        :class:`FuelExhausted` is raised after retiring exactly the
        budgeted prefix, so ``self.retired == fuel`` at the raise and
        ``cpu.pc`` is the next unexecuted guest instruction.
        """
        fragment.executions += 1
        if self._threaded and not fragment.demoted:
            # translation attached the plan; only demotion and eviction
            # clear it, and no holder hands back an evicted fragment
            plan = fragment.plan
            if self._chaos and not plan.coherent_with(
                fragment.guest_pc, fragment.instrs
            ):
                # graceful degradation: a plan that no longer describes
                # its fragment is never executed — the fragment is
                # permanently demoted to the oracle engine instead.
                # Oracle and threaded bodies charge identical cycles, so
                # demotion is invisible to every measurement.
                self._demote(fragment)
                return self._run_oracle(fragment)
            budget = self._fuel - self.retired
            if not plan.has_syscall and plan.n <= budget:
                tier2 = self._tier2
                if tier2 is not None:
                    region = fragment.region
                    if region is None and \
                            fragment.executions >= tier2.threshold:
                        region = tier2.try_promote(fragment)
                    if region:
                        # entry gate: the head block fits the budget and
                        # (under chaos) its plan is coherent — both were
                        # just checked above; every further block is
                        # guarded inside the region.
                        return tier2.execute(region, budget)
                next_pc = self._run_block(plan)
            else:
                # the plan may exit mid-block (SYSCALL) or fuel runs out
                # inside it: per-instruction checks
                next_pc = self._run_steps(plan, budget, self._fuel)
                if next_pc is None:
                    return None
            return self._exits[fragment.exit_kind](
                fragment, next_pc, plan.term_pc, plan.term_rd
            )
        return self._run_oracle(fragment)

    def _demote(self, fragment: Fragment) -> None:
        """Pin a fragment to the oracle engine after plan incoherence."""
        fragment.plan = None
        fragment.demoted = True
        self.stats.fragments_demoted += 1
        self.stats.faults["demotion"] += 1
        if self.trace is not None:
            self.trace.emit("plan.demote", pc=fragment.guest_pc)

    def _run_oracle(self, fragment: Fragment) -> Fragment | None:
        """Reference per-instruction fragment body (the semantics oracle)."""
        cpu = self.cpu
        mem = self.mem
        syscalls = self.syscalls
        model = self.model
        counts = self._direct_counts
        budget = self._fuel - self.retired

        guest_pc = fragment.guest_pc
        next_pc = guest_pc
        instr = None
        executed = 0
        try:
            for guest_pc, instr in fragment.instrs:
                cpu.pc = guest_pc
                if executed >= budget:
                    raise FuelExhausted(self._fuel)
                next_pc = execute(instr, cpu, mem, syscalls)
                executed += 1
                iclass = instr.iclass
                counts[iclass] += 1
                model.charge_instr(iclass)
                if iclass is InstrClass.SYSCALL and syscalls.exited:
                    cpu.pc = next_pc
                    return None
        finally:
            self.retired += executed
        assert instr is not None
        return self._exits[fragment.exit_kind](
            fragment, next_pc, guest_pc, instr.rd
        )

    # -- fragment exits (one handler per ExitKind, see ``_exits``) -----------

    def _exit_halt(self, fragment, next_pc, last_pc, term_rd) -> None:
        self.cpu.pc = next_pc
        return None

    def _exit_jump(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        return self._direct_successor(fragment, "J", next_pc)

    def _exit_cond(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        taken = next_pc != last_pc + 4
        self.model.cond_branch(fragment.exit_site, taken)
        return self._direct_successor(fragment, "T" if taken else "F",
                                      next_pc)

    def _exit_call(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        self.return_mech.on_call(self.cpu, REG_RA, last_pc + 4)
        return self._direct_successor(fragment, "J", next_pc)

    def _exit_icall(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        self.stats.ib_dispatches["icall"] += 1
        self.return_mech.on_call(self.cpu, term_rd, last_pc + 4)
        return self._dispatch_ib("icall", fragment, last_pc, next_pc,
                                 self.generic_ib.dispatch)

    def _exit_ijump(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        self.stats.ib_dispatches["ijump"] += 1
        return self._dispatch_ib("ijump", fragment, last_pc, next_pc,
                                 self.generic_ib.dispatch)

    def _exit_ret(self, fragment, next_pc, last_pc, term_rd) -> Fragment:
        self.stats.ib_dispatches["ret"] += 1
        return self._dispatch_ib("ret", fragment, last_pc, next_pc,
                                 self.return_mech.dispatch_ret)

    def _dispatch_ib(
        self, ib: str, fragment: Fragment, ib_pc: int, target: int,
        dispatch_fn,
    ) -> Fragment:
        """One dynamic IB dispatch: static fast path, then the mechanism.

        When the static-targets runtime is bound, devirtualized sites may
        resolve here with a guarded direct branch; every other dispatch
        (and every guard mismatch) goes through ``dispatch_fn``
        unchanged.  Trace brackets wrap both paths identically.
        """
        trace = self.trace
        if trace is not None:
            trace.emit("dispatch.start", ib=ib, site=ib_pc, target=target)
        successor = None
        if self.static_rt is not None:
            successor = self.static_rt.dispatch(fragment, ib, ib_pc, target)
        if successor is None:
            successor = dispatch_fn(fragment, ib_pc, target)
        if trace is not None:
            trace.emit("dispatch.end", ib=ib, site=ib_pc)
        return successor

    def run(self, fuel: int = DEFAULT_FUEL) -> SDTRunResult:
        """Run to completion (or until exactly ``fuel`` retired instrs)."""
        self._fuel = fuel
        try:
            fragment: Fragment | None = self.reenter_translator(self.cpu.pc)
            while fragment is not None:
                fragment = self.execute_fragment(fragment)
        finally:
            # close the attribution ledger even on faulted runs so partial
            # traces still sum exactly to the cycles actually spent
            if self.trace is not None:
                self.trace.finish()
        return SDTRunResult(
            output=self.syscalls.output,
            exit_code=self.syscalls.exit_code or 0,
            retired=self.retired,
            iclass_counts=self.iclass_counts,
            total_cycles=self.model.total_cycles,
            cycles=self.model.breakdown(),
            stats=self.stats,
            config_label=self.config.label,
        )


def run_sdt(
    program: Program,
    config: SDTConfig | None = None,
    inputs: list[int] | None = None,
    fuel: int = DEFAULT_FUEL,
) -> SDTRunResult:
    """Convenience wrapper: build an SDT VM and run the program."""
    return SDTVM(program, config=config, inputs=inputs).run(fuel)
