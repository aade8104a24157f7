"""Translator-time use of the whole-program target-set analysis.

When ``SDTConfig.static_targets`` is on, the VM runs
:func:`repro.analysis.targets.analyze_targets` once at construction and
binds a :class:`StaticTargetsRuntime` that spends the analysis in three
ways:

**Devirtualization.**  A site whose verdict proves a *single* target
(``exact`` or ``bounded`` with ``may_escape=False``) is rewritten into a
guarded direct branch: the dispatch path charges one inlined
compare-immediate (2 cycles, the same literal the inline-prediction guard
charges) plus a conditional direct branch, and on a match transfers
straight to the target fragment — no table probe, no host indirect jump.
The guard makes the rewrite *correct even if the analysis were wrong*:
a mismatching dynamic target falls through to the generic mechanism
unchanged (and is counted under ``stats.static["devirt_mismatch"]``,
which the soundness tests pin to zero).

**Preseeding.**  Bounded sites with at most
:data:`repro.analysis.targets.MAX_PRESEED` statically known targets warm
the IBTC/sieve at translation time: whenever both the site's fragment and
a hinted target's fragment exist in the cache, the pair is inserted via
``IBMechanism.preseed`` — so the site's first dynamic dispatch hits
instead of paying a translator re-entry.  Preseeding never translates
eagerly (a hint whose target is never executed costs nothing but a
pending-map entry); it only links fragments the run has already built.

**Precision metering.**  Every dynamic IB dispatch is scored against the
static verdict — ``predicted`` (target in the static set),
``unpredicted`` (site unknown / metering not applicable), or ``escaped``
(target *outside* a claimed bound: a soundness violation, pinned to zero
by the cross-validator) — making static-vs-dynamic precision an exported
metric on every run.

Flush coherence: the runtime is one of the fragment cache's holders.  A
flush invalidates every devirtualized edge (the fragment pointers are
dropped; the next dispatch re-enters the translator once and re-pins),
and the invariant checker walks the pinned edges via
:meth:`live_fragment_refs`.  All decisions are emitted as ``static.*``
trace events inside the standard dispatch/translate brackets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.targets import analyze_targets
from repro.host.costs import Category
from repro.sdt.cache import FragmentHolder
from repro.sdt.fragment import Fragment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdt.vm import SDTVM

#: Cycles for the devirt guard's inlined compare-immediate (the same
#: literal the inline-prediction wrapper charges for its guard).
GUARD_COMPARE_CYCLES = 2

#: Cycles to write one preseeded IBTC slot / sieve stub at translation
#: time (hash + one table store, charged per accepted insertion).
PRESEED_INSERT_CYCLES = 4

#: Exit kinds whose dispatches carry real guest addresses and may be
#: devirtualized / preseeded.  ``ret`` joins only when the return scheme
#: routes returns through the generic mechanism (``returns == "same"``);
#: dedicated return schemes may dispatch pad addresses and have their own
#: fast paths.
_GENERIC_KINDS = frozenset({"ijump", "icall"})


class StaticTargetsRuntime(FragmentHolder):
    """Per-VM driver for devirtualization, preseeding and precision."""

    name = "static-devirt"

    def __init__(self, vm: "SDTVM"):
        self.vm = vm
        self.report = analyze_targets(vm.program)
        kinds = set(_GENERIC_KINDS)
        if vm.config.returns == "same":
            kinds.add("ret")
        self._kinds = frozenset(kinds)

        #: ib site pc -> proven single target (guarded direct branches)
        self.devirt_targets: dict[int, int] = {
            pc: target
            for pc, target in self.report.devirt_candidates().items()
            if self.report.verdicts[pc].kind in kinds
        }
        #: ib site pc -> static bound (for the precision meter)
        self._bounds: dict[int, frozenset[int]] = {
            pc: v.targets
            for pc, v in self.report.verdicts.items()
            if v.verdict != "unknown" and v.kind in kinds
        }
        #: ib site pc -> preseed hints (bounded sites only)
        self._hints: dict[int, tuple[int, ...]] = {
            pc: hints
            for pc, hints in self.report.preseed_map().items()
            if self.report.verdicts[pc].kind in kinds
        }
        #: hint target pc -> ib sites waiting for its fragment
        self._wanted: dict[int, set[int]] = {}
        #: ib sites whose fragment exists (preseed as targets arrive)
        self._armed: set[int] = set()
        #: devirtualized edges pinned to fragments (flush drops these)
        self._devirt_frags: dict[int, Fragment] = {}
        vm.cache.hold(self)

    # -- translation-time preseeding ----------------------------------------

    def on_translate(self, fragment: Fragment) -> None:
        """Warm IB state as fragments appear (never translates itself)."""
        cache = self.vm.cache
        # 1. IB sites inside the new fragment: arm them, link any hinted
        #    targets that are already translated, queue the rest
        for pc, _instr in fragment.instrs:
            hints = self._hints.get(pc)
            if hints is None or pc in self._armed:
                continue
            self._armed.add(pc)
            for target in hints:
                cached = cache.lookup(target)
                if cached is not None:
                    self._preseed(pc, target, cached)
                else:
                    self._wanted.setdefault(target, set()).add(pc)
        # 2. armed sites waiting for exactly this fragment's entry
        waiting = self._wanted.pop(fragment.guest_pc, None)
        if waiting:
            for ib_pc in sorted(waiting):
                self._preseed(ib_pc, fragment.guest_pc, fragment)

    def _preseed(self, ib_pc: int, target: int, fragment: Fragment) -> None:
        vm = self.vm
        if not fragment.valid:
            return
        if ib_pc in self.devirt_targets:
            # singleton sites take the guarded-direct-branch path; their
            # first dispatch pins the edge, no table entry needed
            return
        if vm.generic_ib.preseed(ib_pc, target, fragment):
            vm.model.charge(Category.STATIC, PRESEED_INSERT_CYCLES)
            vm.stats.static["preseed"] += 1
            if vm.trace is not None:
                vm.trace.emit("static.preseed", site=ib_pc, target=target)

    # -- dispatch-time devirtualization + precision --------------------------

    def dispatch(
        self, fragment: Fragment, ib: str, ib_pc: int, guest_target: int
    ) -> Fragment | None:
        """Static fast path for one IB dispatch.

        Returns the successor fragment when the site is devirtualized and
        the guard matches; ``None`` sends the dispatch down the generic
        mechanism unchanged.  Also scores the dispatch for the precision
        meter.
        """
        vm = self.vm
        stats = vm.stats.static
        if ib in self._kinds:
            bound = self._bounds.get(ib_pc)
            if bound is None:
                stats["unpredicted"] += 1
            elif guest_target in bound:
                stats["predicted"] += 1
            else:
                # dynamic target outside a claimed static bound: a
                # soundness violation (the cross-validator pins this at 0)
                stats["escaped"] += 1
        else:
            stats["unpredicted"] += 1

        target = self.devirt_targets.get(ib_pc)
        if target is None or ib not in self._kinds:
            return None
        model = vm.model
        model.charge(Category.STATIC, GUARD_COMPARE_CYCLES)
        matched = guest_target == target
        model.cond_branch(fragment.exit_site, matched,
                          category=Category.STATIC)
        trace = vm.trace
        if not matched:
            # defense in depth: the guard, not the analysis, is the
            # correctness boundary — fall through to the generic path
            stats["devirt_mismatch"] += 1
            if trace is not None:
                trace.emit("static.devirt_mismatch", site=ib_pc,
                           target=guest_target, expected=target)
            return None
        pinned = self._devirt_frags.get(ib_pc)
        if pinned is not None and pinned.valid:
            # the rewritten site ends in a *direct* branch: no table
            # probe, no host indirect jump, nothing for the BTB to miss
            stats["devirt_hit"] += 1
            if trace is not None:
                trace.emit("static.devirt", site=ib_pc, target=target)
            return pinned
        # cold edge (first dispatch, or a flush dropped the pin): one
        # translator round trip, then patch the direct branch in place
        successor = vm.reenter_translator(target)
        self._devirt_frags[ib_pc] = successor
        model.charge(Category.STATIC, model.profile.link_patch)
        stats["devirt_fill"] += 1
        if trace is not None:
            trace.emit("static.devirt_fill", site=ib_pc, target=target)
        return successor

    # -- flush coherence ------------------------------------------------------

    def on_flush(self) -> None:
        """A cache flush demotes every devirtualized edge to cold.

        Pending preseed hints (``_wanted``) and armed sites are cleared
        too: a flush can land *inside* ``translate()`` (capacity
        eviction or an injected flush storm) between the reservation and
        the ``on_translate`` drain, and any hint surviving that window
        would be drained against freed fragments.
        """
        if self._devirt_frags:
            self.vm.stats.static["devirt_flushed"] += len(self._devirt_frags)
            self._devirt_frags.clear()
        self._armed.clear()
        self._wanted.clear()

    def scrub_invalid(self, dead: list[Fragment]) -> None:
        """Selective (page/targeted) invalidation scrub.

        Unlike :meth:`on_flush` only *some* fragments died, so the
        devirt pins are scrubbed by validity and only the IB sites that
        lived inside dead fragments are disarmed (their retranslation
        re-arms and re-queues them).  Queued wants from disarmed sites
        are dropped so the drain never preseeds on behalf of a site
        whose fragment is gone.
        """
        stale = [
            pc for pc, frag in self._devirt_frags.items() if not frag.valid
        ]
        if stale:
            self.vm.stats.static["devirt_flushed"] += len(stale)
            for pc in stale:
                del self._devirt_frags[pc]
        dead_pcs = {pc for frag in dead for pc, _instr in frag.instrs}
        dead_sites = self._armed & dead_pcs
        if not dead_sites:
            return
        self._armed -= dead_sites
        for target in list(self._wanted):
            waiting = self._wanted[target]
            waiting -= dead_sites
            if not waiting:
                del self._wanted[target]

    def live_fragment_refs(self) -> list[Fragment]:
        """Pinned devirt edges, for the invariant checker's walk."""
        return list(self._devirt_frags.values())


__all__ = [
    "GUARD_COMPARE_CYCLES",
    "PRESEED_INSERT_CYCLES",
    "StaticTargetsRuntime",
]
