"""Cycle accounting shared by native and SDT runs.

:class:`HostModel` owns the predictors and a categorised cycle accumulator.
The native baseline drives it through :class:`NativeCostObserver`; the SDT
drives it directly from its dispatch paths.  Both charge *exactly* the same
costs for application instructions, so `sdt_cycles / native_cycles` isolates
SDT overhead — the paper's normalisation.

The event methods (:meth:`HostModel.cond_branch`,
:meth:`~HostModel.indirect_jump`, :meth:`~HostModel.host_call`,
:meth:`~HostModel.host_return`) are the reference for what a host branch
costs.  The per-block paths — :meth:`NativeCostObserver.exit`, the SDT's
conditional exit and the IBTC hit — call the predictor itself and add
:attr:`HostModel.penalty` on a misprediction: the same cycles in the same
category with one Python call instead of two (docs/performance.md, "Host
hot path").
"""

from __future__ import annotations

import enum

from repro.isa.opcodes import InstrClass
from repro.host.predictors import (
    BimodalPredictor,
    BranchTargetBuffer,
    ReturnAddressStack,
)
from repro.host.profile import ArchProfile


class Category(enum.Enum):
    """Where cycles went (the paper's overhead decomposition)."""

    # members are singletons: hash by identity in C, not by Enum's
    # Python-level hash(name) (docs/performance.md, "Host hot path")
    __hash__ = object.__hash__

    APP = "app"                      # the application's own instructions
    COND_MISPREDICT = "cond_mispredict"
    IND_MISPREDICT = "ind_mispredict"
    TRANSLATE = "translate"          # building fragments
    CONTEXT_SWITCH = "context_switch"
    MAP_LOOKUP = "map_lookup"        # translator hash-map probe
    IBTC = "ibtc"                    # inlined IBTC probe code
    SIEVE = "sieve"                  # sieve dispatch + stages
    SHADOW_STACK = "shadow_stack"    # SDT shadow return stack maintenance
    FAST_RETURN = "fast_return"      # call-site return-address fixup
    RETCACHE = "retcache"            # return-cache probe + verification
    LINK = "link"                    # fragment link patching
    STATIC = "static"                # static-targets guards + preseeding


# Enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path").
_APP = Category.APP
_COND_MISPREDICT = Category.COND_MISPREDICT
_IND_MISPREDICT = Category.IND_MISPREDICT
_BRANCH = InstrClass.BRANCH
_CALL = InstrClass.CALL
_ICALL = InstrClass.ICALL
_IJUMP = InstrClass.IJUMP
_RET = InstrClass.RET

#: Categories counted as SDT overhead (everything except app work and the
#: mispredictions the native run would also have paid).
OVERHEAD_CATEGORIES = frozenset(Category) - {
    Category.APP,
    Category.COND_MISPREDICT,
    Category.IND_MISPREDICT,
}


class HostModel:
    """Predictors plus a categorised cycle accumulator."""

    def __init__(self, profile: ArchProfile):
        self.profile = profile
        #: cycles one host misprediction costs (the profile's
        #: ``mispredict_penalty``)
        self.penalty = profile.mispredict_penalty
        self.bimodal = BimodalPredictor(profile.bimodal_entries)
        self.btb = BranchTargetBuffer(profile.btb_entries)
        self.ras = ReturnAddressStack(profile.ras_entries)
        # an exact dict keyed by every category: CPython 3.11
        # specialises subscripts only on exact dicts, not on ``Counter``
        self.cycles: dict[Category, int] = dict.fromkeys(Category, 0)
        self._class_cycles = dict(profile.class_cycles)

    # -- raw charging -------------------------------------------------------

    def charge(self, category: Category, cycles: int) -> None:
        self.cycles[category] += cycles

    def charge_instr(self, iclass: InstrClass) -> None:
        """Base cost of one retired application instruction."""
        self.cycles[_APP] += self._class_cycles[iclass]

    # -- host-level branch events -------------------------------------------
    #
    # ``site`` is the address of the *host* branch instruction: the guest PC
    # for native runs, the fragment-cache address for translated code.  The
    # optional ``category`` attributes the penalty (e.g. a mispredicted IBTC
    # dispatch jump is IBTC overhead, not app cost).

    def cond_branch(
        self,
        site: int,
        taken: bool,
        category: Category = _COND_MISPREDICT,
    ) -> bool:
        """A conditional direct branch executed at ``site``."""
        if self.bimodal.access(site, taken):
            self.cycles[category] += self.penalty
            return True
        return False

    def indirect_jump(
        self,
        site: int,
        target: int,
        category: Category = _IND_MISPREDICT,
    ) -> bool:
        """An indirect jump/call at ``site`` landing on ``target``."""
        if self.btb.access(site, target):
            self.cycles[category] += self.penalty
            return True
        return False

    def host_call(self, return_addr: int) -> None:
        """A host ``call``: pushes the hardware RAS."""
        self.ras.push(return_addr)

    def host_return(
        self,
        target: int,
        category: Category = _IND_MISPREDICT,
    ) -> bool:
        """A host ``ret``: pops and checks the hardware RAS."""
        if self.ras.pop(target):
            self.cycles[category] += self.penalty
            return True
        return False

    # -- results -------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    @property
    def overhead_cycles(self) -> int:
        return sum(
            cycles
            for category, cycles in self.cycles.items()
            if category in OVERHEAD_CATEGORIES
        )

    def breakdown(self) -> dict[str, int]:
        """Cycle totals by category name (stable keys for reporting)."""
        return {category.value: self.cycles[category] for category in Category}


class NativeCostObserver:
    """Interpreter observer charging native-execution costs.

    Attach to :class:`repro.machine.interpreter.Interpreter` to obtain the
    denominator of every overhead figure in the paper.  The interpreter
    charges each retired instruction's APP cycles to :attr:`model`;
    :meth:`exit` adds the host-predictor event of each control transfer.
    """

    def __init__(self, model: HostModel):
        self.model = model

    def exit(self, pc: int, iclass: InstrClass, next_pc: int) -> None:
        """Charge the host-predictor event of the control transfer at
        ``pc`` (``JUMP`` and ``HALT`` have none): the event method's
        cycles, one predictor call per predictor."""
        model = self.model
        if iclass is _BRANCH:
            if model.bimodal.access(pc, next_pc != pc + 4):
                model.cycles[_COND_MISPREDICT] += model.penalty
        elif iclass is _RET:
            if model.ras.pop(next_pc):
                model.cycles[_IND_MISPREDICT] += model.penalty
        elif iclass is _CALL:
            model.ras.push(pc + 4)
        elif iclass is _IJUMP:
            if model.btb.access(pc, next_pc):
                model.cycles[_IND_MISPREDICT] += model.penalty
        elif iclass is _ICALL:
            model.ras.push(pc + 4)
            if model.btb.access(pc, next_pc):
                model.cycles[_IND_MISPREDICT] += model.penalty
