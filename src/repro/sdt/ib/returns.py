"""Return-handling mechanisms.

Returns are the most frequent indirect-branch class in the paper's SPEC
measurements, and the only one with exploitable structure (call/return
pairing).  Under ``returns="same"`` no scheme is built: a return
dispatches through the generic IB mechanism (IBTC, sieve, or translator
re-entry) like any other indirect branch.  Three schemes handle returns
themselves:

``FastReturns``
    the call site writes the address of a *return landing pad* — a
    fragment-cache-resident stub bound to the guest return address —
    instead of the guest return address.  The return then executes as a
    native host ``ret``: zero lookup cost and a usable hardware RAS.  The
    price is address transparency: the application-visible return address
    is not the guest address.

``ShadowReturnStack``
    the SDT keeps its own stack of guest return addresses, pushed at call
    sites.  A return whose dynamic target matches the top of the stack
    jumps (host-indirectly) to the cached fragment; a mismatch falls back
    to the generic mechanism.  Transparent, but the hit path still ends in
    a BTB-predicted indirect jump.

``ReturnCache``
    an *untagged* hash table of fragments indexed by return address.  The
    return jumps through the table unconditionally; the landing fragment's
    prologue verifies it is the right one and escapes to the translator if
    not.  (An extension drawn from the Strata lineage's later work, kept
    here as an ablation point.)
"""

from __future__ import annotations

from repro.host.costs import Category
from repro.machine.cpu import CPUState
from repro.sdt.fragment import RETURN_PAD_BASE, Fragment
from repro.sdt.ib.base import IBMechanism, ReturnMechanism

_PAD_STRIDE = 16

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_FAST_RETURN = Category.FAST_RETURN
_LINK = Category.LINK
_SHADOW_STACK = Category.SHADOW_STACK
_RETCACHE = Category.RETCACHE


class FastReturns(ReturnMechanism):
    """Translate return addresses at the call site (transparency trade)."""

    name = "fast-return"

    def __init__(self, fallback: IBMechanism):
        super().__init__()
        self.fallback = fallback
        self._pad_for_guest: dict[int, int] = {}
        self._guest_for_pad: dict[int, int] = {}
        #: ``pad -> fragment`` bindings; pads and their guest addresses
        #: survive a flush (they are stable addresses), these do not
        self._pad_fragment: dict[int, Fragment] = {}

    def tables(self) -> list[dict[int, Fragment]]:
        return [self._pad_fragment]

    def _pad(self, guest_ret_pc: int) -> int:
        pad = self._pad_for_guest.get(guest_ret_pc)
        if pad is None:
            pad = RETURN_PAD_BASE + len(self._pad_for_guest) * _PAD_STRIDE
            self._pad_for_guest[guest_ret_pc] = pad
            self._guest_for_pad[pad] = guest_ret_pc
        return pad

    def on_call(
        self, cpu: CPUState, ret_reg: int, guest_ret_pc: int
    ) -> None:
        assert self.vm is not None
        vm = self.vm
        pad = self._pad(guest_ret_pc)
        cpu.write(ret_reg, pad)
        vm.model.charge(
            _FAST_RETURN, vm.model.profile.fast_return_fixup
        )
        # the translated call is a real host call: the RAS learns the pad
        vm.model.host_call(pad)

    def dispatch_ret(
        self, fragment: Fragment, ib_pc: int, target_value: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        trace = vm.trace
        guest_pc = self._guest_for_pad.get(target_value)
        if guest_pc is None:
            # the return register held a raw guest address (no paired call
            # was translated, e.g. a hand-rolled tail trampoline): fall
            # back to the generic mechanism, fully transparently.
            self._miss()
            if trace is not None:
                trace.emit("fastret.fallback", site=ib_pc,
                           target=target_value)
            return self.fallback.dispatch(fragment, ib_pc, target_value)

        # a genuine fast return: host `ret`, predicted by the hardware RAS
        vm.model.host_return(target_value)
        target_fragment = self._pad_fragment.get(target_value)
        if target_fragment is not None and target_fragment.valid:
            self._hit()
            if trace is not None:
                trace.emit("fastret.hit", site=ib_pc, target=guest_pc)
            return target_fragment
        # cold pad: first return through it patches the pad to jump
        # straight to the translated continuation
        self._miss()
        if trace is not None:
            trace.emit("fastret.cold", site=ib_pc, target=guest_pc)
        target_fragment = vm.reenter_translator(guest_pc)
        self._pad_fragment[target_value] = target_fragment
        vm.model.charge(_LINK, vm.model.profile.link_patch)
        return target_fragment


class ShadowReturnStack(ReturnMechanism):
    """SDT-maintained return-address stack with generic fallback."""

    name = "shadow-stack"

    def __init__(self, fallback: IBMechanism, depth: int = 0):
        super().__init__()
        if depth < 0:
            raise ValueError("depth must be >= 0 (0 = unbounded)")
        self.fallback = fallback
        self.depth = depth
        self._stack: list[int] = []

    def on_call(
        self, cpu: CPUState, ret_reg: int, guest_ret_pc: int
    ) -> None:
        assert self.vm is not None
        vm = self.vm
        vm.model.charge(_SHADOW_STACK, vm.model.profile.shadow_push)
        self._stack.append(guest_ret_pc)
        if self.depth and len(self._stack) > self.depth:
            del self._stack[0]

    def dispatch_ret(
        self, fragment: Fragment, ib_pc: int, target_value: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        vm.model.charge(_SHADOW_STACK, vm.model.profile.shadow_pop)
        trace = vm.trace
        if self._stack and self._stack[-1] == target_value:
            self._stack.pop()
            target_fragment = vm.cache.lookup(target_value)
            if target_fragment is not None:
                self._hit()
                if trace is not None:
                    trace.emit("shadow.hit", site=ib_pc,
                               target=target_value,
                               depth=len(self._stack) + 1)
                # hit path ends in an indirect jump through the stored
                # fragment address — BTB-predicted, unlike a host ret
                vm.model.indirect_jump(
                    fragment.exit_site, target_fragment.fc_addr
                )
                return target_fragment
            # matched, but the continuation was never translated (or was
            # flushed): translator fills it in
            vm.stats.mechanism[f"{self.name}.cold"] += 1
            if trace is not None:
                trace.emit("shadow.cold", site=ib_pc, target=target_value)
            return vm.reenter_translator(target_value)
        # mismatch (longjmp-style or stack overflow trim): generic path
        if self._stack:
            self._stack.pop()
        self._miss()
        if trace is not None:
            trace.emit("shadow.miss", site=ib_pc, target=target_value)
        return self.fallback.dispatch(fragment, ib_pc, target_value)


class ReturnCache(ReturnMechanism):
    """Untagged hash of fragments, verified by the landing fragment."""

    name = "return-cache"

    def __init__(self, entries: int = 64):
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.name = f"return-cache-{entries}"
        self._mask = entries - 1
        #: ``slot index -> fragment``, occupied slots only
        self._table: dict[int, Fragment] = {}

    def tables(self) -> list[dict[int, Fragment]]:
        return [self._table]

    def dispatch_ret(
        self, fragment: Fragment, ib_pc: int, target_value: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        profile = vm.model.profile
        index = (target_value >> 2) & self._mask
        cached = self._table.get(index)
        vm.model.charge(_RETCACHE, profile.retcache_probe)
        landing = cached.fc_addr if cached is not None else 0
        vm.model.indirect_jump(fragment.exit_site, landing)
        vm.model.charge(_RETCACHE, profile.retcache_check)
        trace = vm.trace
        if (
            cached is not None
            and cached.valid
            and cached.guest_pc == target_value
        ):
            self._hit()
            if trace is not None:
                trace.emit("retcache.hit", site=ib_pc, target=target_value,
                           index=index)
            return cached
        self._miss()
        if trace is not None:
            trace.emit("retcache.miss", site=ib_pc, target=target_value,
                       index=index)
        target_fragment = vm.reenter_translator(target_value)
        self._table[index] = target_fragment
        return target_fragment
