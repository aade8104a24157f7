"""Mechanism interfaces.

A mechanism is bound to an :class:`repro.sdt.vm.SDTVM` and asked to resolve
dynamic indirect-branch targets.  It charges every cycle of its dispatch
code to the VM's host model, keeps hit/miss statistics under its
``name`` in :class:`repro.sdt.stats.SDTStats`, and is one of the fragment
cache's holders (:class:`repro.sdt.cache.FragmentHolder`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.sdt.cache import FragmentHolder
from repro.sdt.fragment import Fragment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.cpu import CPUState
    from repro.sdt.vm import SDTVM


class Mechanism(FragmentHolder):
    """What every IB and return mechanism shares: a bound VM, a place in
    the cache's holder list, and hit/miss counters under :attr:`name`.

    Mechanisms whose tables cache fragment pointers override the
    :class:`repro.sdt.cache.FragmentHolder` hooks they need (``on_flush``
    to drop them, ``scrub_invalid`` to drop the invalid ones,
    ``live_fragment_refs`` for the invariant checker); the rest inherit
    the no-ops.
    """

    #: stable identifier used in statistics and reports
    name: str = "base"

    def __init__(self) -> None:
        self.vm: "SDTVM | None" = None

    def bind(self, vm: "SDTVM") -> None:
        """Attach to a VM and join its cache's fragment holders."""
        self.vm = vm
        # the counter keys, built once instead of on every dispatch
        self._hit_key = f"{self.name}.hit"
        self._miss_key = f"{self.name}.miss"
        vm.cache.hold(self)

    def _hit(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._hit_key] += 1

    def _miss(self) -> None:
        assert self.vm is not None
        self.vm.stats.mechanism[self._miss_key] += 1


class IBMechanism(Mechanism, ABC):
    """Resolves indirect jump / indirect call targets."""

    @abstractmethod
    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        """Resolve ``guest_target``, charging all dispatch costs.

        Args:
            fragment: the fragment whose terminator is the indirect branch
                (its ``exit_site`` is the host-level branch address).
            ib_pc: guest address of the indirect branch (stable site key).
            guest_target: dynamic guest target address.

        Returns:
            The fragment to execute next.
        """

    def preseed(
        self, ib_pc: int, guest_target: int, fragment: Fragment
    ) -> bool:
        """Warm this mechanism's lookup state at translation time.

        Called by the static-targets runtime
        (:mod:`repro.sdt.static_targets`) with a statically proven
        ``(site, target)`` pair and the target's already-translated
        ``fragment``, *before* the site ever dispatches dynamically.  A
        preseeded entry is always safe: dispatch still compares the
        dynamic target against the entry, so a wrong hint degrades to a
        miss, never to a wrong transfer.

        Returns ``True`` if an entry was inserted (the caller charges
        the insertion cost), ``False`` otherwise.  Mechanisms with no
        warmable state (translator re-entry) inherit this no-op.
        """
        return False


class ReturnMechanism(Mechanism, ABC):
    """Resolves return targets; may also hook call sites.

    Schemes that share their fallback with the generic mechanism scrub
    and flush only their *own* state: the generic mechanism is a holder
    of its own.
    """

    name: str = "ret-base"

    def on_call(
        self,
        cpu: "CPUState",
        ret_reg: int,
        guest_ret_pc: int,
    ) -> None:
        """Hook run after a call wrote its return address.

        ``ret_reg`` holds ``guest_ret_pc``; schemes that sacrifice address
        transparency (fast returns) may overwrite it here.
        """

    @abstractmethod
    def dispatch_ret(
        self, fragment: Fragment, ib_pc: int, target_value: int
    ) -> Fragment:
        """Resolve a return whose dynamic target register held
        ``target_value`` (a guest address, or a landing-pad address under
        fast returns)."""
