#!/usr/bin/env python3
"""Extending the SDT: plug in your own indirect-branch mechanism.

The paper's conclusion — mechanism choice is architecture- and
workload-dependent — invites experimentation.  This example implements a
mechanism the paper did *not* evaluate: a **2-way set-associative IBTC
with LRU replacement** (the paper's tables are all direct-mapped), wires
it into an :class:`~repro.sdt.vm.SDTVM`, and compares it against the
stock direct-mapped IBTC on a conflict-prone workload.

It shows the full extension surface:

- subclass :class:`repro.sdt.ib.base.IBMechanism`,
- charge costs via ``vm.model.charge`` / ``vm.model.indirect_jump``,
- fall back to ``vm.reenter_translator`` on a miss,
- clear cached fragment pointers in ``on_flush``.

A mechanism is a fragment holder (:class:`repro.sdt.cache.FragmentHolder`):
``bind`` registers it with the VM's fragment cache, which announces every
translation, flush and selective invalidation to it.  Overriding
``on_flush`` suffices here; a mechanism meant to run under a coherence
policy also overrides ``scrub_invalid``, and ``live_fragment_refs`` lets
the invariant checker walk its table.
"""

from repro.eval.report import format_table
from repro.host import HostModel, NativeCostObserver, X86_P4
from repro.host.costs import Category
from repro.machine.interpreter import Interpreter
from repro.sdt import SDTConfig
from repro.sdt.fragment import Fragment
from repro.sdt.ib.base import IBMechanism
from repro.sdt.ib.ibtc import ibtc_index
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload


class TwoWayIBTC(IBMechanism):
    """2-way set-associative IBTC with LRU replacement."""

    def __init__(self, sets: int = 32):
        super().__init__()
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("sets must be a positive power of two")
        self.sets = sets
        self.name = f"ibtc-2way-{sets}"
        # each set: list of up to 2 (tag, fragment) pairs, MRU first
        self._sets: list[list[tuple[int, Fragment]]] = [
            [] for _ in range(sets)
        ]

    def dispatch(self, fragment, ib_pc, guest_target):
        vm = self.vm
        profile = vm.model.profile
        # a 2-way probe loads and compares both tags: slightly pricier
        vm.model.charge(Category.IBTC, profile.ibtc_probe + 2)
        entries = self._sets[ibtc_index(guest_target, self.sets - 1)]
        for position, (tag, cached) in enumerate(entries):
            if tag == guest_target and cached.valid:
                self._hit()
                entries.insert(0, entries.pop(position))  # LRU bump
                vm.model.indirect_jump(fragment.exit_site, cached.fc_addr)
                return cached
        self._miss()
        target = vm.reenter_translator(guest_target)
        entries.insert(0, (guest_target, target))
        del entries[2:]
        return target

    def on_flush(self):
        for entries in self._sets:
            entries.clear()


def run_with_mechanism(program, mechanism):
    """Run a program under an SDTVM with a hand-built generic mechanism."""
    vm = SDTVM(program, SDTConfig(profile=X86_P4))
    # replace the stock mechanism before execution starts
    vm.generic_ib = mechanism
    vm.return_mech.generic = mechanism  # returns-as-IB delegate
    mechanism.bind(vm)
    return vm.run()


def main() -> None:
    # gcc_like's jump tables produce exactly the conflict pattern
    # associativity is meant to absorb
    workload = get_workload("gcc_like", "small")
    program = workload.compile()

    model = HostModel(X86_P4)
    Interpreter(program, observer=NativeCostObserver(model)).run()
    native_cycles = model.total_cycles

    rows = []
    for sets, direct_entries in ((16, 32), (64, 128), (256, 512)):
        two_way = run_with_mechanism(program, TwoWayIBTC(sets=sets))
        direct = SDTVM(
            program,
            SDTConfig(profile=X86_P4, ib="ibtc", ibtc_entries=direct_entries),
        ).run()
        rows.append([
            f"2-way x {sets} sets ({2 * sets} entries)",
            two_way.total_cycles / native_cycles,
            two_way.stats.hit_rate(f"ibtc-2way-{sets}"),
        ])
        rows.append([
            f"direct-mapped {direct_entries} entries",
            direct.total_cycles / native_cycles,
            direct.stats.hit_rate(f"ibtc-shared-{direct_entries}"),
        ])
    print(format_table(
        "Custom 2-way IBTC vs stock direct-mapped IBTC (gcc_like)",
        ["configuration", "overhead", "hit rate"],
        rows,
    ))


if __name__ == "__main__":
    main()
