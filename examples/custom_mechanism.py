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
- store bare fragments: a fragment's ``guest_pc`` is the tag to compare,
- declare the tables of fragments in ``tables``.

A mechanism is a fragment holder (:class:`repro.sdt.cache.FragmentHolder`):
``bind`` registers it with the VM's fragment cache, which announces every
translation, flush and selective invalidation to it.  The base class
answers all three over the declared tables: a flush clears them, a
selective invalidation (under a coherence policy) drops their invalid
fragments, and ``live_fragment_refs`` lets the invariant checker walk
them.
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
        # each set: up to 2 fragments keyed by their guest_pc, least
        # recently used first
        self._sets: list[dict[int, Fragment]] = [{} for _ in range(sets)]

    def tables(self):
        return self._sets

    def dispatch(self, fragment, ib_pc, guest_target):
        vm = self.vm
        profile = vm.model.profile
        # a 2-way probe loads and compares both tags: slightly pricier
        vm.model.charge(Category.IBTC, profile.ibtc_probe + 2)
        ways = self._sets[ibtc_index(guest_target, self.sets - 1)]
        cached = ways.pop(guest_target, None)
        if cached is not None and cached.valid:
            self._hit()
            ways[guest_target] = cached  # LRU bump
            vm.model.indirect_jump(fragment.exit_site, cached.fc_addr)
            return cached
        self._miss()
        target = vm.reenter_translator(guest_target)
        ways[guest_target] = target
        if len(ways) > 2:
            del ways[next(iter(ways))]  # evict the least recently used
        return target


def run_with_mechanism(program, mechanism):
    """Run a program under an SDTVM with a hand-built generic mechanism."""
    vm = SDTVM(program, SDTConfig(profile=X86_P4))
    # replace the stock mechanism before execution starts; returns
    # dispatch through it too (the default return scheme is "same")
    vm.generic_ib = mechanism
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
