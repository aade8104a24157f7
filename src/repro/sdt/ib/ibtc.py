"""Indirect Branch Translation Cache (IBTC).

A direct-mapped software cache mapping application target addresses to
fragment-cache addresses, probed by a short code sequence at each
translated IB site:

1. hash/mask the dynamic target (``ibtc_probe`` cycles, including the tag
   load and compare; ``ibtc_spill`` models scratch-register save/restore),
2. on a tag match, jump indirectly through the cached fragment address —
   a *host* indirect jump the BTB must predict,
3. on a miss, fall back to full translator re-entry and fill the entry.

Axes evaluated by the paper, all configurable here:

- **scope** — one **shared** table for every IB site, or **per-site**
  tables (conflict isolation vs. capacity fragmentation),
- **size** — table entries, swept in experiment E3,
- **inlining** — the probe sequence either sits *inline* at the
  translated IB site, or in one shared *out-of-line* stub every site jumps
  to.  Out-of-line saves fragment-cache space but adds the stub jump and,
  critically, funnels every IB through a single host indirect-jump site,
  which destroys BTB locality (ablation A-series),
- **hash** — ``fold`` (word index xor-folded with higher bits) or
  ``shift`` (plain word index masking); jump-table targets are contiguous
  so ``shift`` looks fine until two tables alias, which the fold absorbs.
"""

from __future__ import annotations

from repro.host.costs import Category
from repro.sdt.fragment import Fragment
from repro.sdt.ib.base import IBMechanism

#: Synthetic host address of the shared out-of-line lookup stub's final
#: indirect jump (every IB site shares this predictor entry when the
#: probe is not inlined).
OUTLINE_STUB_SITE = 0xFC00_0000

HASH_KINDS = ("fold", "shift")

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_IBTC = Category.IBTC


def ibtc_index(target: int, mask: int, hash_kind: str = "fold") -> int:
    """Hash a guest target address into a table index.

    Word-aligned addresses make the low two bits useless, so both hashes
    discard them; ``fold`` additionally xors in higher bits to spread
    targets that share a 2^n-aligned base.
    """
    word = target >> 2
    if hash_kind == "shift":
        return word & mask
    return (word ^ (word >> 10)) & mask


#: One direct-mapped table: ``slot index -> (tag, fragment)``.  Only
#: occupied slots are stored, so a flush or a scrub costs what the table
#: holds, not its capacity; a missing slot is an empty one.
_Table = dict[int, tuple[int, Fragment]]


class IBTC(IBMechanism):
    """Shared or per-site indirect branch translation cache."""

    def __init__(
        self,
        entries: int = 4096,
        shared: bool = True,
        inline: bool = True,
        hash_kind: str = "fold",
    ):
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if hash_kind not in HASH_KINDS:
            raise ValueError(
                f"unknown hash {hash_kind!r}; expected one of {HASH_KINDS}"
            )
        self.entries = entries
        self.shared = shared
        self.inline = inline
        self.hash_kind = hash_kind
        self.name = f"ibtc-{'shared' if shared else 'persite'}-{entries}"
        if not inline:
            self.name += "-outline"
        self._mask = entries - 1
        self._shared_table: _Table | None = {} if shared else None
        self._site_tables: dict[int, _Table] = {}

    def _table_for(self, ib_pc: int) -> _Table:
        if self._shared_table is not None:
            return self._shared_table
        table = self._site_tables.get(ib_pc)
        if table is None:
            table = self._site_tables[ib_pc] = {}
        return table

    def _tables(self) -> list[_Table]:
        if self._shared_table is not None:
            return [self._shared_table]
        return list(self._site_tables.values())

    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        profile = vm.model.profile
        cost = profile.ibtc_probe + profile.ibtc_spill
        if self.inline:
            jump_site = fragment.exit_site
        else:
            # shared stub: extra control transfer, and one polymorphic
            # host indirect-jump site for the whole program
            cost += profile.ibtc_stub_jump
            jump_site = OUTLINE_STUB_SITE
        vm.model.charge(_IBTC, cost)

        table = self._table_for(ib_pc)
        index = ibtc_index(guest_target, self._mask, self.hash_kind)
        injector = getattr(vm, "fault_injector", None)
        if injector is not None:
            event = injector.table_event("ibtc")
            if event == "drop":
                table.pop(index, None)
            elif event == "corrupt" and index in table:
                from repro.faults.inject import tombstone

                tag, victim = table[index]
                table[index] = (tag, tombstone(victim))
        entry = table.get(index)
        trace = vm.trace
        if entry is not None and entry[0] == guest_target and entry[1].valid:
            cached = entry[1]
            self._hit()
            if trace is not None:
                trace.emit("ibtc.hit", site=ib_pc, target=guest_target,
                           probes=1)
            # the probe ends in a host indirect jump through the cached
            # fragment address
            vm.model.indirect_jump(jump_site, cached.fc_addr)
            return cached

        # a tag match on an invalidated fragment is a stale entry (missed
        # flush invalidation, or injected corruption): treated exactly
        # like a miss, so the refill below repairs the table
        self._miss()
        if trace is not None:
            trace.emit("ibtc.miss", site=ib_pc, target=guest_target,
                       probes=1)
        target_fragment = vm.reenter_translator(guest_target)
        table[index] = (guest_target, target_fragment)
        if trace is not None:
            trace.emit("ibtc.insert", site=ib_pc, target=guest_target,
                       index=index)
        return target_fragment

    def preseed(
        self, ib_pc: int, guest_target: int, fragment: Fragment
    ) -> bool:
        """Fill the target's slot at translation time if it is free.

        Only empty (or invalidated) slots are filled: evicting a
        dynamically established entry for a static hint could only ever
        hurt.  The filled entry is indistinguishable from one installed
        by a dispatch miss, so the dispatch path needs no changes.
        """
        table = self._table_for(ib_pc)
        index = ibtc_index(guest_target, self._mask, self.hash_kind)
        occupant = table.get(index)
        if occupant is not None and occupant[1].valid:
            return False
        table[index] = (guest_target, fragment)
        return True

    def live_fragment_refs(self):
        return [
            frag for table in self._tables() for _tag, frag in table.values()
        ]

    def on_flush(self) -> None:
        if self._shared_table is not None:
            self._shared_table.clear()
        self._site_tables.clear()

    def scrub_invalid(self, dead) -> None:
        for table in self._tables():
            stale = [
                index for index, (_tag, frag) in table.items()
                if not frag.valid
            ]
            for index in stale:
                del table[index]
