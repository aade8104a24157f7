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
_IND_MISPREDICT = Category.IND_MISPREDICT


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
        #: direct-mapped tables, ``slot index -> fragment``: only occupied
        #: slots are stored, so a flush or a scrub costs what a table
        #: holds, not its capacity; a missing slot is an empty one
        self._shared_table: dict[int, Fragment] | None = (
            {} if shared else None
        )
        self._site_tables: dict[int, dict[int, Fragment]] = {}

    def _table_for(self, ib_pc: int) -> dict[int, Fragment]:
        if self._shared_table is not None:
            return self._shared_table
        table = self._site_tables.get(ib_pc)
        if table is None:
            table = self._site_tables[ib_pc] = {}
        return table

    def tables(self) -> list[dict[int, Fragment]]:
        if self._shared_table is not None:
            return [self._shared_table]
        return list(self._site_tables.values())

    def bind(self, vm) -> None:
        super().bind(vm)
        profile = vm.model.profile
        #: probe cycles charged per dispatch
        self._cost = profile.ibtc_probe + profile.ibtc_spill
        if not self.inline:
            # shared stub: extra control transfer, and one polymorphic
            # host indirect-jump site for the whole program
            self._cost += profile.ibtc_stub_jump

    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        """Probe, then a hit or a refill.

        The hit path makes one Python call, the BTB access: the table
        choice (:meth:`_table_for`), the hash (:func:`ibtc_index`), the
        hit counter (:meth:`_hit`) and the model's ``charge`` and
        ``indirect_jump`` are spelled out here, in the same order.
        """
        assert self.vm is not None
        vm = self.vm
        model = vm.model
        cycles = model.cycles
        cycles[_IBTC] += self._cost

        table = self._shared_table
        if table is None:
            table = self._site_tables.get(ib_pc)
            if table is None:
                table = self._site_tables[ib_pc] = {}
        word = guest_target >> 2
        if self.hash_kind == "fold":
            word ^= word >> 10
        index = word & self._mask
        injector = vm.fault_injector
        if injector is not None:
            event = injector.table_event("ibtc")
            if event == "drop":
                table.pop(index, None)
            elif event == "corrupt" and index in table:
                from repro.faults.inject import tombstone

                table[index] = tombstone(table[index])
        cached = table.get(index)
        trace = vm.trace
        if (cached is not None and cached.guest_pc == guest_target
                and cached.valid):
            vm.stats.mechanism[self._hit_key] += 1
            if trace is not None:
                trace.emit("ibtc.hit", site=ib_pc, target=guest_target,
                           probes=1)
            # the probe ends in a host indirect jump through the cached
            # fragment address
            site = fragment.exit_site if self.inline else OUTLINE_STUB_SITE
            if model.btb.access(site, cached.fc_addr):
                cycles[_IND_MISPREDICT] += model.penalty
            return cached

        # a match on an invalidated fragment is a stale entry (missed
        # flush invalidation, or injected corruption): treated exactly
        # like a miss, so the refill below repairs the table
        self._miss()
        if trace is not None:
            trace.emit("ibtc.miss", site=ib_pc, target=guest_target,
                       probes=1)
        target_fragment = vm.reenter_translator(guest_target)
        # a flush during re-entry drops the per-site tables
        # (``on_flush``): fill the table the site's next dispatch probes
        self._table_for(ib_pc)[index] = target_fragment
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
        if occupant is not None and occupant.valid:
            return False
        table[index] = fragment
        return True

    def on_flush(self) -> None:
        # per-site tables go with their entries
        super().on_flush()
        self._site_tables.clear()
