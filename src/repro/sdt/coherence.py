"""Code-cache coherence: guest writes to translated code.

Every pre-coherence workload executes static code, so the fragment cache
and the IB-mechanism tables could safely assume guest text never changes.
Self-modifying code, dynamically loaded/unloaded code and guest-hosted
JITs break that assumption: a store into a translated region leaves the
cached fragments (and every derived structure pointing at them — IBTC
slots, sieve stubs, fast-return pad bindings, devirtualized edges,
superblock plans) describing bytes that no longer exist.

:class:`CoherenceManager` is the SDT-side consumer of the
:class:`repro.machine.memory.Memory` write watch.  Translated guest
pages are tracked at page granularity: the manager is one of the
fragment cache's holders, so each freshly translated fragment registers
the pages its instructions occupy (``on_translate``) and those pages are
watched.  A store into a watched page fires :meth:`_on_write`, which
applies the configured ``SDTConfig.coherence`` policy:

``flush``
    drop the whole fragment cache (Strata's only option — every holder
    hears the flush, exactly as on a capacity flush),
``page``
    selectively invalidate the fragments overlapping the written page,
``targeted``
    selectively invalidate only the fragments whose instruction byte
    range intersects the written bytes (a store into a translated page
    that hits no fragment costs one registry probe and nothing else).

Selective invalidation hands the dead fragments to
:meth:`repro.sdt.cache.FragmentCache.invalidate`, which unpatches the
surviving links into them and has every holder scrub its own pointers
(``scrub_invalid``): the mechanisms, the static-targets runtime, this
manager's page registry, tier-2 regions.  When the invariant checker is
active (chaos runs) it is the last holder and walks the whole VM
afterwards, so a missed scrub is a CI failure, not a silent wrong-code
execution.  The translator is not told of writes: it checks every walk
it reuses against live guest memory, so a store landing on a page this
manager no longer watches is still seen by the next translation.

Visibility rule (shared with the interpreter, see docs/robustness.md):
a store to code becomes architecturally visible at the next control
transfer, never mid-fragment — both engines reach invalidated state only
through a fresh lookup/translation, which sees the new bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machine.memory import PAGE_SHIFT
from repro.sdt.cache import FragmentHolder
from repro.sdt.fragment import Fragment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdt.vm import SDTVM


class CoherenceManager(FragmentHolder):
    """Write-detection + invalidation driver bound to one VM."""

    name = "coherence-pages"

    def __init__(self, vm: "SDTVM"):
        self.vm = vm
        self.policy = vm.config.coherence
        if self.policy == "none":  # pragma: no cover - VM never wires this
            raise ValueError("CoherenceManager requires coherence != 'none'")
        #: page index -> fragments with instructions on that page, keyed
        #: by id() (Fragment is deliberately unhashable)
        self._page_frags: dict[int, dict[int, Fragment]] = {}
        vm.mem.set_write_watch(self._on_write)
        vm.cache.hold(self)

    # -- page tracking -------------------------------------------------------

    def on_translate(self, fragment: Fragment) -> None:
        """Register (and watch) the pages a new fragment's code occupies."""
        mem = self.vm.mem
        page_frags = self._page_frags
        for pc, _instr in fragment.instrs:
            index = pc >> PAGE_SHIFT
            frags = page_frags.get(index)
            if frags is None:
                frags = page_frags[index] = {}
                mem.watch_page(index)
            frags[id(fragment)] = fragment

    def on_flush(self) -> None:
        """Whole-cache flush: every registration is dead, stop watching."""
        mem = self.vm.mem
        for index in self._page_frags:
            mem.unwatch_page(index)
        self._page_frags.clear()

    def scrub_invalid(self, dead: list[Fragment]) -> None:
        """Unregister the dead fragments (a fragment may be registered on
        pages other than the written one) and stop watching pages left
        with no translated code."""
        mem = self.vm.mem
        dead_ids = {id(frag) for frag in dead}
        empty = []
        for index, frags in self._page_frags.items():
            for frag_id in dead_ids & frags.keys():
                del frags[frag_id]
            if not frags:
                empty.append(index)
        for index in empty:
            del self._page_frags[index]
            mem.unwatch_page(index)

    def live_fragment_refs(self) -> list[Fragment]:
        """Every fragment the page registry holds."""
        return [
            frag for frags in self._page_frags.values()
            for frag in frags.values()
        ]

    # -- the write hook ------------------------------------------------------

    def _on_write(self, addr: int, length: int) -> None:
        """A guest store landed in a translated page: apply the policy."""
        vm = self.vm
        stats = vm.stats.coherence
        stats["code_writes"] += 1
        if vm.trace is not None:
            vm.trace.emit("coherence.write", addr=addr, length=length,
                          policy=self.policy)

        if self.policy == "flush":
            stats["flushes"] += 1
            vm.cache.flush()
            return

        first_page = addr >> PAGE_SHIFT
        last_page = (addr + length - 1) >> PAGE_SHIFT
        candidates: dict[int, Fragment] = {}
        for index in range(first_page, last_page + 1):
            frags = self._page_frags.get(index)
            if frags:
                candidates.update(frags)

        if self.policy == "targeted":
            end = addr + length
            dead = [
                frag for frag in candidates.values()
                if any(pc < end and pc + 4 > addr for pc, _i in frag.instrs)
            ]
        else:  # page
            dead = list(candidates.values())

        if not dead:
            stats["noop_writes"] += 1
            return
        vm.cache.invalidate(dead)
