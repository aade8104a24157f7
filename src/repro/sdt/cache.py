"""The fragment cache and the one registry of fragment holders.

Follows Strata's policy: fragments are bump-allocated; when the cache fills
up, the *entire* cache is flushed (all fragments, all links, all IB-mechanism
state holding fragment pointers).  Whole-cache flush is what makes stale
translated-address transparency violations (fast returns) interesting, and
it is also what the paper's systems actually did.

Every structure that keeps fragment pointers beside the cache is a
:class:`FragmentHolder` registered with :meth:`FragmentCache.hold`; the
cache announces each translation, flush and selective invalidation to the
holders in registration order, and the invariant checker walks what they
hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.sdt.fragment import FRAGMENT_CACHE_BASE, Fragment
from repro.sdt.stats import SDTStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.inject import FaultInjector

DEFAULT_CAPACITY = 8 * 1024 * 1024  # bytes; effectively unbounded for tests


class FragmentTooLarge(ValueError):
    """A single fragment cannot fit in the cache even when it is empty.

    Raised instead of flushing: flushing cannot help, and retrying the
    reservation after a flush would loop forever.  The fix is a larger
    ``fragment_cache_bytes`` or a smaller ``max_fragment_instrs``
    (:class:`repro.sdt.config.SDTConfig` validates the pair up front).
    """

    def __init__(self, size_bytes: int, capacity: int):
        self.size_bytes = size_bytes
        self.capacity = capacity
        super().__init__(
            f"fragment of {size_bytes} bytes can never fit in a "
            f"{capacity}-byte fragment cache (even empty); raise "
            f"fragment_cache_bytes or lower max_fragment_instrs"
        )


class FlushHookError(RuntimeError):
    """One or more holders' ``on_flush`` raised.

    Every holder still hears the flush (a failing IB mechanism must not
    leave *other* holders keeping stale fragment pointers); the
    individual exceptions are collected in :attr:`errors`.
    """

    def __init__(self, errors: list[BaseException]):
        self.errors = errors
        summary = "; ".join(f"{type(e).__name__}: {e}" for e in errors)
        super().__init__(
            f"{len(errors)} flush hook(s) raised after running all "
            f"hooks: {summary}"
        )


class FragmentHolder:
    """An object that keeps fragment pointers beside the cache.

    Held by :meth:`FragmentCache.hold`, it hears every translation, flush
    and selective invalidation, and lists what it keeps for the invariant
    checker, which reports a stale pointer under the holder's
    :attr:`name`.  Every hook defaults to a no-op.
    """

    #: site name for invariant-checker findings and statistics
    name: str = "holder"

    def on_translate(self, fragment: Fragment) -> None:
        """``fragment`` was just translated and inserted.  Must not
        translate (it may only link already-cached fragments)."""

    def on_flush(self) -> None:
        """The whole cache was flushed: every fragment pointer is dead."""

    def scrub_invalid(self, dead: list[Fragment]) -> None:
        """``dead`` were selectively invalidated: drop what points at
        them.  Scrubbing by the validity predicate rather than by ``dead``
        also clears fault-injected tombstones."""

    def live_fragment_refs(self) -> Iterable[Fragment]:
        """Every fragment pointer this holder keeps."""
        return []


class FragmentCache:
    """Guest-PC-indexed store of translated fragments."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, stats: SDTStats | None = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else SDTStats()
        self._fragments: dict[int, Fragment] = {}
        self._alloc = 0
        #: fragment holders, in the order they hear every event
        self.holders: list[FragmentHolder] = []
        #: when set, :meth:`reserve` consults the injector for forced
        #: flush storms (see repro.faults)
        self.fault_injector: "FaultInjector | None" = None
        #: optional observability sink (repro.trace.session.TraceSession);
        #: the owning VM wires it after construction
        self.trace = None

    def __len__(self) -> int:
        return len(self._fragments)

    def __contains__(self, guest_pc: int) -> bool:
        return guest_pc in self._fragments

    @property
    def bytes_used(self) -> int:
        return self._alloc

    def hold(self, holder: FragmentHolder) -> None:
        """Register a fragment holder.  Holders hear every event in
        registration order; the invariant checker (when active) is held
        last so it observes every other holder's post-event state."""
        self.holders.append(holder)

    def lookup(self, guest_pc: int) -> Fragment | None:
        return self._fragments.get(guest_pc)

    def fragments(self) -> list[Fragment]:
        """All live fragments (introspection/debugging)."""
        return list(self._fragments.values())

    def reserve(self, size_bytes: int) -> int:
        """Allocate space for a fragment, flushing if necessary.

        Returns the fragment-cache address of the allocation.  Raises
        :class:`FragmentTooLarge` when the fragment could not fit even in
        an empty cache (flushing would loop forever).
        """
        if size_bytes > self.capacity:
            raise FragmentTooLarge(size_bytes, self.capacity)
        injector = self.fault_injector
        if injector is not None and injector.should_force_flush():
            self.flush()
        if self._alloc + size_bytes > self.capacity:
            self.flush()
        addr = FRAGMENT_CACHE_BASE + self._alloc
        self._alloc += size_bytes
        return addr

    def insert(self, fragment: Fragment) -> None:
        """Register a translated fragment and announce it to every
        holder (``on_translate``)."""
        self._fragments[fragment.guest_pc] = fragment
        for holder in self.holders:
            holder.on_translate(fragment)

    def invalidate(self, fragments: list[Fragment]) -> int:
        """Selectively evict fragments (code-cache coherence).

        Unpatches every surviving link into an evicted fragment, then
        announces the eviction to every holder (``scrub_invalid``).  Bump
        allocation means the evicted bytes are not reclaimed; the holes
        persist until the next whole-cache flush, exactly like a
        patched-out fragment in a real bump-allocated code cache.

        Returns the number of fragments actually evicted.
        """
        evicted = 0
        for fragment in fragments:
            if not fragment.valid:
                continue
            fragment.valid = False
            fragment.links.clear()
            fragment.plan = None
            registered = self._fragments.get(fragment.guest_pc)
            if registered is fragment:
                del self._fragments[fragment.guest_pc]
            evicted += 1
        if evicted:
            self.stats.coherence["fragments_invalidated"] += evicted
            if self.trace is not None:
                self.trace.emit("coherence.invalidate", fragments=evicted)
        for fragment in self._fragments.values():
            links = fragment.links
            if links:
                stale = [
                    key for key, linked in links.items() if not linked.valid
                ]
                for key in stale:
                    del links[key]
        for holder in self.holders:
            holder.scrub_invalid(fragments)
        return evicted

    def flush(self) -> None:
        """Drop every fragment and announce it to every holder.

        Every holder hears the flush even if some raise; their exceptions
        are aggregated into one :class:`FlushHookError` raised afterwards,
        so a broken holder can neither mask later ones nor be silently
        swallowed.
        """
        if self.trace is not None:
            self.trace.emit("cache.flush", fragments=len(self._fragments),
                            bytes=self._alloc)
        for fragment in self._fragments.values():
            fragment.valid = False
            fragment.links.clear()
        self._fragments.clear()
        self._alloc = 0
        self.stats.cache_flushes += 1
        errors: list[BaseException] = []
        for holder in self.holders:
            try:
                holder.on_flush()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
        if errors:
            raise FlushHookError(errors)
