"""Sparse byte-addressed guest memory.

Memory is organised as 4 KiB pages allocated on first touch, so the guest's
widely separated text / data / stack regions do not cost host RAM.  All
multi-byte accesses are little-endian and must be naturally aligned (SR32
has no unaligned accesses, which keeps the SDT's fetch path simple).

Write watch
-----------

Every store path (byte/half/word and the bulk copy) funnels through one
hook point so execution engines can detect guest writes to translated
code (:mod:`repro.sdt.coherence`, the interpreter's block caches).  The
owner registers a hook with :meth:`Memory.set_write_watch` and marks
pages of interest with :meth:`Memory.watch_page`; the hook fires *after*
the bytes land, with the store's address and length.  When no watch is
installed the per-store cost is one membership test on an empty set, so
coherence-off configurations pay nothing measurable.

Word access in place
--------------------

``lw`` and ``sw`` are about 29% of retired guest instructions, so the
code generators of the threaded engine (:mod:`repro.machine.engine`) and
the tier-2 regions (:mod:`repro.machine.tier2`) spell them out as source
lines instead of calling :meth:`Memory.load_word` /
:meth:`Memory.store_word`.  The lines come from :func:`load_word_source`
and :func:`store_word_source`, so the page layout stays in this module,
and they read the names :meth:`Memory.word_names` binds.  Beside each
page ``bytearray`` the memory keeps its *word view*,
``memoryview(page).cast("I")``, made wherever a page is made; the lines
index that view, one subscript per access, only for a resident page and
an aligned address (for a store, on an unwatched page).  Every other
access calls :meth:`Memory.load_word` / :meth:`Memory.store_word`, the
only code that faults, allocates pages and fires the watch hook.

The view reads and writes native ``unsigned int``, which is a
little-endian guest word only on a little-endian host whose ``I`` is 4
bytes, so this module refuses to import anywhere else.  There is no
byte-order-neutral fallback.
"""

from __future__ import annotations

import operator
import struct
import sys
from typing import Callable

from repro.machine.cpu import U32
from repro.machine.errors import AlignmentFault, MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_LIMIT = 1 << 32

#: Write-watch callback: ``hook(addr, length)`` after the store landed.
WriteWatch = Callable[[int, int], None]

if sys.byteorder != "little" or struct.calcsize("I") != 4:
    raise ImportError(
        "repro.machine.memory indexes guest words through a native "
        "unsigned int view: it needs a little-endian host with a 4-byte "
        f"'I' (this host: {sys.byteorder}-endian, "
        f"{struct.calcsize('I')}-byte 'I')"
    )


class Memory:
    """Sparse 32-bit guest address space."""

    __slots__ = ("_pages", "_words", "_watched", "_watch_hook")

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        # generated word access holds the next two containers: never
        # rebind them
        #: page index -> the page's word view (see "Word access in place")
        self._words: dict[int, memoryview] = {}
        #: watched page indices, empty when no watch is installed
        self._watched: set[int] = set()
        self._watch_hook: WriteWatch | None = None

    def _page(self, addr: int) -> bytearray:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self._new_page(addr >> PAGE_SHIFT)
        return page

    def _new_page(self, index: int) -> bytearray:
        """Allocate page ``index``, zeroed, and its word view."""
        page = self._pages[index] = bytearray(PAGE_SIZE)
        self._words[index] = memoryview(page).cast("I")
        return page

    def _fail(self, addr: int, width: int, op: str) -> None:
        """Raise for an access rejected by a fast-path guard.

        Out-of-range beats misalignment, matching the historical check
        order (an out-of-range odd address is a :class:`MemoryFault`).
        ``op`` is the access kind ("load"/"store") carried into the
        fault message, the same label the byte accessors report.
        """
        if not 0 <= addr <= ADDR_LIMIT - width:
            raise MemoryFault(addr, op)
        raise AlignmentFault(addr, width)

    # -- write watch ---------------------------------------------------------

    def set_write_watch(self, hook: WriteWatch | None) -> None:
        """Install (or, with ``None``, remove) the store-path hook.

        The hook is called as ``hook(addr, length)`` after any store that
        touches a page previously marked via :meth:`watch_page`.  Only
        one hook can be installed at a time; the owning execution layer
        multiplexes if it needs more.
        """
        if hook is None:
            self._watched.clear()
        self._watch_hook = hook

    def watch_page(self, page_index: int) -> None:
        """Mark one page so stores into it invoke the watch hook."""
        if self._watch_hook is None:
            raise ValueError("watch_page requires set_write_watch first")
        self._watched.add(page_index)

    def unwatch_page(self, page_index: int) -> None:
        """Stop watching one page (missing pages are ignored)."""
        self._watched.discard(page_index)

    def watched_pages(self) -> frozenset[int]:
        """Currently watched page indices (introspection/tests)."""
        return frozenset(self._watched)

    # -- loads -------------------------------------------------------------
    #
    # Bounds + alignment are folded into a single inline guard per access
    # (no helper-call on the hot path); an aligned in-range access never
    # crosses a page, so one page lookup suffices.

    def load_byte(self, addr: int) -> int:
        if not 0 <= addr < ADDR_LIMIT:
            raise MemoryFault(addr, "load")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[addr & PAGE_MASK]

    def load_half(self, addr: int) -> int:
        if addr & 1 or addr < 0 or addr > ADDR_LIMIT - 2:
            self._fail(addr, 2, "load")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return page[off] | (page[off + 1] << 8)

    def load_word(self, addr: int) -> int:
        if addr & 3 or addr < 0 or addr > ADDR_LIMIT - 4:
            self._fail(addr, 4, "load")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return int.from_bytes(page[off : off + 4], "little")

    # -- stores ------------------------------------------------------------

    def store_byte(self, addr: int, value: int) -> None:
        if not 0 <= addr < ADDR_LIMIT:
            raise MemoryFault(addr, "store")
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF
        if (addr >> PAGE_SHIFT) in self._watched:
            self._watch_hook(addr, 1)

    def store_half(self, addr: int, value: int) -> None:
        if addr & 1 or addr < 0 or addr > ADDR_LIMIT - 2:
            self._fail(addr, 2, "store")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off] = value & 0xFF
        page[off + 1] = (value >> 8) & 0xFF
        if (addr >> PAGE_SHIFT) in self._watched:
            self._watch_hook(addr, 2)

    def store_word(self, addr: int, value: int) -> None:
        if addr & 3 or addr < 0 or addr > ADDR_LIMIT - 4:
            self._fail(addr, 4, "store")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        if (addr >> PAGE_SHIFT) in self._watched:
            self._watch_hook(addr, 4)

    def word_names(self) -> dict[str, object]:
        """The names :func:`load_word_source` and
        :func:`store_word_source` read, bound to this memory."""
        return {
            "_wview": self._words.get, "_wwatched": self._watched,
            "_wset": operator.setitem, "_wload": self.load_word,
            "_wstore": self.store_word,
        }

    # -- bulk --------------------------------------------------------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Copy a buffer into guest memory, one page slice at a time.

        Faulting behaviour matches the historical per-byte loop exactly:
        a negative start faults before writing anything, and a buffer
        running past the address limit writes the in-range prefix and
        then faults at the first out-of-range address.
        """
        if not data:
            return
        if addr < 0:
            raise MemoryFault(addr, "store")
        length = len(data)
        prefix = min(length, ADDR_LIMIT - addr) if addr < ADDR_LIMIT else 0
        pages = self._pages
        watched = self._watched
        pos = 0
        cursor = addr
        while pos < prefix:
            off = cursor & PAGE_MASK
            take = min(PAGE_SIZE - off, prefix - pos)
            index = cursor >> PAGE_SHIFT
            page = pages.get(index)
            if page is None:
                page = self._new_page(index)
            page[off : off + take] = data[pos : pos + take]
            if index in watched:
                self._watch_hook(cursor, take)
            pos += take
            cursor += take
        if prefix < length:
            raise MemoryFault(addr + prefix, "store")

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read a buffer from guest memory, one page slice at a time."""
        if length <= 0:
            return b""
        if addr < 0:
            raise MemoryFault(addr, "load")
        prefix = min(length, ADDR_LIMIT - addr) if addr < ADDR_LIMIT else 0
        pages = self._pages
        out = bytearray()
        pos = 0
        cursor = addr
        while pos < prefix:
            off = cursor & PAGE_MASK
            take = min(PAGE_SIZE - off, prefix - pos)
            page = pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(page[off : off + take])
            pos += take
            cursor += take
        if prefix < length:
            raise MemoryFault(addr + prefix, "load")
        return bytes(out)

    def holds(self, addr: int, data: bytes) -> bool:
        """Does memory at ``addr`` hold ``data``?  The same answer and
        faults as ``read_bytes(addr, len(data)) == data``, compared in
        place, with no copy, when the range lies on one resident page."""
        off = addr & PAGE_MASK
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is not None and off + len(data) <= PAGE_SIZE:
            return page.startswith(data, off)
        return self.read_bytes(addr, len(data)) == data

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated string (bounded by ``limit`` bytes)."""
        out = bytearray()
        for offset in range(limit):
            byte = self.load_byte(addr + offset)
            if byte == 0:
                return out.decode("latin-1")
            out.append(byte)
        raise MemoryFault(addr, "unterminated string")

    @property
    def resident_pages(self) -> int:
        """Number of host-allocated guest pages (for stats)."""
        return len(self._pages)


# -- in-place word access (see "Word access in place" above) -----------------

#: The names the word-access source reads (:meth:`Memory.word_names`).
WORD_NAMES = ("_wview", "_wwatched", "_wset", "_wload", "_wstore")


def load_word_source(dst: str, addr: str) -> tuple[str, str, str]:
    """Statements assigning the word at source expression ``addr`` to
    target ``dst``, exactly as ``dst = mem.load_word(addr)`` would for an
    ``addr`` in ``[0, 2**32)``.  They use the temporaries ``_a`` and
    ``_p``."""
    return (
        f"_a = {addr}",
        f"_p = _wview(_a >> {PAGE_SHIFT})",
        f"{dst} = _wload(_a) if _p is None or _a & 3 "
        f"else _p[(_a & {PAGE_MASK}) >> 2]",
    )


def store_word_source(addr: str, value: str) -> tuple[str, str, str, str]:
    """Statements storing source expression ``value`` at ``addr``,
    exactly as ``mem.store_word(addr, value)`` would for an ``addr`` in
    ``[0, 2**32)``.  They use the temporaries ``_a``, ``_i`` and
    ``_p``.  The in-place store is a ``setitem`` call, so each statement
    stays one expression that tier2 can join onto one line."""
    return (
        f"_a = {addr}",
        f"_i = _a >> {PAGE_SHIFT}",
        "_p = _wview(_i)",
        f"_wstore(_a, {value}) if _p is None or _a & 3 or _i in _wwatched "
        f"else _wset(_p, (_a & {PAGE_MASK}) >> 2, {value} & {U32})",
    )
