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

Word closures
-------------

The threaded engine (:mod:`repro.machine.engine`) gets its ``lw`` and
``sw`` closures from :meth:`Memory.load_word_step` and
:meth:`Memory.store_word_step`, so the page layout stays in this module.
A closure reads or writes the page ``bytearray`` in place only for a
resident page and an aligned address (for a store, on an unwatched
page); every other access calls :meth:`Memory.load_word` /
:meth:`Memory.store_word`, the only code that faults, allocates pages
and fires the watch hook.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.machine.cpu import U32
from repro.machine.errors import AlignmentFault, MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_LIMIT = 1 << 32

#: Write-watch callback: ``hook(addr, length)`` after the store landed.
WriteWatch = Callable[[int, int], None]

#: One little-endian guest word.
_WORD = struct.Struct("<I")


class Memory:
    """Sparse 32-bit guest address space."""

    __slots__ = ("_pages", "_watched", "_watch_hook")

    def __init__(self) -> None:
        # the word closures hold both containers: never rebind them
        self._pages: dict[int, bytearray] = {}
        #: watched page indices, empty when no watch is installed
        self._watched: set[int] = set()
        self._watch_hook: WriteWatch | None = None

    def _page(self, addr: int) -> bytearray:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[addr >> PAGE_SHIFT] = page
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

    # -- word closures (see "Word closures" above) ----------------------------

    def load_word_step(self, regs: list[int], rt: int, rs: int, imm: int,
                       npc: int) -> Callable[[], int]:
        """``lw rt, imm(rs)`` on this memory as a closure returning
        ``npc``; ``rt`` must not be ``r0``."""
        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc,
                 page_of=self._pages.get, unpack=_WORD.unpack_from,
                 load=self.load_word):
            addr = (regs[rs] + imm) & U32
            page = page_of(addr >> PAGE_SHIFT)
            if page is None or addr & 3:
                regs[rt] = load(addr)
            else:
                regs[rt] = unpack(page, addr & PAGE_MASK)[0]
            return npc
        return step

    def store_word_step(self, regs: list[int], rt: int, rs: int, imm: int,
                        npc: int) -> Callable[[], int]:
        """``sw rt, imm(rs)`` on this memory as a closure returning
        ``npc``."""
        def step(regs=regs, rt=rt, rs=rs, imm=imm, npc=npc,
                 page_of=self._pages.get, watched=self._watched,
                 pack=_WORD.pack_into, store=self.store_word):
            addr = (regs[rs] + imm) & U32
            index = addr >> PAGE_SHIFT
            page = page_of(index)
            if page is None or addr & 3 or index in watched:
                store(addr, regs[rt])
            else:
                pack(page, addr & PAGE_MASK, regs[rt] & U32)
            return npc
        return step

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
                page = bytearray(PAGE_SIZE)
                pages[index] = page
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
