"""Guest memory: loads/stores, alignment, sparseness, properties."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.errors import AlignmentFault, MemoryFault
from repro.machine.memory import PAGE_SIZE, Memory


class TestBasicAccess:
    def test_byte_roundtrip(self):
        mem = Memory()
        mem.store_byte(100, 0xAB)
        assert mem.load_byte(100) == 0xAB

    def test_word_roundtrip(self):
        mem = Memory()
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF

    def test_half_roundtrip(self):
        mem = Memory()
        mem.store_half(0x2000, 0x1234)
        assert mem.load_half(0x2000) == 0x1234

    def test_little_endian(self):
        mem = Memory()
        mem.store_word(0, 0x04030201)
        assert [mem.load_byte(i) for i in range(4)] == [1, 2, 3, 4]

    def test_unmapped_reads_zero(self):
        mem = Memory()
        assert mem.load_word(0x7FFF0000) == 0
        assert mem.load_byte(12345) == 0

    def test_store_truncates(self):
        mem = Memory()
        mem.store_word(0, 0x1_2345_6789)
        assert mem.load_word(0) == 0x2345_6789
        mem.store_byte(8, 0x1FF)
        assert mem.load_byte(8) == 0xFF

    def test_cross_page_isolation(self):
        mem = Memory()
        mem.store_word(PAGE_SIZE - 4, 0x11111111)
        mem.store_word(PAGE_SIZE, 0x22222222)
        assert mem.load_word(PAGE_SIZE - 4) == 0x11111111
        assert mem.load_word(PAGE_SIZE) == 0x22222222


class TestFaults:
    @pytest.mark.parametrize("addr", [1, 2, 3, 0x1001, 0x1002, 0x1003])
    def test_misaligned_word(self, addr):
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.load_word(addr)
        with pytest.raises(AlignmentFault):
            mem.store_word(addr, 0)

    def test_misaligned_half(self):
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.load_half(1)

    def test_out_of_range(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.load_byte(1 << 32)
        with pytest.raises(MemoryFault):
            mem.store_word((1 << 32) - 2, 1)

    def test_unterminated_cstring(self):
        mem = Memory()
        mem.write_bytes(0, b"abcd")
        with pytest.raises(MemoryFault):
            mem.read_cstring(0, limit=4)


class TestBulk:
    def test_write_read_bytes(self):
        mem = Memory()
        mem.write_bytes(0x100, b"hello world")
        assert mem.read_bytes(0x100, 11) == b"hello world"

    def test_cstring(self):
        mem = Memory()
        mem.write_bytes(0x200, b"guest\0")
        assert mem.read_cstring(0x200) == "guest"

    def test_resident_pages_sparse(self):
        mem = Memory()
        mem.store_byte(0, 1)
        mem.store_byte(0x7000_0000, 1)
        assert mem.resident_pages == 2


class TestFaultAccessKind:
    """The access kind reaches the fault message on every path.

    Pins the ``_fail`` bugfix: the shared fast-path guard used to raise
    ``MemoryFault(addr)`` without saying whether the rejected access was
    a load or a store, so wide-access faults were indistinguishable in
    fault reports while the byte accessors labelled theirs correctly.
    """

    @pytest.mark.parametrize(
        "op, expected",
        [
            (lambda m: m.store_word((1 << 32) - 2, 1), "store"),
            (lambda m: m.store_half((1 << 32) - 1, 1), "store"),
            (lambda m: m.store_byte(1 << 32, 1), "store"),
            (lambda m: m.load_word((1 << 32) - 2), "load"),
            (lambda m: m.load_half((1 << 32) - 1), "load"),
            (lambda m: m.load_byte(1 << 32), "load"),
            (lambda m: m.write_bytes(-4, b"xy"), "store"),
            (lambda m: m.read_bytes(-4, 2), "load"),
            (lambda m: m.write_bytes((1 << 32) - 1, b"xy"), "store"),
            (lambda m: m.read_bytes((1 << 32) - 1, 2), "load"),
        ],
    )
    def test_fault_message_carries_kind(self, op, expected):
        mem = Memory()
        with pytest.raises(MemoryFault) as excinfo:
            op(mem)
        assert expected in str(excinfo.value)

    def test_misalignment_still_alignment_fault(self):
        # in-range misaligned accesses keep raising AlignmentFault; the
        # op threading must not change the fault taxonomy
        mem = Memory()
        with pytest.raises(AlignmentFault):
            mem.store_word(2, 1)
        with pytest.raises(AlignmentFault):
            mem.load_half(1)


def _write_bytes_bytewise(mem: Memory, addr: int, data: bytes) -> None:
    """The historical per-byte bulk-write loop (the reference oracle)."""
    for offset, byte in enumerate(data):
        mem.store_byte(addr + offset, byte)


class TestBulkEquivalence:
    """Page-sliced bulk paths are byte-identical to the per-byte loop."""

    @pytest.mark.parametrize(
        "addr",
        [0, 5, PAGE_SIZE - 3, PAGE_SIZE - 1, 3 * PAGE_SIZE - 7],
    )
    def test_write_bytes_matches_bytewise(self, addr):
        data = bytes(range(256)) * 20  # > one page, crosses boundaries
        sliced, bytewise = Memory(), Memory()
        sliced.write_bytes(addr, data)
        _write_bytes_bytewise(bytewise, addr, data)
        span = len(data) + 8
        start = max(addr - 4, 0)
        assert sliced.read_bytes(start, span) == \
            bytewise.read_bytes(start, span)

    def test_limit_overrun_writes_prefix_then_faults(self):
        # the old loop wrote every in-range byte, then faulted at the
        # first out-of-range address; the sliced path must match exactly
        addr = (1 << 32) - 6
        sliced, bytewise = Memory(), Memory()
        with pytest.raises(MemoryFault) as got:
            sliced.write_bytes(addr, b"abcdefgh")
        with pytest.raises(MemoryFault) as want:
            _write_bytes_bytewise(bytewise, addr, b"abcdefgh")
        assert got.value.addr == want.value.addr == 1 << 32
        assert sliced.read_bytes(addr, 6) == bytewise.read_bytes(addr, 6) \
            == b"abcdef"

    def test_read_bytes_zero_fill_and_overrun(self):
        mem = Memory()
        mem.store_byte(PAGE_SIZE + 1, 0xAA)
        assert mem.read_bytes(PAGE_SIZE - 2, 5) == b"\x00\x00\x00\xaa\x00"
        with pytest.raises(MemoryFault) as excinfo:
            mem.read_bytes((1 << 32) - 2, 4)
        assert excinfo.value.addr == 1 << 32
        assert mem.read_bytes(0, 0) == b""

    @given(
        st.integers(0, 3 * PAGE_SIZE),
        st.binary(min_size=1, max_size=2 * PAGE_SIZE + 17),
    )
    def test_write_bytes_property(self, addr, data):
        sliced, bytewise = Memory(), Memory()
        sliced.write_bytes(addr, data)
        _write_bytes_bytewise(bytewise, addr, data)
        assert sliced.read_bytes(addr, len(data)) == \
            bytewise.read_bytes(addr, len(data)) == data


class TestHolds:
    """``holds`` answers ``read_bytes(addr, len(data)) == data``, raising
    what it raises, without allocating pages."""

    def test_single_page(self):
        mem = Memory()
        mem.write_bytes(0x100, b"guest code")
        assert mem.holds(0x100, b"guest code")
        assert mem.holds(0x106, b"code")
        assert not mem.holds(0x100, b"guest cold")
        assert mem.holds(0x100, b"")

    def test_straddles_two_pages(self):
        mem = Memory()
        addr = PAGE_SIZE - 4
        mem.write_bytes(addr, b"abcdefgh")
        assert mem.holds(addr, b"abcdefgh")
        assert not mem.holds(addr, b"abcdefgX")
        assert not mem.holds(addr, b"Xbcdefgh")

    def test_missing_page_reads_as_zeros(self):
        mem = Memory()
        mem.store_byte(PAGE_SIZE - 1, 0xAA)
        assert mem.holds(5 * PAGE_SIZE, bytes(8))
        assert not mem.holds(5 * PAGE_SIZE, b"\x01" + bytes(7))
        # a resident page running into a missing one
        assert mem.holds(PAGE_SIZE - 2, b"\x00\xaa\x00\x00")
        assert not mem.holds(PAGE_SIZE - 2, b"\x00\xaa\x00\x01")
        assert mem.resident_pages == 1

    def test_faults_as_read_bytes(self):
        mem = Memory()
        for addr in (-4, (1 << 32) - 2):
            with pytest.raises(MemoryFault) as want:
                mem.read_bytes(addr, 4)
            with pytest.raises(MemoryFault) as got:
                mem.holds(addr, bytes(4))
            assert got.value.addr == want.value.addr
            assert str(got.value) == str(want.value)


class TestWriteWatch:
    def _armed(self):
        mem = Memory()
        fired: list[tuple[int, int]] = []
        mem.set_write_watch(lambda addr, length: fired.append((addr, length)))
        return mem, fired

    def test_fires_only_on_watched_pages(self):
        mem, fired = self._armed()
        mem.watch_page(1)
        mem.store_word(0x10, 1)          # page 0: unwatched
        mem.store_word(PAGE_SIZE + 8, 2)  # page 1: watched
        mem.store_half(PAGE_SIZE + 2, 3)
        mem.store_byte(PAGE_SIZE, 4)
        assert fired == [(PAGE_SIZE + 8, 4), (PAGE_SIZE + 2, 2),
                         (PAGE_SIZE, 1)]

    def test_hook_sees_landed_bytes(self):
        # the hook fires *after* the store lands, so a coherence layer
        # can immediately re-read the new code bytes
        mem = Memory()
        seen: list[int] = []
        mem.set_write_watch(lambda addr, length: seen.append(
            mem.load_word(addr)
        ))
        mem.watch_page(0)
        mem.store_word(0x40, 0xCAFEBABE)
        assert seen == [0xCAFEBABE]

    def test_unwatch_and_clear(self):
        mem, fired = self._armed()
        mem.watch_page(0)
        mem.store_word(0, 1)
        mem.unwatch_page(0)
        mem.store_word(0, 2)
        assert len(fired) == 1
        mem.unwatch_page(7)  # absent page index: no-op
        mem.set_write_watch(None)
        assert mem.watched_pages() == frozenset()

    def test_watch_page_requires_hook(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.watch_page(0)

    def test_write_bytes_fires_per_page_slice(self):
        mem, fired = self._armed()
        mem.watch_page(0)
        mem.watch_page(1)
        start = PAGE_SIZE - 4
        mem.write_bytes(start, bytes(12))  # 4 bytes page 0, 8 bytes page 1
        assert fired == [(start, 4), (PAGE_SIZE, 8)]

    def test_write_bytes_skips_unwatched_slice(self):
        mem, fired = self._armed()
        mem.watch_page(1)
        mem.write_bytes(PAGE_SIZE - 4, bytes(12))
        assert fired == [(PAGE_SIZE, 8)]


@given(
    st.lists(
        st.tuples(
            st.integers(0, (1 << 30) - 1).map(lambda a: a * 4),
            st.integers(0, 0xFFFFFFFF),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_last_write_wins_property(writes):
    """Memory behaves like a map: last word write to an address wins."""
    mem = Memory()
    expected: dict[int, int] = {}
    for addr, value in writes:
        mem.store_word(addr, value)
        expected[addr] = value
    for addr, value in expected.items():
        assert mem.load_word(addr) == value


@given(st.integers(0, (1 << 32) - 4).map(lambda a: a & ~3),
       st.integers(0, 0xFFFFFFFF))
def test_word_byte_agreement_property(addr, value):
    """A stored word reads back identically through byte loads (LE)."""
    mem = Memory()
    mem.store_word(addr, value)
    recomposed = sum(mem.load_byte(addr + i) << (8 * i) for i in range(4))
    assert recomposed == value
