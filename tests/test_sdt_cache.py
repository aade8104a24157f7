"""Fragment cache: allocation, flush policy, the holder registry."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.sdt.cache import (
    FlushHookError,
    FragmentCache,
    FragmentHolder,
    FragmentTooLarge,
)
from repro.sdt.fragment import (
    ExitKind,
    FRAGMENT_CACHE_BASE,
    Fragment,
    exit_kind_for,
)
from repro.isa.opcodes import InstrClass


def make_fragment(guest_pc: int, n_instrs: int = 2) -> Fragment:
    instrs = [(guest_pc + 4 * i, Instruction(Op.ADD)) for i in range(n_instrs)]
    return Fragment(guest_pc=guest_pc, fc_addr=0, instrs=instrs,
                    exit_kind=ExitKind.JUMP)


class Recorder(FragmentHolder):
    """A fake holder that logs every event it hears."""

    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def on_translate(self, fragment):
        self.log.append((self.name, "translate", fragment.guest_pc))

    def on_flush(self):
        self.log.append((self.name, "flush"))

    def scrub_invalid(self, dead):
        self.log.append(
            (self.name, "invalidate", [frag.guest_pc for frag in dead])
        )


class Raising(FragmentHolder):
    """A fake holder whose flush handling fails."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def on_flush(self):
        raise self.exc


class TestFragment:
    def test_size_estimate(self):
        frag = make_fragment(0x1000, 3)
        assert frag.size_bytes == 3 * 4 + 8
        cond = make_fragment(0x1000, 3)
        cond.exit_kind = ExitKind.COND
        assert cond.size_bytes == 3 * 4 + 16

    def test_exit_site_is_last_instruction(self):
        from conftest import ALL_IB_KINDS_SOURCE
        from repro.faults.inject import tombstone
        from repro.lang import compile_to_program
        from repro.sdt.vm import SDTVM

        vm = SDTVM(compile_to_program(ALL_IB_KINDS_SOURCE))
        vm.run()
        fragments = vm.cache.fragments()
        assert any(len(frag.instrs) > 1 for frag in fragments)
        for frag in fragments:
            last = max(len(frag.instrs) - 1, 0)
            assert frag.exit_site == frag.fc_addr + 4 * last
            assert tombstone(frag).exit_site == frag.exit_site

    def test_exit_kind_mapping(self):
        assert exit_kind_for(InstrClass.BRANCH) is ExitKind.COND
        assert exit_kind_for(InstrClass.RET) is ExitKind.RET
        assert exit_kind_for(InstrClass.ICALL) is ExitKind.ICALL
        assert exit_kind_for(InstrClass.HALT) is ExitKind.HALT


class TestCacheAllocation:
    def test_reserve_returns_increasing_addresses(self):
        cache = FragmentCache(capacity=1024)
        first = cache.reserve(16)
        second = cache.reserve(16)
        assert first == FRAGMENT_CACHE_BASE
        assert second == FRAGMENT_CACHE_BASE + 16

    def test_lookup_after_insert(self):
        cache = FragmentCache()
        frag = make_fragment(0x1000)
        frag.fc_addr = cache.reserve(frag.size_bytes)
        cache.insert(frag)
        assert cache.lookup(0x1000) is frag
        assert 0x1000 in cache
        assert cache.lookup(0x2000) is None

    def test_oversized_fragment_rejected(self):
        cache = FragmentCache(capacity=32)
        with pytest.raises(ValueError):
            cache.reserve(64)

    def test_oversized_fragment_error_is_actionable(self):
        """The error must say what happened and how to fix it — a flush
        cannot help, so the caller needs the numbers, not a retry."""
        cache = FragmentCache(capacity=32)
        with pytest.raises(FragmentTooLarge) as excinfo:
            cache.reserve(64)
        err = excinfo.value
        assert (err.size_bytes, err.capacity) == (64, 32)
        assert "64 bytes" in str(err) and "32-byte" in str(err)
        assert "fragment_cache_bytes" in str(err)
        assert isinstance(err, ValueError)      # old catch sites still work

    def test_oversized_check_does_not_flush(self):
        cache = FragmentCache(capacity=32)
        cache.reserve(24)
        with pytest.raises(FragmentTooLarge):
            cache.reserve(64)
        assert cache.stats.cache_flushes == 0   # rejected before flushing
        assert cache.bytes_used == 24           # prior allocation intact

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FragmentCache(capacity=0)


class TestFlush:
    def test_flush_on_capacity(self):
        cache = FragmentCache(capacity=64)
        for i in range(4):
            frag = make_fragment(0x1000 + 0x100 * i)
            frag.fc_addr = cache.reserve(24)
            cache.insert(frag)
        # 3rd/4th reserve must have flushed at least once
        assert cache.stats.cache_flushes >= 1

    def test_flush_invalidates_and_clears(self):
        cache = FragmentCache()
        frag = make_fragment(0x1000)
        other = make_fragment(0x2000)
        frag.links["J"] = other
        frag.fc_addr = cache.reserve(frag.size_bytes)
        cache.insert(frag)
        cache.flush()
        assert not frag.valid
        assert frag.links == {}
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_flush_hooks_called(self):
        cache = FragmentCache()
        log = []
        cache.hold(Recorder("a", log))
        cache.hold(Recorder("b", log))
        cache.flush()
        assert log == [("a", "flush"), ("b", "flush")]

    def test_raising_hook_does_not_mask_later_hooks(self):
        cache = FragmentCache()
        log = []
        cache.hold(Recorder("first", log))
        cache.hold(Raising(RuntimeError("h2")))
        cache.hold(Recorder("third", log))
        with pytest.raises(FlushHookError):
            cache.flush()
        # every holder still heard the flush
        assert log == [("first", "flush"), ("third", "flush")]
        assert len(cache) == 0                  # and the flush completed

    def test_all_hook_exceptions_aggregated(self):
        cache = FragmentCache()
        cache.hold(Raising(RuntimeError("first failure")))
        cache.hold(Raising(RuntimeError("second failure")))
        with pytest.raises(FlushHookError) as excinfo:
            cache.flush()
        err = excinfo.value
        assert [str(e) for e in err.errors] == \
            ["first failure", "second failure"]
        assert "2 flush hook(s) raised" in str(err)
        assert "first failure" in str(err) and "second failure" in str(err)

    def test_hook_failure_still_counts_the_flush(self):
        cache = FragmentCache()
        cache.hold(Raising(ValueError("x")))
        with pytest.raises(FlushHookError):
            cache.flush()
        assert cache.stats.cache_flushes == 1

    def test_allocation_restarts_after_flush(self):
        cache = FragmentCache(capacity=1024)
        cache.reserve(100)
        cache.flush()
        assert cache.reserve(16) == FRAGMENT_CACHE_BASE


class TestHolders:
    def test_holders_hear_every_event_in_registration_order(self):
        cache = FragmentCache()
        log = []
        cache.hold(Recorder("a", log))
        cache.hold(Recorder("b", log))
        frag = make_fragment(0x1000)
        frag.fc_addr = cache.reserve(frag.size_bytes)
        cache.insert(frag)
        assert cache.invalidate([frag]) == 1
        cache.flush()
        assert log == [
            ("a", "translate", 0x1000), ("b", "translate", 0x1000),
            ("a", "invalidate", [0x1000]), ("b", "invalidate", [0x1000]),
            ("a", "flush"), ("b", "flush"),
        ]

    def test_invalidate_unpatches_links_before_holders_scrub(self):
        cache = FragmentCache()
        survivor, victim = make_fragment(0x1000), make_fragment(0x2000)
        for frag in (survivor, victim):
            frag.fc_addr = cache.reserve(frag.size_bytes)
            cache.insert(frag)
        survivor.links["J"] = victim
        seen = []

        class LinkWatcher(FragmentHolder):
            def scrub_invalid(self, dead):
                seen.append(dict(survivor.links))

        cache.hold(LinkWatcher())
        assert cache.invalidate([victim]) == 1
        assert seen == [{}]
        assert survivor.valid and 0x1000 in cache and 0x2000 not in cache

    def test_translator_announces_after_the_translate_charge(self):
        from repro.host.costs import Category, HostModel
        from repro.host.profile import SIMPLE
        from repro.isa.assembler import assemble
        from repro.machine.loader import load_program
        from repro.sdt.translator import Translator

        program = assemble(".text\nmain:\nnop\nhalt\n")
        cache = FragmentCache()
        model = HostModel(SIMPLE)
        charged = []

        class ChargeWatcher(FragmentHolder):
            def on_translate(self, fragment):
                charged.append(model.breakdown()[Category.TRANSLATE.value])

        cache.hold(ChargeWatcher())
        _cpu, mem, _sys = load_program(program)
        Translator(program, mem, cache, model).translate(program.entry)
        assert len(charged) == 1 and charged[0] > 0

    def test_vm_holds_in_the_stated_order_checker_last(self):
        from repro.faults.invariants import InvariantChecker
        from repro.machine.tier2 import Tier2Runtime
        from repro.sdt.coherence import CoherenceManager
        from repro.sdt.config import SDTConfig
        from repro.sdt.ib import IBTC, FastReturns, InlinePrediction
        from repro.sdt.static_targets import StaticTargetsRuntime
        from repro.sdt.vm import SDTVM
        from repro.workloads import get_coherence_workload

        config = SDTConfig(ib="ibtc", inline_predict=True, returns="fast",
                           static_targets=True, coherence="targeted",
                           engine="tier2", faults="chaos:1")
        program = get_coherence_workload("dyn_loader", "tiny").compile()
        vm = SDTVM(program, config)
        assert [type(h) for h in vm.cache.holders] == [
            InlinePrediction, IBTC, FastReturns, StaticTargetsRuntime,
            CoherenceManager, Tier2Runtime, InvariantChecker,
        ]
        assert vm.cache.holders[1] is vm.generic_ib.inner
