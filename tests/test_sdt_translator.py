"""Fragment builder: basic-block discovery and translation charging."""

import pytest

from repro.host.costs import Category, HostModel
from repro.host.profile import SIMPLE
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op
from repro.machine.errors import MemoryFault
from repro.machine.loader import load_program
from repro.sdt.cache import FragmentCache
from repro.sdt.fragment import ExitKind
from repro.sdt.translator import Translator


def make_translator(source: str, max_fragment_instrs: int = 128):
    program = assemble(source)
    _cpu, mem, _syscalls = load_program(program)
    cache = FragmentCache()
    model = HostModel(SIMPLE)
    return Translator(program, mem, cache, model,
                      max_fragment_instrs=max_fragment_instrs), program, model


class TestBlockDiscovery:
    def test_block_ends_at_branch(self):
        translator, program, _ = make_translator(
            ".text\nmain:\nnop\nnop\nbeq t0, t1, main\nnop\n"
        )
        frag = translator.translate(program.entry)
        assert len(frag.instrs) == 3
        assert frag.exit_kind is ExitKind.COND
        assert frag.instrs[-1][1].op is Op.BEQ

    def test_block_ends_at_each_control_kind(self):
        cases = {
            "j main": ExitKind.JUMP,
            "jal main": ExitKind.CALL,
            "jr t0": ExitKind.IJUMP,
            "jalr t0": ExitKind.ICALL,
            "ret": ExitKind.RET,
            "halt": ExitKind.HALT,
        }
        for terminator, expected in cases.items():
            translator, program, _ = make_translator(
                f".text\nmain:\nnop\n{terminator}\n"
            )
            frag = translator.translate(program.entry)
            assert frag.exit_kind is expected, terminator

    def test_syscall_does_not_end_block(self):
        translator, program, _ = make_translator(
            ".text\nmain:\nsyscall\nnop\nret\n"
        )
        frag = translator.translate(program.entry)
        assert len(frag.instrs) == 3

    def test_length_limit_fall_exit(self):
        translator, program, _ = make_translator(
            ".text\nmain:\n" + "nop\n" * 10 + "ret\n", max_fragment_instrs=4
        )
        frag = translator.translate(program.entry)
        assert len(frag.instrs) == 4
        assert frag.exit_kind is ExitKind.FALL

    def test_overlapping_fragments_allowed(self):
        translator, program, _ = make_translator(
            ".text\nmain:\nnop\nmid:\nnop\nret\n"
        )
        whole = translator.translate(program.entry)
        partial = translator.translate(program.entry + 4)
        assert len(whole.instrs) == 3
        assert len(partial.instrs) == 2
        assert whole.fc_addr != partial.fc_addr

    def test_guest_pcs_recorded(self):
        translator, program, _ = make_translator(".text\nmain:\nnop\nret\n")
        frag = translator.translate(program.entry)
        assert [pc for pc, _ in frag.instrs] == [program.entry,
                                                 program.entry + 4]


class TestCachingAndCosts:
    def test_get_or_translate_caches(self):
        translator, program, _ = make_translator(".text\nmain:\nret\n")
        first = translator.get_or_translate(program.entry)
        second = translator.get_or_translate(program.entry)
        assert first is second
        assert translator.cache.stats.fragments_translated == 1

    def test_translation_charged(self):
        translator, program, model = make_translator(
            ".text\nmain:\nnop\nnop\nret\n"
        )
        translator.translate(program.entry)
        expected = SIMPLE.translate_fragment + 3 * SIMPLE.translate_per_instr
        assert model.cycles[Category.TRANSLATE] == expected

    def test_stats_track_instr_count(self):
        translator, program, _ = make_translator(
            ".text\nmain:\nnop\nnop\nnop\nret\n"
        )
        translator.translate(program.entry)
        assert translator.cache.stats.instrs_translated == 4

    def test_fetch_outside_text_faults(self):
        translator, _, _ = make_translator(".text\nmain:\nret\n")
        with pytest.raises(MemoryFault):
            translator.translate(0x10)

    def test_misaligned_pc_faults(self):
        translator, program, _ = make_translator(".text\nmain:\nret\n")
        with pytest.raises(MemoryFault):
            translator.translate(program.entry + 2)

    def test_rejects_zero_fragment_limit(self):
        with pytest.raises(ValueError):
            make_translator(".text\nmain:\nret\n", max_fragment_instrs=0)
