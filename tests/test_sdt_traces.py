"""NET-style trace formation (translating through unconditional jumps)."""

import pytest

from conftest import ALL_IB_KINDS_SOURCE, assert_equivalent, run_minic_sdt
from repro.host.costs import HostModel
from repro.host.profile import SIMPLE
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op
from repro.machine.loader import load_program
from repro.sdt.cache import DEFAULT_CAPACITY, FragmentCache
from repro.sdt.config import SDTConfig
from repro.sdt.fragment import ExitKind
from repro.sdt.translator import Translator


def make_translator(source: str, trace_jumps: bool = True, limit: int = 128):
    program = assemble(source)
    _cpu, mem, _syscalls = load_program(program)
    translator = Translator(
        program, mem, FragmentCache(), HostModel(SIMPLE),
        max_fragment_instrs=limit, trace_jumps=trace_jumps,
    )
    return translator, program


class TestTraceShape:
    SOURCE = (
        ".text\nmain:\nnop\nj next\nmid:\nnop\nret\n"
        "next:\nnop\nnop\nj mid\n"
    )

    def test_trace_inlines_jump_successors(self):
        translator, program = make_translator(self.SOURCE)
        frag = translator.translate(program.entry)
        # main(2) + next(3) + mid(2): the two j's stay in the stream
        assert len(frag.instrs) == 7
        assert frag.exit_kind is ExitKind.RET
        # the elided jumps are still present (retired counts must match)
        assert sum(1 for _, i in frag.instrs if i.op is Op.J) == 2

    def test_without_tracing_blocks_stay_small(self):
        translator, program = make_translator(self.SOURCE, trace_jumps=False)
        frag = translator.translate(program.entry)
        assert len(frag.instrs) == 2
        assert frag.exit_kind is ExitKind.JUMP

    def test_trace_stops_at_existing_fragment(self):
        translator, program = make_translator(self.SOURCE)
        translator.translate(program.symbols["next"])  # pre-translate
        frag = translator.translate(program.entry)
        # cannot inline `next` (already in cache): ends at the jump
        assert frag.exit_kind is ExitKind.JUMP
        assert len(frag.instrs) == 2

    def test_self_loop_terminates(self):
        translator, program = make_translator(
            ".text\nmain:\nloop:\nj loop\n", limit=16
        )
        frag = translator.translate(program.entry)
        assert frag.exit_kind is ExitKind.JUMP
        assert len(frag.instrs) == 1

    def test_jump_cycle_terminates(self):
        translator, program = make_translator(
            ".text\nmain:\nj b\nb:\nnop\nj main\n", limit=64
        )
        frag = translator.translate(program.entry)
        # main -> b inlined; b's jump back to main is not re-inlined
        # (target == trace head)
        assert frag.exit_kind is ExitKind.JUMP
        assert len(frag.instrs) == 3

    def test_length_limit_respected(self):
        translator, program = make_translator(self.SOURCE, limit=3)
        frag = translator.translate(program.entry)
        assert len(frag.instrs) <= 3

    def test_calls_are_not_traced_through(self):
        translator, program = make_translator(
            ".text\nmain:\njal f\nret\nf:\nret\n"
        )
        frag = translator.translate(program.entry)
        assert frag.exit_kind is ExitKind.CALL
        assert len(frag.instrs) == 1


class TestTraceExecution:
    @pytest.mark.parametrize("returns, capacity", [
        pytest.param("same", DEFAULT_CAPACITY, id="same"),
        pytest.param("fast", DEFAULT_CAPACITY, id="fast"),
        # a flush storm: multi-walk traces are re-translated from
        # reused walks
        pytest.param("same", 512, id="same-flush-storm"),
    ])
    def test_equivalence(self, returns, capacity):
        config = SDTConfig(profile=SIMPLE, trace_jumps=True, returns=returns,
                           fragment_cache_bytes=capacity)
        result = assert_equivalent(ALL_IB_KINDS_SOURCE, config)
        if capacity < DEFAULT_CAPACITY:
            assert result.stats.cache_flushes > 0

    def test_fewer_fragments_and_links(self):
        traced = run_minic_sdt(
            ALL_IB_KINDS_SOURCE, SDTConfig(profile=SIMPLE, trace_jumps=True)
        )
        blocks = run_minic_sdt(
            ALL_IB_KINDS_SOURCE, SDTConfig(profile=SIMPLE, trace_jumps=False)
        )
        assert traced.stats.fragments_translated < \
            blocks.stats.fragments_translated
        assert traced.stats.links_patched < blocks.stats.links_patched
        assert traced.retired == blocks.retired

    def test_label(self):
        assert "trace" in SDTConfig(trace_jumps=True).label
        assert "trace" not in SDTConfig().label
