"""The translator's byte-checked walks.

``Translator`` keeps the last straight-line walk from each entry PC and
reuses it only when guest memory still holds the bytes it decoded.  So a
re-translation of unchanged code decodes nothing, whatever the
coherence policy, and a changed word is decoded anew even when no write
watch saw the store.
"""

from __future__ import annotations

import pytest

import repro.sdt.translator as translator_module
from repro.host.costs import HostModel
from repro.host.profile import SIMPLE
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.machine.loader import load_program
from repro.machine.memory import PAGE_SIZE
from repro.sdt.cache import FragmentCache
from repro.sdt.config import SDTConfig
from repro.sdt.translator import Translator
from repro.sdt.vm import SDTVM
from repro.workloads import COHERENCE_WORKLOADS, get_coherence_workload

#: exact decode counts are clean-spec behaviour
pytestmark = pytest.mark.usefixtures("no_faults")


@pytest.fixture
def decodes(monkeypatch) -> list[int]:
    """Every word the translator decodes, in order."""
    words: list[int] = []

    def counting(word):
        words.append(word)
        return decode(word)

    monkeypatch.setattr(translator_module, "decode", counting)
    return words


def _word(source_line: str) -> int:
    """The encoding of one assembled instruction."""
    text = assemble(f".text\nmain:\n{source_line}\n").text.data
    return int.from_bytes(text[:4], "little")


@pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
def test_flush_decodes_no_more_than_targeted(decodes, name):
    """Unwatching a page used to drop its cached decodes, so ``flush``
    decoded the working set again after every code write."""
    program = get_coherence_workload(name, "large").compile()
    counts = {}
    for policy in ("flush", "targeted"):
        decodes.clear()
        vm = SDTVM(program, config=SDTConfig(coherence=policy))
        vm.run()
        counts[policy] = (len(decodes), vm.stats.instrs_translated)
    (flush, flush_translated), (targeted, _) = counts.values()
    # the flushes re-translated unchanged code without decoding it
    assert flush < flush_translated, counts
    assert 0 < flush <= targeted, counts


def test_unwatched_store_is_decoded_anew(decodes):
    """With ``coherence="none"`` nothing watches the text, so the only
    thing that can notice a store is the byte check."""
    program = assemble(
        ".text\nmain:\naddi t0, t0, 1\naddi t1, t1, 2\nret\n"
    )
    vm = SDTVM(program, config=SDTConfig(coherence="none"))
    entry = program.entry
    before = vm.translator.get_or_translate(entry)
    assert len(decodes) == 3
    new = _word("addi t1, t1, 5")
    vm.mem.store_word(entry + 4, new)
    vm.cache.flush()
    after = vm.translator.get_or_translate(entry)
    assert after is not before
    assert after.instrs[1] == (entry + 4, decode(new))
    assert after.instrs[1] != before.instrs[1]
    assert len(decodes) == 6


def test_block_straddling_a_page_is_checked_on_both_pages(decodes):
    """A walk from two words before a page boundary runs onto the next
    page; a store there alone makes the next translation walk again."""
    program = assemble(".text\nmain:\n" + "nop\n" * 1030 + "ret\n")
    _cpu, mem, _syscalls = load_program(program)
    translator = Translator(program, mem, FragmentCache(), HostModel(SIMPLE))
    start = program.text.base + PAGE_SIZE - 8
    first = translator.translate(start)
    assert [pc // PAGE_SIZE for pc, _ in first.instrs[:3]] == [
        start // PAGE_SIZE, start // PAGE_SIZE, start // PAGE_SIZE + 1
    ]
    walked = len(decodes)
    assert walked == len(first.instrs) == 9

    again = translator.translate(start)
    assert len(decodes) == walked
    assert again.instrs == first.instrs
    assert again.instrs is not first.instrs

    changed_pc = start + 12
    new = _word("addi t0, t0, 1")
    mem.store_word(changed_pc, new)
    third = translator.translate(start)
    assert len(decodes) == 2 * walked
    assert dict(third.instrs)[changed_pc] == decode(new)
    assert third.instrs[:3] == first.instrs[:3]
    assert third.instrs[4:] == first.instrs[4:]
