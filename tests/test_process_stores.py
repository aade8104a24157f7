"""Walks and compiled blocks outlive the runner that made them.

The SDT translator's walks (``repro.sdt.translator.WALKS``) and the
compiled blocks of both harnesses (``repro.machine.runner.BLOCKS``) are
kept per process, so a second runner of the same guest walks and
compiles nothing.  What they keep is machine-free, it is reused only
where a fresh process would build exactly the same thing, and a run that
reuses it is identical to one that starts from empty stores.
"""

from __future__ import annotations

import gc
from types import ModuleType

import pytest
from conftest import clear_stores

import repro.sdt.translator as translator_module
from repro.eval.differential import ALL, diff, make_runner, observe, snapshot
from repro.host.costs import HostModel
from repro.host.profile import SIMPLE
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.machine.cpu import CPUState
from repro.machine.engine import BlockCode, Superblock
from repro.machine.errors import MemoryFault
from repro.machine.loader import load_program
from repro.machine.memory import Memory
from repro.machine.runner import BLOCKS
from repro.machine.syscalls import SyscallHandler
from repro.sdt.cache import FragmentCache
from repro.sdt.config import COHERENCE_POLICIES
from repro.sdt.translator import WALKS, Translator
from repro.trace.spec import TraceSpec
from repro.workloads import (
    COHERENCE_WORKLOADS,
    get_coherence_workload,
    get_workload,
)

#: exact compile and walk counts are clean-spec behaviour
pytestmark = pytest.mark.usefixtures("no_faults")


@pytest.fixture
def compiles(monkeypatch) -> list[int]:
    """One entry per ``Superblock.__init__``, the one compile point."""
    calls: list[int] = []
    init = Superblock.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Superblock, "__init__", counting)
    return calls


@pytest.fixture
def walked(monkeypatch) -> list[int]:
    """Every word an SDT translator decodes."""
    words: list[int] = []

    def counting(word):
        words.append(word)
        return decode(word)

    monkeypatch.setattr(translator_module, "decode", counting)
    return words


def _run(program, harness: str, **config):
    runner = make_runner(program, harness, engine="threaded", **config)
    runner.run()
    return runner


@pytest.mark.parametrize("harness", ("native", "sdt"))
def test_second_runner_compiles_and_walks_nothing(compiles, walked,
                                                  harness):
    """The second runner of a guest binds every block the first one
    compiled, its translator decodes no word, and its run, with every
    counter and trace event, equals the first one's."""
    program = get_workload("perl_like", "tiny").compile()
    config = {} if harness == "native" else {"trace": TraceSpec()}
    clear_stores()
    first = _run(program, harness, **config)
    assert compiles and (walked or harness == "native")
    compiles.clear()
    walked.clear()
    misses = decode.cache_info().misses
    second = _run(program, harness, **config)
    assert compiles == [] and walked == []
    assert decode.cache_info().misses == misses
    assert snapshot(second) == snapshot(first)
    if harness == "sdt":
        assert second.stats == first.stats
        assert second.trace.metrics.counters == first.trace.metrics.counters


#: what a machine-free store may not reach: the machine, and anything
#: callable (a bound method or a block function holds its machine)
_MACHINE_TYPES = (CPUState, Memory, SyscallHandler, bytearray, memoryview)


def _reachable(roots):
    """Every object reachable from ``roots``, types and modules aside."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def test_stores_hold_no_machine():
    """Once its runners are dropped, nothing the stores keep reaches a
    register file, a memory, a syscall handler, a page or a function."""
    program = get_coherence_workload("mini_jit", "tiny").compile()
    clear_stores()
    for harness, config in (("native", {}),
                            ("sdt", {"coherence": "targeted"})):
        _run(program, harness, **config)
    gc.collect()
    assert WALKS and BLOCKS
    assert all(isinstance(code, BlockCode)
               for versions in BLOCKS.values() for code in versions)
    for obj in _reachable([WALKS, BLOCKS]):
        assert not isinstance(obj, _MACHINE_TYPES), type(obj)
        assert not callable(obj), obj


@pytest.mark.parametrize("policy", COHERENCE_POLICIES)
@pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
def test_self_modifying_guest_runs_twice(name, policy):
    """A second VM of a self-modifying guest starts from the program's
    own bytes, not the ones the first run wrote, and runs exactly as the
    first did and as the oracle engine does."""
    program = get_coherence_workload(name, "tiny").compile()
    reference = observe(program, "sdt", engine="oracle", coherence=policy)
    clear_stores()
    first = _run(program, "sdt", coherence=policy)
    second = make_runner(program, "sdt", engine="threaded",
                         coherence=policy)
    text = program.text
    assert second.mem.read_bytes(text.base, len(text.data)) == text.data
    second.run()
    assert diff(reference, snapshot(second), ALL) is None
    assert snapshot(second) == snapshot(first)


@pytest.mark.parametrize("name, config", [
    ("perl_like", {"fragment_cache_bytes": 1024}),
    ("mini_jit", {"coherence": "targeted"}),
], ids=("perl_like", "mini_jit"))
def test_clean_run_after_chaos_equals_fresh(name, config):
    """A chaos run leaves nothing in the stores that a later clean run
    of the same process can tell from a fresh start."""
    build = (get_coherence_workload if name in COHERENCE_WORKLOADS
             else get_workload)
    program = build(name, "tiny").compile()
    clean = dict(config, faults=None)
    clear_stores()
    fresh = _run(program, "sdt", **clean)
    clear_stores()
    chaos = _run(program, "sdt", faults="chaos:1234", **config)
    assert sum(chaos.stats.faults.values()), "chaos injected nothing"
    after = _run(program, "sdt", **clean)
    assert snapshot(after) == snapshot(fresh)
    assert after.stats == fresh.stats


def test_walk_never_reused_past_text_end():
    """A walk another program made is not reused where it would run past
    this program's text, even where memory holds its bytes: the walk
    faults at the text end, as in a fresh process."""
    long = assemble(".text\nmain:\n" + "addi t0, t0, 1\n" * 12 + "ret\n")
    short = assemble(".text\nmain:\n" + "addi t0, t0, 1\n" * 4)
    assert long.text.base == short.text.base
    assert long.text.data.startswith(short.text.data)
    _cpu, mem, _syscalls = load_program(long)

    def translator(program):
        return Translator(program, mem, FragmentCache(), HostModel(SIMPLE))

    clear_stores()
    fragment = translator(long).translate(long.entry)
    assert len(fragment.instrs) == 13
    [(_room, data, _pairs, _exit)] = WALKS[long.entry]
    assert mem.holds(short.entry, data)
    with pytest.raises(MemoryFault):
        translator(short).translate(short.entry)
    # and the stored walk still serves the program it lies inside
    again = translator(long).translate(long.entry)
    assert again.instrs == fragment.instrs
