"""Deferred instruction-class counts equal the oracle's at every stop.

The block engines count a whole block as one run of its interned class
vector, and ``BlockRunner.iclass_counts`` derives the per-class totals
on read; the per-instruction paths (fuel-stop prefixes, partial-fault
accounting, tier2 commits) count directly.  These are the cases where
the two halves must meet exactly, in both harnesses: a fuel stop inside
a block, a guest fault mid-block, blocks dropped by a code write,
fragments dropped by a flush storm, and plans demoted under chaos.
"""

from __future__ import annotations

import pytest

from repro.eval.differential import make_runner
from repro.isa.assembler import assemble
from repro.lang import compile_to_program
from repro.machine.engine import ENGINES
from repro.machine.errors import (
    AlignmentFault,
    DivideByZeroFault,
    FuelExhausted,
)
from repro.machine.interpreter import DEFAULT_FUEL, Interpreter
from repro.workloads import get_coherence_workload, get_workload

BLOCK_ENGINES = ("threaded", "tier2")

_FIB = r"""
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(10));
    return 0;
}
"""

#: bodies of a four-instruction loop block with one faulting instruction
#: (inside a tier2 region once the loop is hot), first, in the middle and
#: last before the ``j``, with the instructions retired at the fault.
#: The ``div`` faults once the counter reaches 0.  The ``lw`` reads word
#: 0 until ``t5`` turns 1 with the counter at 0, then faults misaligned:
#: a multi-line template whose fault is raised inside
#: ``Memory.load_word``.
_FAULT_LOOPS = {
    "div": (DivideByZeroFault, {
        "first": (("div t2, t0, t1", "addi t1, t1, -1", "add t3, t3, t2"),
                  2 + 4 * 200),
        "middle": (("addi t1, t1, -1", "div t2, t0, t1", "add t3, t3, t2"),
                   2 + 4 * 199 + 1),
        "last": (("addi t1, t1, -1", "add t3, t3, t2", "div t2, t0, t1"),
                 2 + 4 * 199 + 2),
    }),
    "lw": (AlignmentFault, {
        "first": (("lw t2, 0(t5)", "addi t1, t1, -1", "sltiu t5, t1, 1"),
                  2 + 4 * 200),
        "middle": (("addi t1, t1, -1", "lw t2, 0(t5)", "sltiu t5, t1, 1"),
                   2 + 4 * 200 + 1),
        "last": (("addi t1, t1, -1", "sltiu t5, t1, 1", "lw t2, 0(t5)"),
                 2 + 4 * 199 + 2),
    }),
}


@pytest.fixture(autouse=True)
def _hot_regions(monkeypatch):
    # regions promote and run within these short runs
    monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "4")


def _run(program, harness, engine, *, fuel=DEFAULT_FUEL,
         stop=FuelExhausted, **config):
    """``program``'s runner in ``harness`` after it exited or stopped
    with ``stop``.  The SDT runs fault-free unless ``config`` says."""
    if harness == "sdt":
        config.setdefault("faults", None)
    runner = make_runner(program, harness, engine=engine, **config)
    try:
        runner.run(fuel)
    except stop:
        pass
    return runner


def _parity(program, harness, **options) -> dict:
    """Run every engine; each block engine's class counts must equal the
    oracle's, with no zero entries.  Returns the runners by engine."""
    runners = {
        engine: _run(program, harness, engine, **options)
        for engine in ENGINES
    }
    oracle = runners["oracle"]
    expected = dict(oracle.iclass_counts)
    assert expected and 0 not in expected.values()
    for engine in BLOCK_ENGINES:
        runner = runners[engine]
        context = (harness, engine, options)
        assert runner.retired == oracle.retired, context
        assert dict(runner.iclass_counts) == expected, context
    return runners


@pytest.mark.parametrize("harness", ("native", "sdt"))
def test_fuel_stop_inside_a_block(harness):
    """40 consecutive fuel limits stop at every position of the blocks
    they cover, so most stops fall inside a block or fragment."""
    program = compile_to_program(_FIB)
    for fuel in range(600, 640):
        runners = _parity(program, harness, fuel=fuel)
        assert runners["oracle"].retired == fuel


def _fault_id(harness: str, fault: str, position: str) -> str:
    # the div cases keep the ids they had before the lw ones; the middle
    # div case keeps the bare harness id it had before the others
    if fault == "lw":
        return f"{harness}-lw-{position}"
    return harness if position == "middle" else f"{harness}-{position}"


@pytest.mark.parametrize("harness, fault, position", [
    pytest.param(harness, fault, position,
                 id=_fault_id(harness, fault, position))
    for fault in _FAULT_LOOPS for position in _FAULT_LOOPS[fault][1]
    for harness in ("native", "sdt")
])
def test_guest_fault_mid_block(harness, fault, position):
    stop, bodies = _FAULT_LOOPS[fault]
    body, retired = bodies[position]
    source = "\n".join((".text", "main:", "li t0, 1000", "li t1, 200",
                        "loop:", *body, "j loop", ""))
    runners = _parity(assemble(source), harness, stop=stop)
    for runner in runners.values():
        assert runner.retired == retired
    tier2 = runners["tier2"]
    promotions = (tier2.stats.tier2 if harness == "sdt"
                  else tier2._tier2.stats)["promote"]
    assert promotions > 0


@pytest.mark.parametrize("name", ("smc_loop", "dyn_loader"))
def test_interpreter_drops_blocks_on_code_write(monkeypatch, name):
    dropped = []
    on_code_write = Interpreter._on_code_write

    def counting(self, addr, length):
        before = len(self._blocks)
        on_code_write(self, addr, length)
        dropped.append(before - len(self._blocks))

    monkeypatch.setattr(Interpreter, "_on_code_write", counting)
    _parity(get_coherence_workload(name, "tiny").compile(), "native")
    assert sum(dropped) > 0


@pytest.mark.parametrize("policy", ("flush", "page", "targeted"))
@pytest.mark.parametrize("name", ("smc_loop", "dyn_loader"))
def test_sdt_drops_fragments_on_code_write(name, policy):
    runners = _parity(get_coherence_workload(name, "tiny").compile(),
                      "sdt", coherence=policy)
    for engine in BLOCK_ENGINES:
        coherence = runners[engine].stats.coherence
        assert coherence["flushes"] + coherence["fragments_invalidated"] > 0


def test_sdt_flush_storm():
    runners = _parity(get_workload("parser_like", "tiny").compile(), "sdt",
                      fragment_cache_bytes=1024)
    for engine in BLOCK_ENGINES:
        assert runners[engine].stats.cache_flushes > 10


def test_sdt_chaos_demotes_plans():
    """The ``classes`` perturbation corrupts a plan's ``class_counts``
    in place; the interned vectors come from ``iclasses`` and the
    counters live in the runner, so demotion cannot skew the totals."""
    runners = _parity(get_workload("parser_like", "tiny").compile(), "sdt",
                      faults="chaos:1234")
    for engine in BLOCK_ENGINES:
        stats = runners[engine].stats
        assert stats.faults["plan_perturb.classes"] > 0
        assert stats.fragments_demoted > 0
