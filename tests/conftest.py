"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.host.profile import SIMPLE
from repro.isa.assembler import assemble
from repro.isa.opcodes import CONTROL_CLASSES
from repro.lang import compile_to_program
from repro.machine.interpreter import Interpreter, RunResult
from repro.machine.runner import BLOCKS
from repro.sdt.config import SDTConfig
from repro.sdt.translator import WALKS
from repro.sdt.vm import SDTRunResult, SDTVM


def clear_stores() -> None:
    """Empty the per-process walk and block stores, as a fresh process
    starts: what a test that counts one run's walks or compiles runs
    first."""
    WALKS.clear()
    BLOCKS.clear()


def run_asm(source: str, inputs: list[int] | None = None,
            fuel: int = 2_000_000) -> RunResult:
    """Assemble and interpret an SR32 program."""
    return Interpreter(assemble(source), inputs=inputs).run(fuel)


def run_minic(source: str, inputs: list[int] | None = None,
              fuel: int = 5_000_000) -> RunResult:
    """Compile and interpret a MiniC program."""
    return Interpreter(compile_to_program(source), inputs=inputs).run(fuel)


def run_minic_sdt(
    source: str,
    config: SDTConfig | None = None,
    inputs: list[int] | None = None,
    fuel: int = 5_000_000,
) -> SDTRunResult:
    """Compile and run a MiniC program under the SDT."""
    config = config or SDTConfig(profile=SIMPLE)
    return SDTVM(compile_to_program(source), config=config,
                 inputs=inputs).run(fuel)


def assert_equivalent(source: str, config: SDTConfig,
                      inputs: list[int] | None = None) -> SDTRunResult:
    """Assert the SDT reproduces the interpreter's behaviour exactly."""
    native = run_minic(source, inputs=inputs)
    translated = run_minic_sdt(source, config=config, inputs=inputs)
    assert translated.output == native.output
    assert translated.exit_code == native.exit_code
    assert translated.retired == native.retired
    return translated


class ExitRecorder:
    """An interpreter observer that records every ``exit`` call and
    charges no cycles."""

    model = None

    def __init__(self) -> None:
        self.exits: list[tuple] = []

    def exit(self, pc, iclass, next_pc) -> None:
        self.exits.append((pc, iclass, next_pc))


def stepped_exits(program) -> list[tuple]:
    """``(pc, iclass, next_pc)`` of every control transfer of a run,
    found by stepping the oracle loop with no observer attached."""
    interp = Interpreter(program, engine="oracle")
    exits = []
    while not interp.syscalls.exited:
        pc = interp.cpu.pc
        iclass = interp.fetch(pc).iclass
        interp.step()
        if iclass in CONTROL_CLASSES:
            exits.append((pc, iclass, interp.cpu.pc))
    return exits


@pytest.fixture
def simple_profile():
    return SIMPLE


@pytest.fixture
def no_faults(monkeypatch):
    """Pin fault injection off regardless of the REPRO_FAULTS environment.

    The ``differential`` CI job runs this suite with
    ``REPRO_FAULTS=chaos:<seed>``; most tests pass unchanged because
    injected faults never alter architectural results.  Tests that assert *clean-spec* behaviour —
    exact hit rates, memo/disk-cache hits, cycle orderings — opt out via
    this fixture (module-wide with
    ``pytestmark = pytest.mark.usefixtures("no_faults")``).
    """
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


#: A MiniC program exercising every IB class: jump tables (ijump),
#: function-pointer dispatch (icall) and recursion (ret).
ALL_IB_KINDS_SOURCE = r"""
int ops[] = { &add3, &mul2 };

int add3(int x) { return x + 3; }
int mul2(int x) { return x * 2; }

int pick(int x) {
    switch (x & 7) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return 5;
    case 4: return 8;
    case 5: return 13;
    case 6: return 21;
    default: return 34;
    }
}

int sumto(int n) {
    if (n <= 0) return 0;
    return n + sumto(n - 1);
}

int main() {
    int total = 0;
    int i;
    for (i = 0; i < 24; i++) {
        int f = ops[i & 1];
        total += f(i) + pick(i);
    }
    total += sumto(10);
    print_int(total);
    return 0;
}
"""
