"""Oracle vs threaded engine: observable-result byte identity.

The threaded engine (repro.machine.engine) must be a pure performance
change: for every workload, profile and execution mode the observable
results — output, exit code, retired count, per-class instruction
counts and the full per-category cycle breakdown
(:data:`repro.eval.differential.ALL`) — must match the oracle engine
exactly.  These tests enforce that, plus the fuel-parity contract (both
the interpreter and the SDT stop at *exactly* the fuel limit, in the
same state) and engine-neutral disk caching.
"""

from __future__ import annotations

import random

import pytest

from repro.eval.differential import ALL, ARCH, HARNESSES, diff, observe, snapshot
from repro.host.profile import SIMPLE, X86_P4
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE
from repro.lang import compile_to_program
from repro.machine.engine import ENGINES
from repro.machine.errors import FuelExhausted
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload, workload_names

PROFILES = (SIMPLE, X86_P4)
#: what two runs stopped by the same fuel must agree on
STOP = ALL + ("pc", "regs")


def _engine_diff(program, harness, **kwargs) -> str | None:
    """The first ``ALL`` field the threaded engine differs from the
    oracle on, or ``None``."""
    oracle, threaded = (
        observe(program, harness, engine=engine, **kwargs)
        for engine in ("oracle", "threaded")
    )
    return diff(oracle, threaded, ALL)


class TestWorkloadDifferential:
    """Every registered workload, both modes, two architecture profiles."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_native_identical(self, name, profile):
        program = get_workload(name, "tiny").compile()
        assert _engine_diff(program, "native", profile=profile) is None

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_sdt_identical(self, name, profile):
        program = get_workload(name, "tiny").compile()
        assert _engine_diff(program, "sdt", profile=profile) is None

    @pytest.mark.parametrize(
        "ib", ["reentry", "ibtc", "sieve"], ids=lambda s: f"ib={s}"
    )
    def test_sdt_identical_across_ib_mechanisms(self, ib):
        """Engine parity holds whatever IB handling the SDT uses."""
        program = get_workload("gzip_like", "tiny").compile()
        assert _engine_diff(program, "sdt", ib=ib) is None


# -- randomized instruction sequences ----------------------------------------

_ALU3 = ("add", "sub", "and", "or", "xor", "nor", "slt", "sltu",
         "mul", "sllv", "srlv", "srav")
_ALUI_SIGNED = ("addi", "slti", "sltiu")
_ALUI_UNSIGNED = ("andi", "ori", "xori")
_SHIFT = ("sll", "srl", "sra")
#: destination pool deliberately excludes s0 (data base) and s1 (divisor)
_DEST = ("t0", "t1", "t2", "t3", "t4", "t5")
_SRC = _DEST + ("zero", "s0", "s1")


def _random_program(seed: int, length: int = 250) -> str:
    rng = random.Random(seed)
    lines = [".text"]
    for index, reg in enumerate(_DEST):
        lines.append(f"    li {reg}, {rng.getrandbits(32)}")
    lines.append(f"    li s0, {DATA_BASE}")
    lines.append("    li s1, 13")  # nonzero divisor, never overwritten
    for _ in range(length):
        shape = rng.randrange(10)
        rd = rng.choice(_DEST)
        if shape < 4:
            lines.append(
                f"    {rng.choice(_ALU3)} {rd}, "
                f"{rng.choice(_SRC)}, {rng.choice(_SRC)}"
            )
        elif shape < 6:
            if rng.random() < 0.5:
                mnemonic = rng.choice(_ALUI_SIGNED)
                imm = rng.randrange(-0x8000, 0x8000)
            else:
                mnemonic = rng.choice(_ALUI_UNSIGNED)
                imm = rng.randrange(0, 0x10000)
            lines.append(f"    {mnemonic} {rd}, {rng.choice(_SRC)}, {imm}")
        elif shape == 6:
            lines.append(
                f"    {rng.choice(_SHIFT)} {rd}, {rng.choice(_SRC)}, "
                f"{rng.randrange(32)}"
            )
        elif shape == 7:
            off = rng.randrange(0, 256, 4)
            if rng.random() < 0.5:
                lines.append(f"    sw {rng.choice(_SRC)}, {off}(s0)")
            else:
                lines.append(f"    lw {rd}, {off}(s0)")
        elif shape == 8:
            lines.append(f"    lui {rd}, {rng.randrange(0, 0x10000)}")
        else:
            lines.append(
                f"    {rng.choice(('div', 'rem'))} {rd}, "
                f"{rng.choice(_SRC)}, s1"
            )
    lines.append("    halt")
    return "\n".join(lines) + "\n"


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_native_identical(self, seed):
        program = assemble(_random_program(seed))
        assert _engine_diff(program, "native") is None

    @pytest.mark.parametrize("seed", range(4))
    def test_sdt_identical(self, seed):
        program = assemble(_random_program(seed))
        assert _engine_diff(program, "sdt", profile=X86_P4) is None

    def test_final_register_state_identical(self):
        program = _random_program(99)
        interps = {
            engine: Interpreter(assemble(program), engine=engine)
            for engine in ENGINES
        }
        for interp in interps.values():
            interp.run()
        assert diff(snapshot(interps["oracle"]), snapshot(interps["threaded"]),
                    ("pc", "regs")) is None
        base = interps["oracle"].mem
        other = interps["threaded"].mem
        for off in range(0, 256, 4):
            assert (base.load_word(DATA_BASE + off)
                    == other.load_word(DATA_BASE + off))


# -- fuel semantics -----------------------------------------------------------

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


#: Fuel-stop sweep: workload -> number of fuel values drawn from [1, full).
_SWEEP_DRAWS = {"fib": 40, "perl_like": 12, "eon_like": 12}
_SWEEP_SEED = 1234
_RETURN_SCHEMES = ("same", "fast", "shadow", "retcache")


class TestFuelParity:
    """SDT stops at exactly the same retired count as the interpreter
    when fuel runs out, under every engine."""

    @pytest.mark.parametrize("name", sorted(_SWEEP_DRAWS))
    def test_fuel_stop_state_sweep(self, monkeypatch, name):
        """Random fuel stops: every engine in both harnesses leaves
        ``cpu.pc`` on the next unexecuted instruction, with registers,
        class counts and per-category cycles equal to its harness's
        oracle.  The SDT's return scheme cycles through all four across
        the sorted draws (a full matrix per stop would double the
        runtime); threshold 4 keeps tier-2 regions live at small fuel."""
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "4")
        program = (compile_to_program(_FIB) if name == "fib"
                   else get_workload(name, "tiny").compile())
        full = Interpreter(program, engine="oracle").run().retired
        rng = random.Random(f"{_SWEEP_SEED}:{name}")
        fuels = sorted(rng.sample(range(1, full), _SWEEP_DRAWS[name]))
        for index, fuel in enumerate(fuels):
            returns = _RETURN_SCHEMES[index % len(_RETURN_SCHEMES)]
            oracles = []
            for harness in HARNESSES:
                config = {"returns": returns} if harness == "sdt" else {}
                states = {
                    engine: observe(program, harness, engine=engine,
                                    fuel=fuel, **config)
                    for engine in ENGINES
                }
                for engine, state in states.items():
                    context = f"{name} fuel={fuel} {harness}/{engine} {config}"
                    assert state.retired == min(fuel, full), context
                    assert diff(states["oracle"], state, STOP) is None, context
                oracles.append(states["oracle"])
            # across harnesses: no cycles (the SDT charges its own) and no
            # registers (fast returns rewrite ``ra``)
            assert diff(*oracles, ARCH + ("pc",)) is None, (name, fuel, returns)

    def test_sdt_retires_exactly_fuel(self):
        program = compile_to_program(_FIB)
        for fuel in (1, 2, 17, 100, 101, 500, 1234):
            for engine in ENGINES:
                vm = SDTVM(
                    program, config=SDTConfig(profile=SIMPLE, engine=engine)
                )
                with pytest.raises(FuelExhausted):
                    vm.run(fuel)
                assert vm.retired == fuel, (engine, fuel)

    def test_native_and_sdt_agree_at_tight_fuel(self):
        """Regression: native and SDT pinned to identical retired counts."""
        program = compile_to_program(_FIB)
        for fuel in (50, 333, 2000):
            stops = [
                observe(program, harness, engine=engine, fuel=fuel)
                for harness in HARNESSES for engine in ENGINES
            ]
            assert {(s.retired, s.exit_code) for s in stops} == {(fuel, None)}

    def test_exact_fuel_completes_without_exhaustion(self):
        program = compile_to_program(_FIB)
        full = Interpreter(program, engine="oracle").run().retired
        for engine in ENGINES:
            assert Interpreter(program, engine=engine).run(full).retired == full
            vm = SDTVM(
                program, config=SDTConfig(profile=SIMPLE, engine=engine)
            )
            assert vm.run(full).retired == full


# -- caching ------------------------------------------------------------------

@pytest.mark.usefixtures("no_faults")
class TestEngineNeutralCaching:
    """Engine choice must not split caches: identical fingerprints, and a
    cache warmed by an oracle run serves threaded runs (and vice versa)."""

    def test_cell_keys_identical_across_engines(self):
        from repro.eval.cells import measure_cell

        cells = {
            engine: measure_cell(
                "gzip_like", "tiny",
                SDTConfig(profile=SIMPLE, engine=engine),
            )
            for engine in ENGINES
        }
        assert (cells["oracle"].fingerprint()
                == cells["threaded"].fingerprint())
        assert cells["oracle"].key() == cells["threaded"].key()

    def test_warm_oracle_cache_serves_threaded_run(self, tmp_path):
        from repro.eval.cells import measure_cell
        from repro.eval.diskcache import DiskCache
        from repro.eval.parallel import execute_cells

        oracle_cell = measure_cell(
            "gzip_like", "tiny", SDTConfig(profile=SIMPLE, engine="oracle")
        )
        threaded_cell = measure_cell(
            "gzip_like", "tiny", SDTConfig(profile=SIMPLE, engine="threaded")
        )

        cache = DiskCache(tmp_path)
        _results, report = execute_cells([oracle_cell], cache=cache)
        assert report.computed == 1 and report.cache_hits == 0

        results, report = execute_cells([threaded_cell], cache=cache)
        assert report.cache_hits == 1 and report.computed == 0
        result = results[threaded_cell.key()]
        assert result is not None
