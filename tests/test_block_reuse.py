"""Each distinct block is compiled once per runner.

``BlockRunner._build`` keeps the last few versions built at each entry
PC.  A rebuild from pairs equal to one of them (an SDT re-translation
after a flush or an invalidation, an interpreter block dropped by a code
write that left it unchanged, a guest writing code back to an earlier
version) gets a fresh :class:`Superblock` that shares that version's
closures and derives everything fault injection may perturb afresh.  A
changed instruction compiles anew.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.eval.differential import ALL, diff, make_runner, observe, snapshot
from repro.faults.inject import PLAN_PERTURBATIONS, apply_plan_perturbation
from repro.lang import compile_to_program
from repro.machine.engine import Superblock
from repro.machine.runner import BlockRunner
from repro.trace.spec import TraceSpec
from repro.workloads import get_coherence_workload, get_workload

#: exact build counts are clean-spec behaviour; the SDT runs fault-free
pytestmark = pytest.mark.usefixtures("no_faults")

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

#: every field a build sets, the closures and the tier-2 state aside
_FIELDS = ("entry_pc", "pcs", "iclasses", "n", "class_counts", "app_cycles",
           "has_syscall", "term_pc", "term_iclass", "term_rd", "vector")


def _build_twice(harness: str, perturbation: str | None = None):
    """Build the entry block through the harness, optionally perturb it,
    then rebuild it from equal, freshly made pairs."""
    runner = make_runner(compile_to_program(_FIB), harness,
                         engine="threaded")
    entry = runner.cpu.pc
    if harness == "native":
        first = runner._block_at(entry)
        pairs = [(pc, runner.fetch(pc)) for pc in first.pcs]
    else:
        fragment = runner.translator.get_or_translate(entry)
        first, pairs = fragment.plan, fragment.instrs
    first.hits = 7
    first.region = False
    if perturbation is not None:
        apply_plan_perturbation(first, perturbation)
        assert not first.coherent_with(entry, pairs)
    if harness == "native":
        second = runner._block_at(entry)
    else:
        second = runner._compile_plan(list(pairs))
    return runner, entry, pairs, first, second


@pytest.mark.parametrize("harness", ("native", "sdt"))
def test_rebuild_shares_closures(harness):
    runner, entry, pairs, first, second = _build_twice(harness)
    assert second is not first
    assert second.fns is first.fns
    assert second.hits == 0 and second.region is None
    assert second.class_counts is not first.class_counts
    # exactly what a fresh compile of the same pairs builds
    fresh = Superblock(pairs, runner.cpu, runner.mem, runner.syscalls,
                       class_cycles=runner.model.profile.class_cycles)
    fresh.vector = first.vector
    for name in _FIELDS:
        assert getattr(second, name) == getattr(fresh, name), name
    # tier2's generated class commits follow this key order
    assert list(second.class_counts) == list(fresh.class_counts)
    assert second.coherent_with(entry, pairs)


@pytest.mark.parametrize("perturbation", PLAN_PERTURBATIONS)
@pytest.mark.parametrize("harness", ("native", "sdt"))
def test_rebuild_after_perturbation_is_coherent(harness, perturbation):
    _runner, entry, pairs, first, second = _build_twice(harness,
                                                        perturbation)
    assert second.fns is first.fns
    assert second.coherent_with(entry, pairs)


def _record_builds(monkeypatch) -> list:
    built = []
    build = BlockRunner._build

    def recording(self, pairs, class_cycles, trace=None):
        block = build(self, pairs, class_cycles, trace)
        built.append((list(pairs), block))
        return block

    monkeypatch.setattr(BlockRunner, "_build", recording)
    return built


@pytest.mark.parametrize(
    "name, harness, config, shares",
    [
        ("smc_loop", "native", {}, True),
        ("mini_jit", "sdt", {"coherence": "flush"}, True),
        ("mini_jit", "sdt", {"coherence": "targeted"}, False),
    ],
)
def test_code_write_compiles_new_closure(monkeypatch, name, harness, config,
                                         shares):
    """A PC whose instruction a code write changed never runs the old
    instruction's closure, and the run stays identical to the oracle.
    Closures are shared where a block is rebuilt unchanged: smc_loop
    writes its code back to an earlier version, and a whole-cache flush
    re-translates unchanged code.  mini_jit writes a new version each
    time, so under ``targeted`` every build compiles."""
    program = get_coherence_workload(name, "tiny").compile()
    reference = observe(program, harness, engine="oracle", **config)
    built = _record_builds(monkeypatch)
    runner = make_runner(program, harness, engine="threaded", **config)
    runner.run()
    assert diff(reference, snapshot(runner), ALL) is None

    closures = defaultdict(lambda: defaultdict(set))
    for pairs, block in built:
        for (pc, instr), fn in zip(pairs, block.fns):
            closures[pc][instr].add(fn)
    rewritten = {pc: by_instr for pc, by_instr in closures.items()
                 if len(by_instr) > 1}
    assert rewritten, "the guest should have rewritten an instruction"
    for pc, by_instr in rewritten.items():
        groups = list(by_instr.values())
        assert sum(map(len, groups)) == len(set().union(*groups)), hex(pc)
    distinct = len({id(block.fns) for _pairs, block in built})
    assert (distinct < len(built)) is shares


def _count_compiles(monkeypatch) -> list:
    compiles = []
    init = Superblock.__init__

    def counting(self, *args, **kwargs):
        compiles.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Superblock, "__init__", counting)
    return compiles


@pytest.mark.parametrize("harness, config", [
    ("native", {}),
    ("sdt", {"coherence": "targeted"}),
])
@pytest.mark.parametrize("name", ("smc_loop", "dyn_loader"))
def test_code_versions_compile_once(monkeypatch, name, harness, config):
    """The non-vacuity bar of the kept versions: these guests write
    blocks back to an earlier version, so each distinct version is
    compiled once and every later build of it reuses its closures, in
    both harnesses, and the run stays identical to the oracle.  Under
    ``targeted`` no flush re-translates unchanged code, so only the
    earlier versions are reused here."""
    program = get_coherence_workload(name, "tiny").compile()
    reference = observe(program, harness, engine="oracle", **config)
    built = _record_builds(monkeypatch)
    compiles = _count_compiles(monkeypatch)
    runner = make_runner(program, harness, engine="threaded", **config)
    runner.run()
    assert diff(reference, snapshot(runner), ALL) is None
    assert len(compiles) == len({tuple(pairs) for pairs, _block in built})
    assert 0 < len(compiles) < len(built)


def test_flush_storm_compiles_fewer_blocks_than_it_translates(monkeypatch):
    """The non-vacuity bar: under a 1 KiB fragment cache most
    re-translations rebuild a block whose closures are already
    compiled, so ``Superblock.__init__`` runs fewer times than the SDT
    translates."""
    program = get_workload("vortex_like", "small").compile()
    runner = make_runner(program, "sdt", engine="threaded",
                         fragment_cache_bytes=1024)
    compiles = _count_compiles(monkeypatch)
    runner.run()
    stats = runner.stats
    assert stats.cache_flushes > 100
    assert 0 < len(compiles) < stats.fragments_translated


def test_traced_flush_run_emits_one_build_per_translation(monkeypatch):
    rebuilds = []
    rebuilt = Superblock.rebuilt

    def counting(self, trace=None):
        rebuilds.append(1)
        return rebuilt(self, trace)

    monkeypatch.setattr(Superblock, "rebuilt", counting)
    program = get_workload("parser_like", "tiny").compile()
    runner = make_runner(program, "sdt", engine="threaded",
                         fragment_cache_bytes=1024, trace=TraceSpec())
    runner.run()
    stats = runner.stats
    assert stats.cache_flushes > 10 and rebuilds
    assert runner.trace.metrics.counters["plan.build"] == \
        stats.fragments_translated
