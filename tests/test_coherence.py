"""Code-cache coherence: self-modifying / dyn-load / mini-JIT guests.

The acceptance bar for the coherence subsystem (docs/robustness.md):
every scenario stays byte-identical to the reference interpreter under
every invalidation policy, mechanism and engine, with the invariant
checker reporting zero stale-fragment violations — including when the
``differential`` CI job runs the whole suite under
``REPRO_FAULTS=chaos:1234``.
"""

import pytest

from repro.machine.interpreter import run_program
from repro.sdt.config import COHERENCE_POLICIES, SDTConfig
from repro.sdt.vm import SDTVM
from repro.workloads import (
    COHERENCE_WORKLOADS,
    coherence_suite,
    get_coherence_workload,
)

CHAOS = "chaos:1234"
MECHANISMS = ("reentry", "ibtc", "sieve")
POLICIES = ("flush", "page", "targeted")

#: reference-interpreter goldens at tiny scale (checksum, retired count);
#: pinned so a workload edit cannot silently change what "parity" means
GOLDEN = {
    "smc_loop": ("36", 134),
    "dyn_loader": ("128", 474),
    "mini_jit": ("36", 96),
}


def reference(name, scale="tiny"):
    return run_program(get_coherence_workload(name, scale).compile())


def run_sdt(name, scale="tiny", **kwargs):
    program = get_coherence_workload(name, scale).compile()
    vm = SDTVM(program, config=SDTConfig(**kwargs))
    return vm, vm.run()


def assert_parity(result, expected, context):
    assert result.output == expected.output, context
    assert result.exit_code == expected.exit_code, context
    assert result.retired == expected.retired, context


class TestReferenceInterpreter:
    """The oracle interpreter itself handles self-modifying code."""

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    def test_golden_outputs(self, name):
        result = reference(name)
        output, retired = GOLDEN[name]
        assert result.output == output
        assert result.exit_code == 0
        assert result.retired == retired

    def test_suite_enumeration(self):
        suite = coherence_suite("tiny")
        assert tuple(w.name for w in suite) == COHERENCE_WORKLOADS
        assert all(w.language == "asm" for w in suite)
        with pytest.raises(KeyError):
            get_coherence_workload("nonexistent", "tiny")


class TestScenarioParity:
    """SDT == interpreter for every scenario x policy x mechanism.

    Runs under whatever REPRO_FAULTS the environment sets — the
    ``differential`` CI job re-executes exactly this matrix with fault
    injection on.
    """

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_parity(self, name, policy, mechanism):
        expected = reference(name)
        _, result = run_sdt(name, ib=mechanism, coherence=policy)
        assert_parity(result, expected, f"{name}/{mechanism}/coh={policy}")

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    @pytest.mark.parametrize("engine", ("oracle", "threaded"))
    def test_engine_parity(self, name, engine):
        expected = reference(name)
        _, result = run_sdt(name, coherence="targeted", engine=engine)
        assert_parity(result, expected, f"{name}/engine={engine}")

    @pytest.mark.parametrize("returns", ("fast", "shadow", "retcache"))
    def test_return_scheme_parity(self, returns):
        expected = reference("smc_loop")
        _, result = run_sdt("smc_loop", coherence="page", returns=returns)
        assert_parity(result, expected, f"smc_loop/ret={returns}")

    def test_none_policy_executes_stale_code(self):
        """Without write detection the SMC loop goes architecturally
        wrong — proof the scenarios actually exercise coherence."""
        expected = reference("smc_loop")
        _, result = run_sdt("smc_loop", coherence="none")
        assert result.output != expected.output


class TestStaleDecodeRegression:
    """Stores to an unwatched page reach the next translation.

    Regression pin: whole-cache flush (and selective invalidation that
    empties a page) unwatches translated pages; dyn_loader's copy loop
    keeps storing into the unwatched page.  A per-PC decode cache once
    kept serving the pre-store instructions on retranslation, mixing
    fresh memory words with stale decodes (``targeted`` masked it: the
    page stayed watched).  The translator now checks every walk it
    reuses against live guest bytes, and these runs pin that check.
    """

    @pytest.mark.parametrize("policy", ("flush", "page"))
    def test_dyn_loader_survives_unwatch(self, policy):
        expected = reference("dyn_loader")
        _, result = run_sdt("dyn_loader", coherence=policy)
        assert_parity(result, expected, f"dyn_loader/coh={policy}")

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    def test_capacity_flush_interleaving(self, name):
        """Capacity flushes unwatch pages mid-scenario too: a tiny cache
        forces them between (and during) guest write bursts."""
        expected = reference(name)
        for policy in POLICIES:
            _, result = run_sdt(name, coherence=policy,
                                fragment_cache_bytes=512)
            assert_parity(result, expected, f"{name}/{policy}/cap=512")


class TestInvariantChecker:
    """Chaos runs: the checker's coherence site fires and stays clean."""

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_violations(self, name, policy):
        expected = reference(name)
        vm, result = run_sdt(name, coherence=policy, faults=CHAOS,
                             fragment_cache_bytes=2048)
        assert_parity(result, expected, f"{name}/coh={policy}/{CHAOS}")
        report = vm.invariant_checker.report()
        assert report["violations"] == []
        if policy == "flush":
            assert report["flushes_checked"] > 0
        else:
            # selective invalidations must reach the checker's
            # scrub_invalid walk, not just its flush walk
            assert report["invalidations_checked"] > 0

    def test_checker_runs_after_scrub(self):
        """Holder-ordering pin: the checker is held last, so its walk
        observes the other holders' *post-scrub* state.  If the
        coherence manager (or the mechanisms) were held after the
        checker, every guest-write flush would report the just-killed
        fragments as stale references and this run would record
        violations."""
        vm, _ = run_sdt("smc_loop", coherence="flush", faults=CHAOS)
        report = vm.invariant_checker.report()
        assert report["flushes_checked"] > 0
        assert report["violations"] == []


class TestStaticTargetsInteraction:
    """Preseed flush-window regression (satellite: pending-hint scrub).

    With static targets on, IBTC/sieve preseed hints are armed when the
    analysis binds and applied as fragments materialise; an invalidation
    landing inside that window must not let a hint resurrect a pointer
    to dead code.  A 512-byte cache makes every translation race a flush.
    """

    @pytest.mark.parametrize("name", COHERENCE_WORKLOADS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_parity_with_static_targets(self, name, policy):
        expected = reference(name)
        for mechanism in ("ibtc", "sieve"):
            vm, result = run_sdt(
                name, ib=mechanism, coherence=policy, static_targets=True,
                fragment_cache_bytes=512, faults=CHAOS,
            )
            assert_parity(
                result, expected,
                f"{name}/{mechanism}/coh={policy}/static+cap=512",
            )
            assert vm.invariant_checker.report()["violations"] == []


@pytest.mark.usefixtures("no_faults")
class TestPolicyCost:
    """Clean-spec cost separation and event accounting."""

    def test_policy_cost_ordering(self):
        # smc_loop shares a page between the patched site and an
        # untouched helper: flush kills everything, page kills the
        # helper too, targeted kills only the patched fragment
        cycles = {}
        for policy in POLICIES:
            _, result = run_sdt("smc_loop", ib="ibtc", coherence=policy)
            cycles[policy] = result.total_cycles
        assert cycles["flush"] > cycles["page"] > cycles["targeted"]

    def test_write_detection_off_by_default(self):
        from repro.workloads import get_workload

        vm, _ = run_sdt("smc_loop", coherence="targeted")
        assert vm.stats.coherence["code_writes"] > 0
        # a static workload under the default policy pays nothing: no
        # manager, no watched pages, no events
        program = get_workload("gzip_like", "tiny").compile()
        vm_none = SDTVM(program, config=SDTConfig())
        vm_none.run()
        assert vm_none.coherence is None
        assert dict(vm_none.stats.coherence) == {}
        assert vm_none.mem.watched_pages() == frozenset()

    def test_stats_per_policy(self):
        vm, _ = run_sdt("smc_loop", coherence="flush")
        stats = vm.stats.coherence
        assert stats["code_writes"] > 0
        assert stats["flushes"] == stats["code_writes"]

        vm, _ = run_sdt("smc_loop", coherence="targeted")
        stats = vm.stats.coherence
        assert stats["fragments_invalidated"] > 0
        assert stats["flushes"] == 0

    def test_trace_events_emitted(self):
        vm, _ = run_sdt("smc_loop", coherence="targeted", trace="on")
        kinds = {kind for _seq, _cycles, kind, _data in vm.trace.events}
        assert "coherence.write" in kinds
        assert "coherence.invalidate" in kinds


class TestConfigSurface:
    """Policy validation, label and fingerprint relevance."""

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="coherence"):
            SDTConfig(coherence="eager")

    def test_label(self):
        assert "coh=page" in SDTConfig(coherence="page").label
        assert "coh=" not in SDTConfig(coherence="none").label

    def test_fingerprint_relevant(self):
        # the policy decides which fragments survive a guest write, so
        # it must split result caches (it is NOT fingerprint-exempt)
        assert SDTConfig(coherence="none").fingerprint() != \
            SDTConfig(coherence="targeted").fingerprint()

    def test_all_policies_enumerated(self):
        assert COHERENCE_POLICIES == ("none",) + POLICIES
