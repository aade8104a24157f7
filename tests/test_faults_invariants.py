"""IB-state coherence checking: violation detection and the watchdog.

These tests plant stale fragment pointers by hand in real post-run VMs
and check that :func:`collect_violations` finds exactly them — plus the
negative space: a clean run never reports anything.  Every kind of
fragment holder gets a planted tombstone, reported under its ``name``.
"""

import pytest

from repro.faults.inject import apply_plan_perturbation, tombstone
from repro.faults.invariants import (
    CoherenceError,
    CoherenceViolation,
    InvariantChecker,
    _check_refs,
    assert_coherent,
    collect_violations,
)
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.fragment import ExitKind, Fragment
from repro.sdt.vm import SDTVM
from repro.workloads import get_coherence_workload, get_workload


def fresh_vm(**config_kwargs):
    config = SDTConfig(profile=SIMPLE, **config_kwargs)
    vm = SDTVM(get_workload("gzip_like", "tiny").compile(), config=config)
    result = vm.run()
    assert result.exit_code == 0
    return vm


def make_fragment(pc=0x1000):
    return Fragment(guest_pc=pc, fc_addr=0, instrs=[],
                    exit_kind=ExitKind.JUMP)


class TestCheckRefs:
    def test_none_entries_skipped(self):
        violations = []
        _check_refs("t", [None, None], set(), violations)
        assert violations == []

    def test_invalid_ref_is_stale(self):
        frag = tombstone(make_fragment())
        violations = []
        _check_refs("t", [frag], {id(frag)}, violations)
        assert [v.kind for v in violations] == ["stale-fragment"]
        assert violations[0].site == "t"

    def test_valid_but_unregistered_ref(self):
        frag = make_fragment()
        violations = []
        _check_refs("t", [frag], set(), violations)
        assert [v.kind for v in violations] == ["unregistered-fragment"]

    def test_registered_valid_ref_is_fine(self):
        frag = make_fragment()
        violations = []
        _check_refs("t", [frag], {id(frag)}, violations)
        assert violations == []


class TestCollectViolations:
    @pytest.mark.parametrize("mechanism", ("reentry", "ibtc", "sieve"))
    def test_clean_run_has_none(self, mechanism):
        vm = fresh_vm(ib=mechanism)
        assert collect_violations(vm) == []
        assert_coherent(vm)  # must not raise

    def test_planted_ibtc_tombstone_found(self):
        vm = fresh_vm(ib="ibtc")
        table = vm.generic_ib._shared_table
        assert table is not None
        index, (tag, live) = next(iter(table.items()))
        table[index] = (tag, tombstone(live))
        found = collect_violations(vm)
        assert [v.kind for v in found] == ["stale-fragment"]
        assert found[0].site == vm.generic_ib.name

    def test_planted_stale_link_found(self):
        vm = fresh_vm(ib="ibtc")
        frag = vm.cache.fragments()[0]
        frag.links["planted"] = tombstone(make_fragment(0xDEAD))
        found = collect_violations(vm)
        assert [(v.site, v.kind) for v in found] == \
            [("links", "stale-fragment")]
        assert "planted" in found[0].detail

    def test_corrupted_plan_found(self):
        vm = fresh_vm(ib="ibtc", engine="threaded")
        planned = [f for f in vm.cache.fragments() if f.plan is not None]
        assert planned, "threaded run should attach superblock plans"
        apply_plan_perturbation(planned[0].plan, "entry")
        found = collect_violations(vm)
        assert [(v.site, v.kind) for v in found] == [("plan", "bad-plan")]

    def test_every_perturbation_kind_is_detectable(self):
        from repro.faults.inject import PLAN_PERTURBATIONS

        for kind in PLAN_PERTURBATIONS:
            vm = fresh_vm(ib="ibtc", engine="threaded")
            planned = [f for f in vm.cache.fragments()
                       if f.plan is not None]
            apply_plan_perturbation(planned[0].plan, kind)
            assert collect_violations(vm), kind

    def test_assert_coherent_raises_with_details(self):
        vm = fresh_vm(ib="sieve")
        frag = vm.cache.fragments()[0]
        frag.links["bad"] = tombstone(make_fragment())
        with pytest.raises(CoherenceError) as excinfo:
            assert_coherent(vm)
        err = excinfo.value
        assert isinstance(err, AssertionError)
        assert len(err.violations) == 1
        assert "links" in str(err)


class TestInvariantChecker:
    def test_checker_counts_every_flush(self):
        vm = fresh_vm(ib="ibtc", fragment_cache_bytes=1024,
                      faults="storm:7")
        checker = vm.invariant_checker
        assert checker is not None
        assert vm.stats.cache_flushes > 0
        assert checker.flushes_checked == vm.stats.cache_flushes
        assert checker.violations == []
        assert vm.stats.faults["invariant.flushes_checked"] == \
            checker.flushes_checked

    def test_checker_detects_planted_state(self):
        vm = fresh_vm(ib="ibtc")
        checker = InvariantChecker(vm)
        frag = vm.cache.fragments()[0]
        frag.links["bad"] = tombstone(make_fragment())
        checker.on_flush()
        assert checker.flushes_checked == 1
        assert [v.site for v in checker.violations] == ["links"]
        assert vm.stats.faults["invariant.violations"] == 1

    def test_report_shape(self):
        vm = fresh_vm(ib="ibtc")
        checker = InvariantChecker(vm)
        frag = vm.cache.fragments()[0]
        frag.links["bad"] = tombstone(make_fragment())
        checker.on_flush()
        report = checker.report()
        assert report["flushes_checked"] == 1
        assert report["violations"] == [{
            "site": "links",
            "kind": "stale-fragment",
            "detail": checker.violations[0].detail,
        }]
        import json

        json.dumps(report)  # must be JSON-serialisable as-is

    def test_violation_str_is_informative(self):
        violation = CoherenceViolation(
            site="ibtc", kind="stale-fragment", detail="d",
        )
        assert str(violation) == "[ibtc] stale-fragment: d"


def _plant_in_dict(store: dict) -> None:
    key, frag = next(iter(store.items()))
    store[key] = tombstone(frag)


def _plant_in_ibtc(ibtc) -> None:
    table = next(table for table in ibtc._tables() if table)
    index, (tag, frag) = next(iter(table.items()))
    table[index] = (tag, tombstone(frag))


def _plant_in_sieve(sieve) -> None:
    chain = next(chain for chain in sieve._chains.values() if chain)
    target, frag = chain[0]
    chain[0] = (target, tombstone(frag))


def _plant_in_prediction(wrapper) -> None:
    prediction = next(iter(wrapper._predictions.values()))
    prediction.fragment = tombstone(prediction.fragment)


def _plant_in_pages(coherence) -> None:
    _plant_in_dict(next(iter(coherence._page_frags.values())))


def _plant_in_region(tier2) -> None:
    region = next(iter(tier2._regions.values()))
    region.members[-1] = tombstone(region.members[-1])


#: holder kind -> (workload, config, the holder, how to plant a tombstone)
HOLDERS = {
    "ibtc-shared": ("gzip_like", dict(ib="ibtc"),
                    lambda vm: vm.generic_ib, _plant_in_ibtc),
    "ibtc-persite": ("gzip_like", dict(ib="ibtc", ibtc_shared=False),
                     lambda vm: vm.generic_ib, _plant_in_ibtc),
    "sieve": ("gzip_like", dict(ib="sieve"),
              lambda vm: vm.generic_ib, _plant_in_sieve),
    "return-cache": ("gzip_like", dict(returns="retcache"),
                     lambda vm: vm.return_mech,
                     lambda mech: _plant_in_dict(mech._table)),
    "fast-return": ("gzip_like", dict(returns="fast"),
                    lambda vm: vm.return_mech,
                    lambda mech: _plant_in_dict(mech._pad_fragment)),
    "inline-prediction": ("gzip_like", dict(ib="ibtc", inline_predict=True),
                          lambda vm: vm.generic_ib, _plant_in_prediction),
    "static-runtime": ("gcc_like", dict(ib="ibtc", static_targets=True),
                       lambda vm: vm.static_rt,
                       lambda rt: _plant_in_dict(rt._devirt_frags)),
    "coherence-pages": ("dyn_loader", dict(coherence="targeted"),
                        lambda vm: vm.coherence, _plant_in_pages),
    "tier2-region": ("gzip_like", dict(engine="tier2"),
                     lambda vm: vm._tier2, _plant_in_region),
}


@pytest.mark.usefixtures("no_faults")
class TestEveryHolderIsWalked:
    @pytest.mark.parametrize("kind", HOLDERS)
    def test_planted_tombstone_reported_under_holder_name(
        self, kind, monkeypatch
    ):
        # promote after 2 executions so a tiny run forms tier-2 regions
        monkeypatch.setenv("REPRO_TIER2_THRESHOLD", "2")
        workload, config, holder_of, plant = HOLDERS[kind]
        if workload == "dyn_loader":
            program = get_coherence_workload(workload, "tiny").compile()
        else:
            program = get_workload(workload, "tiny").compile()
        vm = SDTVM(program, config=SDTConfig(profile=SIMPLE, **config))
        assert vm.run().exit_code == 0
        holder = holder_of(vm)
        assert holder in vm.cache.holders
        checker = InvariantChecker(vm)
        assert vm.cache.holders[-1] is checker
        plant(holder)
        checker.on_flush()
        assert [(v.site, v.kind) for v in checker.violations] == \
            [(holder.name, "stale-fragment")]
