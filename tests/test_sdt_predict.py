"""Inline target prediction (one-entry inline cache) and microbenchmarks."""

import pytest

from conftest import ALL_IB_KINDS_SOURCE, assert_equivalent, run_minic_sdt
from repro.host.costs import Category
from repro.host.profile import SIMPLE
from repro.machine.interpreter import Interpreter
from repro.sdt.config import SDTConfig
from repro.sdt.ib.predict import InlinePrediction
from repro.sdt.ib.reentry import TranslatorReentry
from repro.workloads.microbench import dispatch_microbench

from test_sdt_ibtc import dispatch_source


def run_predict(source: str, **kwargs):
    config = SDTConfig(profile=SIMPLE, ib="ibtc", inline_predict=True,
                       **kwargs)
    return run_minic_sdt(source, config)


class TestEquivalence:
    @pytest.mark.parametrize("ib", ["reentry", "ibtc", "sieve"])
    def test_all_inner_mechanisms(self, ib):
        config = SDTConfig(profile=SIMPLE, ib=ib, inline_predict=True)
        assert_equivalent(ALL_IB_KINDS_SOURCE, config)

    def test_with_fast_returns(self):
        config = SDTConfig(profile=SIMPLE, inline_predict=True,
                           returns="fast")
        assert_equivalent(ALL_IB_KINDS_SOURCE, config)

    def test_with_tiny_fragment_cache(self):
        config = SDTConfig(profile=SIMPLE, inline_predict=True,
                           fragment_cache_bytes=512)
        result = assert_equivalent(ALL_IB_KINDS_SOURCE, config)
        assert result.stats.cache_flushes > 0


class TestDynamics:
    def test_monomorphic_site_hits_inline(self):
        result = run_predict(dispatch_source(1, iterations=150))
        name = "predict+ibtc-shared-4096"
        hits = result.stats.mechanism[f"{name}.hit"]
        misses = result.stats.mechanism[f"{name}.miss"]
        assert hits / (hits + misses) > 0.95
        # the inner IBTC only sees the misses
        inner_traffic = (
            result.stats.mechanism["ibtc-shared-4096.hit"]
            + result.stats.mechanism["ibtc-shared-4096.miss"]
        )
        assert inner_traffic == misses

    def test_alternating_site_always_misses_inline(self):
        result = run_predict(dispatch_source(2, iterations=100))
        name = "predict+ibtc-shared-4096"
        # the icall site alternates every iteration: its predictions
        # never hit; only the monomorphic return sites do
        assert result.stats.mechanism[f"{name}.miss"] >= 100

    def test_prediction_cost_charged(self):
        result = run_predict(dispatch_source(1, iterations=50))
        assert result.cycles[Category.IBTC.value] > 0

    def test_label(self):
        config = SDTConfig(ib="sieve", inline_predict=True)
        assert config.label == "sieve(512)+predict"

    def test_wrapper_name(self):
        wrapper = InlinePrediction(TranslatorReentry())
        assert wrapper.name == "predict+reentry"


class TestMicrobench:
    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            dispatch_microbench(0)

    def test_uniform_fanout_observable(self):
        from repro.eval.fanout import collect_fanout

        workload = dispatch_microbench(4, iterations=64)
        profile = collect_fanout(workload, scale="tiny")
        icall_sites = [
            s for s in profile.sites.values() if s.kind == "icall"
        ]
        assert len(icall_sites) == 1
        assert icall_sites[0].fanout == 4

    def test_skewed_distribution(self):
        from repro.eval.fanout import collect_fanout

        workload = dispatch_microbench(4, iterations=256, skewed=True)
        profile = collect_fanout(workload, scale="tiny")
        site = next(
            s for s in profile.sites.values() if s.kind == "icall"
        )
        assert site.fanout == 4
        assert site.dispatches == 256

    def test_deterministic_output(self):
        workload = dispatch_microbench(3, iterations=40)
        first = Interpreter(workload.compile()).run()
        second = Interpreter(workload.compile()).run()
        assert first.output == second.output
