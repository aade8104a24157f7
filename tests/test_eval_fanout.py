"""Per-site IB target fan-out profiling."""

import pytest

from repro.eval.cells import encode_result
from repro.eval.fanout import (
    FanoutObserver,
    FanoutProfile,
    SiteProfile,
    collect_fanout,
)
from repro.lang import compile_to_program
from repro.machine.engine import ENGINES
from repro.machine.interpreter import Interpreter
from repro.workloads import (
    COHERENCE_WORKLOADS,
    get_coherence_workload,
    get_workload,
    workload_names,
)
from repro.workloads.base import Workload


def profile_source(source: str) -> FanoutProfile:
    observer = FanoutObserver()
    Interpreter(compile_to_program(source), observer=observer).run()
    return FanoutProfile(sites=observer.sites)


MIXED = """
int a(int x) { return x + 1; }
int b(int x) { return x * 2; }
int c(int x) { return x - 3; }
int tab[] = { &a, &b, &c };
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 30; i++) {
        int f = tab[i % 3];   /* one site, 3 targets */
        total += f(i);
    }
    print_int(total);
    return 0;
}
"""


class TestSiteProfile:
    def test_fanout_counts_distinct_targets(self):
        site = SiteProfile(pc=0x100, kind="ijump")
        site.targets.update({1, 2, 2, 3})
        assert site.fanout == 3


class TestCollection:
    def test_polymorphic_call_site(self):
        profile = profile_source(MIXED)
        icall_sites = [
            s for s in profile.sites.values() if s.kind == "icall"
        ]
        assert len(icall_sites) == 1
        assert icall_sites[0].fanout == 3
        assert icall_sites[0].dispatches == 30

    def test_return_sites_recorded(self):
        profile = profile_source(MIXED)
        ret_sites = [s for s in profile.sites.values() if s.kind == "ret"]
        # a, b, c and main each return (main returns to _start)
        assert len(ret_sites) == 4

    def test_total_dispatches(self):
        profile = profile_source(MIXED)
        # 30 icalls + 30 callee rets + main's ret
        assert profile.total_dispatches == 61

    def test_ranges_partition_sites(self):
        profile = profile_source(MIXED)
        total = (
            profile.sites_with_fanout(1, 1)
            + profile.sites_with_fanout(2, 4)
            + profile.sites_with_fanout(5, 16)
            + profile.sites_with_fanout(17)
        )
        assert total == len(profile.sites)

    def test_dispatch_share_sums_to_one(self):
        profile = profile_source(MIXED)
        share = (
            profile.dispatch_share(1, 1)
            + profile.dispatch_share(2, 4)
            + profile.dispatch_share(5, 16)
            + profile.dispatch_share(17)
        )
        assert share == pytest.approx(1.0)

    def test_weighted_mean_between_min_and_max(self):
        profile = profile_source(MIXED)
        fanouts = [s.fanout for s in profile.sites.values()]
        assert min(fanouts) <= profile.weighted_mean_fanout <= max(fanouts)

    def test_empty_profile(self):
        profile = FanoutProfile(sites={})
        assert profile.total_dispatches == 0
        assert profile.max_fanout == 0
        assert profile.dispatch_share(1) == 0.0
        assert profile.weighted_mean_fanout == 0.0


class TestWorkloadIntegration:
    def test_collect_by_name(self):
        profile = collect_fanout("perl_like", scale="tiny")
        # the interpreter's dispatch site must be megamorphic
        assert profile.max_fanout >= 10

    def test_collect_by_object(self):
        from repro.workloads import get_workload

        workload = get_workload("gzip_like", "tiny")
        assert isinstance(workload, Workload)
        profile = collect_fanout(workload, scale="tiny")
        assert profile.total_dispatches > 0


#: the 12 guests at ``tiny`` and the self-modifying scenarios at ``large``
PARITY_GUESTS = (
    [(name, "tiny") for name in workload_names()]
    + [(name, "large") for name in COHERENCE_WORKLOADS]
)


@pytest.mark.parametrize("name,scale", PARITY_GUESTS,
                         ids=[f"{n}-{s}" for n, s in PARITY_GUESTS])
def test_profile_identical_across_engines(name, scale):
    """The block engines profile fan-out at their terminators and get
    exactly the oracle loop's profile."""
    if name in COHERENCE_WORKLOADS:
        program = get_coherence_workload(name, scale).compile()
    else:
        program = get_workload(name, scale).compile()
    runs = {}
    for engine in ENGINES:
        observer = FanoutObserver()
        interp = Interpreter(program, observer=observer, engine=engine)
        result = interp.run(30_000_000)
        if engine != "oracle":
            assert interp._blocks, engine  # ran superblocks
        profile = FanoutProfile(sites=observer.sites)
        runs[engine] = (encode_result(profile), result.output,
                        result.retired)
    assert runs["oracle"][0]["data"]["sites"]
    for engine in ENGINES[1:]:
        assert runs[engine] == runs["oracle"], engine
