"""Static-vs-dynamic cross-validation (repro.eval.static_dynamic)."""

from conftest import ALL_IB_KINDS_SOURCE

from repro.analysis.classify import analyze_program
from repro.eval.fanout import (
    FanoutObserver,
    FanoutProfile,
    SiteProfile,
    collect_fanout,
)
from repro.eval.static_dynamic import cross_validate, join_static_dynamic
from repro.isa.assembler import assemble
from repro.lang import compile_to_program
from repro.machine.interpreter import Interpreter


def profile_program(program, fuel=5_000_000):
    observer = FanoutObserver()
    Interpreter(program, observer=observer).run(fuel)
    return FanoutProfile(sites=observer.sites)


class TestJoin:
    def test_all_ib_kinds_is_sound(self):
        program = compile_to_program(ALL_IB_KINDS_SOURCE)
        report = join_static_dynamic(
            analyze_program(program), profile_program(program)
        )
        assert report.all_sound, report.format()
        assert report.sites
        assert report.unknown_dynamic == ()
        for site in report.sites:
            assert site.dynamic_fanout <= site.static_bound
            assert site.slack >= 0

    def test_violation_detected(self):
        # a fabricated dynamic site with targets the static set cannot
        # contain must be flagged as unsound
        program = assemble(
            ".text\nmain:\njal f\nhalt\nf:\njr ra\n"
        )
        analysis = analyze_program(program)
        ret_pc = program.symbol("f")
        fake = FanoutProfile(
            sites={
                ret_pc: SiteProfile(
                    pc=ret_pc,
                    kind="ijump",
                    targets={0xDEAD0000, 0xDEAD0004},
                    dispatches=2,
                )
            }
        )
        report = join_static_dynamic(analysis, fake)
        assert not report.all_sound
        (violation,) = report.violations
        assert violation.pc == ret_pc
        assert violation.missing_targets == (0xDEAD0000, 0xDEAD0004)

    def test_unknown_dynamic_site_is_unsound(self):
        program = assemble(".text\nmain:\nhalt\n")
        analysis = analyze_program(program)
        fake = FanoutProfile(
            sites={
                0x00400100: SiteProfile(
                    pc=0x00400100, kind="ret", targets={4}, dispatches=1
                )
            }
        )
        report = join_static_dynamic(analysis, fake)
        assert not report.all_sound
        assert report.unknown_dynamic == (0x00400100,)

    def test_unexercised_sites_counted(self):
        program = assemble(
            ".text\nmain:\nhalt\nunused:\njr ra\n"
        )
        analysis = analyze_program(program)
        report = join_static_dynamic(analysis, FanoutProfile(sites={}))
        assert report.unexercised == 1
        assert report.all_sound   # nothing exercised, nothing violated


class TestWorkloads:
    def test_workload_cross_validation_sound(self):
        report = cross_validate("eon_like", scale="tiny")
        assert report.all_sound, report.format()
        assert report.sites
        payload = report.to_dict()
        assert payload["all_sound"] is True
        assert payload["violations"] == []
        assert payload["sites"] == len(report.sites)

    def test_dispatch_counts_match_dynamic_profile(self):
        workload_name, scale = "mcf_like", "tiny"
        report = cross_validate(workload_name, scale=scale)
        profile = collect_fanout(workload_name, scale=scale)
        assert report.all_sound, report.format()
        by_pc = {site.pc: site for site in report.sites}
        for pc, dyn in profile.sites.items():
            assert by_pc[pc].dispatches == dyn.dispatches
            assert by_pc[pc].dynamic_fanout == dyn.fanout
