"""Whole-system tracing invariants.

Three properties the observability layer guarantees (docs/observability.md):

1. **Exact attribution** — per-phase cycle totals telescope to the run's
   total cycles, for every workload × mechanism and both engines.
2. **Determinism** — two identical traced runs export byte-identical
   Chrome-trace and metrics JSON (timestamps are simulated cycles, never
   wall clock).
3. **Pure observation** — tracing changes nothing: a traced run's
   architectural results, cycle totals and stats are identical to the
   same run untraced, which is what justifies the ``trace`` field's
   fingerprint exemption.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.runner import DEFAULT_FUEL, verified_run
from repro.host.profile import SIMPLE
from repro.sdt.config import GENERIC_MECHANISMS, RETURN_SCHEMES, SDTConfig
from repro.sdt.vm import SDTVM
from repro.trace.export import chrome_trace_json, metrics_json
from repro.trace.spec import TraceSpec
from repro.workloads import get_workload, workload_names

pytestmark = pytest.mark.usefixtures("no_faults")


def _traced(workload: str, config: SDTConfig, scale: str):
    """One interpreter-verified run with tracing forced on: the VM's
    trace session and the run's result."""
    config = dataclasses.replace(config, trace=TraceSpec())
    _baseline, vm, result = verified_run(get_workload(workload, scale),
                                         config, scale, DEFAULT_FUEL)
    return vm.trace, result


def _attribution_exact(workload: str, config: SDTConfig, scale: str) -> None:
    session, result = _traced(workload, config, scale)
    attributed = session.total_attributed()
    assert attributed == result.total_cycles, (
        f"{workload}/{config.label}: attributed {attributed} != "
        f"total {result.total_cycles} (phases: {session.attribution()})"
    )


class TestExactAttribution:
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("mechanism", GENERIC_MECHANISMS)
    def test_workload_x_mechanism(self, workload, mechanism):
        config = SDTConfig(profile=SIMPLE, ib=mechanism)
        _attribution_exact(workload, config, "small")

    @pytest.mark.parametrize("returns", RETURN_SCHEMES)
    def test_return_schemes(self, returns):
        config = SDTConfig(profile=SIMPLE, ib="ibtc", returns=returns)
        _attribution_exact("perl_like", config, "tiny")

    @pytest.mark.parametrize("engine", ("oracle", "threaded"))
    def test_both_engines(self, engine):
        config = SDTConfig(profile=SIMPLE, ib="sieve", returns="shadow",
                           engine=engine)
        _attribution_exact("gcc_like", config, "tiny")

    def test_with_inline_prediction(self):
        config = SDTConfig(profile=SIMPLE, ib="ibtc", inline_predict=True)
        _attribution_exact("crafty_like", config, "tiny")

    def test_under_fault_injection(self):
        # faults move cycles between phases but the telescoping sum still
        # closes; run.end lands after the final (possibly faulted) cycle
        config = SDTConfig(profile=SIMPLE, ib="ibtc", faults="chaos:99",
                           fragment_cache_bytes=4096)
        _attribution_exact("gap_like", config, "tiny")


class TestDeterminism:
    @pytest.mark.parametrize("mechanism", GENERIC_MECHANISMS)
    def test_traced_exports_byte_identical(self, mechanism):
        config = SDTConfig(profile=SIMPLE, ib=mechanism, returns="fast")
        first, first_result = _traced("vortex_like", config, "tiny")
        second, second_result = _traced("vortex_like", config, "tiny")
        assert chrome_trace_json(first) == chrome_trace_json(second)
        assert metrics_json(first, first_result) == \
            metrics_json(second, second_result)

    def test_cross_engine_event_streams_match(self):
        # the emit sites are all architectural events, so the two engines
        # must produce the same event sequence (timestamps included)
        config = SDTConfig(profile=SIMPLE, ib="ibtc")
        oracle, threaded = (
            _traced("twolf_like", dataclasses.replace(config, engine=engine),
                    "tiny")[0]
            for engine in ("oracle", "threaded")
        )
        # plan.build only exists under the threaded engine; everything
        # else — order, kinds, payloads, cycle stamps — must agree
        strip = lambda session: [  # noqa: E731 - local one-liner
            (cycles, kind, data)
            for _seq, cycles, kind, data in session.events
            if kind != "plan.build"
        ]
        assert strip(oracle) == strip(threaded)
        assert oracle.phase_cycles == threaded.phase_cycles


class TestPureObservation:
    def _run(self, config: SDTConfig):
        workload = get_workload("parser_like", "tiny")
        vm = SDTVM(workload.compile(), config=config)
        return vm.run()

    def test_traced_equals_untraced(self):
        off = self._run(SDTConfig(profile=SIMPLE, ib="sieve",
                                  returns="retcache", trace=None))
        on = self._run(SDTConfig(profile=SIMPLE, ib="sieve",
                                 returns="retcache", trace=TraceSpec()))
        assert on.output == off.output
        assert on.exit_code == off.exit_code
        assert on.retired == off.retired
        assert on.iclass_counts == off.iclass_counts
        assert on.total_cycles == off.total_cycles
        assert on.cycles == off.cycles
        assert on.stats.as_dict() == off.stats.as_dict()

    def test_trace_is_fingerprint_exempt(self):
        base = SDTConfig(profile=SIMPLE, trace=None)
        traced = SDTConfig(profile=SIMPLE, trace=TraceSpec(ring=7))
        assert base.fingerprint() == traced.fingerprint()
        assert base.label == traced.label

    def test_untraced_vm_has_no_session(self):
        workload = get_workload("gzip_like", "tiny")
        vm = SDTVM(workload.compile(),
                   config=SDTConfig(profile=SIMPLE, trace=None))
        assert vm.trace is None
        assert vm.cache.trace is None
        assert vm.translator.trace is None
