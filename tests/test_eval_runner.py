"""Measurement runner: baselines, verification, caching."""

import pytest

from repro.eval.runner import (
    DivergenceError,
    Measurement,
    clear_caches,
    measure,
    run_native,
)
from repro.host.profile import SIMPLE, X86_P4
from repro.sdt.config import SDTConfig
from repro.workloads import get_workload

#: memoisation assertions are written against fault-free measurements
pytestmark = pytest.mark.usefixtures("no_faults")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestNativeBaseline:
    def test_baseline_fields(self):
        base = run_native("gzip_like", SIMPLE, scale="tiny")
        assert base.workload == "gzip_like"
        assert base.retired > 0
        assert base.cycles > base.retired  # loads cost 2+
        assert base.exit_code == 0
        assert base.indirect_branches == base.ijumps + base.icalls + base.rets

    def test_cached_by_profile(self):
        first = run_native("gzip_like", SIMPLE, scale="tiny")
        second = run_native("gzip_like", SIMPLE, scale="tiny")
        assert first is second
        other = run_native("gzip_like", X86_P4, scale="tiny")
        assert other is not first

    def test_accepts_workload_object(self):
        workload = get_workload("mcf_like", "tiny")
        base = run_native(workload, SIMPLE, scale="tiny")
        assert base.workload == "mcf_like"


class TestMeasure:
    def test_measurement_fields(self):
        result = measure("eon_like", SDTConfig(profile=SIMPLE), scale="tiny")
        assert isinstance(result, Measurement)
        assert result.overhead > 1.0
        assert result.sdt_cycles > result.native_cycles
        assert result.breakdown["app"] > 0
        assert "ibtc-shared-4096" in result.hit_rates

    def test_measurement_cached(self):
        config = SDTConfig(profile=SIMPLE)
        first = measure("eon_like", config, scale="tiny")
        second = measure("eon_like", config, scale="tiny")
        assert first is second

    def test_distinct_configs_not_conflated(self):
        small = measure(
            "eon_like",
            SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_entries=16),
            scale="tiny",
        )
        large = measure(
            "eon_like",
            SDTConfig(profile=SIMPLE, ib="ibtc", ibtc_entries=4096),
            scale="tiny",
        )
        assert small is not large

    def test_ib_overhead_cycles_subset_of_total(self):
        result = measure("perl_like", SDTConfig(profile=SIMPLE), scale="tiny")
        assert 0 < result.ib_overhead_cycles < result.sdt_cycles

    def test_divergence_detected(self):
        """A config whose run diverges from the baseline must raise."""
        from repro.eval import runner as runner_module
        from repro.eval.runner import DEFAULT_FUEL

        config = SDTConfig(profile=SIMPLE)
        baseline = run_native("gzip_like", SIMPLE, scale="tiny")
        broken = baseline.__class__(**{
            **baseline.__dict__, "output": baseline.output + "tampered",
        })
        key = ("gzip_like", "tiny", DEFAULT_FUEL, SIMPLE.fingerprint())
        runner_module._NATIVE_CACHE[key] = broken
        with pytest.raises(DivergenceError):
            measure("gzip_like", config, scale="tiny")


class TestFuelKeying:
    """Regression: fuel is part of every cache key.

    Before the fix, `_NATIVE_CACHE`/`_MEASURE_CACHE` keys omitted fuel, so
    a short-fuel run populated the cell and later full-fuel callers were
    silently served its (potentially truncated) cycle counts.
    """

    def test_native_runs_at_different_fuels_are_distinct(self):
        generous = run_native("gzip_like", SIMPLE, scale="tiny")
        tighter = run_native("gzip_like", SIMPLE, scale="tiny",
                             fuel=generous.retired + 1)
        assert tighter is not generous
        # and the original fuel still maps to its own cached entry
        assert run_native("gzip_like", SIMPLE, scale="tiny") is generous

    def test_measurements_at_different_fuels_are_distinct(self):
        config = SDTConfig(profile=SIMPLE)
        full = measure("eon_like", config, scale="tiny")
        short = measure("eon_like", config, scale="tiny",
                        fuel=full.native_cycles * 10)
        assert short is not full
        assert measure("eon_like", config, scale="tiny") is full

    def test_exhausted_fuel_never_caches_a_truncated_run(self):
        from repro.machine.errors import FuelExhausted

        with pytest.raises(FuelExhausted):
            run_native("gzip_like", SIMPLE, scale="tiny", fuel=10)
        # the failed short-fuel attempt must not have poisoned anything
        base = run_native("gzip_like", SIMPLE, scale="tiny")
        assert base.exit_code == 0


class TestOverheadGuard:
    def test_zero_native_cycles_raises_value_error_naming_cell(self):
        broken = Measurement(
            workload="gzip_like", scale="tiny", profile="simple",
            config_label="ibtc(shared,4096)", native_cycles=0,
            sdt_cycles=123, breakdown={}, stats={}, hit_rates={},
        )
        with pytest.raises(ValueError, match=r"gzip_like/tiny/simple"):
            broken.overhead

    def test_positive_native_cycles_still_divide(self):
        healthy = Measurement(
            workload="gzip_like", scale="tiny", profile="simple",
            config_label="x", native_cycles=100,
            sdt_cycles=250, breakdown={}, stats={}, hit_rates={},
        )
        assert healthy.overhead == 2.5
