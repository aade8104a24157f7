"""Experiment drivers: structure and the paper's qualitative shapes.

These run at tiny scale; the assertions are the *reproduction criteria*
from EXPERIMENTS.md — orderings and crossovers, never absolute numbers.
"""

import pytest

from repro.eval.experiments import EXPERIMENT_SPECS
from repro.eval.parallel import run_experiment
from repro.workloads import workload_names

SCALE = "tiny"


@pytest.fixture(scope="module", autouse=True)
def _module_no_faults():
    """Paper-shape assertions (orderings, hit rates) are clean-spec."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_FAULTS", raising=False)
        yield


@pytest.fixture(scope="module", autouse=True)
def _isolated_results(tmp_path_factory):
    """Keep test artefacts out of the benchmark-owned results/ dir."""
    import repro.eval.report as report

    original = report.RESULTS_DIR
    report.RESULTS_DIR = tmp_path_factory.mktemp("results")
    yield
    report.RESULTS_DIR = original


def column(rows, index):
    return [row[index] for row in rows]


@pytest.fixture(scope="module")
def e1():
    return run_experiment("e1", SCALE)


@pytest.fixture(scope="module")
def e2():
    return run_experiment("e2", SCALE)


@pytest.fixture(scope="module")
def e3():
    return run_experiment("e3", SCALE)


@pytest.fixture(scope="module")
def e6():
    return run_experiment("e6", SCALE)


@pytest.fixture(scope="module")
def e7():
    return run_experiment("e7", SCALE)


@pytest.fixture(scope="module")
def e9():
    return run_experiment("e9", SCALE)


@pytest.fixture(scope="module")
def e14():
    return run_experiment("e14", SCALE)


@pytest.fixture(scope="module")
def e15():
    return run_experiment("e15", SCALE)


class TestE1:
    def test_one_row_per_workload(self, e1):
        headers, rows = e1
        assert column(rows, 0) == workload_names()

    def test_ib_total_consistent(self, e1):
        headers, rows = e1
        for row in rows:
            assert row[5] == row[2] + row[3] + row[4]

    def test_rates_span_suite(self, e1):
        headers, rows = e1
        rates = column(rows, 6)
        assert max(rates) / min(rates) > 4


class TestE2:
    def test_baseline_overhead_substantial(self, e2):
        headers, rows = e2
        geomean_row = rows[-1]
        assert geomean_row[0] == "geomean"
        assert geomean_row[1] > 1.5  # unoptimised SDT is clearly slow

    def test_nolink_strictly_worse(self, e2):
        headers, rows = e2
        for row in rows:
            assert row[2] > row[1]

    def test_low_ib_benchmarks_have_low_overhead(self, e2, e1):
        _, e2_rows = e2
        _, e1_rows = e1
        overhead = {row[0]: row[1] for row in e2_rows[:-1]}
        instrs_per_ib = {row[0]: row[6] for row in e1_rows}
        # the benchmark with the fewest IBs must not have the highest
        # overhead; the one with the most must not have the lowest
        rarest = max(instrs_per_ib, key=instrs_per_ib.get)
        densest = min(instrs_per_ib, key=instrs_per_ib.get)
        assert overhead[rarest] < max(overhead.values())
        assert overhead[densest] > min(overhead.values())


class TestE3:
    def test_monotone_improvement_with_size_geomean(self, e3):
        headers, rows = e3
        geo = rows[-1][1:]
        # non-strict: once past the knee the curve flattens
        assert all(later <= earlier + 0.01
                   for earlier, later in zip(geo, geo[1:]))

    def test_diminishing_returns(self, e3):
        headers, rows = e3
        geo = rows[-1][1:]
        first_gain = geo[0] - geo[1]
        last_gain = geo[-2] - geo[-1]
        assert first_gain >= last_gain


class TestE6:
    def test_tuned_mechanisms_beat_baseline_everywhere(self, e6):
        headers, rows = e6
        reentry = headers.index("reentry")
        for row in rows:
            for col in range(1, len(headers)):
                if col != reentry:
                    assert row[col] < row[reentry], row

    def test_fast_returns_best_geomean(self, e6):
        headers, rows = e6
        geo = rows[-1]
        fast = geo[headers.index("ibtc+fastret")]
        assert fast == min(geo[1:])


class TestE7:
    def test_fast_returns_win_geomean(self, e7):
        headers, rows = e7
        geo = rows[-1]
        assert geo[headers.index("ret=fast")] == min(geo[1:])

    def test_shadow_no_worse_than_generic(self, e7):
        headers, rows = e7
        geo = rows[-1]
        assert geo[headers.index("ret=shadow")] <= \
            geo[headers.index("ret=same")] + 0.01


class TestE9:
    def test_hit_rate_monotone_in_size(self, e9):
        headers, rows = e9
        for row in rows:
            rates = row[1:]
            assert all(later >= earlier - 0.02
                       for earlier, later in zip(rates, rates[1:])), row

    def test_large_tables_hit_well(self, e9):
        headers, rows = e9
        for row in rows:
            assert row[-1] > 0.8, row


class TestE14:
    def test_static_targets_are_precise(self, e14):
        # an escaped dispatch would drag a workload's precision below 1.0
        headers, rows = e14
        precision = headers.index("precision")
        assert all(row[precision] == 1.0 for row in rows[:-1])

    def test_switch_and_vtable_guests_save_ib_cycles(self, e14):
        headers, rows = e14
        ib_delta = headers.index("Δib(ibtc)")
        by_name = {row[0]: row for row in rows}
        for name in ("gcc_like", "perl_like", "vpr_like", "crafty_like"):
            assert by_name[name][ib_delta] > 0, name


class TestE15:
    def test_flush_costs_most_targeted_least(self, e15):
        headers, rows = e15
        ibtc, writes = headers.index("ibtc"), headers.index("writes")
        by_key = {tuple(row[:3]): row for row in rows}
        for scenario in {row[0] for row in rows}:
            flush, page, targeted = (by_key[(scenario, "8M", policy)]
                                     for policy in ("flush", "page",
                                                    "targeted"))
            assert flush[ibtc] > page[ibtc] >= targeted[ibtc], scenario
            assert flush[writes] > 0, scenario

    def test_page_granularity_overpays_on_smc_loop(self, e15):
        # smc_loop shares a page between the patch site and an untouched
        # helper, so page-granular invalidation discards more than needed
        headers, rows = e15
        ibtc = headers.index("ibtc")
        by_key = {tuple(row[:3]): row for row in rows}
        assert by_key[("smc_loop", "8M", "page")][ibtc] > \
            by_key[("smc_loop", "8M", "targeted")][ibtc]


def test_registry_complete():
    assert set(EXPERIMENT_SPECS) == {f"e{i}" for i in range(1, 16)}
