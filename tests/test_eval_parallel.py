"""Parallel executor: dedup, determinism, cache integration."""

import pytest

import repro.eval.experiments as experiments
from repro.eval.cells import measure_cell
from repro.eval.diskcache import DiskCache
from repro.eval.parallel import (
    ExecutionReport,
    dedup_cells,
    execute_cells,
    plan_cells,
    run_experiments,
)
from repro.eval.runner import clear_caches
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig

#: disk/memo-cache assertions run on clean-spec cells, whatever REPRO_FAULTS says
pytestmark = pytest.mark.usefixtures("no_faults")

#: three-workload suite: enough to exercise the E6 grid, cheap enough for CI
SUBSET = ["eon_like", "gzip_like", "mcf_like"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def small_suite(monkeypatch):
    monkeypatch.setattr(experiments, "_suite_names", lambda: list(SUBSET))


class TestDedup:
    def test_duplicate_cells_collapse(self):
        config = SDTConfig(profile=SIMPLE)
        cells = [
            measure_cell("gzip_like", "tiny", config),
            measure_cell("gzip_like", "tiny", SDTConfig(profile=SIMPLE)),
            measure_cell("mcf_like", "tiny", config),
        ]
        assert len(dedup_cells(cells)) == 2

    def test_e9_rides_entirely_on_e3(self):
        """E9 re-reads the E3 grid: together they dispatch E3's cells only."""
        per_experiment, unique = plan_cells(["e3", "e9"], "tiny")
        assert len(per_experiment["e3"]) == len(per_experiment["e9"])
        assert len(unique) == len(dedup_cells(per_experiment["e3"]))

    def test_e6_e7_share_their_common_column(self):
        """E6's ibtc/ibtc+fastret cells are E7's ret=same/ret=fast cells."""
        per_experiment, unique = plan_cells(["e6", "e7"], "tiny")
        total = sum(len(cells) for cells in per_experiment.values())
        n_workloads = len(experiments._suite_names())
        assert total - len(unique) == 2 * n_workloads

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="e99"):
            plan_cells(["e99"], "tiny")


class TestExecute:
    def test_results_cover_every_requested_cell(self):
        cells = [
            measure_cell("gzip_like", "tiny", SDTConfig(profile=SIMPLE)),
            measure_cell("gzip_like", "tiny",
                         SDTConfig(profile=SIMPLE, ib="sieve")),
        ]
        results, report = execute_cells(cells)
        assert set(results) == {cell.key() for cell in cells}
        assert report.requested == report.unique == report.computed == 2
        assert report.cache_hits == 0

    def test_progress_events_fire_per_unique_cell(self):
        events = []
        cells = [
            measure_cell("gzip_like", "tiny", SDTConfig(profile=SIMPLE)),
            measure_cell("gzip_like", "tiny", SDTConfig(profile=SIMPLE)),
        ]
        execute_cells(cells, progress=events.append)
        assert len(events) == 1
        assert events[0].source == "run"
        assert events[0].index == events[0].total == 1

    def test_second_pass_served_from_disk_cache(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cells = [measure_cell("gzip_like", "tiny", SDTConfig(profile=SIMPLE))]
        _results, first = execute_cells(cells, cache=cache)
        assert first.computed == 1
        clear_caches()
        results, second = execute_cells(cells, cache=cache)
        assert second.cache_hits == 1 and second.computed == 0
        assert second.hit_rate == 1.0
        assert results[cells[0].key()].overhead > 1.0


class TestEmptyPlanRegression:
    """Ratio properties must survive empty cell plans."""

    def test_execute_cells_empty_plan(self):
        results, report = execute_cells([])
        assert results == {}
        assert report.hit_rate == 0.0     # no ZeroDivisionError
        assert report.ok
        assert (report.requested, report.unique) == (0, 0)

    def test_empty_report_defaults(self):
        report = ExecutionReport()
        assert report.hit_rate == 0.0
        assert report.ok


class TestParallelSerialEquivalence:
    def test_e6_csv_bytes_identical_serial_vs_parallel(
        self, small_suite, tmp_path
    ):
        """The acceptance check: worker count must not change one byte."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_experiments(["e6"], scale="tiny", jobs=1,
                        results_dir=serial_dir)
        clear_caches()
        _tables, report = run_experiments(["e6"], scale="tiny", jobs=2,
                                          results_dir=parallel_dir)
        assert report.computed == report.unique  # nothing cached, all ran
        name = "e6_mechanism_comparison.csv"
        assert (serial_dir / name).read_bytes() == \
            (parallel_dir / name).read_bytes()

    def test_parallel_rerun_hits_cache_and_matches(
        self, small_suite, tmp_path
    ):
        cache = DiskCache(tmp_path / "cache")
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        _tables, first = run_experiments(["e6"], scale="tiny", jobs=2,
                                         cache=cache, results_dir=first_dir)
        clear_caches()
        _tables, second = run_experiments(["e6"], scale="tiny", jobs=2,
                                          cache=cache, results_dir=second_dir)
        assert second.hit_rate >= 0.9
        name = "e6_mechanism_comparison.csv"
        assert (first_dir / name).read_bytes() == \
            (second_dir / name).read_bytes()
