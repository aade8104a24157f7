"""Hardened executor: retry, quarantine, crash/timeout recovery, degraded
experiment reports, and the CLI's non-zero exit on partial results.

The fake cells below are module-level so worker processes can unpickle
them; ``crash`` kills the worker with ``os._exit`` (a real segfault
stand-in that ``ProcessPoolExecutor`` surfaces as ``BrokenProcessPool``)
and ``sleep`` simulates a hang for the watchdog to kill.
"""

import os
import time

import pytest

from repro.eval.experiments import ExperimentSpec
from repro.eval.parallel import (
    CellFailure,
    MissingCellResult,
    _stable_error,
    execute_cells,
    run_experiments,
)

pytestmark = pytest.mark.usefixtures("no_faults")


class FakeCell:
    """Picklable stand-in for a measurement cell."""

    cacheable = True

    def __init__(self, name, mode="ok", secs=0.0):
        self.name = name
        self.mode = mode
        self.secs = secs

    @property
    def label(self):
        return f"fake:{self.name}"

    def key(self):
        return f"key-{self.name}"

    def execute(self):
        if self.secs:
            time.sleep(self.secs)
        if self.mode == "error":
            raise ValueError(f"boom {self.name}")
        if self.mode == "crash":
            os._exit(17)
        return f"result-{self.name}"


class UncacheableCell(FakeCell):
    cacheable = False


class FakeCache:
    """Duck-typed DiskCache recording every get/put."""

    def __init__(self):
        self.store = {}
        self.gets = []
        self.puts = []

    def get(self, cell):
        self.gets.append(cell.key())
        return self.store.get(cell.key())

    def put(self, cell, result):
        self.puts.append(cell.key())
        self.store[cell.key()] = result


class TestSerialExecution:
    def test_all_ok(self):
        cells = [FakeCell("a"), FakeCell("b"), FakeCell("a")]
        results, report = execute_cells(cells)
        assert results == {"key-a": "result-a", "key-b": "result-b"}
        assert (report.requested, report.unique) == (3, 2)
        assert report.ok and report.failures == {}

    def test_error_cell_retried_then_quarantined(self):
        cells = [FakeCell("ok"), FakeCell("bad", mode="error")]
        results, report = execute_cells(cells, retries=2, backoff=0.0)
        assert results == {"key-ok": "result-ok"}     # innocents complete
        assert report.retries == 2
        failure = report.failures["key-bad"]
        assert failure == CellFailure(
            key="key-bad", label="fake:bad", kind="error",
            attempts=3, error="ValueError: boom bad",
        )
        assert not report.ok

    def test_zero_retries_means_one_attempt(self):
        _, report = execute_cells([FakeCell("bad", mode="error")],
                                  retries=0, backoff=0.0)
        assert report.failures["key-bad"].attempts == 1
        assert report.retries == 0

    def test_failures_in_declared_cell_order(self):
        cells = [FakeCell("ok"), FakeCell("c", mode="error"),
                 FakeCell("a", mode="error"), FakeCell("b", mode="error")]
        _, report = execute_cells(cells, retries=0, backoff=0.0)
        assert list(report.failures) == ["key-c", "key-a", "key-b"]

    def test_failed_cells_emit_progress_events(self):
        events = []
        cells = [FakeCell("ok"), FakeCell("bad", mode="error")]
        execute_cells(cells, progress=events.append,
                      retries=0, backoff=0.0)
        assert len(events) == 2
        by_label = {event.label: event.source for event in events}
        assert by_label == {"fake:ok": "run", "fake:bad": "failed"}
        assert {event.index for event in events} == {1, 2}


class TestPooledExecution:
    def test_parallel_ok(self):
        cells = [FakeCell(str(i)) for i in range(5)]
        results, report = execute_cells(cells, jobs=2)
        assert len(results) == 5
        assert report.ok

    def test_crashed_worker_recovered_and_quarantined(self):
        # the crasher sleeps before dying so the instant innocents are
        # always harvested first (a crash round blames every cell still
        # in flight, so a racing innocent could otherwise be charged)
        cells = [FakeCell("a"), FakeCell("b"),
                 FakeCell("die", mode="crash", secs=0.5)]
        results, report = execute_cells(cells, jobs=2,
                                        retries=1, backoff=0.01)
        # innocents survive the broken pool; the crasher is quarantined
        assert results["key-a"] == "result-a"
        assert results["key-b"] == "result-b"
        failure = report.failures["key-die"]
        assert failure.kind == "crash"
        assert failure.attempts == 2

    def test_hung_cell_killed_by_watchdog(self):
        cells = [FakeCell("fast"), FakeCell("hang", secs=60.0)]
        start = time.monotonic()
        results, report = execute_cells(cells, jobs=2, timeout=2.0,
                                        retries=0, backoff=0.0)
        wall = time.monotonic() - start
        assert wall < 30.0, f"watchdog did not bound wall time ({wall:.1f}s)"
        assert results == {"key-fast": "result-fast"}
        failure = report.failures["key-hang"]
        assert failure.kind == "timeout"
        assert "2s" in failure.error

    def test_timeout_forces_pool_even_for_one_job(self):
        # a hung cell can only be killed from outside its process, so
        # jobs=1 with a timeout must still run in a worker
        results, report = execute_cells(
            [FakeCell("hang", secs=60.0)], jobs=1, timeout=1.0,
            retries=0, backoff=0.0,
        )
        assert results == {}
        assert report.failures["key-hang"].kind == "timeout"


class TestCaching:
    def test_cache_hit_skips_execution(self):
        cache = FakeCache()
        cache.store["key-a"] = "cached-a"
        results, report = execute_cells([FakeCell("a")], cache=cache)
        assert results == {"key-a": "cached-a"}
        assert (report.cache_hits, report.computed) == (1, 0)

    def test_miss_populates_cache(self):
        cache = FakeCache()
        execute_cells([FakeCell("a")], cache=cache)
        assert cache.store["key-a"] == "result-a"

    def test_uncacheable_cell_bypasses_cache_both_ways(self):
        cache = FakeCache()
        cache.store["key-u"] = "stale-should-not-be-served"
        results, report = execute_cells([UncacheableCell("u")], cache=cache)
        assert results == {"key-u": "result-u"}
        assert cache.gets == [] and cache.puts == []
        assert report.cache_hits == 0 and report.computed == 1


def fake_spec(name, cells):
    return ExperimentSpec(
        name=name,
        slug=f"{name}_fake",
        title=lambda scale: f"fake {name} [{scale}]",
        cells=lambda scale: list(cells),
        build=lambda lookup, scale: (
            ["cell", "value"],
            [[cell.label, lookup(cell)] for cell in cells],
        ),
    )


@pytest.fixture
def fake_registry(monkeypatch):
    import repro.eval.experiments as experiments

    registry = {}
    monkeypatch.setattr(experiments, "EXPERIMENT_SPECS", registry)
    return registry


class TestDegradedExperiments:
    def test_failed_cells_degrade_only_their_experiments(
            self, fake_registry, tmp_path):
        fake_registry["zzgood"] = fake_spec("zzgood", [FakeCell("g")])
        fake_registry["zzbad"] = fake_spec(
            "zzbad", [FakeCell("g"), FakeCell("bad", mode="error")])
        tables, report = run_experiments(
            ["zzgood", "zzbad"], scale="tiny", results_dir=tmp_path,
            retries=0, backoff=0.0,
        )
        assert tables["zzgood"] == (["cell", "value"],
                                    [["fake:g", "result-g"]])
        headers, rows = tables["zzbad"]
        assert headers == ["experiment", "status"]
        assert rows == [
            ["zzbad", "DEGRADED: 1 cell(s) failed"],
            ["zzbad", "failed: fake:bad"],
        ]
        assert report.degraded == {"zzbad": ["fake:bad"]}
        # the healthy experiment is persisted; the degraded one is not
        assert (tmp_path / "zzgood_fake.txt").exists()
        assert not (tmp_path / "zzbad_fake.txt").exists()

    def test_degraded_experiment_never_overwrites_good_results(
            self, fake_registry, tmp_path):
        fake_registry["zz"] = fake_spec(
            "zz", [FakeCell("bad", mode="error")])
        stale = tmp_path / "zz_fake.txt"
        stale.write_text("previous good table\n")
        run_experiments(["zz"], scale="tiny", results_dir=tmp_path,
                        retries=0, backoff=0.0)
        assert stale.read_text() == "previous good table\n"

    def test_missing_cell_result_is_a_keyerror(self):
        assert issubclass(MissingCellResult, KeyError)


class TestStableErrors:
    def test_first_line_only(self):
        error = ValueError("first\nsecond line with 0x7fe5ba187e50")
        assert _stable_error(error) == "ValueError: first"

    def test_empty_message(self):
        assert _stable_error(ValueError()) == "ValueError"


class TestCLIExitCode:
    def test_experiments_exit_nonzero_with_failure_summary(
            self, fake_registry, tmp_path, capsys, monkeypatch):
        import repro.eval.report as report_mod

        monkeypatch.setattr(report_mod, "RESULTS_DIR", tmp_path)
        fake_registry["zz"] = fake_spec(
            "zz", [FakeCell("g"), FakeCell("bad", mode="error")])
        from repro.cli import main

        code = main(["experiments", "--only", "zz", "--scale", "tiny",
                     "--no-cache", "--retries", "1", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED: 1 cell(s) quarantined after 1 retry(ies):" in err
        assert "[error  ] fake:bad  (attempts=2) ValueError: boom bad" in err
        assert "degraded experiment zz: 1 cell(s) missing" in err

    def test_experiments_progress_names_failed_cells(
            self, fake_registry, tmp_path, capsys, monkeypatch):
        import repro.eval.report as report_mod

        monkeypatch.setattr(report_mod, "RESULTS_DIR", tmp_path)
        fake_registry["zz"] = fake_spec(
            "zz", [FakeCell("g"), FakeCell("bad", mode="error")])
        from repro.cli import main

        code = main(["experiments", "--only", "zz", "--scale", "tiny",
                     "--no-cache", "--retries", "0"])
        assert code == 1
        progress = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("[")]
        assert len(progress) == 2
        assert progress[0].startswith("[  1/2] fake:g")
        assert progress[0].endswith("s")
        assert progress[1].startswith("[  2/2] fake:bad")
        assert progress[1].endswith(" failed")

    def test_experiments_exit_zero_when_clean(
            self, fake_registry, tmp_path, capsys, monkeypatch):
        import repro.eval.report as report_mod

        monkeypatch.setattr(report_mod, "RESULTS_DIR", tmp_path)
        fake_registry["zz"] = fake_spec("zz", [FakeCell("g")])
        from repro.cli import main

        code = main(["experiments", "--only", "zz", "--scale", "tiny",
                     "--no-cache", "--quiet"])
        assert code == 0
        assert (tmp_path / "zz_fake.txt").exists()

    def test_unknown_experiment_rejected(self, capsys):
        from repro.cli import main

        code = main(["experiments", "--only", "nope", "--no-cache"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err
