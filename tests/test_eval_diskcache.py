"""Disk cache: round-trips, hit/miss accounting, corruption tolerance,
the in-memory LRU tier, and multi-process contention."""

import json
import multiprocessing

import pytest

from repro.eval import cells as cells_module
from repro.eval.cells import (
    decode_result,
    encode_result,
    fanout_cell,
    measure_cell,
    native_cell,
)
from repro.eval.diskcache import DiskCache
from repro.eval.parallel import execute_cells
from repro.eval.runner import clear_caches
from repro.faults import FaultPlan
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache")


def _measure_cell():
    return measure_cell(
        "gzip_like", "tiny", SDTConfig(profile=SIMPLE, ib="ibtc")
    )


class TestRoundTrip:
    @pytest.mark.parametrize("make_cell", [
        _measure_cell,
        lambda: native_cell("gzip_like", "tiny", SIMPLE),
        lambda: fanout_cell("gzip_like", "tiny"),
    ])
    def test_put_get_round_trip(self, cache, make_cell):
        cell = make_cell()
        result = cell.execute()
        assert cache.get(cell) is None          # cold cache: miss
        cache.put(cell, result)
        restored = cache.get(cell)
        assert restored is not None
        assert encode_result(restored) == encode_result(result)
        assert cache.hits == 1 and cache.misses == 1

    def test_codec_rejects_unknown_payloads(self):
        with pytest.raises(TypeError):
            encode_result(object())
        with pytest.raises(ValueError):
            decode_result({"type": "mystery", "data": {}})

    def test_measurement_values_survive_json(self, cache):
        cell = _measure_cell()
        result = cell.execute()
        cache.put(cell, result)
        restored = cache.get(cell)
        assert restored.overhead == result.overhead
        assert restored.breakdown == result.breakdown
        assert restored.hit_rates == result.hit_rates


class TestCorruptionTolerance:
    def test_truncated_entry_is_discarded_and_recomputed(self, cache):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        path = cache.path_for(cell)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(cell) is None
        assert not path.exists()                # bad entry deleted
        # recompute and repopulate as the executor would
        cache.put(cell, cell.execute())
        assert cache.get(cell) is not None

    def test_zero_byte_entry_is_a_miss_and_deleted(self, cache):
        """A crash between create and write leaves an empty file."""
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        path = cache.path_for(cell)
        path.write_bytes(b"")
        assert cache.get(cell) is None
        assert not path.exists()
        assert cache.misses == 1

    def test_binary_garbage_is_a_miss_and_deleted(self, cache):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        path = cache.path_for(cell)
        path.write_bytes(b"\xff\xfe\x00garbage\x80")   # not even UTF-8
        assert cache.get(cell) is None
        assert not path.exists()

    def test_stale_tmp_leftovers_do_not_break_lookups(self, cache):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        path = cache.path_for(cell)
        (path.parent / ".tmp-leftover.json").write_text("partial")
        assert cache.get(cell) is not None      # real entry still served

    def test_garbage_json_is_discarded(self, cache):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        cache.path_for(cell).write_text("{}")
        assert cache.get(cell) is None

    def test_fingerprint_mismatch_is_never_trusted(self, cache):
        """An entry whose stored fingerprint disagrees is stale — drop it."""
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        path = cache.path_for(cell)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "something-else"
        path.write_text(json.dumps(payload))
        assert cache.get(cell) is None
        assert not path.exists()

    def test_no_temp_droppings_after_put(self, cache):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        leftovers = [
            p for p in cache.root.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert len(cache) == 1


class TestInvalidation:
    def test_code_salt_invalidates_old_entries(self, cache, monkeypatch):
        cell = _measure_cell()
        cache.put(cell, cell.execute())
        monkeypatch.setattr(cells_module, "CODE_SALT", "repro/0.0.0-test")
        # a cell's address is fixed when first computed, so the new salt
        # reaches the cells planned after it: those miss
        assert cache.get(_measure_cell()) is None

    def test_fuel_is_part_of_the_key(self, cache):
        cell = _measure_cell()
        other = measure_cell(
            "gzip_like", "tiny", SDTConfig(profile=SIMPLE, ib="ibtc"),
            fuel=cell.fuel - 1,
        )
        assert cell.key() != other.key()
        cache.put(cell, cell.execute())
        assert cache.get(other) is None

    def test_fault_plan_is_part_of_the_key(self):
        def cell(faults):
            return measure_cell("gzip_like", "tiny", SDTConfig(
                profile=SIMPLE, ib="ibtc", faults=faults))

        assert cell("chaos:1234").key() != cell(None).key()
        assert cell("chaos:1234").key() != cell("chaos:99").key()
        assert cell(FaultPlan()).key() == cell(None).key()

    def test_faulted_cell_served_from_disk_equals_recompute(self, cache):
        cell = measure_cell("gzip_like", "tiny", SDTConfig(
            profile=SIMPLE, ib="ibtc", faults="chaos:1234"))
        _results, cold = execute_cells([cell], cache=cache)
        assert (cold.cache_hits, cold.computed, len(cache)) == (0, 1, 1)
        clear_caches()
        results, warm = execute_cells([cell], cache=cache)
        assert (warm.cache_hits, warm.computed) == (1, 0)
        clear_caches()
        fresh = cell.execute()
        assert results[cell.key()] == fresh
        assert fresh.stats["faults"].get("ibtc.drop", 0) > 0  # faults fired

    def test_workload_source_is_part_of_the_key(self):
        from repro.workloads.microbench import dispatch_microbench

        config = SDTConfig(profile=SIMPLE, ib="ibtc")
        a = measure_cell(dispatch_microbench(2, iterations=10), "tiny", config)
        b = measure_cell(dispatch_microbench(2, iterations=20), "tiny", config)
        assert a.workload_name == b.workload_name  # same name ...
        assert a.key() != b.key()                  # ... different source


def _contend(root, index, barrier, out):
    """Worker: hammer one shared cache dir with puts and gets."""
    from repro.eval.diskcache import DiskCache
    from repro.eval.cells import encode_result, fanout_cell, native_cell
    from repro.host.profile import SIMPLE

    cache = DiskCache(root)
    cells = [
        native_cell("gzip_like", "tiny", SIMPLE, fuel=500_000),
        fanout_cell("gzip_like", "tiny", fuel=500_000),
        native_cell("mcf_like", "tiny", SIMPLE, fuel=500_000),
    ]
    results = [cell.execute() for cell in cells]
    barrier.wait(timeout=60)                   # maximise overlap
    digests = []
    for round_no in range(6):
        for cell, result in zip(cells, results):
            cache.put(cell, result)
            seen = cache.get(cell)
            # torn read would surface as None (discarded) or garbage;
            # None is only legal before the first put completes, and
            # here our own put already landed
            assert seen is not None, f"worker {index} torn read"
            digests.append(json.dumps(encode_result(seen),
                                      sort_keys=True))
    out.put((index, digests))


class TestMultiProcessContention:
    def test_concurrent_writers_never_tear(self, tmp_path):
        """N processes put/get the same cells in the same directory;
        every read returns a byte-identical, well-formed result."""
        root = tmp_path / "shared-cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        out = ctx.Queue()
        workers = [
            ctx.Process(target=_contend, args=(root, n, barrier, out))
            for n in range(4)
        ]
        for worker in workers:
            worker.start()
        collected = {}
        for _ in workers:
            index, digests = out.get(timeout=120)
            collected[index] = digests
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # every worker saw the same bytes for every (cell, read) pair
        reference = collected[0]
        for index, digests in collected.items():
            assert digests == reference, f"worker {index} diverged"
        # and the surviving on-disk entries decode cleanly
        survivors = DiskCache(root)
        assert len(survivors) == 3
        for path in root.glob("*/*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert "fingerprint" in payload and "type" in payload
        # no temp droppings left behind by any racer
        assert [p for p in root.rglob(".tmp-*")] == []
