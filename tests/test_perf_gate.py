"""The A/B perf gate's decision rule (``scripts/perf_gate.py``), on
synthetic benchmark reports."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GUESTS = ("gzip_like", "perl_like", "mcf_like")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "scripts" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(speed: float = 1.0, slow: dict | None = None,
           workloads=("run-threaded", "sdt-slowpath"), failed: int = 0,
           mips: float = 1.0, spread: float = 0.1) -> dict:
    """A ``run.py -o`` report: every time scaled by ``speed``, each op in
    ``slow`` by its factor too, ``guest_mips`` scaled by ``mips``, and
    each op's quartiles ``spread`` apart relative to its median."""
    slow = slow or {}
    ops = []
    for guest in GUESTS:
        median = 100.0 * speed * slow.get(guest, 1.0)
        ops.append({"op": f"{guest}@small", "median_ms": median,
                    "q1_ms": (1 - spread / 2) * median,
                    "q3_ms": (1 + spread / 2) * median})
    values = {"setup_s": 0.5 * speed, "op_ms_geomean": 100.0 * speed,
              "guest_mips": 2.0 * mips / speed, "cold_s": 3.0 * speed,
              "warm_s": 3.0 * speed, "peak_rss_mb": 30.0}
    end_to_end = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                  for m in BENCH["end_to_end"]}
    return {
        "workloads": {name: {"end_to_end": end_to_end, "ops": ops}
                      for name in workloads},
        "failed": failed,
        "errors": [f"op {i}: mismatch" for i in range(failed)],
    }


def failed_checks(verdict):
    return [check["name"] for check in verdict["checks"] if check["failed"]]


# host drift: both runs of a pair share one speed
DRIFT = (1.0, 1.3, 0.9)


def test_a_a_passes(gate):
    base = [report(speed) for speed in DRIFT]
    change = [report(speed * 1.02) for speed in DRIFT]
    verdict = gate.decide(BENCH, base, change)
    assert verdict["passed"], failed_checks(verdict)
    assert verdict["ungated"] == [] and verdict["errors"] == []
    # 6 metrics x 2 workloads end to end, plus 3 run-threaded ops
    assert len(verdict["checks"]) == 15


def test_one_slower_guest_fails_and_is_named(gate):
    base = [report(speed) for speed in DRIFT]
    change = [report(speed, slow={"gzip_like": 1.2}) for speed in DRIFT]
    verdict = gate.decide(BENCH, base, change)
    assert not verdict["passed"]
    assert failed_checks(verdict) == ["run-threaded/gzip_like@small"]
    assert "FAIL" in gate.format_table(verdict)


def test_guest_threshold_is_the_tightest_base_spread(gate):
    change = [report(slow={"gzip_like": 1.2}) for _ in DRIFT]
    noisy = [report(spread=s) for s in (0.4, 0.3, 0.05)]
    verdict = gate.decide(BENCH, noisy, change)
    assert failed_checks(verdict) == ["run-threaded/gzip_like@small"]
    wide = [report(spread=s) for s in (0.4, 0.3, 0.25)]
    assert gate.decide(BENCH, wide, change)["passed"]


def test_worse_median_that_lost_one_pair_passes(gate):
    base = [report(1.0), report(2.0), report(1.0)]
    change = [report(1.5), report(1.5), report(0.9)]
    verdict = gate.decide(BENCH, base, change)
    check = next(c for c in verdict["checks"]
                 if c["name"] == "run-threaded/op_ms_geomean")
    assert check["median"] == pytest.approx(1.5)
    assert check["lost"] == 1
    assert verdict["passed"], failed_checks(verdict)


def test_guest_mips_is_higher_is_better(gate):
    base = [report() for _ in DRIFT]
    faster = gate.decide(BENCH, base, [report(mips=1.5) for _ in DRIFT])
    assert faster["passed"]
    slower = gate.decide(BENCH, base, [report(mips=0.7) for _ in DRIFT])
    assert failed_checks(slower) == ["run-threaded/guest_mips",
                                     "sdt-slowpath/guest_mips"]


def test_failed_op_on_change_side_fails(gate):
    base = [report() for _ in DRIFT]
    change = [report(), report(failed=1), report()]
    verdict = gate.decide(BENCH, base, change)
    assert not verdict["passed"]
    assert failed_checks(verdict) == []
    assert verdict["errors"] == ["op 0: mismatch"]
    # the base side's failures do not fail the change
    assert gate.decide(BENCH, change, base)["passed"]


def test_workload_on_one_side_is_reported_not_gated(gate):
    base = [report(workloads=("run-threaded", "sdt-slowpath", "run-tier2"))
            for _ in DRIFT]
    change = [report() for _ in DRIFT]
    verdict = gate.decide(BENCH, base, change)
    assert verdict["passed"]
    assert "run-tier2/op_ms_geomean" in verdict["ungated"]
    assert not any(c["name"].startswith("run-tier2/")
                   for c in verdict["checks"])
    assert "not gated (one side only): run-tier2/setup_s" in \
        gate.format_table(verdict)
