"""Tests for the benchmark: probes, golden checking and the report's shape.

::

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import layers
import probes
from ops import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- probes --------------------------------------------------------------------


def test_self_times_telescope_with_a_fake_clock():
    now = [0]
    recorder = probes.Recorder(clock=lambda: now[0])

    def leaf():
        now[0] += 10

    leaf_probe = recorder.wrap(leaf, "leaf")

    def mid():
        now[0] += 5
        leaf_probe()
        leaf_probe()

    mid_probe = recorder.wrap(mid, "mid")

    def root():
        now[0] += 100
        mid_probe()
        leaf_probe()

    recorder.wrap(root, "root")()
    raw = recorder.raw()
    assert raw["calls"] == {"leaf": 3, "mid": 1, "root": 1}
    assert raw["self_ns"] == {"leaf": 30, "mid": 5, "root": 100}
    assert raw["root_ns"] == 135
    self_ns = probes.corrected(raw, probe_ns=2)
    assert self_ns == {"leaf": 30, "mid": 1, "root": 96}
    nested = sum(raw["calls"].values()) - 1
    assert sum(self_ns.values()) + nested * 2 == raw["root_ns"]


def _smoke_op(workload: str = "run-threaded"):
    op = WORKLOADS[workload].smoke().ops[0]
    [(op, program, config)] = child._prepare_ops(
        {"ops": [op.to_json()]}, WORKLOADS[workload].engine)
    return op, program, config


def test_probed_simulation_telescopes_and_matches_golden():
    from repro.eval import runner

    golden = json.loads((SUITE / "golden.json").read_text())
    op, program, config = _smoke_op()
    runner.clear_caches()
    probe_ns = probes.calibrate(rounds=3, calls=2000)
    recorder = probes.Recorder()
    with probes.Probes(recorder, layers.SPANS):
        root = recorder.wrap(child._request, "root")
        start = time.perf_counter_ns()
        _seconds, observed = root(program, config, op.scale)
        wall_ns = time.perf_counter_ns() - start
    assert observed == golden["ops"][op.id]
    raw = recorder.raw()
    assert raw["calls"]["sdt.vm.execute"] > 0
    assert raw["calls"]["machine.interpreter.run"] == 1
    self_ns = probes.corrected(raw, probe_ns)
    nested = sum(raw["calls"].values()) - raw["calls"]["root"]
    # every nanosecond of the root span is some layer's self time or the
    # calibrated cost of a nested probe
    assert sum(self_ns.values()) + nested * probe_ns == pytest.approx(
        raw["root_ns"], rel=1e-9)
    assert raw["root_ns"] <= wall_ns


def _targets():
    found = []
    for _name, target, _count in layers.SPANS:
        owner, attr = probes._resolve(target)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def test_uninstall_restores_every_original():
    before = _targets()
    with probes.Probes(probes.Recorder(), layers.SPANS):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def test_failed_install_restores_what_it_patched():
    from repro.sdt.vm import SDTVM

    original = vars(SDTVM)["run"]
    specs = [("ok", "repro.sdt.vm:SDTVM.run", None),
             ("bad", "repro.sdt.vm:SDTVM.no_such_method", None)]
    with pytest.raises(TypeError):
        probes.Probes(probes.Recorder(), specs).install()
    assert vars(SDTVM)["run"] is original


# -- the benchmark end to end --------------------------------------------------


def test_declared_metric_names_and_counts():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(BENCH["end_to_end"]) <= 16
    assert len(BENCH["per_layer"]) <= 128
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_smoke_report_has_every_declared_metric(tmp_path):
    report_path = tmp_path / "report.json"
    proc = _run("--smoke", "-o", str(report_path))
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    report = json.loads(report_path.read_text())
    assert report["error_rate"] == 0
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            got = entry[section]
            for metric in BENCH[section]:
                value = got[metric["name"]]
                assert value["unit"] == metric["unit"]
                assert isinstance(value["value"], (int, float))
                assert line["metrics"][f"{name}/{metric['name']}"] == value
        for metric in BENCH["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0


def test_corrupted_golden_fails_the_run(tmp_path):
    golden = json.loads((SUITE / "golden.json").read_text())
    op = WORKLOADS["run-threaded"].smoke().ops[0]
    golden["ops"][op.id]["sdt_cycles"] += 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    report_path = tmp_path / "report.json"
    proc = _run("--smoke", "--workload", "run-threaded", "--trace", "0",
                "--golden", str(bad), "-o", str(report_path))
    assert proc.returncode != 0
    line = _last_json(proc)
    assert not line["correct"] and line["failed"] > 0
    assert json.loads(report_path.read_text())["error_rate"] > 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "run-threaded", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
