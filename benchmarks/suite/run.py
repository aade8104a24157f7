#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer host timings.

Runs the workloads defined in ``ops.py``, one fresh child process
(``child.py``) per round and one child at a time, checks every result
against ``golden.json``, and prints every metric that ``BENCHMARK.json``
declares, by name and with its unit.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
traced round and reports the per-layer metrics; without ``--trace`` both
run, and without ``--workload`` every workload runs (metric names are
then prefixed with ``<workload>/``).  The exit code is 0 only when every
op matched the golden reference.

Usage::

    python benchmarks/suite/run.py                     # everything, ~150 s
    python benchmarks/suite/run.py --workload run-tier2 --seed 3 --trace 0
    python benchmarks/suite/run.py --smoke -o results/ci/BENCHMARK_report.json
    python benchmarks/suite/run.py --regen-golden      # re-bless golden.json

See README.md next to this file for the workloads, the metrics and what
each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers
import probes
from ops import EXPERIMENTS, WORKLOADS, Workload

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
GOLDEN = SUITE_DIR / "golden.json"
#: Scale of the experiments workload (the full plan at ``small`` takes
#: minutes per pass).
EXPERIMENT_SCALE = "tiny"
#: Ceiling on one child, so a hung round cannot outlive the run's budget.
CHILD_TIMEOUT = 170.0
GOLDEN_TIMEOUT = 3600.0
#: Warm passes per experiments round; a warm pass is short, so it is
#: sampled more often than the cold one.
WARM_PASSES = 3
#: Executor counts that only the experiments workload produces.
_NO_EXECUTOR = {
    "eval.parallel.cells_unique": 0, "eval.parallel.computed_cold": 0,
    "eval.parallel.efficiency": 0.0,
}


class ChildFailed(RuntimeError):
    """A round's process crashed, timed out or wrote no result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Tally:
    """Ops attempted and failed; a failure is an exception or a mismatch."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, error: str) -> None:
        self.attempted += count
        self.failed += count
        self.errors.append(error)

    def ops(self, rows: list[dict]) -> None:
        for row in rows:
            self.attempted += 1
            if row.get("error"):
                self.failed += 1
                self.errors.append(f"{row['op']}: {row['error']}")

    def experiments(self, result: dict) -> None:
        """An experiments pass: every unique cell and every table."""
        self.attempted += result["unique"] + len(result["tables"])
        errors = result["failures"] + [
            f"table {name}: {error}"
            for name, error in result["tables"].items() if error
        ]
        self.failed += len(errors)
        self.errors += errors


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child's process group (its pool workers too) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone
    proc.communicate()


def _more_rounds(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether to start another round: yes if it should end within half a
    round of the budget, so a run measures for ``seconds`` on average
    whatever the length of its rounds."""
    return elapsed + elapsed / rounds / 2 <= seconds


class Session:
    """One invocation: a work directory inside the checkout, and children."""

    def __init__(self, golden: Path):
        self.golden = golden
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=base))
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another invocation's work directory is still there

    def next_id(self) -> int:
        """A number no other file of this session uses."""
        self._count += 1
        return self._count

    def child(self, spec: dict, env: dict | None = None,
              timeout: float = CHILD_TIMEOUT) -> dict:
        """Run one child to completion; its result, with ``setup_s``."""
        n = self.next_id()
        spec_path = self.work / f"spec-{n}.json"
        result_path = self.work / f"result-{n}.json"
        spec_path.write_text(json.dumps({"golden": str(self.golden), **spec}))
        child_env = {k: v for k, v in os.environ.items()
                     if not k.startswith("REPRO_")}
        child_env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                         **(env or {}))
        started = time.time()
        # a session of its own, so a timeout can stop its pool workers too
        proc = subprocess.Popen(
            [sys.executable, str(SUITE_DIR / "child.py"), str(spec_path),
             str(result_path)],
            cwd=ROOT, env=child_env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _out, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise ChildFailed(f"no result within {timeout:g}s") from None
        except BaseException:
            _stop(proc)  # interrupted or terminated: the child goes too
            raise
        if proc.returncode != 0 or not result_path.exists():
            last = stderr.strip().splitlines()[-1:] or [""]
            raise ChildFailed(f"child exited {proc.returncode}: {last[0]}")
        result = json.loads(result_path.read_text())
        if "setup_done" in result:
            result["setup_s"] = result.pop("setup_done") - started
        return result


# -- simulation workloads ------------------------------------------------------


def _sim_spec(workload: Workload, order, trace: bool = False) -> dict:
    return {"kind": "sim", "engine": workload.engine,
            "ops": [op.to_json() for op in order], "trace": trace}


def measure_sim(session: Session, workload: Workload, seed: int,
                seconds: float, smoke: bool, tally: Tally) -> dict:
    """Untraced rounds until ``seconds`` are used; end-to-end metrics."""
    results = []
    start = time.perf_counter()
    rounds = 0
    while True:
        order = list(workload.ops)
        random.Random(seed + rounds).shuffle(order)
        rounds += 1
        try:
            result = session.child(_sim_spec(workload, order))
        except ChildFailed as exc:
            tally.fail(len(order), f"round {rounds}: {exc}")
        else:
            results.append(result)
            tally.ops(result["ops"])
        elapsed = time.perf_counter() - start
        if smoke or not _more_rounds(elapsed, rounds, seconds):
            break
    return {
        "metrics": _sim_metrics(workload, results, hostspeed.scaled),
        "raw": _sim_metrics(workload, results, _unscaled),
        "rounds": rounds,
        "manifest": results[0]["manifest"] if results else None,
        "ops": _sim_rows(workload, results, hostspeed.scaled),
    }


def _unscaled(seconds: float, _loop_s: float) -> float:
    return seconds


def _sim_samples(workload: Workload, results: list[dict], adjust):
    """Per op: seconds over rounds and retired count (passing rows)."""
    seconds: dict[str, list[float]] = {op.id: [] for op in workload.ops}
    retired: dict[str, int] = {}
    for result in results:
        for row in result["ops"]:
            if not row.get("error"):
                seconds[row["op"]].append(adjust(row["seconds"], row["loop_s"]))
                retired[row["op"]] = row["retired"]
    return seconds, retired


def _sim_rows(workload: Workload, results: list[dict], adjust) -> list[dict]:
    """The per-op view: median and quartiles over rounds."""
    seconds, retired = _sim_samples(workload, results, adjust)
    rows = []
    for op, values in seconds.items():
        if values:
            q1, q3 = quartiles(values)
            rows.append({
                "op": op, "median_ms": statistics.median(values) * 1e3,
                "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
                "retired": retired[op], "samples": len(values),
            })
    return rows


def _sim_metrics(workload: Workload, results: list[dict], adjust) -> dict:
    seconds, retired = _sim_samples(workload, results, adjust)
    if not all(seconds.values()):
        return {}
    medians = {op: statistics.median(v) for op, v in seconds.items()}
    cold_s = sum(medians.values())
    return {
        "setup_s": statistics.median(
            adjust(r["setup_s"], r["setup_loop_s"]) for r in results),
        "op_ms_geomean": geomean([s * 1e3 for s in medians.values()]),
        "guest_mips": sum(retired.values()) / cold_s / 1e6,
        "cold_s": cold_s,
        # ``repro-sdt run`` keeps nothing between invocations, so asking
        # for the same results again costs the cold time
        "warm_s": cold_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def _round_seconds(result: dict) -> float:
    return sum(hostspeed.scaled(row["seconds"], row["loop_s"])
               for row in result["ops"] if "seconds" in row)


def trace_sim(session: Session, workload: Workload, seed: int, tally: Tally,
              untraced_s: float | None = None) -> dict:
    """One traced round; per-layer metrics.

    ``untraced_s`` is the untraced time of the same ops, the reference of
    ``trace.overhead_ratio``: ``cold_s`` when the end-to-end rounds have
    just run.  Without it, one untraced round runs first to measure it.
    """
    order = list(workload.ops)
    random.Random(seed).shuffle(order)
    for trace in (False, True) if untraced_s is None else (True,):
        try:
            result = session.child(_sim_spec(workload, order, trace))
        except ChildFailed as exc:
            tally.fail(len(order), f"traced={trace}: {exc}")
            return {"metrics": {}}
        tally.ops(result["ops"])
        if not trace:
            untraced_s = _round_seconds(result)
    extra = {"trace.overhead_ratio": _round_seconds(result) / untraced_s,
             **_NO_EXECUTOR}
    return {"metrics": layers.per_layer(result["spans"], result["probe_ns"],
                                        extra)}


# -- experiments workload ------------------------------------------------------


def _experiments_spec(session: Session, names: list[str], cache: str,
                      jobs: int = 1, trace: bool = False) -> dict:
    return {
        "kind": "experiments", "experiments": names,
        "scale": EXPERIMENT_SCALE, "jobs": jobs,
        "cache_dir": str(session.work / cache),
        "results_dir": str(session.work / f"tables-{session.next_id()}"),
        "trace": trace,
    }


def _experiment_passes(session: Session, specs, tally: Tally) -> list[dict]:
    """Run experiments passes in order; stop at the first crash."""
    results = []
    for spec in specs:
        try:
            result = session.child(spec)
        except ChildFailed as exc:
            tally.fail(1, f"experiments pass: {exc}")
            break
        tally.experiments(result)
        results.append(result)
    return results


def measure_experiments(session: Session, workload: Workload, seconds: float,
                        smoke: bool, tally: Tally) -> dict:
    """Rounds of a cold pass, then warm passes over the cache it filled.

    Passes run in-process (``jobs=1``, the ``repro-sdt experiments``
    default): on a shared 2-core host a 2-worker pool's wall time varied
    by a fifth from run to run.  The plan runs in its own order and the
    seed changes nothing: with one process, the first cell to need a
    native baseline pays for it, so a shuffled order would move work
    between cells.
    """
    names = list(workload.experiments)
    rounds = []
    start = time.perf_counter()
    while True:
        cache = f"cache-{len(rounds)}"
        passes = _experiment_passes(session, [
            _experiments_spec(session, names, cache)
            for _ in range(1 + WARM_PASSES)
        ], tally)
        if len(passes) <= WARM_PASSES:
            break
        rounds.append(passes)
        elapsed = time.perf_counter() - start
        if smoke or not _more_rounds(elapsed, len(rounds), seconds):
            break
    if not rounds:
        return {"metrics": {}}
    medians = _cell_medians(rounds, hostspeed.scaled)
    return {
        "metrics": _experiment_metrics(rounds, hostspeed.scaled),
        "raw": _experiment_metrics(rounds, _unscaled),
        "rounds": len(rounds),
        "manifest": rounds[0][0]["manifest"],
        "cells": {
            "computed": len(medians),
            "cell_p50_ms": statistics.median(medians) * 1e3,
            # the highest round percentile with at least ten of the 126
            # cold cells beyond it
            "cell_p90_ms": medians[int(0.9 * (len(medians) - 1))] * 1e3,
        },
    }


def _cell_medians(rounds: list[list[dict]], adjust) -> list[float]:
    """Each cold cell's median time over the rounds, ascending."""
    cells: dict[str, list[float]] = {}
    for passes in rounds:
        for key, (seconds, _retired, loop_s) in passes[0]["cells"].items():
            cells.setdefault(key, []).append(adjust(seconds, loop_s))
    return sorted(statistics.median(v) for v in cells.values())


def _experiment_metrics(rounds: list[list[dict]], adjust) -> dict:
    """Like the simulation metrics, a cold pass is a sum of medians: each
    cell's median time, plus the median of the rest of the pass
    (planning, cache writes, tables)."""
    medians = _cell_medians(rounds, adjust)
    retired = sum(cell[1] for cell in rounds[0][0]["cells"].values())
    setups, rests, warms = [], [], []
    for passes in rounds:
        cold = passes[0]
        cells_s = sum(cell[0] for cell in cold["cells"].values())
        setups += [adjust(r["setup_s"], r["setup_loop_s"]) for r in passes]
        rests.append(adjust(cold["wall_s"] - cells_s, cold["loop_s"]))
        warms += [adjust(r["wall_s"], r["loop_s"]) for r in passes[1:]]
    return {
        "setup_s": statistics.median(setups),
        "op_ms_geomean": geomean([s * 1e3 for s in medians]),
        "guest_mips": retired / sum(medians) / 1e6,
        "cold_s": sum(medians) + statistics.median(rests),
        "warm_s": statistics.median(warms),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_mb"] for r in passes) for passes in rounds),
    }


def _pass_seconds(result: dict) -> float:
    return hostspeed.scaled(result["wall_s"], result["loop_s"])


def trace_experiments(session: Session, workload: Workload, tally: Tally,
                      untraced_s: float | None = None) -> dict:
    """A pool pass, then a traced cold and warm pass.

    The pool pass (``jobs = min(2, nproc)``) gives the executor counts
    and the pool's efficiency.  The traced passes run in-process like the
    end-to-end ones, so every span lands in one recorder and every count
    repeats exactly.  Their reference is ``untraced_s``, the end-to-end
    ``cold_s``; without it, an untraced cold pass runs to measure it.
    """
    names = list(workload.experiments)
    jobs = min(2, nproc())
    specs = [_experiments_spec(session, names, "cache-pool", jobs=jobs)]
    if untraced_s is None:
        specs.append(_experiments_spec(session, names, "cache-untraced"))
    specs += [_experiments_spec(session, names, "cache-traced", trace=True)
              for _ in range(2)]
    results = _experiment_passes(session, specs, tally)
    if len(results) < len(specs):
        return {"metrics": {}}
    pool, *untraced, cold, warm = results
    if untraced:
        untraced_s = _pass_seconds(untraced[0])
    spans = probes.merge(probes.merge(probes.empty_summary(), cold["spans"]),
                         warm["spans"])
    pool_seconds = sum(cell[0] for cell in pool["cells"].values())
    extra = {
        "trace.overhead_ratio": _pass_seconds(cold) / untraced_s,
        "eval.parallel.cells_unique": pool["unique"],
        "eval.parallel.computed_cold": pool["computed"],
        "eval.parallel.efficiency": pool_seconds / (jobs * pool["elapsed"]),
    }
    return {"metrics": layers.per_layer(spans, cold["probe_ns"], extra)}


# -- golden reference ----------------------------------------------------------


def regen_golden(session: Session, path: Path) -> None:
    """Recompute the reference with the oracle engine and write it."""
    ops = {}
    for workload in WORKLOADS.values():
        if workload.is_experiments:
            continue
        for variant in (workload, workload.smoke()):
            for op in variant.ops:
                ops.setdefault(op.id, op)
    golden = session.child({
        "kind": "golden", "ops": [op.to_json() for op in ops.values()],
        "experiments": list(EXPERIMENTS), "scale": EXPERIMENT_SCALE,
        "jobs": min(2, nproc()),
        "results_dir": str(session.work / "tables-golden"),
    }, env={"REPRO_ENGINE": "oracle"}, timeout=GOLDEN_TIMEOUT)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(golden['ops'])} ops, "
          f"{len(golden['experiments']['tables'])} experiment tables")


# -- command line --------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _declared(bench: dict, section: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric ``bench`` declares."""
    missing = [m["name"] for m in bench[section] if m["name"] not in values]
    if missing:
        raise KeyError(f"{section} metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench[section]}


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<40s} {metric['value']:>16.6g} {metric['unit']}")


def build_parser(bench: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the op order of each simulation "
                        "round (the experiments workload ignores it)")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="time budget for a workload's untraced rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, 2 ops per workload at tiny scale, "
                        "experiments e1,e15")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden reference to check against")
    parser.add_argument("-o", "--output", type=Path,
                        help="write the full report (per-op rows, manifest)")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute the golden reference with the "
                        "oracle engine and write it to --golden")
    return parser


def _terminate(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = build_parser(bench).parse_args(argv)
    # a terminated run unwinds like an interrupted one: it stops its
    # child and removes its work directory
    signal.signal(signal.SIGTERM, _terminate)
    session = Session(args.golden)
    try:
        if args.regen_golden:
            regen_golden(session, args.golden)
            return 0
        return run(args, bench, session)
    finally:
        session.close()


def run(args: argparse.Namespace, bench: dict, session: Session) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    tally = Tally()
    report: dict = {"workloads": {}}
    printed: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
        entry: dict = {}
        untraced_s = None
        for mode in modes:
            if mode == 0 and workload.is_experiments:
                result = measure_experiments(session, workload, args.seconds,
                                             args.smoke, tally)
            elif mode == 0:
                result = measure_sim(session, workload, args.seed,
                                     args.seconds, args.smoke, tally)
            elif workload.is_experiments:
                result = trace_experiments(session, workload, tally,
                                           untraced_s)
            else:
                result = trace_sim(session, workload, args.seed, tally,
                                   untraced_s)
            section = "end_to_end" if mode == 0 else "per_layer"
            values = result.pop("metrics")
            if mode == 0:
                untraced_s = values.get("cold_s")
            metrics = _declared(bench, section, values) if values else {}
            entry[section] = metrics
            entry.update(result)
            _print_metrics(f"{name} ({section}, seed {args.seed})", metrics)
            for metric, value in metrics.items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                printed[key] = value
        report["workloads"][name] = entry
    correct = tally.failed == 0 and tally.attempted > 0
    for error in tally.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    if args.output:
        report.update(
            correct=correct, attempted=tally.attempted, failed=tally.failed,
            error_rate=tally.failed / max(tally.attempted, 1),
            errors=tally.errors,
            manifest={
                "python": platform.python_version(),
                "git_commit": _git_commit(), "nproc": nproc(),
                "pool_jobs": min(2, nproc()), "seed": args.seed,
                "seconds": args.seconds, "smoke": args.smoke,
            },
        )
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
