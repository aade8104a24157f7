#!/usr/bin/env python3
"""A/B performance gate: the working tree against a base commit.

Usage::

    python scripts/perf_gate.py BASE

``BASE`` (a git ref) is checked out into a temporary ``git worktree``;
the working tree is the change.  Both trees are byte-compiled first
(:func:`_byte_compile`).  Each tree runs its own
``benchmarks/suite/run.py --trace 0`` in ``PAIRS`` pairs, alternating
which goes first, both runs of a pair with the same ``--seed``, so drift
in the host's speed hits both sides.  Every report, its log and
``summary.json`` land in ``results/ci/perf_gate/``.  The verdict
(:func:`decide`) reads its bounds from ``BENCHMARK.json``; nothing is
stored between runs.  Exit 0 only when the change passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "results" / "ci" / "perf_gate"
#: Pairs of runs; pair ``i`` runs with ``--seed i``.
PAIRS = 3
#: Pairs the change must lose, on top of worse medians, to fail.
MIN_LOST = 2
#: The workload gated guest by guest (an op runs both harnesses), and
#: the metric whose bound is each guest's least threshold.
PER_OP_WORKLOAD = "run-threaded"
PER_OP_METRIC = "op_ms_geomean"


def _check(name: str, base: list[float], change: list[float],
           threshold: float, higher: bool = False) -> dict:
    """One gated quantity; a ratio above 1 means the change is worse."""
    def worse(b: float, c: float) -> float:
        return b / c if higher else c / b

    median = worse(statistics.median(base), statistics.median(change))
    ratios = [worse(b, c) for b, c in zip(base, change)]
    lost = sum(ratio > 1 for ratio in ratios)
    return {"name": name, "ratios": ratios, "median": median, "lost": lost,
            "threshold": threshold,
            "failed": median > 1 + threshold and lost >= MIN_LOST}


def _quantities(report: dict) -> dict:
    """``workload/metric`` -> value, and ``run-threaded/op`` -> op row."""
    values = {}
    for workload, entry in report.get("workloads", {}).items():
        for metric, value in entry.get("end_to_end", {}).items():
            values[f"{workload}/{metric}"] = value["value"]
        if workload == PER_OP_WORKLOAD:
            for row in entry.get("ops", []):
                values[f"{workload}/{row['op']}"] = row
    return values


def decide(bench: dict, base: list[dict], change: list[dict]) -> dict:
    """The verdict on ``run.py -o`` reports, ``base[i]`` paired with ``change[i]``.

    Each end-to-end metric of each workload fails when the ratio of the
    two sides' medians exceeds 1 + its ``BENCHMARK.json`` bound and the
    change lost at least ``MIN_LOST`` pairs: the medians say by how much,
    the pairs how consistently.  Each ``run-threaded`` op gets the same
    rule, with the larger of the ``op_ms_geomean`` bound and the base's
    own quartile spread for the op.  That spread is the tightest of the
    base's runs: host interference only widens a run's spread, and one
    noisy run must not hide a real slowdown.  A change-side failed op
    fails too.  Quantities on one side only are listed in ``ungated``.
    """
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    floor = metrics[PER_OP_METRIC]["bound"]
    tables = [_quantities(report) for report in base + change]
    shared = set.intersection(*(set(table) for table in tables))
    ungated = sorted(set().union(*tables) - shared)
    checks = []
    for key in sorted(shared):
        b = [table[key] for table in tables[:len(base)]]
        c = [table[key] for table in tables[len(base):]]
        if isinstance(b[0], dict):  # an op row
            spread = min((row["q3_ms"] - row["q1_ms"]) / row["median_ms"]
                         for row in b)
            checks.append(_check(key, [row["median_ms"] for row in b],
                                 [row["median_ms"] for row in c],
                                 max(floor, spread)))
        else:
            metric = metrics[key.split("/", 1)[1]]
            checks.append(_check(key, b, c, metric["bound"],
                                 higher=metric["better"] == "higher"))
    errors = [e for report in change for e in report.get("errors", [])]
    failed_ops = sum(report.get("failed", 0) for report in change)
    if failed_ops and not errors:
        errors = [f"{failed_ops} failed op(s)"]
    return {"passed": not errors and not any(c["failed"] for c in checks),
            "checks": checks, "ungated": ungated, "errors": errors}


def format_table(verdict: dict) -> str:
    """One line per check (each pair's ratio, as a change), then the rest."""
    width = max([len(c["name"]) for c in verdict["checks"]] + [5])
    pairs = len(verdict["checks"][0]["ratios"]) if verdict["checks"] else 0
    head = "".join(f"{f'pair {i + 1}':>8s}" for i in range(pairs))
    lines = [f"{'check':<{width}s}{head}  medians  lost  bound  verdict"]
    for c in verdict["checks"]:
        ratios = "".join(f"{r - 1:>+8.1%}" for r in c["ratios"])
        lines.append(
            f"{c['name']:<{width}s}{ratios}  {c['median'] - 1:>+7.1%}  "
            f"{c['lost']:>2d}/{pairs}  {c['threshold']:>5.1%}  "
            f"{'FAIL' if c['failed'] else 'ok'}")
    lines += [f"not gated (one side only): {k}" for k in verdict["ungated"]]
    return "\n".join(lines + [f"failed op: {e}" for e in verdict["errors"]])


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def _byte_compile(tree: Path) -> None:
    """Write valid ``__pycache__`` for every module the benchmark loads.

    With ``PYTHONDONTWRITEBYTECODE`` set, a tree without it (the fresh
    worktree of ``BASE``, any copy) compiles each module from source in
    every child, which shows as a higher ``setup_s`` and ``peak_rss_mb``
    on that side alone; compiling both trees first compares them in the
    same state."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "benchmarks/suite"], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)


def _run_suite(tree: Path, side: str, pair: int) -> dict:
    """One run in ``tree``; a non-zero exit counts as a failed op."""
    out = OUT / f"{side}-{pair}.json"
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    with open(out.with_suffix(".log"), "w") as log:
        code = subprocess.run(
            [sys.executable, "benchmarks/suite/run.py", "--trace", "0",
             "--seed", str(pair), "-o", str(out)],
            cwd=tree, stdout=log, stderr=subprocess.STDOUT).returncode
    print(f"pair {pair + 1}/{PAIRS} {side:6s}: exit {code} in "
          f"{time.perf_counter() - started:.0f}s", flush=True)
    report = json.loads(out.read_text()) if out.exists() else {}
    if code:
        report["failed"] = max(report.get("failed", 0), 1)
        report.setdefault("errors", []).append(
            f"{side} run {pair + 1} exited {code}, see {out.with_suffix('.log')}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE",
                        help="git ref of the parent to compare against")
    args = parser.parse_args(argv)
    try:
        base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perf gate: {args.base!r} is not a commit", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    reports: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        _git("worktree", "add", "--detach", str(trees["base"]), base)
        try:
            for tree in trees.values():
                _byte_compile(tree)
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else \
                    ("change", "base")
                for side in order:
                    reports[side].append(_run_suite(trees[side], side, pair))
        finally:
            _git("worktree", "remove", "--force", str(trees["base"]))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdict = decide(bench, reports["base"], reports["change"])
    print(f"\nbase {base[:12]} against the working tree, {PAIRS} pairs\n")
    print(format_table(verdict))
    (OUT / "summary.json").write_text(json.dumps(
        {"base": base, "pairs": PAIRS, **verdict}, indent=1) + "\n")
    failed = [c["name"] for c in verdict["checks"] if c["failed"]]
    failed += ["failed ops"] if verdict["errors"] else []
    print(f"\nperf gate: {'FAIL: ' + ', '.join(failed) if failed else 'OK'}")
    return 0 if verdict["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
