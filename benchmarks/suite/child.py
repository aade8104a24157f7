"""One benchmark round in a fresh process.

::

    python benchmarks/suite/child.py SPEC.json RESULT.json

``run.py`` starts one child per round and waits for it, so every round
starts cold, like one ``repro-sdt run`` invocation.  The child reads its
spec, sets up (imports, guest compilation, golden load), runs its ops and
writes what it measured to ``RESULT.json``, including the wall-clock time
at which set-up ended; the parent, which knows when it started the
process, turns that into ``setup_s``.  Spec kinds:

``sim``          run ops in the given order, each checked against the
                 golden reference;
``experiments``  one ``run_experiments`` pass over a disk cache that the
                 spec names, each table checked against golden;
``golden``       compute the golden reference with ``engine="oracle"``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from ops import PROFILE, Op


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mismatch(expected: object, observed: object) -> str | None:
    """None when equal, else which field differs first."""
    if expected is None:
        return "no golden entry"
    if isinstance(expected, dict) and isinstance(observed, dict):
        for field in expected:
            if expected[field] != observed.get(field):
                return (f"{field}: golden {expected[field]!r}, "
                        f"got {observed.get(field)!r}")
        return None
    if expected != observed:
        return f"golden {expected!r}, got {observed!r}"
    return None


def _error(exc: BaseException) -> str:
    lines = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {lines[0] if lines else ''}"


def _prepare_ops(spec: dict, engine: str):
    """(op, workload, config) per op; compiling each guest is set-up."""
    from repro.host.profile import get_profile
    from repro.sdt.config import SDTConfig
    from repro.workloads import (
        COHERENCE_WORKLOADS,
        get_coherence_workload,
        get_workload,
    )

    profile = get_profile(PROFILE)
    prepared = []
    for data in spec["ops"]:
        op = Op.from_json(data)
        build = (get_coherence_workload if op.program in COHERENCE_WORKLOADS
                 else get_workload)
        workload = build(op.program, op.scale)
        workload.compile()
        # engine, faults and trace are explicit so no environment variable
        # can change what a round runs
        config = SDTConfig(profile=profile, engine=engine, faults=None,
                           trace=None, **dict(op.config))
        prepared.append((op, workload, config))
    return prepared


def _request(workload, config, scale: str):
    """One ``repro-sdt run``: the native baseline, then the checked SDT run.

    Returns (seconds, observation): what golden compares.
    """
    from repro.eval import runner

    start = time.perf_counter()
    baseline = runner.run_native(workload, config.profile, scale=scale,
                                 engine=config.engine)
    measured = runner.measure(workload, config, scale=scale)
    seconds = time.perf_counter() - start
    return seconds, {
        "output_sha256": _sha256(baseline.output.encode()),
        "exit_code": baseline.exit_code,
        "retired": baseline.retired,
        "native_cycles": measured.native_cycles,
        "sdt_cycles": measured.sdt_cycles,
        "breakdown": measured.breakdown,
    }


def _manifest(prepared=()) -> dict:
    import repro

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "ops": [
            {"op": op.id, "config": config.label,
             "fingerprint": _sha256(repr(config.fingerprint()).encode())[:16]}
            for op, _workload, config in prepared
        ],
    }


def run_sim(spec: dict, golden: dict, tracer) -> dict:
    from repro.eval import runner

    prepared = _prepare_ops(spec, spec["engine"])
    expected = golden["ops"]
    setup_done = time.time()
    setup_loop_s = hostspeed.loop_seconds()
    rows = []
    for op, workload, config in prepared:
        row: dict = {"op": op.id}
        # a fresh process has an empty memo, so the request simulates
        runner.clear_caches()
        gc.collect()
        loop_before = hostspeed.loop_seconds()
        try:
            seconds, observed = _request(workload, config, op.scale)
            row.update(seconds=seconds, retired=observed["retired"],
                       error=_mismatch(expected.get(op.id), observed))
        except Exception as exc:  # the op fails; the round goes on
            row["error"] = _error(exc)
        # the host's speed can change within an op: bracket it
        row["loop_s"] = (loop_before + hostspeed.loop_seconds()) / 2
        rows.append(row)
    return {
        "setup_done": setup_done,
        "setup_loop_s": setup_loop_s,
        "ops": rows,
        "manifest": _manifest(prepared),
        **tracer.finish(),
    }


def _table_digests(names, results_dir: Path) -> dict[str, str | None]:
    """sha256 of each experiment's CSV as written (None if not written)."""
    from repro.eval.experiments import EXPERIMENT_SPECS

    digests = {}
    for name in names:
        path = results_dir / f"{EXPERIMENT_SPECS[name].slug}.csv"
        digests[name] = _sha256(path.read_bytes()) if path.exists() else None
    return digests


def _cell_id(cell) -> str:
    return f"{cell.workload_name}@{cell.scale}/{cell.fuel}"


def _paced_cache(root: str):
    """A disk cache that times the host-speed loop after each write.

    The in-process executor writes each computed cell right after timing
    it, so the samples fall between cells and bracket each one, as the
    simulation ops are bracketed.  ``paced_s`` is the time the samples
    took, which the pass's wall time leaves out.
    """
    from repro.eval.diskcache import DiskCache

    class PacedCache(DiskCache):
        def __init__(self, root: str):
            super().__init__(root)
            self.loops: dict[str, float] = {}
            self.paced_s = 0.0

        def put(self, cell, result) -> None:
            super().put(cell, result)
            start = time.perf_counter()
            self.loops[cell.key()] = hostspeed.loop_seconds(samples=1)
            self.paced_s += time.perf_counter() - start

    return PacedCache(root)


def run_experiments_pass(spec: dict, golden: dict, tracer) -> dict:
    from repro.eval.diskcache import DiskCache
    from repro.eval.parallel import plan_cells, run_experiments

    names = spec["experiments"]
    scale = spec["scale"]
    expected = golden["experiments"]
    setup_done = time.time()
    # a pool pass writes as results arrive, and a traced pass would count
    # the samples as executor time: only plain in-process passes pace
    paced = spec["jobs"] == 1 and not spec["trace"]
    cache = (_paced_cache if paced else DiskCache)(spec["cache_dir"])
    results_dir = Path(spec["results_dir"])
    loop_before = hostspeed.loop_seconds(samples=5)
    start = time.perf_counter()
    _tables, report = run_experiments(names, scale=scale, jobs=spec["jobs"],
                                      cache=cache, results_dir=results_dir)
    wall_s = time.perf_counter() - start
    loop_after = hostspeed.loop_seconds(samples=5)
    traced = tracer.finish()
    samples = cache.loops if paced else {}
    if paced:
        wall_s -= cache.paced_s

    _per_experiment, unique = plan_cells(names, scale)
    retired = expected["retired"]
    # computed cells only: key -> [seconds, retired guest instructions,
    # mean of the loop times on either side]
    cells = {}
    previous = loop_before
    for key, seconds in report.cell_seconds.items():
        after = samples.get(key, previous)
        cells[key] = [seconds, retired.get(_cell_id(unique[key]), 0),
                      (previous + after) / 2]
        previous = after
    loops = [loop_before, *samples.values(), loop_after]
    digests = _table_digests(names, results_dir)
    return {
        "setup_done": setup_done,
        "setup_loop_s": loop_before,
        "loop_s": statistics.median(loops),
        "wall_s": wall_s,
        "unique": report.unique,
        "computed": report.computed,
        "elapsed": report.elapsed,
        "failures": [f"{f.label}: {f.error}" for f in report.failures.values()],
        "cells": cells,
        "tables": {name: _mismatch(expected["tables"].get(name), digest)
                   for name, digest in digests.items()},
        "manifest": _manifest(),
        **traced,
    }


def regen_golden(spec: dict) -> dict:
    """The reference every round is checked against, from the oracle.

    The parent sets ``REPRO_ENGINE=oracle`` for this child, so the
    experiment cells (which take the engine from the environment) run on
    the oracle too.
    """
    from repro.eval.parallel import plan_cells, run_experiments
    from repro.machine.interpreter import run_program

    ops = {}
    for op, workload, config in _prepare_ops(spec, "oracle"):
        if op.id not in ops:
            ops[op.id] = _request(workload, config, op.scale)[1]

    names = spec["experiments"]
    scale = spec["scale"]
    results_dir = Path(spec["results_dir"])
    run_experiments(names, scale=scale, jobs=spec["jobs"],
                    results_dir=results_dir)
    retired: dict[str, int] = {}
    sources: dict[str, str] = {}
    for cell in plan_cells(names, scale)[1].values():
        workload = cell.resolve()
        cell_id = _cell_id(cell)
        if sources.setdefault(cell_id, workload.source) != workload.source:
            raise ValueError(f"two guest programs share the id {cell_id}")
        if cell_id not in retired:
            retired[cell_id] = run_program(
                workload.compile(), fuel=cell.fuel, engine="oracle"
            ).retired
    return {
        "ops": dict(sorted(ops.items())),
        "experiments": {
            "scale": scale,
            "tables": _table_digests(names, results_dir),
            "retired": dict(sorted(retired.items())),
        },
    }


class _Tracer:
    """Probes around the round when the spec asks for a traced round."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.probes = None
        if spec.get("trace"):
            import layers
            import probes

            self.recorder = probes.Recorder()
            self.probes = probes.Probes(self.recorder, layers.SPANS).install()

    def finish(self) -> dict:
        """Uninstall the probes; spans and probe cost for the result."""
        if self.probes is None:
            return {}
        import probes

        self.probes.uninstall()
        return {"spans": self.recorder.raw(), "probe_ns": probes.calibrate()}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    if spec["kind"] == "golden":
        result = regen_golden(spec)
    else:
        tracer = _Tracer(spec)
        golden = json.loads(Path(spec["golden"]).read_text())
        run = run_sim if spec["kind"] == "sim" else run_experiments_pass
        result = run(spec, golden, tracer)
        result["peak_rss_mb"] = _peak_rss_mb()
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
