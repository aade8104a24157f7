"""Parallel + persistent experiment executor.

Fans deduplicated experiment cells across a process pool
(:class:`concurrent.futures.ProcessPoolExecutor`), optionally backed by
the on-disk result cache in :mod:`repro.eval.diskcache`.  Determinism is
structural: results are collected into a mapping keyed by cell
fingerprint and each experiment's ``build`` assembles its table in
declared cell order, so tables (and the CSVs written from them) are
byte-identical whatever the worker count or completion order.

Flow per batch: dedup cells by fingerprint (first-seen order), serve
what the disk cache already has, dispatch only the misses (serially
in-process when ``jobs <= 1``, so the runner's memo caches still apply),
then persist every newly computed result from the parent — workers never
write the cache, which keeps persistence single-writer and atomic.

The executor is *hardened*: a cell that raises is retried with
exponential backoff and then quarantined; a worker process that dies
(segfault, ``os._exit``, OOM-kill) breaks only the cells that were in
flight, not the run — the pool is rebuilt and the survivors resubmitted;
a per-cell watchdog ``timeout`` turns a hung worker into a terminated
process and a quarantined cell.  Failures land in
:attr:`ExecutionReport.failures` in declared cell order, so a degraded
batch still yields a byte-deterministic partial report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.eval.backoff import Backoff, BackoffPolicy
from repro.eval.cells import Cell
from repro.eval.diskcache import DiskCache

#: Progress callback: called once per unique cell as its result lands.
ProgressFn = Callable[["CellEvent"], None]

#: Default bounded-retry budget: attempts beyond the first per cell.
DEFAULT_RETRIES = 2

#: Default base of the exponential inter-round backoff, in seconds.
DEFAULT_BACKOFF = 0.25

#: Ceiling on any single backoff sleep, in seconds.
MAX_BACKOFF = 30.0


def _backoff_policy(backoff: "float | BackoffPolicy") -> BackoffPolicy:
    """Normalise the executor's ``backoff`` argument to a policy."""
    if isinstance(backoff, BackoffPolicy):
        return backoff
    return BackoffPolicy(base=float(backoff), ceiling=MAX_BACKOFF)


@dataclass(frozen=True)
class CellEvent:
    """One unique cell finished (served from cache or simulated)."""

    index: int          #: 1-based position among unique cells
    total: int          #: unique cell count in this batch
    label: str          #: human-readable cell identity
    source: str         #: ``"cache"``, ``"run"`` or ``"failed"``
    seconds: float      #: simulation wall time (0.0 for cache hits)


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: its retry budget is spent, the batch goes on."""

    key: str            #: the cell's fingerprint digest
    label: str          #: human-readable cell identity
    kind: str           #: ``"error"``, ``"timeout"`` or ``"crash"``
    attempts: int       #: executions charged against the cell
    error: str          #: stable one-line description of the last failure


class MissingCellResult(KeyError):
    """An experiment table asked for a cell that failed (or was never run)."""


@dataclass
class ExecutionReport:
    """Accounting for one executor batch."""

    requested: int = 0      #: cells asked for, including duplicates
    unique: int = 0         #: cells after fingerprint dedup
    cache_hits: int = 0     #: unique cells served from the disk cache
    computed: int = 0       #: unique cells actually simulated
    elapsed: float = 0.0    #: wall time for the whole batch
    cell_seconds: dict[str, float] = field(default_factory=dict)
    retries: int = 0        #: re-executions granted across all cells
    #: quarantined cells by key, in declared (deduped) cell order
    failures: dict[str, CellFailure] = field(default_factory=dict)
    #: degraded experiments: name -> sorted labels of its failed cells
    degraded: dict[str, list[str]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Disk-cache hit rate over unique cells (0.0 for empty batches)."""
        return self.cache_hits / self.unique if self.unique else 0.0

    @property
    def ok(self) -> bool:
        """True when every requested cell produced a result."""
        return not self.failures


def dedup_cells(cells: Iterable[Cell]) -> dict[str, Cell]:
    """Unique cells keyed by fingerprint digest, in first-seen order."""
    unique: dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key(), cell)
    return unique


def _execute_cell(cell: Cell) -> tuple[object, float]:
    """Worker entry point: run one cell, return (result, seconds)."""
    start = time.perf_counter()
    result = cell.execute()
    return result, time.perf_counter() - start


def _stable_error(exc: BaseException) -> str:
    """One-line, reproducible rendering of a failure (no addresses)."""
    text = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}".rstrip(": ")


def _shutdown_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Dispose of a pool; ``force`` also terminates hung worker processes."""
    if not force:
        pool.shutdown(wait=True)
        return
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
        except Exception:
            pass  # already reaped, or not ours to kill


def _run_serial(
    pending: list[tuple[str, Cell]],
    retries: int,
    policy: BackoffPolicy,
    finish: Callable[[str, Cell, object, float], None],
    fail: Callable[[str, Cell, str, int, BaseException], None],
    report: ExecutionReport,
) -> None:
    """In-process execution with bounded retry (no watchdog possible)."""
    for key, cell in pending:
        pacer = Backoff(policy)
        for attempt in range(1, retries + 2):
            try:
                result, seconds = _execute_cell(cell)
            except Exception as exc:
                if attempt <= retries:
                    report.retries += 1
                    pacer.sleep()
                    continue
                fail(key, cell, "error", attempt, exc)
            else:
                finish(key, cell, result, seconds)
            break


def _run_pooled(
    pending: list[tuple[str, Cell]],
    jobs: int,
    timeout: float | None,
    retries: int,
    policy: BackoffPolicy,
    finish: Callable[[str, Cell, object, float], None],
    fail: Callable[[str, Cell, str, int, BaseException], None],
    report: ExecutionReport,
) -> None:
    """Process-pool execution with watchdog, retry and crash recovery.

    Runs in *rounds*: each round owns a fresh pool.  A round ends early
    when a worker hangs past ``timeout`` (the pool is torn down and its
    processes terminated) or dies (``BrokenProcessPool``).  Cells that
    finished before the incident keep their results; cells that were in
    flight during a crash are charged an attempt (one of them is the
    killer, and the innocents win their retries on the next, clean
    round); cells that merely lost their pool to someone else's timeout
    are resubmitted free of charge.
    """
    attempts: dict[str, int] = {key: 0 for key, _ in pending}
    queue = list(pending)
    pacer = Backoff(policy)
    while queue:
        retry_queue: list[tuple[str, Cell]] = []
        dead = False        # pool unusable for the rest of this round
        blame_rest = False  # crash round: unfinished cells are charged

        def charge(key: str, cell: Cell, kind: str,
                   exc: BaseException) -> None:
            attempts[key] += 1
            if attempts[key] <= retries:
                report.retries += 1
                retry_queue.append((key, cell))
            else:
                fail(key, cell, kind, attempts[key], exc)

        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            submitted: list[tuple[str, Cell, object]] = []
            try:
                for key, cell in queue:
                    submitted.append(
                        (key, cell, pool.submit(_execute_cell, cell))
                    )
            except BrokenProcessPool:
                dead = True
                blame_rest = True
            for key, cell, future in submitted:
                if not dead:
                    try:
                        result, seconds = future.result(timeout=timeout)
                        finish(key, cell, result, seconds)
                        continue
                    except FuturesTimeout:
                        dead = True
                        charge(key, cell, "timeout", TimeoutError(
                            f"no result within {timeout:g}s "
                            f"(worker terminated)"
                        ))
                        continue
                    except BrokenProcessPool as exc:
                        dead = True
                        blame_rest = True
                        charge(key, cell, "crash", exc)
                        continue
                    except Exception as exc:
                        charge(key, cell, "error", exc)
                        continue
                # pool is gone: harvest what finished, reschedule the rest
                if future.done() and not future.cancelled():
                    try:
                        result, seconds = future.result(timeout=0)
                        finish(key, cell, result, seconds)
                        continue
                    except BrokenProcessPool as exc:
                        if blame_rest:
                            charge(key, cell, "crash", exc)
                        else:
                            retry_queue.append((key, cell))
                        continue
                    except Exception as exc:
                        charge(key, cell, "error", exc)
                        continue
                future.cancel()
                if blame_rest:
                    charge(key, cell, "crash",
                           BrokenProcessPool("worker pool died"))
                else:
                    retry_queue.append((key, cell))
            # cells we never managed to submit: free retry
            retry_queue.extend(queue[len(submitted):])
        finally:
            _shutdown_pool(pool, force=dead)
        if retry_queue:
            pacer.sleep()
        queue = retry_queue


def execute_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
) -> tuple[dict[str, object], ExecutionReport]:
    """Execute a batch of cells; returns ``(results_by_key, report)``.

    ``results_by_key`` maps every requested cell's :meth:`Cell.key` to
    its result (duplicates share one entry); cells listed in
    ``report.failures`` have no entry.  ``jobs <= 1`` runs serially
    in-process; larger values fan misses across that many worker
    processes.  ``timeout`` is the per-cell watchdog in seconds (it
    forces pool execution even for ``jobs == 1``, since a hung cell can
    only be killed from outside its process); ``retries`` bounds
    re-execution of failing cells, with exponential ``backoff`` (a base
    in seconds, or a full :class:`repro.eval.backoff.BackoffPolicy`)
    between rounds.  Uncacheable cells (fault-injected measurements) skip
    the disk cache in both directions.
    """
    start = time.perf_counter()
    cell_list = list(cells)
    unique = dedup_cells(cell_list)
    report = ExecutionReport(requested=len(cell_list), unique=len(unique))
    results: dict[str, object] = {}
    failed: dict[str, CellFailure] = {}

    pending: list[tuple[str, Cell]] = []
    for key, cell in unique.items():
        cacheable = getattr(cell, "cacheable", True)
        cached = cache.get(cell) if cache is not None and cacheable else None
        if cached is not None:
            results[key] = cached
            report.cache_hits += 1
        else:
            pending.append((key, cell))

    def finish(key: str, cell: Cell, result: object, seconds: float) -> None:
        results[key] = result
        report.computed += 1
        report.cell_seconds[key] = seconds
        if cache is not None and getattr(cell, "cacheable", True):
            cache.put(cell, result)

    def fail(key: str, cell: Cell, kind: str, attempts: int,
             exc: BaseException) -> None:
        failed[key] = CellFailure(
            key=key, label=cell.label, kind=kind, attempts=attempts,
            error=_stable_error(exc),
        )

    if pending:
        policy = _backoff_policy(backoff)
        if jobs > 1 or timeout is not None:
            _run_pooled(pending, max(1, jobs), timeout, retries, policy,
                        finish, fail, report)
        else:
            _run_serial(pending, retries, policy, finish, fail, report)

    # deterministic failure order: declared (deduped) cell order, not
    # the completion order the incident happened to produce
    report.failures = {
        key: failed[key] for key in unique if key in failed
    }

    if progress is not None:
        total = len(unique)
        for index, (key, cell) in enumerate(unique.items(), start=1):
            seconds = report.cell_seconds.get(key)
            if key in report.failures:
                source = "failed"
            elif seconds is None:
                source = "cache"
            else:
                source = "run"
            progress(CellEvent(
                index=index,
                total=total,
                label=cell.label,
                source=source,
                seconds=seconds or 0.0,
            ))

    report.elapsed = time.perf_counter() - start
    return results, report


# -- experiment-level entry points --------------------------------------------


def plan_cells(
    names: Iterable[str], scale: str
) -> tuple[dict[str, list[Cell]], dict[str, Cell]]:
    """Cell lists per experiment plus the cross-experiment unique set.

    The unique set is what actually gets dispatched: shared cells (the
    ``ibtc(shared,4096)`` column appears in E3, E6 and E7, E9 reuses the
    whole E3 grid, …) are simulated once.
    """
    from repro.eval.experiments import EXPERIMENT_SPECS

    per_experiment: dict[str, list[Cell]] = {}
    for name in names:
        try:
            spec = EXPERIMENT_SPECS[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; "
                f"available: {sorted(EXPERIMENT_SPECS)}"
            ) from None
        per_experiment[name] = spec.cells(scale)
    unique = dedup_cells(
        cell for cells in per_experiment.values() for cell in cells
    )
    return per_experiment, unique


def run_experiments(
    names: Iterable[str],
    scale: str = "small",
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    results_dir: Path | None = None,
    write: bool = True,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
) -> tuple[dict[str, tuple[list[str], list[list[object]]]], ExecutionReport]:
    """Run experiment drivers on the shared executor.

    Cells are deduplicated *across* the selected experiments before
    dispatch.  Each experiment's table is then assembled in its declared
    cell order and (by default) persisted via
    :func:`repro.eval.report.write_results`.  Returns
    ``({name: (headers, rows)}, report)``.

    Degraded mode: when cells fail despite the executor's retries, the
    experiments that needed them get a deterministic placeholder table
    (naming each failed cell, in sorted order) instead of a partial
    results file — their on-disk results are left untouched — and are
    listed in ``report.degraded``.  Experiments whose cells all
    succeeded are built and written normally.
    """
    from repro.eval.experiments import EXPERIMENT_SPECS
    from repro.eval.report import write_results

    names = list(names)
    per_experiment, _unique = plan_cells(names, scale)
    all_cells = [
        cell for cells in per_experiment.values() for cell in cells
    ]
    results, report = execute_cells(
        all_cells, jobs=jobs, cache=cache, progress=progress,
        timeout=timeout, retries=retries, backoff=backoff,
    )

    tables: dict[str, tuple[list[str], list[list[object]]]] = {}
    for name in names:
        spec = EXPERIMENT_SPECS[name]

        failed_labels = sorted({
            report.failures[cell.key()].label
            for cell in per_experiment[name]
            if cell.key() in report.failures
        })
        if failed_labels:
            report.degraded[name] = failed_labels
            headers = ["experiment", "status"]
            rows: list[list[object]] = [
                [name, f"DEGRADED: {len(failed_labels)} cell(s) failed"]
            ]
            rows.extend([name, f"failed: {label}"]
                        for label in failed_labels)
            tables[name] = (headers, rows)
            continue

        def lookup(cell: Cell) -> object:
            try:
                return results[cell.key()]
            except KeyError:
                raise MissingCellResult(cell.label) from None

        headers, rows = spec.build(lookup, scale)
        if write:
            write_results(spec.slug, spec.title(scale), headers, rows,
                          results_dir=results_dir)
        tables[name] = (headers, rows)
    return tables, report


def run_experiment(
    name: str,
    scale: str = "small",
    jobs: int = 1,
    cache: DiskCache | None = None,
    progress: ProgressFn | None = None,
    results_dir: Path | None = None,
    write: bool = True,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: "float | BackoffPolicy" = DEFAULT_BACKOFF,
) -> tuple[list[str], list[list[object]]]:
    """Single-experiment convenience wrapper around :func:`run_experiments`."""
    tables, _report = run_experiments(
        [name], scale=scale, jobs=jobs, cache=cache, progress=progress,
        results_dir=results_dir, write=write,
        timeout=timeout, retries=retries, backoff=backoff,
    )
    return tables[name]


__all__ = [
    "CellEvent",
    "CellFailure",
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "ExecutionReport",
    "MissingCellResult",
    "dedup_cells",
    "execute_cells",
    "plan_cells",
    "run_experiment",
    "run_experiments",
]
