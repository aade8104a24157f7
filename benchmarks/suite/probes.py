"""Host-time probes: time named entry points from outside the program.

A probe replaces a function or method, named by import path
(``"repro.sdt.vm:SDTVM.execute_fragment"``), with a wrapper that times
every call with ``time.perf_counter_ns``.  The wrappers share one span
stack, so each call's *self time* is its duration minus the durations of
the probed calls it made.  Nothing in the program is edited: installing
swaps attributes, uninstalling puts the originals back.

Each wrapper adds a small fixed cost to every call.  :func:`calibrate`
measures that cost on a wrapped no-op, and :func:`corrected` subtracts it
once per child call from the parent's self time, so the corrected self
times of all spans plus one probe cost per nested span add up exactly to
the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from typing import Callable, Iterable

#: ``count(result) -> {counter: amount}``: work a call reports through its
#: return value (instructions retired, promotions made, ...).
CountFn = Callable[[object], dict[str, int]]

_SUMMARY_KEYS = ("calls", "self_ns", "child_calls", "counters")


def empty_summary() -> dict:
    """A summary with no spans (the identity for :func:`merge`)."""
    summary: dict = {key: {} for key in _SUMMARY_KEYS}
    summary["root_ns"] = 0
    return summary


def merge(into: dict, other: dict) -> dict:
    """Add ``other``'s totals into ``into`` (both raw summaries)."""
    for key in _SUMMARY_KEYS:
        table = into[key]
        for name, value in other[key].items():
            table[name] = table.get(name, 0) + value
    into["root_ns"] += other["root_ns"]
    return into


class Recorder:
    """Span stack plus per-name totals for every probe that reports to it.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._stack: list[list[int]] = []
        self._totals = empty_summary()

    def wrap(self, fn: Callable, name: str,
             count: CountFn | None = None) -> Callable:
        """A timed stand-in for ``fn`` that reports under ``name``."""
        stack = self._stack
        clock = self.clock
        calls = self._totals["calls"]
        self_ns = self._totals["self_ns"]
        child_calls = self._totals["child_calls"]
        counters = self._totals["counters"]
        totals = self._totals

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [0, 0]  # [ns spent in probed children, child calls]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    for counter, amount in count(result).items():
                        counters[counter] = counters.get(counter, 0) + amount
                return result
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + duration - frame[0]
                if frame[1]:
                    child_calls[name] = child_calls.get(name, 0) + frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += 1
                else:
                    totals["root_ns"] += duration

        return probe

    def raw(self) -> dict:
        """Uncorrected totals (self time still includes probe cost)."""
        totals = self._totals
        return {
            **{key: dict(totals[key]) for key in _SUMMARY_KEYS},
            "root_ns": totals["root_ns"],
        }


def corrected(raw: dict, probe_ns: float) -> dict[str, float]:
    """Self time per name in ns, minus one probe cost per child call."""
    child_calls = raw["child_calls"]
    return {
        name: ns - child_calls.get(name, 0) * probe_ns
        for name, ns in raw["self_ns"].items()
    }


def calibrate(rounds: int = 7, calls: int = 20_000) -> float:
    """Per-call cost of a probe in ns: wrapped no-op minus bare no-op.

    The best of ``rounds`` timings is taken for each side, so a burst of
    noise from elsewhere on the machine inflates neither.
    """
    def noop() -> None:
        return None

    wrapped = Recorder().wrap(noop, "calibration")

    def best(fn: Callable[[], None]) -> int:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter_ns() - start)
        return min(timings)

    return max(0.0, (best(wrapped) - best(noop)) / calls)


def _resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    if not qualname:
        raise ValueError(f"probe target {target!r} must look like 'module:name'")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Probes:
    """A set of installed probes; a context manager that uninstalls them.

    ``specs`` holds ``(name, target, count)`` triples; several targets may
    report under one name.  A method target is replaced on the class that
    defines it, so every instance sees the probe.  A function target is
    replaced only in the module named, because callers look such names up
    in their own module's globals: to catch a function that other modules
    import by name, list it once per module that binds it.
    """

    def __init__(self, recorder: Recorder,
                 specs: Iterable[tuple[str, str, CountFn | None]]):
        self.recorder = recorder
        self.specs = list(specs)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Probes":
        # Resolve (and so import) every target before patching any: a
        # module imported after a patch would bind the wrapper by name,
        # and its own probe would then wrap the wrapper.
        resolved = [(name, *_resolve(target), target, count)
                    for name, target, count in self.specs]
        try:
            for name, owner, attr, target, count in resolved:
                original = vars(owner).get(attr)
                if not isinstance(original, types.FunctionType):
                    raise TypeError(
                        f"probe target {target!r} is not a function "
                        "defined there"
                    )
                setattr(owner, attr, self.recorder.wrap(original, name, count))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
