"""One differential harness: run, snapshot, compare.

Every execution path — engines, fault plans, coherence policies, static
devirtualization, fuel limits — is acceptable only if its run cannot be
told apart from a reference run.  This module fixes what "cannot be told
apart" means, once, for every gate that checks it:

- :class:`Observation` is everything a run leaves behind that a gate may
  compare or count,
- :func:`snapshot` reads one from any :class:`BlockRunner` (after
  ``run()`` returned or stopped), :func:`observe` runs a program in one
  harness (built by :func:`make_runner`) and snapshots it,
- :func:`diff` names the first declared field on which two observations
  differ; :data:`ARCH` and :data:`ALL` are the two field sets in use.

Runs are judged on :data:`ARCH` when only architecture must hold (a
fault plan or devirtualization may move cycles) and on :data:`ALL` when
the cycle ledger must hold too (execution engines).  ``pc`` and ``regs``
are compared where both runs stop at the same point by construction:
across engines, at a fuel stop or a clean exit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.host.costs import HostModel, NativeCostObserver
from repro.host.profile import SIMPLE, ArchProfile
from repro.isa.program import Program
from repro.machine.errors import FuelExhausted
from repro.machine.interpreter import DEFAULT_FUEL, Interpreter
from repro.machine.runner import BlockRunner
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTVM

#: the harnesses :func:`observe` runs a program in
HARNESSES = ("native", "sdt")

#: architectural identity: what no fault plan or translator policy may move
ARCH = ("output", "exit_code", "retired", "iclass_counts")
#: architectural identity plus the per-category cycle ledger
ALL = ARCH + ("cycles",)

#: ``stats`` groups of the SDT read into :attr:`Observation.counters`
_SDT_GROUPS = ("tier2", "static", "faults", "coherence")


@dataclass(frozen=True)
class Observation:
    """What one run left behind.

    Attributes:
        output: everything the guest printed.
        exit_code: the guest's exit status, or ``None`` when it had not
            exited (a fuel stop or a guest fault).
        retired: instructions retired.
        iclass_counts: ``InstrClass`` value -> retired count.
        cycles: per-category cycle breakdown, or ``{}`` without a cost
            model.
        pc: ``cpu.pc`` where the run stopped (at a fuel stop the next
            unexecuted instruction, at a fault the faulting one, at a
            clean exit where the exiting instruction sent it).
        regs: the register file where the run stopped.
        counters: flat ``group.key -> count`` view of the run's event
            counters: ``tier2.*`` (either harness), ``static.*``,
            ``faults.*`` and ``coherence.*`` (the SDT's ``stats``), and
            ``checker.*`` (the SDT's invariant checker, when installed).
            Gates read their non-vacuity bars here; :func:`diff` never
            compares them.
    """

    output: str
    exit_code: int | None
    retired: int
    iclass_counts: dict[str, int]
    cycles: dict[str, int]
    pc: int
    regs: tuple[int, ...]
    counters: Counter


def snapshot(runner: BlockRunner) -> Observation:
    """Read the :class:`Observation` of a runner that has stopped."""
    syscalls = runner.syscalls
    return Observation(
        output=syscalls.output,
        exit_code=(syscalls.exit_code or 0) if syscalls.exited else None,
        retired=runner.retired,
        iclass_counts={
            iclass.value: count for iclass, count in sorted(
                runner.iclass_counts.items(), key=lambda kv: kv[0].value
            )
        },
        cycles=runner.model.breakdown() if runner.model is not None else {},
        pc=runner.cpu.pc,
        regs=tuple(runner.cpu.regs),
        counters=_counters(runner),
    )


def _counters(runner: BlockRunner) -> Counter:
    stats = getattr(runner, "stats", None)
    tier2 = getattr(runner, "_tier2", None)
    if stats is not None:
        groups = {name: getattr(stats, name) for name in _SDT_GROUPS}
    elif tier2 is not None:
        groups = {"tier2": tier2.stats}
    else:
        groups = {}
    counters = Counter({
        f"{group}.{key}": count
        for group, counts in groups.items() for key, count in counts.items()
    })
    checker = getattr(runner, "invariant_checker", None)
    if checker is not None:
        counters["checker.flushes_checked"] = checker.flushes_checked
        counters["checker.invalidations_checked"] = (
            checker.invalidations_checked
        )
        counters["checker.violations"] = len(checker.violations)
    return counters


def make_runner(
    program: Program,
    harness: str,
    *,
    engine: str | None = None,
    profile: ArchProfile = SIMPLE,
    **config,
) -> BlockRunner:
    """Build ``program``'s runner in ``harness``, ready to ``run()``.

    ``"native"`` is the reference interpreter charging a
    :class:`HostModel` for ``profile``; ``"sdt"`` is the SDT under
    ``SDTConfig(profile=profile, engine=engine, **config)``.  Arguments
    left out keep their defaults — including the ``REPRO_FAULTS`` and
    ``REPRO_ENGINE`` ones — so a caller that must not inherit a fault
    plan from the environment passes ``faults`` explicitly.
    """
    if harness == "native":
        if config:
            raise TypeError(
                f"the native harness takes no SDT config: {sorted(config)}"
            )
        return Interpreter(
            program, observer=NativeCostObserver(HostModel(profile)),
            engine=engine,
        )
    if harness == "sdt":
        if engine is not None:
            config["engine"] = engine
        return SDTVM(program, config=SDTConfig(profile=profile, **config))
    raise ValueError(
        f"unknown harness {harness!r}; expected one of {HARNESSES}"
    )


def observe(
    program: Program, harness: str, *, fuel: int = DEFAULT_FUEL, **options
) -> Observation:
    """Run ``program`` in ``harness`` until it exits or ``fuel`` runs
    out, and snapshot it.  ``options`` (``engine``, ``profile`` and
    ``SDTConfig`` fields) are those of :func:`make_runner`."""
    runner = make_runner(program, harness, **options)
    try:
        runner.run(fuel)
    except FuelExhausted:
        pass
    return snapshot(runner)


def diff(
    reference: Observation, candidate: Observation, fields: tuple[str, ...]
) -> str | None:
    """The first of ``fields`` on which ``candidate`` differs from
    ``reference``, or ``None`` when they agree on all of them."""
    for name in fields:
        if getattr(candidate, name) != getattr(reference, name):
            return name
    return None
