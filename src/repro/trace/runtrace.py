"""Verified traced runs: the data source behind ``repro-sdt trace``.

Kept out of ``repro.trace.__init__`` because it imports the evaluation
runner (which imports :mod:`repro.sdt.config`, which imports
:mod:`repro.trace.spec` at module load — see the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.eval.runner import (
    DEFAULT_FUEL,
    NativeBaseline,
    _verify,
    run_context,
    run_native,
)
from repro.sdt.config import SDTConfig
from repro.sdt.vm import SDTRunResult, SDTVM
from repro.trace.session import TraceSession
from repro.trace.spec import TraceSpec
from repro.workloads import Workload, get_workload


@dataclass(frozen=True)
class TracedRun:
    """One traced, interpreter-verified SDT run."""

    workload: str
    scale: str
    config: SDTConfig
    baseline: NativeBaseline
    result: SDTRunResult
    session: TraceSession

    @property
    def context(self) -> dict:
        """Identity fields for the metrics export."""
        return run_context(self.workload, self.scale, self.config,
                           self.baseline.cycles)

    @property
    def stem(self) -> str:
        """Deterministic export-file stem for this run."""
        return (
            f"{self.workload}-{self.scale}-{self.config.profile.name}-"
            f"{self.config.label}"
        )


def trace_run(
    workload: Workload | str,
    config: SDTConfig | None = None,
    scale: str = "small",
    fuel: int = DEFAULT_FUEL,
) -> TracedRun:
    """Run one workload under one config with tracing forced on.

    Bypasses the measurement memo caches on purpose: a cache-served
    measurement carries no event stream, and the session *is* the point
    here.  The run is still verified against the reference interpreter
    exactly like :func:`repro.eval.runner.measure`.
    """
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    config = config if config is not None else SDTConfig()
    if config.trace is None:
        config = replace(config, trace=TraceSpec())

    baseline = run_native(workload, config.profile, scale=scale, fuel=fuel,
                          engine=config.engine)
    vm = SDTVM(workload.compile(), config=config)
    result = vm.run(fuel)
    _verify(baseline, result, config.label)
    assert vm.trace is not None  # config.trace was forced on above
    return TracedRun(
        workload=workload.name,
        scale=scale,
        config=config,
        baseline=baseline,
        result=result,
        session=vm.trace,
    )
