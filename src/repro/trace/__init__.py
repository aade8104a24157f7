"""``repro.trace`` — the SDT observability layer.

Structured, zero-overhead-when-disabled event tracing threaded through
the whole pipeline (translator, VM dispatch loop, IB mechanisms, fragment
cache, superblock compiler, fault injector), a deterministic metrics
registry (counters + power-of-two histograms), exact per-phase cycle
attribution, and Chrome ``trace_event`` / metrics JSON exporters.

See docs/observability.md for the event taxonomy and schemas.

A traced ``repro-sdt run`` (``--trace`` or ``REPRO_TRACE``) prints the
terminal summary and writes two exports per run through
:func:`repro.eval.runner.export_trace`, which ``measure``'s ``dir=``
sink calls too.  This package holds no run helper of its own:
:class:`repro.sdt.config.SDTConfig` imports :func:`default_trace_spec`
at module load, so importing the evaluation layer here would be an
import cycle.
"""

from repro.trace.export import (
    chrome_trace_json,
    metrics_dict,
    metrics_json,
    summary,
)
from repro.trace.session import (
    HISTOGRAM_FIELDS,
    Histogram,
    MetricsRegistry,
    POP_KINDS,
    PUSH_PHASES,
    TraceSession,
)
from repro.trace.spec import (
    DEFAULT_RING,
    ENV_VAR,
    TraceSpec,
    default_trace_spec,
    parse_trace_spec,
)

__all__ = [
    "DEFAULT_RING",
    "ENV_VAR",
    "HISTOGRAM_FIELDS",
    "Histogram",
    "MetricsRegistry",
    "POP_KINDS",
    "PUSH_PHASES",
    "TraceSession",
    "TraceSpec",
    "chrome_trace_json",
    "default_trace_spec",
    "metrics_dict",
    "metrics_json",
    "parse_trace_spec",
    "summary",
]
