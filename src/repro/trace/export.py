"""Trace exporters: Chrome ``trace_event`` JSON, metrics JSON, terminal.

All exports are deterministic: timestamps are simulated cycle counts (no
wall clock), keys are sorted, and event order is emission order — two
identical traced runs export byte-identical files
(tests/test_trace_invariants.py).

The Chrome format targets ``chrome://tracing`` / Perfetto: load the
``*.trace.json`` file and the translate/translator/dispatch brackets
render as a flame view over the run's cycle timeline, with instant
events (probes, flushes, faults) as markers.  The files themselves are
written by :func:`repro.eval.runner.export_trace`, the one producer of
trace exports.
"""

from __future__ import annotations

import json
import re

from repro.trace.session import POP_PHASES, PUSH_PHASES, TraceSession

#: Metrics JSON schema identifier (bump on breaking changes).
SCHEMA = "repro.trace/1"


def chrome_trace_events(session: TraceSession) -> list[dict]:
    """The session's ring buffer as a ``trace_event`` array.

    Bracket kinds become ``B``/``E`` duration slices named after their
    attribution phase; every other kind is an instant event.  ``ts`` is
    the simulated cycle count at emission (displayed as microseconds).
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro-sdt"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "sdt-vm (ts = simulated cycles)"},
        },
    ]
    for seq, cycles, kind, data in session.events:
        args = {"seq": seq, **data}
        phase = PUSH_PHASES.get(kind)
        if phase is not None:
            events.append({
                "name": phase, "cat": kind, "ph": "B",
                "ts": cycles, "pid": 1, "tid": 1, "args": args,
            })
        elif kind in POP_PHASES:
            events.append({
                "name": POP_PHASES[kind], "cat": kind, "ph": "E",
                "ts": cycles, "pid": 1, "tid": 1, "args": args,
            })
        else:
            events.append({
                "name": kind, "cat": "event", "ph": "i", "s": "t",
                "ts": cycles, "pid": 1, "tid": 1, "args": args,
            })
    return events


def chrome_trace_json(session: TraceSession) -> str:
    """Serialised Chrome trace (deterministic bytes)."""
    payload = {
        "displayTimeUnit": "ms",
        "metadata": {
            "schema": SCHEMA,
            "events_emitted": session.emitted,
            "events_dropped": session.dropped,
            "ring": session.spec.ring,
        },
        "traceEvents": chrome_trace_events(session),
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def metrics_dict(
    session: TraceSession,
    result=None,
    context: dict | None = None,
) -> dict:
    """Metrics-registry export: phases, counters, histograms, breakdown.

    ``result`` (an :class:`repro.sdt.vm.SDTRunResult`) adds run totals;
    ``context`` adds identity fields (workload, scale, config, profile).
    """
    payload: dict = {
        "schema": SCHEMA,
        "phase_cycles": session.attribution(),
        "attributed_cycles": session.total_attributed(),
        "breakdown": session.model.breakdown(),
        "events": {
            "emitted": session.emitted,
            "dropped": session.dropped,
            "ring": session.spec.ring,
        },
        **session.metrics.as_dict(),
    }
    if result is not None:
        payload["totals"] = {
            "total_cycles": result.total_cycles,
            "retired": result.retired,
            "exit_code": result.exit_code,
        }
    if context:
        payload["run"] = dict(sorted(context.items()))
    return payload


def metrics_json(
    session: TraceSession,
    result=None,
    context: dict | None = None,
) -> str:
    return json.dumps(
        metrics_dict(session, result, context), sort_keys=True, indent=2
    ) + "\n"


def slug(text: str) -> str:
    """File-name-safe form of a config label / workload name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")


def summary(metrics: dict) -> str:
    """Human-readable terminal summary of a metrics export (the traced
    ``repro-sdt run`` view), ending its phase table with the ledger
    check: ``== total (exact)`` or ``!= total ... (MISMATCH)``."""
    lines: list[str] = []
    events = metrics["events"]
    attributed = metrics["attributed_cycles"]
    lines.append(
        f"events   : {events['emitted']} emitted, {events['dropped']} "
        f"dropped (ring {events['ring']})"
    )
    total = metrics.get("totals", {}).get("total_cycles", attributed)
    lines.append(f"cycles   : {total} total; phase attribution:")
    for phase, cycles in sorted(
        metrics["phase_cycles"].items(), key=lambda item: (-item[1], item[0])
    ):
        share = cycles / total if total else 0.0
        lines.append(f"  {phase:12s} {cycles:14d}  ({share:6.1%})")
    check = "== total (exact)" if attributed == total else (
        f"!= total {total} (MISMATCH)"
    )
    lines.append(f"  {'sum':12s} {attributed:14d}  {check}")

    counters = metrics["counters"]
    if counters:
        lines.append("counters :")
        for name in sorted(counters):
            lines.append(f"  {name:24s} {counters[name]:12d}")
    histograms = metrics["histograms"]
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            lines.append(
                f"  {name:24s} n={hist['count']} mean={hist['mean']:.2f} "
                f"min={hist['min']} max={hist['max']}"
            )
    return "\n".join(lines)
