"""Trace exporters: Chrome ``trace_event`` JSON, metrics JSON, terminal.

All exports are deterministic: timestamps are simulated cycle counts (no
wall clock), keys are sorted, and event order is emission order — two
identical traced runs export byte-identical files
(tests/test_trace_invariants.py).

The Chrome format targets ``chrome://tracing`` / Perfetto: load the
``*.trace.json`` file and the translate/translator/dispatch brackets
render as a flame view over the run's cycle timeline, with instant
events (probes, flushes, faults) as markers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

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


def export_files(
    session: TraceSession,
    out_dir: str | Path,
    stem: str,
    result=None,
    context: dict | None = None,
) -> tuple[Path, Path]:
    """Write ``<stem>.trace.json`` + ``<stem>.metrics.json`` under
    ``out_dir`` (created if missing); returns both paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = slug(stem)
    trace_path = directory / f"{stem}.trace.json"
    metrics_path = directory / f"{stem}.metrics.json"
    trace_path.write_text(chrome_trace_json(session))
    metrics_path.write_text(metrics_json(session, result, context))
    return trace_path, metrics_path


def summary(session: TraceSession, result=None) -> str:
    """Human-readable terminal summary (the ``repro-sdt trace`` view)."""
    lines: list[str] = []
    attribution = session.attribution()
    attributed = session.total_attributed()
    lines.append(
        f"events   : {session.emitted} emitted, {session.dropped} dropped "
        f"(ring {session.spec.ring})"
    )
    total = result.total_cycles if result is not None else attributed
    lines.append(f"cycles   : {total} total; phase attribution:")
    for phase, cycles in sorted(
        attribution.items(), key=lambda item: (-item[1], item[0])
    ):
        share = cycles / total if total else 0.0
        lines.append(f"  {phase:12s} {cycles:14d}  ({share:6.1%})")
    check = "== total (exact)" if attributed == total else (
        f"!= total {total} (MISMATCH)"
    )
    lines.append(f"  {'sum':12s} {attributed:14d}  {check}")

    counters = session.metrics.counters
    if counters:
        lines.append("counters :")
        for name in sorted(counters):
            lines.append(f"  {name:24s} {counters[name]:12d}")
    histograms = session.metrics.histograms
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            lines.append(
                f"  {name:24s} n={hist.count} mean={hist.mean:.2f} "
                f"min={hist.min} max={hist.max}"
            )
    return "\n".join(lines)
