"""Which entry points the traced round probes, and the per-layer metrics.

Every span is named after the layer it times.  Metric names follow the
program's package layout (``sdt.vm``, ``machine.tier2``, ``eval.parallel``
...).  A layer that every workload crosses reports its self time in
``ms``; a layer that some workload bypasses reports its self time as a
``share`` of all traced time instead, because a bypassed layer would
otherwise read a constant 0 ms.  ``trace.traced_ms`` is that total, so
``share * traced_ms`` recovers the milliseconds.
"""

from __future__ import annotations

from probes import corrected

#: Mechanism counter prefixes (``SDTStats.mechanism`` keys) -> metric layer.
_MECHANISMS = {
    "ibtc": "sdt.ib.ibtc",
    "sieve": "sdt.ib.sieve",
    "fast": "sdt.ib.returns.fast",
    "shadow": "sdt.ib.returns.shadow",
    "return": "sdt.ib.returns.retcache",
}


def _retired(counter: str):
    def count(result) -> dict[str, int]:
        return {counter: result.retired}
    return count


def _promoted(result) -> dict[str, int]:
    return {"promotions": 1 if result else 0}


def _measurement(result) -> dict[str, int]:
    """Hit/miss and deopt counters from a verified ``Measurement``."""
    counts: dict[str, int] = {}
    for key, value in result.stats["mechanism"].items():
        mechanism, _, event = key.rpartition(".")
        layer = _MECHANISMS.get(mechanism.split("-")[0])
        if layer is not None and event in ("hit", "miss"):
            name = f"{layer}.{event}"
            counts[name] = counts.get(name, 0) + value
    deopts = sum(value for key, value in result.stats["tier2"].items()
                 if key.startswith("deopt."))
    if deopts:
        counts["machine.tier2.deopts"] = deopts
    return counts


#: (span name, target, count) for :class:`probes.Probes`.  Functions are
#: listed once per module that binds them (see ``Probes``).
SPANS = (
    ("lang.compile", "repro.workloads.base:compile_to_program", None),
    ("lang.compile", "repro.workloads.base:assemble", None),
    ("machine.interpreter.run",
     "repro.machine.interpreter:Interpreter.run", _retired("instrs.native")),
    ("machine.engine.compile", "repro.machine.engine:Superblock.__init__",
     None),
    ("machine.tier2.promote.sdt",
     "repro.machine.tier2:Tier2Runtime.try_promote", _promoted),
    ("machine.tier2.promote.native",
     "repro.machine.tier2:InterpreterTier2.try_promote", _promoted),
    ("machine.tier2.execute.sdt",
     "repro.machine.tier2:Tier2Runtime.execute", None),
    ("machine.tier2.execute.native",
     "repro.machine.tier2:InterpreterTier2.execute", None),
    ("sdt.vm.run", "repro.sdt.vm:SDTVM.run", _retired("instrs.sdt")),
    ("sdt.vm.execute", "repro.sdt.vm:SDTVM.execute_fragment", None),
    ("sdt.vm.reenter", "repro.sdt.vm:SDTVM.reenter_translator", None),
    ("sdt.translator.translate",
     "repro.sdt.translator:Translator.translate", None),
    ("sdt.cache.flush", "repro.sdt.cache:FragmentCache.flush", None),
    ("sdt.cache.invalidate", "repro.sdt.cache:FragmentCache.invalidate",
     None),
    ("sdt.ib.ibtc.dispatch", "repro.sdt.ib.ibtc:IBTC.dispatch", None),
    ("sdt.ib.sieve.dispatch", "repro.sdt.ib.sieve:Sieve.dispatch", None),
    ("sdt.ib.reentry.dispatch",
     "repro.sdt.ib.reentry:TranslatorReentry.dispatch", None),
    ("sdt.ib.returns.fast.dispatch",
     "repro.sdt.ib.returns:FastReturns.dispatch_ret", None),
    ("sdt.ib.returns.shadow.dispatch",
     "repro.sdt.ib.returns:ShadowReturnStack.dispatch_ret", None),
    ("sdt.ib.returns.retcache.dispatch",
     "repro.sdt.ib.returns:ReturnCache.dispatch_ret", None),
    ("eval.runner.measure", "repro.eval.runner:measure", _measurement),
    ("eval.runner.measure", "repro.eval.cells:measure", _measurement),
    ("eval.runner.run_native", "repro.eval.runner:run_native", None),
    ("eval.runner.run_native", "repro.eval.cells:run_native", None),
    ("eval.cells.execute", "repro.eval.cells:Cell.execute", None),
    ("eval.parallel.plan", "repro.eval.parallel:plan_cells", None),
    ("eval.parallel.execute", "repro.eval.parallel:execute_cells", None),
    ("eval.parallel.run", "repro.eval.parallel:run_experiments", None),
    ("eval.diskcache.get", "repro.eval.diskcache:DiskCache.get", None),
    ("eval.diskcache.put", "repro.eval.diskcache:DiskCache.put", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: dict, probe_ns: float, extra: dict) -> dict[str, float]:
    """Every per-layer metric from a merged span summary.

    ``spans`` is a raw :func:`probes.merge` summary, ``probe_ns`` the
    calibrated probe cost and ``extra`` the values that come from outside
    the spans: ``overhead_ratio`` and the ``eval.*`` executor counts
    (zero for the simulation workloads).
    """
    calls = spans["calls"]
    self_ns = corrected(spans, probe_ns)
    counters = spans["counters"]
    traced_ns = spans["root_ns"]

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def ns(*names: str) -> float:
        return sum(self_ns.get(name, 0.0) for name in names)

    def hit_ratio(layer: str) -> float:
        hits = counters.get(f"{layer}.hit", 0)
        return _ratio(hits, hits + counters.get(f"{layer}.miss", 0))

    tier2_promote = ("machine.tier2.promote.sdt", "machine.tier2.promote.native")
    tier2_execute = ("machine.tier2.execute.sdt", "machine.tier2.execute.native")
    runner = ("eval.runner.measure", "eval.runner.run_native")
    values: dict[str, float] = {
        "lang.compile_calls": n("lang.compile"),
        "lang.compile_ms": ns("lang.compile") / 1e6,
        "machine.interpreter.run_calls": n("machine.interpreter.run"),
        "machine.interpreter.self_ms": ns("machine.interpreter.run") / 1e6,
        "machine.interpreter.ns_per_instr": _ratio(
            ns("machine.interpreter.run"), counters.get("instrs.native", 0)),
        "machine.engine.compile_calls": n("machine.engine.compile"),
        "machine.engine.compile_ms": ns("machine.engine.compile") / 1e6,
        "machine.tier2.promote_calls": n(*tier2_promote),
        "machine.tier2.promote_share": _ratio(ns(*tier2_promote), traced_ns),
        "machine.tier2.promotions": counters.get("promotions", 0),
        "machine.tier2.execute_calls": n(*tier2_execute),
        "machine.tier2.execute_share": _ratio(ns(*tier2_execute), traced_ns),
        "machine.tier2.deopt_ratio": _ratio(
            counters.get("machine.tier2.deopts", 0),
            n("machine.tier2.execute.sdt")),
        "sdt.vm.run_calls": n("sdt.vm.run"),
        "sdt.vm.loop_ms": ns("sdt.vm.run") / 1e6,
        "sdt.vm.execute_calls": n("sdt.vm.execute"),
        "sdt.vm.execute_ms": ns("sdt.vm.execute") / 1e6,
        "sdt.vm.ns_per_instr": _ratio(
            ns("sdt.vm.execute"), counters.get("instrs.sdt", 0)),
        "sdt.vm.reenter_calls": n("sdt.vm.reenter"),
        "sdt.vm.reenter_ms": ns("sdt.vm.reenter") / 1e6,
        "sdt.translator.translate_calls": n("sdt.translator.translate"),
        "sdt.translator.translate_ms": ns("sdt.translator.translate") / 1e6,
        "sdt.ib.ibtc.dispatch_calls": n("sdt.ib.ibtc.dispatch"),
        "sdt.ib.ibtc.dispatch_ms": ns("sdt.ib.ibtc.dispatch") / 1e6,
        "sdt.ib.ibtc.hit_ratio": hit_ratio("sdt.ib.ibtc"),
        "eval.runner.measure_calls": n("eval.runner.measure"),
        "eval.runner.self_ms": ns(*runner) / 1e6,
        "eval.parallel.plan_share": _ratio(ns("eval.parallel.plan"), traced_ns),
        "eval.report.build_share": _ratio(ns("eval.parallel.run"), traced_ns),
        "trace.probe_ns": probe_ns,
        "trace.traced_ms": traced_ns / 1e6,
    }
    for op in ("flush", "invalidate"):
        span = f"sdt.cache.{op}"
        values[f"{span}_calls"] = n(span)
        values[f"{span}_share"] = _ratio(ns(span), traced_ns)
    for layer in ("sdt.ib.sieve", "sdt.ib.reentry", "sdt.ib.returns.fast",
                  "sdt.ib.returns.shadow", "sdt.ib.returns.retcache"):
        span = f"{layer}.dispatch"
        values[f"{span}_calls"] = n(span)
        values[f"{span}_share"] = _ratio(ns(span), traced_ns)
        if layer != "sdt.ib.reentry":
            values[f"{layer}.hit_ratio"] = hit_ratio(layer)
    for op in ("get", "put"):
        span = f"eval.diskcache.{op}"
        values[f"{span}_calls"] = n(span)
        values[f"{span}_share"] = _ratio(ns(span), traced_ns)
    values.update(extra)
    return values
