"""Command-line interface.

::

    repro-sdt run <workload> [--scale S] [--ib M] [--returns R]
                             [--profile P] [--engine E] [--trace] [--json]
    repro-sdt trace <workload> [--mechanism M] [--returns R] [--out D]
    repro-sdt experiments [--only e3,e6] [--jobs N] [--no-cache]
                          [--cache-dir D] [--scale S] [--engine E]
                          [--trace SPEC]
    repro-sdt fragments <workload> [--disassemble]  # fragment-cache dump
    repro-sdt fanout <workload>                     # per-site IB targets
    repro-sdt analyze <prog> [--json]               # static CFG/IB analysis
    repro-sdt lint <prog> [--json]                  # static lint checks
    repro-sdt crossval <workload|all> [--json]      # static-vs-dynamic oracle
    repro-sdt compile <file.mc> [-O] [-o out.s]     # MiniC -> assembly
    repro-sdt asm <file.s> [--run]                  # assemble (and run)
    repro-sdt list                                  # workloads & profiles

``<prog>`` accepts a registered workload name, a MiniC source file
(``*.mc``) or an SR32 assembly file (``*.s``/``*.asm``).
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.runner import measure, run_native
from repro.host.profile import PROFILES, get_profile
from repro.isa.assembler import assemble
from repro.lang import compile_source
from repro.machine.engine import ENGINES, resolve_engine
from repro.machine.interpreter import run_program
from repro.sdt.config import COHERENCE_POLICIES, SDTConfig
from repro.workloads import (
    COHERENCE_WORKLOADS,
    get_coherence_workload,
    get_workload,
    workload_names,
)


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.eval.experiments import EXPERIMENT_SPECS

    print("workloads: ", ", ".join(workload_names()))
    print("scenarios: ", ", ".join(COHERENCE_WORKLOADS),
          "(self-modifying; need --coherence)")
    print("profiles:  ", ", ".join(sorted(PROFILES)))
    print("mechanisms: reentry, ibtc, sieve")
    print("returns:    same, fast, shadow, retcache")
    print("coherence: ", ", ".join(COHERENCE_POLICIES))
    print("experiments:", ", ".join(EXPERIMENT_SPECS))
    return 0


def _resolve_workload(name: str, scale: str):
    """A registered workload, or one of the coherence scenarios."""
    if name in COHERENCE_WORKLOADS:
        return get_coherence_workload(name, scale)
    return get_workload(name, scale)


def _cmd_run(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    config_kwargs = {}
    if args.faults is not None:
        config_kwargs["faults"] = args.faults  # spec string; config parses
    if args.trace is not None:
        config_kwargs["trace"] = args.trace  # spec string; config parses
    config = SDTConfig(
        profile=profile,
        ib=args.ib,
        ibtc_entries=args.ibtc_entries,
        ibtc_shared=not args.ibtc_persite,
        sieve_buckets=args.sieve_buckets,
        returns=args.returns,
        linking=not args.no_linking,
        static_targets=args.static_targets,
        coherence=args.coherence,
        engine=resolve_engine(args.engine),
        **config_kwargs,
    )
    workload = _resolve_workload(args.workload, args.scale)
    if args.workload in COHERENCE_WORKLOADS and args.coherence == "none":
        print(
            f"error: scenario {args.workload!r} modifies its own code; "
            f"pick --coherence flush|page|targeted",
            file=sys.stderr,
        )
        return 2
    baseline = run_native(workload, profile, scale=args.scale,
                          engine=config.engine)
    trace_paths = None
    if config.trace is not None:
        # a traced run exports through measure()'s directory sink; default
        # the sink so a bare --trace always produces files
        import dataclasses

        from repro.trace.export import slug

        if not config.trace.dir:
            config = dataclasses.replace(
                config,
                trace=dataclasses.replace(config.trace, dir="results/trace"),
            )
        stem = slug(f"{workload.name}-{args.scale}-{profile.name}-"
                    f"{config.label}")
        trace_paths = tuple(
            f"{config.trace.dir}/{stem}{suffix}"
            for suffix in (".trace.json", ".metrics.json")
        )
    result = measure(workload, config, scale=args.scale)
    if args.json:
        import json

        print(json.dumps({
            "workload": workload.name,
            "scale": args.scale,
            "config": config.label,
            "profile": profile.name,
            "retired": baseline.retired,
            "ib": {"ijump": baseline.ijumps, "icall": baseline.icalls,
                   "ret": baseline.rets},
            "native_cycles": result.native_cycles,
            "sdt_cycles": result.sdt_cycles,
            "overhead": result.overhead,
            "breakdown": result.breakdown,
            "hit_rates": result.hit_rates,
            **({"trace_files": list(trace_paths)} if trace_paths else {}),
        }, indent=2))
        return 0
    print(f"workload : {workload.name} [{args.scale}] ({workload.spec_analog})")
    print(f"config   : {config.label} on {profile.name}")
    print(f"output   : {baseline.output.strip()}")
    print(f"retired  : {baseline.retired}")
    print(
        f"IBs      : ijump={baseline.ijumps} icall={baseline.icalls} "
        f"ret={baseline.rets}"
    )
    print(f"native   : {result.native_cycles} cycles")
    print(f"sdt      : {result.sdt_cycles} cycles")
    print(f"overhead : {result.overhead:.3f}x")
    print("breakdown:")
    for category, cycles in sorted(
        result.breakdown.items(), key=lambda item: -item[1]
    ):
        if cycles:
            share = cycles / result.sdt_cycles
            print(f"  {category:15s} {cycles:12d}  ({share:6.1%})")
    if result.hit_rates:
        for mechanism, rate in sorted(result.hit_rates.items()):
            print(f"hit rate : {mechanism} = {rate:.4f}")
    static = result.stats.get("static") or {}
    if static:
        scored = sum(static.get(k, 0)
                     for k in ("predicted", "unpredicted", "escaped"))
        precision = static.get("predicted", 0) / scored if scored else 0.0
        print(f"static   : precision={precision:.4f} " + " ".join(
            f"{key}={count}" for key, count in sorted(static.items())
        ))
    coherence = result.stats.get("coherence") or {}
    if coherence:
        print("coherence: " + " ".join(
            f"{key}={count}" for key, count in sorted(coherence.items())
        ))
    faults = result.stats.get("faults") or {}
    if faults:
        print("faults   : " + ", ".join(
            f"{site}={count}" for site, count in sorted(faults.items())
        ))
        print(f"demoted  : {result.stats.get('fragments_demoted', 0)} "
              f"fragment(s) pinned to the oracle engine")
    if trace_paths:
        for path in trace_paths:
            print(f"trace    : {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Traced run: terminal attribution summary plus JSON exports."""
    from repro.trace.export import export_files, summary
    from repro.trace.runtrace import trace_run
    from repro.trace.spec import TraceSpec

    profile = get_profile(args.profile)
    config = SDTConfig(
        profile=profile,
        ib=args.mechanism,
        ibtc_entries=args.ibtc_entries,
        sieve_buckets=args.sieve_buckets,
        returns=args.returns,
        engine=resolve_engine(args.engine),
        trace=TraceSpec(ring=args.ring),
    )
    traced = trace_run(args.workload, config, scale=args.scale)
    trace_path, metrics_path = export_files(
        traced.session, args.out, traced.stem,
        result=traced.result, context=traced.context,
    )
    if args.json:
        import json

        from repro.trace.export import metrics_dict

        print(json.dumps(
            metrics_dict(traced.session, traced.result, traced.context),
            indent=2, sort_keys=True,
        ))
    else:
        workload = traced.workload
        print(f"workload : {workload} [{args.scale}]")
        print(f"config   : {config.label} on {profile.name} "
              f"({config.engine} engine)")
        overhead = traced.result.total_cycles / traced.baseline.cycles
        print(f"overhead : {overhead:.3f}x "
              f"({traced.result.total_cycles} / {traced.baseline.cycles} "
              f"native)")
        print(summary(traced.session, traced.result))
    print(f"exported : {trace_path}", file=sys.stderr)
    print(f"exported : {metrics_path}", file=sys.stderr)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Parallel + disk-cached regeneration of the experiment grid."""
    import os

    from repro.eval.diskcache import DiskCache
    from repro.eval.experiments import EXPERIMENT_SPECS
    from repro.eval.parallel import run_experiments

    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in EXPERIMENT_SPECS]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}; "
                  f"available: {', '.join(EXPERIMENT_SPECS)}",
                  file=sys.stderr)
            return 2
    else:
        names = list(EXPERIMENT_SPECS)

    cache = None if args.no_cache else DiskCache(args.cache_dir)

    def progress(event) -> None:
        source = (f"{event.seconds:.2f}s" if event.source == "run"
                  else event.source)
        print(f"[{event.index:3d}/{event.total}] {event.label:<55s} {source}",
              file=sys.stderr)

    # Experiment specs build their own SDTConfigs; the engine default
    # comes from REPRO_ENGINE and the fault plan from REPRO_FAULTS, so
    # exporting them here reaches every cell — including ones simulated
    # in worker processes.  Engine choice never changes results or cache
    # keys, only simulation speed; a fault plan never changes
    # architectural results but makes cells uncacheable.
    saved: dict[str, str | None] = {
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
        "REPRO_FAULTS": os.environ.get("REPRO_FAULTS"),
        "REPRO_TRACE": os.environ.get("REPRO_TRACE"),
    }
    os.environ["REPRO_ENGINE"] = resolve_engine(args.engine)
    if args.faults is not None:
        from repro.faults import parse_fault_plan

        plan = parse_fault_plan(args.faults)  # validate before exporting
        os.environ["REPRO_FAULTS"] = plan.describe() if plan else "off"
    if args.trace is not None:
        from repro.trace.spec import parse_trace_spec

        spec = parse_trace_spec(args.trace)  # validate before exporting
        os.environ["REPRO_TRACE"] = spec.describe() if spec else "off"
    try:
        _tables, report = run_experiments(
            names, scale=args.scale, jobs=args.jobs, cache=cache,
            progress=None if args.quiet else progress,
            timeout=args.timeout, retries=args.retries,
        )
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    print(
        f"\ncells: {report.requested} requested, {report.unique} unique "
        f"after dedup, {report.cache_hits} from cache, "
        f"{report.computed} simulated "
        f"({report.hit_rate:.0%} cache hits) in {report.elapsed:.1f}s "
        f"with {args.jobs} job(s)"
    )
    if report.failures:
        print(f"\nFAILED: {len(report.failures)} cell(s) quarantined "
              f"after {report.retries} retry(ies):", file=sys.stderr)
        for failure in report.failures.values():
            print(f"  [{failure.kind:7s}] {failure.label}  "
                  f"(attempts={failure.attempts}) {failure.error}",
                  file=sys.stderr)
        for name, labels in report.degraded.items():
            print(f"  degraded experiment {name}: {len(labels)} cell(s) "
                  f"missing; results file left untouched", file=sys.stderr)
        return 1
    return 0


def _cmd_fragments(args: argparse.Namespace) -> int:
    from repro.sdt.debug import dump_fragment_cache
    from repro.sdt.vm import SDTVM

    workload = get_workload(args.workload, args.scale)
    config = SDTConfig(profile=get_profile(args.profile), ib=args.ib,
                       trace_jumps=args.traces)
    vm = SDTVM(workload.compile(), config=config)
    vm.run()
    print(dump_fragment_cache(vm, disassemble=args.disassemble,
                              limit=args.limit))
    return 0


def _cmd_fanout(args: argparse.Namespace) -> int:
    from repro.eval.fanout import collect_fanout

    profile = collect_fanout(args.workload, scale=args.scale)
    print(
        f"{args.workload} [{args.scale}]: {len(profile.sites)} IB sites, "
        f"{profile.total_dispatches} dynamic dispatches"
    )
    print(
        f"monomorphic sites: {profile.sites_with_fanout(1, 1)} "
        f"({profile.dispatch_share(1, 1):.1%} of dispatches)"
    )
    print(f"max fan-out: {profile.max_fanout}, "
          f"dispatch-weighted mean: {profile.weighted_mean_fanout:.2f}")
    for site in sorted(profile.sites.values(),
                       key=lambda s: -s.fanout)[: args.limit]:
        print(
            f"  {site.kind:5s} @ {site.pc:#010x}: "
            f"{site.fanout} targets, {site.dispatches} dispatches"
        )
    return 0


def _load_guest_program(spec: str, scale: str):
    """Resolve a CLI program spec: workload name, ``.mc`` or ``.s`` file."""
    if spec.endswith(".mc"):
        from repro.lang import compile_to_program

        with open(spec) as handle:
            return compile_to_program(handle.read())
    if spec.endswith((".s", ".asm")):
        with open(spec) as handle:
            return assemble(handle.read())
    return get_workload(spec, scale).compile()


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analysis_to_json,
        analyze_program,
        format_analysis,
        format_targets,
        targets_to_json,
    )

    program = _load_guest_program(args.prog, args.scale)
    analysis = analyze_program(program)
    status = 0
    if args.targets:
        from repro.analysis import build_report, verify_report

        report = build_report(program, analysis=analysis)
        problems = verify_report(report)
        if problems:
            for problem in problems:
                print(f"certificate violation: {problem}", file=sys.stderr)
            return 2
        if args.strict and report.verdict_counts().get("unknown", 0):
            status = 1
        payload = targets_to_json(report)
        rendered = format_targets(report, limit=args.limit)
    else:
        payload = analysis_to_json(analysis)
        rendered = format_analysis(analysis, limit=args.limit)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    elif args.json:
        print(payload)
    else:
        print(f"program  : {args.prog}")
        print(rendered)
    if status:
        print("strict: unresolved (unknown) IB site(s) present",
              file=sys.stderr)
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import run_lint

    program = _load_guest_program(args.prog, args.scale)
    report = run_lint(program, only=args.check or None)
    if args.json:
        print(report.to_json())
    else:
        print(f"program  : {args.prog}")
        print(report.format())
    return 0 if report.clean else 1


def _cmd_crossval(args: argparse.Namespace) -> int:
    from repro.eval.static_dynamic import cross_validate, cross_validate_suite

    if args.workload == "all":
        reports = cross_validate_suite(scale=args.scale)
    else:
        reports = [cross_validate(args.workload, scale=args.scale)]
    if args.json:
        import json

        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.format(limit=args.limit))
    return 0 if all(report.all_sound for report in reports) else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    assembly = compile_source(source, optimize=args.optimize)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(assembly)
    else:
        print(assembly)
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source)
    print(
        f"text: {len(program.text.data)} bytes, "
        f"data: {len(program.data.data)} bytes, "
        f"entry: {program.entry:#x}"
    )
    if args.run:
        result = run_program(program)
        print(result.output, end="")
        return result.exit_code
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sdt",
        description="SDT indirect-branch mechanism evaluation (CGO'07 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/profiles/experiments")

    run = sub.add_parser("run", help="run one workload under one SDT config")
    run.add_argument("workload")
    run.add_argument("--scale", default="small",
                     choices=("tiny", "small", "large"))
    run.add_argument("--profile", default="x86_p4")
    run.add_argument("--ib", default="ibtc",
                     choices=("reentry", "ibtc", "sieve"))
    run.add_argument("--ibtc-entries", type=int, default=4096)
    run.add_argument("--ibtc-persite", action="store_true")
    run.add_argument("--sieve-buckets", type=int, default=512)
    run.add_argument("--returns", default="same",
                     choices=("same", "fast", "shadow", "retcache"))
    run.add_argument("--no-linking", action="store_true")
    run.add_argument(
        "--static-targets", action="store_true",
        help="enable translator-time devirtualization and IBTC/sieve "
        "preseeding from the whole-program target-set analysis",
    )
    run.add_argument(
        "--coherence", default="none", choices=COHERENCE_POLICIES,
        help="code-cache coherence policy for guests that write their "
        "own code (required for the smc_loop/dyn_loader/mini_jit "
        "scenarios)",
    )
    run.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="simulation engine (default: threaded, or $REPRO_ENGINE); "
        "oracle/threaded/tier2 results are identical, only simulator "
        "speed differs",
    )
    run.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="fault-injection plan (light/chaos/storm, profile:seed or "
        "k=v list; default: $REPRO_FAULTS)",
    )
    run.add_argument(
        "--trace", nargs="?", const="on", default=None, metavar="SPEC",
        help="structured event tracing: bare flag or 'ring=N,dir=PATH' "
        "(default: $REPRO_TRACE); exports Chrome-trace + metrics JSON "
        "under results/trace/ and never changes results",
    )
    run.add_argument("--json", action="store_true",
                     help="machine-readable output")

    trace = sub.add_parser(
        "trace",
        help="traced run: per-phase cycle attribution, event counters, "
        "Chrome trace_event + metrics JSON exports",
    )
    trace.add_argument("workload")
    trace.add_argument("--scale", default="small",
                       choices=("tiny", "small", "large"))
    trace.add_argument("--profile", default="x86_p4")
    trace.add_argument("--mechanism", "--ib", dest="mechanism",
                       default="ibtc", choices=("reentry", "ibtc", "sieve"))
    trace.add_argument("--ibtc-entries", type=int, default=4096)
    trace.add_argument("--sieve-buckets", type=int, default=512)
    trace.add_argument("--returns", default="same",
                       choices=("same", "fast", "shadow", "retcache"))
    trace.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="simulation engine (default: threaded, or $REPRO_ENGINE)",
    )
    trace.add_argument("--ring", type=int, default=65536,
                       help="event ring-buffer capacity (default: 65536)")
    trace.add_argument("--out", default="results/trace", metavar="DIR",
                       help="export directory (default: results/trace)")
    trace.add_argument("--json", action="store_true",
                       help="print the metrics JSON instead of the summary")

    experiments = sub.add_parser(
        "experiments",
        help="regenerate experiments on the parallel, disk-cached executor",
    )
    experiments.add_argument(
        "--only", default=None, metavar="e3,e6",
        help="comma-separated experiment subset (default: all)",
    )
    experiments.add_argument("--scale", default="small",
                             choices=("tiny", "small", "large"))
    experiments.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial in-process)",
    )
    experiments.add_argument(
        "--no-cache", action="store_true",
        help="bypass the results/.cache disk cache entirely",
    )
    experiments.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-cache root (default: results/.cache)",
    )
    experiments.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress output",
    )
    experiments.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="simulation engine for every cell (default: threaded, or "
        "$REPRO_ENGINE); does not affect results or cache keys",
    )
    experiments.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell watchdog: kill and quarantine cells that run "
        "longer (forces pool execution even with --jobs 1)",
    )
    experiments.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-executions granted to a failing cell before quarantine "
        "(default: 2)",
    )
    experiments.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="fault-injection plan for every cell: a profile "
        "(light/chaos/storm), profile:seed, k=v list, or 'off' "
        "(default: $REPRO_FAULTS); never changes architectural results, "
        "but faulted cells bypass all result caches",
    )
    experiments.add_argument(
        "--trace", default=None, metavar="SPEC",
        help="structured tracing for every cell ('on', 'off', or "
        "'ring=N,dir=PATH'; default: $REPRO_TRACE); cells that actually "
        "simulate export trace/metrics JSON when dir= is set — "
        "cache-served cells have no event stream to export",
    )

    fragments = sub.add_parser(
        "fragments", help="dump a workload's fragment cache after a run"
    )
    fragments.add_argument("workload")
    fragments.add_argument("--scale", default="tiny",
                           choices=("tiny", "small", "large"))
    fragments.add_argument("--profile", default="x86_p4")
    fragments.add_argument("--ib", default="ibtc",
                           choices=("reentry", "ibtc", "sieve"))
    fragments.add_argument("--traces", action="store_true")
    fragments.add_argument("--disassemble", action="store_true")
    fragments.add_argument("--limit", type=int, default=10)

    fanout = sub.add_parser(
        "fanout", help="per-site indirect-branch target fan-out profile"
    )
    fanout.add_argument("workload")
    fanout.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "large"))
    fanout.add_argument("--limit", type=int, default=10)

    analyze = sub.add_parser(
        "analyze", help="static CFG and indirect-branch site analysis"
    )
    analyze.add_argument("prog", help="workload name, .mc file, or .s file")
    analyze.add_argument("--scale", default="tiny",
                         choices=("tiny", "small", "large"))
    analyze.add_argument("--limit", type=int, default=20)
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable output (deterministic "
                         "sorted-key JSON)")
    analyze.add_argument(
        "--targets", action="store_true",
        help="run the whole-program target-set analysis (dataflow + "
        "verdicts + soundness certificates) instead of the site summary",
    )
    analyze.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report to PATH instead of stdout",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="with --targets: exit nonzero when any IB site's verdict "
        "is 'unknown'",
    )

    lint = sub.add_parser(
        "lint", help="run static lint checks over a guest program"
    )
    lint.add_argument("prog", help="workload name, .mc file, or .s file")
    lint.add_argument("--scale", default="tiny",
                      choices=("tiny", "small", "large"))
    lint.add_argument("--check", action="append", metavar="ID",
                      help="run only this check (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable output")

    crossval = sub.add_parser(
        "crossval",
        help="cross-validate static fan-out bounds against a dynamic run",
    )
    crossval.add_argument("workload", help="workload name, or 'all'")
    crossval.add_argument("--scale", default="tiny",
                          choices=("tiny", "small", "large"))
    crossval.add_argument("--limit", type=int, default=10)
    crossval.add_argument("--json", action="store_true",
                          help="machine-readable output")

    compile_cmd = sub.add_parser("compile", help="compile MiniC to assembly")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("-o", "--output")
    compile_cmd.add_argument("-O", "--optimize", action="store_true",
                             help="enable constant folding/simplification")

    asm = sub.add_parser("asm", help="assemble (and optionally run) SR32 asm")
    asm.add_argument("file")
    asm.add_argument("--run", action="store_true")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "experiments": _cmd_experiments,
    "fragments": _cmd_fragments,
    "fanout": _cmd_fanout,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "crossval": _cmd_crossval,
    "compile": _cmd_compile,
    "asm": _cmd_asm,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
