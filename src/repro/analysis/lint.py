"""Static lint engine for SR32 program images.

Checks are pluggable: each is a function ``(StaticAnalysis) ->
Iterable[Diagnostic]`` registered under a stable id with
:func:`lint_check`.  :func:`run_lint` runs a selected set of checks over a
program and returns a :class:`LintReport` whose ``clean`` property is the
repo-wide gate (no error- or warning-severity findings).

Shipped checks
==============

``unreachable-code``
    decodable instructions no static path reaches (from the entry point,
    any exported label, any address-taken code address, or a recovered
    jump table).
``text-fallthrough``
    a block that can fall through past the end of the text section, or
    into an undecodable word.
``clobbered-link-register``
    a return reachable while ``ra`` no longer holds the caller's return
    address (a call or other write clobbered it and no reload happened).
``stack-imbalance``
    a return where the net stack-pointer adjustment since function entry
    is provably non-zero.
``zero-register-write``
    an instruction whose destination is the hardwired zero register
    (other than the canonical ``nop`` encoding).
``store-to-text``
    a store whose address is statically known to land inside the text
    section.  It guards assumptions A1/A2 of the target analysis
    (docs/analysis.md) for the 12 workloads and the example guests,
    which run under the default ``coherence=none``: that policy detects
    no code writes.  The three self-modifying scenarios are outside this
    bar; ``coherence=flush|page|targeted`` sees their writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.cfg import TERM_RET
from repro.analysis.classify import StaticAnalysis, analyze_program, constant_states
from repro.isa.opcodes import InstrClass, Op
from repro.isa.program import Program
from repro.isa.registers import REG_FP, REG_RA, REG_SP, REG_ZERO

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structured lint finding."""

    check: str
    severity: str
    pc: int | None
    message: str
    function: str | None = None

    def format(self) -> str:
        where = f"{self.pc:#010x}" if self.pc is not None else "--"
        func = f" [{self.function}]" if self.function else ""
        return f"{self.severity:7s} {where} {self.check}: {self.message}{func}"

    def to_dict(self) -> dict[str, object]:
        return {
            "check": self.check,
            "severity": self.severity,
            "pc": self.pc,
            "message": self.message,
            "function": self.function,
        }


@dataclass(slots=True)
class LintReport:
    """All diagnostics from one lint run."""

    diagnostics: list[Diagnostic]
    checks_run: tuple[str, ...]

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == SEV_ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == SEV_WARNING)

    @property
    def clean(self) -> bool:
        """No findings at warning severity or above."""
        return self.errors == 0 and self.warnings == 0

    def by_check(self, check: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.check == check]

    def format(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.diagnostics)} finding(s): {self.errors} error(s), "
            f"{self.warnings} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "checks": list(self.checks_run),
                "clean": self.clean,
                "errors": self.errors,
                "warnings": self.warnings,
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )


CheckFn = Callable[[StaticAnalysis], Iterable[Diagnostic]]

#: Registry of all known checks, id -> implementation.
LINT_CHECKS: dict[str, CheckFn] = {}


def lint_check(check_id: str) -> Callable[[CheckFn], CheckFn]:
    """Register a lint check under a stable id."""

    def wrap(fn: CheckFn) -> CheckFn:
        if check_id in LINT_CHECKS:
            raise ValueError(f"duplicate lint check {check_id!r}")
        LINT_CHECKS[check_id] = fn
        return fn

    return wrap


def _func_name(analysis: StaticAnalysis, pc: int) -> str | None:
    func = analysis.function_of(pc)
    if func is None:
        return None
    if func.name:
        return func.name
    return f"func@{func.entry:#x}"


# -- checks -----------------------------------------------------------------


@lint_check("unreachable-code")
def check_unreachable(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    cfg = analysis.cfg
    program = analysis.program
    roots: set[int] = set(analysis.address_taken)
    if cfg.in_text(program.entry):
        roots.add(program.entry)
    # exported (non-local) labels count as entry points: a library image
    # may legitimately contain functions nothing in-image calls.
    for name, addr in program.symbols.items():
        if not name.startswith(".") and cfg.in_text(addr):
            roots.add(addr)
    reached = cfg.reachable_blocks(roots, analysis.indirect_successors())
    for start, block in sorted(cfg.blocks.items()):
        if start in reached or not block.instrs:
            continue
        count = len(block.instrs)
        yield Diagnostic(
            check="unreachable-code",
            severity=SEV_WARNING,
            pc=start,
            message=f"{count} unreachable instruction(s)",
            function=_func_name(analysis, start),
        )


@lint_check("text-fallthrough")
def check_text_fallthrough(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    cfg = analysis.cfg
    for start, block in sorted(cfg.blocks.items()):
        if not block.instrs or not block.falls_through:
            continue
        nxt = block.end
        if nxt >= cfg.text_hi:
            yield Diagnostic(
                check="text-fallthrough",
                severity=SEV_ERROR,
                pc=block.last[0],
                message="control can fall through past the end of .text",
                function=_func_name(analysis, start),
            )
        elif cfg.instrs.get(nxt) is None:
            yield Diagnostic(
                check="text-fallthrough",
                severity=SEV_ERROR,
                pc=block.last[0],
                message="control can fall through into a non-instruction word",
                function=_func_name(analysis, start),
            )


def _function_blocks(analysis: StaticAnalysis, entry: int, limit: int) -> list[int]:
    return [
        start
        for start in analysis.cfg.blocks
        if entry <= start < limit
    ]


@lint_check("clobbered-link-register")
def check_clobbered_link(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    cfg = analysis.cfg
    CLEAN, DIRTY = 0, 1
    for func in analysis.functions:
        block_starts = _function_blocks(analysis, func.entry, func.limit)
        if not block_starts:
            continue
        state: dict[int, int] = {}
        work = [(func.entry, CLEAN)] if func.entry in cfg.blocks else []
        reported: set[int] = set()
        while work:
            start, ra_state = work.pop()
            prev = state.get(start)
            if prev is not None and prev >= ra_state:
                continue
            state[start] = max(prev or 0, ra_state)
            block = cfg.blocks.get(start)
            if block is None:
                continue
            current = ra_state
            for pc, instr in block.instrs:
                op = instr.op
                if block.terminator == TERM_RET and (pc, instr) == block.instrs[-1]:
                    if current == DIRTY and pc not in reported:
                        reported.add(pc)
                        yield Diagnostic(
                            check="clobbered-link-register",
                            severity=SEV_ERROR,
                            pc=pc,
                            message="return executes with a clobbered ra "
                                    "(no save/restore around the clobber)",
                            function=_func_name(analysis, pc),
                        )
                    continue
                if op is Op.LW and instr.rt == REG_RA:
                    current = CLEAN
                elif op is Op.JAL or instr.writes_reg == REG_RA:
                    current = DIRTY
            for succ in block.successors:
                if func.entry <= succ < func.limit:
                    work.append((succ, current))
            last = block.last
            if last is not None and last[0] in analysis.sites:
                site = analysis.sites[last[0]]
                if site.bounded and site.role == "jump-table":
                    for target in site.targets:
                        if func.entry <= target < func.limit:
                            work.append((target, current))


@lint_check("stack-imbalance")
def check_stack_imbalance(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    cfg = analysis.cfg
    TOP = None
    for func in analysis.functions:
        entry = func.entry
        if entry not in cfg.blocks:
            continue
        # state: (sp offset, fp offset) relative to sp at function entry
        state: dict[int, tuple[int | None, int | None]] = {}
        work: list[tuple[int, tuple[int | None, int | None]]] = [(entry, (0, TOP))]
        reported: set[int] = set()
        visits = 0
        while work and visits < 4 * len(cfg.blocks) + 16:
            visits += 1
            start, incoming = work.pop()
            prev = state.get(start)
            if prev is not None:
                merged = tuple(
                    a if a == b else TOP for a, b in zip(prev, incoming)
                )
                if merged == prev:
                    continue
                incoming = merged  # type: ignore[assignment]
            state[start] = incoming  # type: ignore[assignment]
            block = cfg.blocks.get(start)
            if block is None:
                continue
            sp, fp = incoming
            for pc, instr in block.instrs:
                op = instr.op

                def value_of(reg: int) -> int | None:
                    if reg == REG_SP:
                        return sp
                    if reg == REG_FP:
                        return fp
                    return TOP

                if block.terminator == TERM_RET and (pc, instr) == block.instrs[-1]:
                    if sp is not None and sp != 0 and pc not in reported:
                        reported.add(pc)
                        yield Diagnostic(
                            check="stack-imbalance",
                            severity=SEV_WARNING,
                            pc=pc,
                            message=f"return with sp off by {sp:+d} bytes "
                                    "relative to function entry",
                            function=_func_name(analysis, pc),
                        )
                    continue
                dest = instr.writes_reg
                if dest not in (REG_SP, REG_FP):
                    continue
                new: int | None = TOP
                if op is Op.ADDI:
                    base = value_of(instr.rs)
                    if base is not None:
                        new = base + instr.imm
                elif op in (Op.OR, Op.ADD):
                    # `mv rd, rs` assembles to `or rd, rs, zero`
                    if instr.rt == REG_ZERO:
                        new = value_of(instr.rs)
                    elif instr.rs == REG_ZERO:
                        new = value_of(instr.rt)
                if dest == REG_SP:
                    sp = new
                else:
                    fp = new
            for succ in block.successors:
                if func.entry <= succ < func.limit:
                    work.append((succ, (sp, fp)))
            last = block.last
            if last is not None and last[0] in analysis.sites:
                site = analysis.sites[last[0]]
                if site.bounded and site.role == "jump-table":
                    for target in site.targets:
                        if func.entry <= target < func.limit:
                            work.append((target, (sp, fp)))


@lint_check("zero-register-write")
def check_zero_register_write(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    for pc, instr in analysis.cfg.linear():
        if instr.writes_reg != REG_ZERO:
            continue
        if instr.op is Op.SLL and instr.rd == 0 and instr.rt == 0 and instr.shamt == 0:
            continue  # canonical nop
        yield Diagnostic(
            check="zero-register-write",
            severity=SEV_WARNING,
            pc=pc,
            message=f"{instr.op.value} writes to the hardwired zero register",
            function=_func_name(analysis, pc),
        )


@lint_check("store-to-text")
def check_store_to_text(analysis: StaticAnalysis) -> Iterable[Diagnostic]:
    cfg = analysis.cfg
    for pc, instr, consts in constant_states(cfg.linear()):
        if instr.iclass is not InstrClass.STORE:
            continue
        base = consts.get(instr.rs)
        if base is None:
            continue
        addr = (base + instr.imm) & 0xFFFFFFFF
        if cfg.text_lo <= addr < cfg.text_hi:
            yield Diagnostic(
                check="store-to-text",
                severity=SEV_ERROR,
                pc=pc,
                message=f"store to {addr:#010x} inside .text "
                        "(self-modifying code)",
                function=_func_name(analysis, pc),
            )


# -- driver -----------------------------------------------------------------


def run_lint(
    target: Program | StaticAnalysis,
    only: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> LintReport:
    """Run lint checks over a program (or a pre-built analysis)."""
    analysis = (
        target if isinstance(target, StaticAnalysis) else analyze_program(target)
    )
    selected = list(only) if only is not None else sorted(LINT_CHECKS)
    ignored = set(ignore)
    diagnostics: list[Diagnostic] = []
    run: list[str] = []
    for check_id in selected:
        if check_id in ignored:
            continue
        try:
            fn = LINT_CHECKS[check_id]
        except KeyError:
            raise KeyError(
                f"unknown lint check {check_id!r}; "
                f"available: {sorted(LINT_CHECKS)}"
            ) from None
        run.append(check_id)
        diagnostics.extend(fn(analysis))
    diagnostics.sort(key=lambda d: (d.pc if d.pc is not None else -1, d.check))
    return LintReport(diagnostics=diagnostics, checks_run=tuple(run))
