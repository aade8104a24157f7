"""Tier-2 execution: profile-guided region compilation to Python source.

The threaded engine (:mod:`repro.machine.engine`) removed per-instruction
dispatch by compiling each block into one function, but every hot region
still pays one dispatch round-trip per block per iteration and keeps
guest registers in a list.  This module removes those too: when a block's
execution counter crosses a threshold, a *region* is grown along its hot
direct-branch successors and compiled — ``compile()``/``exec()`` — into a
single Python function of straight-line source:

- guest registers become Python locals (``r5``), loaded once at region
  entry and spilled at every exit, so a loop iteration touches no
  register file at all;
- immediates, branch targets, sign-extension masks and r0 reads are
  constant-folded into the source;
- block-level accounting is preserved exactly: one APP cycle commit
  and one class-count commit per block, and the same predictor events
  at the same sites as the tier below;
- region exits fuse the tier-1 exit protocol (link following, return
  bookkeeping, IBTC/sieve dispatch) directly into the generated code.

**Deoptimization.**  Guards at every block boundary keep the tiers
architecturally indistinguishable: a fuel guard (the next block would
overshoot the budget), a link guard (the region-internal edge was
unlinked by an invalidation or flush) and — under fault injection — a
plan-coherence guard.  A failing guard spills the registers and returns
control to the tier-1 loop *without executing the next block*, so the
slow path replays it with per-instruction fuel/exit semantics and the
run stops, faults and charges exactly like the oracle engine.

**Fault replay.**  Generated source has exactly one line per guest
instruction, recorded in a line table.  When a body line raises, the
recovery path reads the region frame's locals out of the traceback
(registers) and hands the partially executed block to
:meth:`repro.machine.runner.BlockRunner._account_partial` — the same
routine the whole-block body uses in the tiers below, so it leaves
``cpu.pc`` on the faulting instruction — then re-raises.

**One region builder.**  Both harnesses share :class:`_Regions`: the
body-codegen walk, the growth loop, the source skeleton, execution and
fault replay.  :class:`Tier2Runtime` (SDT) and :class:`InterpreterTier2`
supply only their eligibility check, successor hook (the hottest patched
link vs. the static edge), exit and boundary emitters, namespace and
discard hooks.

Regions never survive code mutation: the SDT runtime, one of the
fragment cache's holders, discards any region holding an invalidated
fragment and drops everything on a cache flush; the interpreter runtime
discards regions overlapping any watched-page write.  Promotion state
is profile data, not architecture, so ``engine="tier2"`` stays
fingerprint-exempt like the other engines.

Tuning knob (environment): ``REPRO_TIER2_THRESHOLD`` (promotions occur
once a block has executed this many times, default 64).
"""

from __future__ import annotations

import os
import re
from collections import Counter
from typing import TYPE_CHECKING

from repro.host.costs import Category
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONTROL_CLASSES, InstrClass, Op
from repro.isa.registers import REG_RA
from repro.machine.cpu import s32
from repro.machine.executor import _sdiv, _srem
from repro.machine.memory import (
    WORD_NAMES,
    load_word_source,
    store_word_source,
)
from repro.sdt.cache import FragmentHolder
from repro.sdt.fragment import ExitKind, Fragment

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.machine.engine import Superblock
    from repro.machine.interpreter import Interpreter
    from repro.machine.runner import BlockRunner
    from repro.sdt.vm import SDTVM

U32 = 0xFFFFFFFF
_SBIT = 0x8000_0000

#: Block executions before a promotion attempt (``REPRO_TIER2_THRESHOLD``).
DEFAULT_PROMOTE_THRESHOLD = 64

#: Maximum blocks per region.
MAX_REGION_BLOCKS = 8


def promote_threshold() -> int:
    """Promotion threshold, overridable for tests/experiments."""
    return int(os.environ.get("REPRO_TIER2_THRESHOLD",
                              DEFAULT_PROMOTE_THRESHOLD))


# -- per-instruction source generation ---------------------------------------

def _read(reg: int) -> str:
    """Source expression reading a guest register (r0 folds to 0)."""
    return "0" if reg == 0 else f"r{reg}"


#: Source templates, built once at import.  ``instr_source`` runs for
#: every instruction of every promotion candidate, so it must not build
#: expression tables per call — it fills exactly one template.  ``lw``
#: and ``sw`` access the page in place with the statements
#: :mod:`repro.machine.memory` owns, joined onto one line.
_MEM_TPL = {
    Op.LW: "; ".join(load_word_source("r{t}", "{addr}")),
    Op.LBU: "r{t} = _mlb({addr})",
    Op.LHU: "r{t} = _mlh({addr})",
    Op.LB: f"_t = _mlb({{addr}}); "
    f"r{{t}} = _t | {0xFFFFFF00} if _t & 0x80 else _t",
    Op.LH: f"_t = _mlh({{addr}}); "
    f"r{{t}} = _t | {0xFFFF0000} if _t & 0x8000 else _t",
}
_STORE_TPL = {
    Op.SW: "; ".join(store_word_source("{addr}", "{b}")),
    Op.SB: "_msb({addr}, {b})",
    Op.SH: "_msh({addr}, {b})",
}
_ALU_IMM_TPL = {
    Op.ADDI: f"r{{t}} = ({{a}} + {{imm}}) & {U32}",
    Op.ANDI: "r{t} = {a} & {imm}",
    Op.ORI: "r{t} = {a} | {imm}",
    Op.XORI: "r{t} = {a} ^ {imm}",
}
_ALU_R3_TPL = {
    Op.ADD: f"r{{d}} = ({{a}} + {{b}}) & {U32}",
    Op.SUB: f"r{{d}} = ({{a}} - {{b}}) & {U32}",
    Op.AND: "r{d} = {a} & {b}",
    Op.OR: "r{d} = {a} | {b}",
    Op.XOR: "r{d} = {a} ^ {b}",
    Op.NOR: f"r{{d}} = ~({{a}} | {{b}}) & {U32}",
    Op.SLT: f"r{{d}} = 1 if ({{a}} ^ {_SBIT}) < ({{b}} ^ {_SBIT}) else 0",
    Op.SLTU: "r{d} = 1 if {a} < {b} else 0",
    Op.MUL: f"r{{d}} = ({{a}} * {{b}}) & {U32}",
    Op.DIV: f"r{{d}} = _sdiv(_sx({{a}}), _sx({{b}})) & {U32}",
    Op.REM: f"r{{d}} = _srem(_sx({{a}}), _sx({{b}})) & {U32}",
    Op.SLLV: f"r{{d}} = ({{a}} << ({{b}} & 31)) & {U32}",
    Op.SRLV: "r{d} = {a} >> ({b} & 31)",
    Op.SRAV: f"r{{d}} = (_sx({{a}}) >> ({{b}} & 31)) & {U32}",
}
_SHIFT_TPL = {
    Op.SLL: f"r{{d}} = ({{b}} << {{sh}}) & {U32}",
    Op.SRL: "r{d} = {b} >> {sh}",
    Op.SRA: f"r{{d}} = (_sx({{b}}) >> {{sh}}) & {U32}",
}


def instr_source(
    pc: int, instr: Instruction
) -> tuple[str, set[int], int] | None:
    """One source line for a non-terminator instruction, the non-zero
    registers it touches, and the register it writes (0 for stores) — or
    ``None`` when the shape is not specialisable (writes to r0,
    syscalls) and the block must stay on the tiers below.

    Every line matches the block templates of
    :mod:`repro.machine.engine` (and therefore the oracle executor) bit
    for bit; fault side effects occur at the same point in the same
    order.  Template groups are probed in
    rough frequency order (memory + ALU-imm dominate block bodies).
    """
    op = instr.op
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    imm = instr.imm

    tpl = _MEM_TPL.get(op)
    if tpl is not None:
        if not rt:
            return None
        addr = f"({_read(rs)} + {imm}) & {U32}"
        return tpl.format(t=rt, addr=addr), {rs, rt} - {0}, rt
    tpl = _STORE_TPL.get(op)
    if tpl is not None:
        addr = f"({_read(rs)} + {imm}) & {U32}"
        return tpl.format(addr=addr, b=_read(rt)), {rs, rt} - {0}, 0
    tpl = _ALU_IMM_TPL.get(op)
    if tpl is not None:
        if not rt:
            return None
        return tpl.format(t=rt, a=_read(rs), imm=imm), {rs, rt} - {0}, rt
    tpl = _ALU_R3_TPL.get(op)
    if tpl is not None:
        if not rd:
            return None
        return (tpl.format(d=rd, a=_read(rs), b=_read(rt)),
                {rs, rt, rd} - {0}, rd)
    tpl = _SHIFT_TPL.get(op)
    if tpl is not None:
        if not rd:
            return None
        return (tpl.format(d=rd, b=_read(rt), sh=instr.shamt),
                {rt, rd} - {0}, rd)

    if op is Op.SLTI:
        if not rt:
            return None
        return (f"r{rt} = 1 if ({_read(rs)} ^ {_SBIT}) < "
                f"{(imm & U32) ^ _SBIT} else 0", {rs, rt} - {0}, rt)
    if op is Op.SLTIU:
        if not rt:
            return None
        return (f"r{rt} = 1 if {_read(rs)} < {imm & U32} else 0",
                {rs, rt} - {0}, rt)
    if op is Op.LUI:
        if not rt:
            return None
        return f"r{rt} = {(imm << 16) & U32}", {rt}, rt

    if op is Op.J:
        # mid-body direct jump (trace_jumps inlining): the successor
        # instructions follow in the same block, so the jump itself is
        # architecturally a no-op here — it still retires and counts.
        return "pass", set(), 0

    return None  # control terminators, SYSCALL, HALT: not a body shape


_BRANCH_CONDS = {
    Op.BEQ: "{a} == {b}",
    Op.BNE: "{a} != {b}",
    Op.BLT: "({a} ^ %d) < ({b} ^ %d)" % (_SBIT, _SBIT),
    Op.BGE: "({a} ^ %d) >= ({b} ^ %d)" % (_SBIT, _SBIT),
    Op.BLTU: "{a} < {b}",
    Op.BGEU: "{a} >= {b}",
}


def term_source(
    pc: int, instr: Instruction
) -> tuple[str, str, set[int], int] | None:
    """Source for a control terminator:
    (line, next-pc expression, regs, written register).

    The line executes the instruction's register effects and, where the
    successor is dynamic, assigns ``_npc``; the returned expression is
    the next guest PC *after* the line ran.  ``None`` marks terminators
    that end tier-2 eligibility (``SYSCALL``/``HALT``).
    """
    op = instr.op
    npc = (pc + 4) & U32
    cond = _BRANCH_CONDS.get(op)
    if cond is not None:
        tgt = instr.branch_target(pc)
        test = cond.format(a=_read(instr.rs), b=_read(instr.rt))
        line = f"_npc = {tgt} if {test} else {npc}"
        return line, "_npc", {instr.rs, instr.rt} - {0}, 0
    if op is Op.J:
        return "pass", str(instr.branch_target(pc)), set(), 0
    if op is Op.JAL:
        return (f"r{REG_RA} = {npc}", str(instr.branch_target(pc)),
                {REG_RA}, REG_RA)
    if op is Op.JR:
        return (f"_npc = {_read(instr.rs)}", "_npc",
                {instr.rs} - {0}, 0)
    if op is Op.JALR:
        regs = {instr.rs} - {0}
        if not instr.rd:
            return f"_npc = {_read(instr.rs)}", "_npc", regs, 0
        # target is read before the link write (rd == rs case)
        return (f"_npc = {_read(instr.rs)}; r{instr.rd} = {npc}",
                "_npc", regs | {instr.rd}, instr.rd)
    if op is Op.RET:
        return f"_npc = r{REG_RA}", "_npc", {REG_RA}, 0
    return None  # SYSCALL / HALT


def _join(*parts: str) -> str:
    """Join non-empty statements with ``;`` (for single-line suites)."""
    return "; ".join(part for part in parts if part)


class _SourceBuilder:
    """Accumulates numbered source lines plus the body line table."""

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.line_table: dict[int, tuple[int, int]] = {}

    def add(self, indent: int, text: str,
            member: int | None = None, k: int | None = None) -> None:
        self.lines.append(" " * indent + text)
        if member is not None:
            self.line_table[len(self.lines)] = (member, k)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Hot callables bound as default arguments (body-line speed); everything
#: colder resolves through the generated function's globals.
_HOT_DEFAULTS = ("_mlh", "_mlb", "_msh", "_msb", "_sx", "_sdiv",
                 "_srem") + WORD_NAMES


def _def_line(extra: str = "") -> str:
    binds = ", ".join(f"{name}={name}" for name in _HOT_DEFAULTS)
    return f"def _region(rem, {binds}{extra}):"


_HOT_SET = frozenset(_HOT_DEFAULTS)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _extra_binds(ns: dict, body: str) -> str:
    """Default-arg bindings for the namespace names the body actually
    references, so the generated code reads them as locals
    (``LOAD_FAST``) rather than dict-backed globals — measurable on loop
    regions, where the guards re-read fragment/block identities every
    iteration.  Unreferenced names are left out: every default arg costs
    compile time and the namespace routinely holds more (all
    ``InstrClass`` members, chaos-only plans) than a region uses."""
    tokens = set(_TOKEN_RE.findall(body))
    return "".join(
        f", {name}={name}" for name in ns
        if name not in _HOT_SET and name in tokens
    )


def _spill(used: list[int]) -> str:
    return "; ".join(f"_regs[{reg}] = r{reg}" for reg in used)


def _loads(used: list[int]) -> str:
    if not used:
        return "pass"
    return "; ".join(f"r{reg} = _regs[{reg}]" for reg in used)


def _class_commit(class_counts) -> str:
    return "; ".join(
        f"_cnt[_ic_{iclass.name}] += {count}"
        for iclass, count in class_counts.items()
    )


def _guard(cond: str, spill: str, *tail: str) -> str:
    """A one-line guard: when ``cond`` holds, spill and run ``tail``."""
    return _join(f"if {cond}: {spill or 'pass'}", *tail)


def _body(pairs):
    """Eligibility check and body codegen in a single walk.

    Returns ``(lines, npc_expr, used_regs, written_regs, term)`` — the
    per-instruction source lines (with their in-block index ``k``), the
    expression for the next guest PC after the terminator, the non-zero
    registers the body touches, the subset it writes and the last
    instruction — or ``None`` when the block must stay on the threaded
    tier.
    """
    lines: list[tuple[str, int]] = []
    used: set[int] = set()
    written: set[int] = set()
    last = len(pairs) - 1
    npc_expr = str((pairs[last][0] + 4) & U32)
    for k, (pc, instr) in enumerate(pairs):
        if k == last and instr.iclass in CONTROL_CLASSES:
            gen = term_source(pc, instr)
            if gen is None:
                return None
            line, npc_expr, regs, wr = gen
        else:
            gen = instr_source(pc, instr)
            if gen is None:
                return None
            line, regs, wr = gen
        used |= regs
        if wr:
            written.add(wr)
        lines.append((line, k))
    return lines, npc_expr, used, written, pairs[last][1]


class Region:
    """A compiled region: the function plus fault-replay metadata."""

    __slots__ = ("fn", "members", "filename", "line_table", "used_regs",
                 "member_meta")

    def __init__(self, fn, members, filename, line_table, used_regs,
                 member_meta):
        self.fn = fn
        #: member blocks (interpreter) or fragments (SDT), head first
        self.members = members
        self.filename = filename
        #: source line number -> (member index, in-block index)
        self.line_table = line_table
        self.used_regs = used_regs
        #: per-member ``(pcs, iclasses)`` snapshots for fault replay —
        #: snapshots, not live plans, because a store inside the region
        #: may invalidate a member (clearing its plan) before a later
        #: instruction faults
        self.member_meta = member_meta

    @property
    def entry_pc(self) -> int:
        return self.member_meta[0][0][0]


class _Regions:
    """Region formation, compilation, execution and fault replay.

    Shared by both harnesses.  A subclass supplies the harness hooks:
    ``_pairs`` (eligibility: a member's ``(pc, instruction)`` pairs, or
    ``None``), ``_plan`` (a member's :class:`Superblock`), ``_successor``
    (the edge to grow along), ``_namespace``, the ``_exit`` and
    ``_boundary`` source emitters, and its discard hooks.  Promotions,
    compile errors and discards are counted in ``stats``.
    """

    #: generated-code filename prefix (``<TAG 0xHEAD>``)
    TAG = "tier2"

    def __init__(self, owner: "BlockRunner", stats: Counter):
        self.owner = owner
        self.stats = stats
        self.threshold = promote_threshold()
        #: id(head member) -> region
        self._regions: dict[int, Region] = {}

    # -- promotion -----------------------------------------------------------

    def _probe(self, member):
        pairs = self._pairs(member)
        return None if pairs is None else _body(pairs)

    def try_promote(self, head) -> Region | None:
        """Grow and compile a region headed by ``head``.

        On success the region is installed on ``head.region``; on
        ineligibility the sentinel ``False`` is stored so the member is
        never probed again (a fresh block or fragment starts clean).
        """
        body = self._probe(head)
        if body is None:
            head.region = False
            return None
        members = [head]
        bodies = [body]
        keys: list = []
        seen = {id(head)}
        loop = False
        current = head
        while len(members) < MAX_REGION_BLOCKS:
            edge = self._successor(current, bodies[-1], head)
            if edge is None:
                break
            key, nxt = edge
            if nxt is head:
                keys.append(key)
                loop = True
                break
            if id(nxt) in seen:
                break
            nxt_body = self._probe(nxt)
            if nxt_body is None:
                break
            keys.append(key)
            members.append(nxt)
            bodies.append(nxt_body)
            seen.add(id(nxt))
            current = nxt
        try:
            region = self._compile(members, keys, loop, bodies)
        except Exception:
            # a compile failure must never take the run down — the
            # threaded tier is always correct; surface it in stats so
            # the tier-2 checks can assert it never happens
            self.stats["compile_error"] += 1
            head.region = False
            return None
        head.region = region
        self._regions[id(head)] = region
        self.stats["promote"] += 1
        trace = self.owner.trace
        if trace is not None:
            trace.emit("tier2.promote", pc=region.entry_pc,
                       blocks=len(members), loop=loop)
        return region

    # -- code generation -----------------------------------------------------

    def _compile(self, members, keys, loop: bool, bodies) -> Region:
        """Emit and compile the region source.

        ``bodies`` carries the per-member :func:`_body` tuples the
        promotion probe already generated — codegen never re-walks the
        instructions.

        Code-size discipline keeps ``compile()`` cheap (it dominates the
        cost of a promotion): exits spill only registers the region
        *writes* (anything else still equals its entry value in
        ``_regs``), each internal boundary folds its guards into one
        conditional, and the def line binds only names the body
        references.
        """
        owner = self.owner
        model = owner.model
        mem = owner.mem
        plans = [self._plan(member) for member in members]
        used: set[int] = set()
        written: set[int] = set()
        for _lines, _npc, regs, wregs, _term in bodies:
            used |= regs
            written |= wregs

        order = sorted(used)
        spill = _spill(sorted(written))
        filename = f"<{self.TAG} {plans[0].entry_pc:#x}>"

        ns = mem.word_names()
        ns.update({
            "_mlh": mem.load_half, "_mlb": mem.load_byte,
            "_msh": mem.store_half, "_msb": mem.store_byte,
            "_sx": s32, "_sdiv": _sdiv, "_srem": _srem,
            "_regs": owner.cpu.regs, "_cpu": owner.cpu, "_rt": owner,
            "_cnt": owner._direct_counts,
        })
        if model is not None:
            ns.update(_cyc=model.cycles, _APP=Category.APP)
        for iclass in InstrClass:
            ns[f"_ic_{iclass.name}"] = iclass
        self._namespace(ns, members)

        sb = _SourceBuilder(filename)
        sb.add(0, "")  # def line patched in once the body names are known
        indent = 4
        sb.add(indent, _loads(order))
        if loop:
            sb.add(indent, "while True:")
            indent = 8

        last = len(members) - 1
        for i, plan in enumerate(plans):
            lines, npc_expr = bodies[i][0], bodies[i][1]
            for text, k in lines:
                sb.add(indent, text, member=i, k=k)
            sb.add(indent, f"_rt.retired += {plan.n}; rem -= {plan.n}")
            sb.add(indent, _class_commit(plan.class_counts))
            if model is not None:
                sb.add(indent, f"_cyc[_APP] += {plan.app_cycles}")
            if i == last and not loop:
                tail = self._exit(i, members[i], plan, npc_expr, spill)
            else:
                # region-internal boundary (or loop backedge): guards,
                # then fall through into the next member / the loop top
                tail = self._boundary(
                    ns, i, 0 if i == last else i + 1, members, plans,
                    keys[i], npc_expr, spill,
                )
            for text in tail:
                sb.add(indent, text)

        sb.lines[0] = _def_line(_extra_binds(ns, "\n".join(sb.lines[1:])))
        exec(compile(sb.source(), filename, "exec"), ns)
        member_meta = tuple((plan.pcs, plan.iclasses) for plan in plans)
        return Region(ns["_region"], members, filename, sb.line_table,
                      order, member_meta)

    # -- execution -----------------------------------------------------------

    def execute(self, region: Region, budget: int):
        """Run a region with ``budget`` fuel left.

        The caller has already checked that the head block fits the
        budget and — under chaos — that its plan is coherent, the gate
        of the whole-block body; every further member is guarded in the
        region.  Returns what the region returns: the successor fragment
        (SDT) or the remaining fuel (interpreter).
        """
        trace = self.owner.trace
        if trace is None:
            try:
                return region.fn(budget)
            except BaseException as exc:
                self._recover(region, exc)
                raise
        trace.emit("tier2.enter", pc=region.entry_pc)
        try:
            return region.fn(budget)
        except BaseException as exc:
            self._recover(region, exc)
            raise
        finally:
            trace.emit("tier2.exit", pc=region.entry_pc)

    def _recover(self, region: Region, exc: BaseException) -> None:
        """Replay a faulted partial member like the whole-block body.

        Finds the region frame in the traceback and maps its line to
        (member, instruction index).  An exception raised by an exit
        call, after the state was already spilled and committed, maps
        to no body line and needs nothing.
        """
        tb = exc.__traceback__
        hit = None
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == region.filename:
                hit = tb
            tb = tb.tb_next
        entry = region.line_table.get(hit.tb_lineno) if hit else None
        if entry is None:
            return
        member_idx, k = entry
        frame_locals = hit.tb_frame.f_locals
        regs = self.owner.cpu.regs
        for reg in region.used_regs:
            value = frame_locals.get(f"r{reg}")
            if value is not None:
                regs[reg] = value
        pcs, iclasses = region.member_meta[member_idx]
        self.owner._account_partial(pcs, iclasses, k)

    # -- discard -------------------------------------------------------------

    def _discard(self, doomed: list[Region], reason: str) -> None:
        trace = self.owner.trace
        for region in doomed:
            head = region.members[0]
            if head.region is region:
                head.region = None
            del self._regions[id(head)]
            self.stats[f"discard.{reason}"] += 1
            if trace is not None:
                trace.emit("tier2.discard", pc=region.entry_pc,
                           reason=reason)


# -- SDT regions --------------------------------------------------------------

def _boundary_deopt(vm: "SDTVM", frag, key: str, nxt, nxt_n: int):
    """Cold path behind a region-internal edge guard.

    The generated guard folds the link, fuel and (chaos) plan checks
    into one conditional; this closure re-discriminates the reason off
    the hot path, keeps the deopt counters and trace events exact, and
    hands control back to the tier-1 loop the same way the separate
    guards did: a broken link re-dispatches through
    ``_direct_successor``, a fuel or plan deopt returns the next
    fragment for the main loop to run with per-instruction semantics.
    ``nxt_n`` is the successor's block length *at region-compile time*,
    matching the constant folded into the guard.
    """
    t2 = vm.stats.tier2
    trace = vm.trace
    ds = vm._direct_successor
    pc = nxt.guest_pc

    def _db(npc: int, rem: int):
        if frag.links.get(key) is not nxt or not nxt.valid:
            reason = "link"
        elif rem < nxt_n:
            reason = "fuel"
        else:
            reason = "plan"
        t2[f"deopt.{reason}"] += 1
        if trace is not None:
            trace.emit("tier2.deopt", pc=pc, reason=reason)
        if reason == "link":
            return ds(frag, key, npc)
        return nxt

    return _db


class Tier2Runtime(_Regions, FragmentHolder):
    """Per-VM tier-2 state: regions grow along patched fragment links.

    A fragment holder: a flush or an invalidation discards every region
    holding a dead member."""

    name = "tier2-region"

    # the per-layer benchmark probes each harness's entry points on its
    # own class, so the shared methods are bound here by name
    try_promote = _Regions.try_promote
    execute = _Regions.execute

    def __init__(self, vm: "SDTVM"):
        super().__init__(vm, vm.stats.tier2)
        vm.cache.hold(self)

    # -- harness hooks -------------------------------------------------------

    def _pairs(self, fragment: "Fragment"):
        plan = fragment.plan
        if (not fragment.valid or fragment.demoted or plan is None
                or plan.has_syscall or not fragment.instrs
                or fragment.exit_kind is ExitKind.HALT):
            return None
        if self.owner._chaos and not plan.coherent_with(
            fragment.guest_pc, fragment.instrs
        ):
            return None
        return fragment.instrs

    @staticmethod
    def _plan(fragment: "Fragment") -> "Superblock":
        return fragment.plan

    def _successor(self, fragment: "Fragment", body, head):
        """The hot direct exit to grow along: ``(key, fragment)``."""
        kind = fragment.exit_kind
        if kind in (ExitKind.JUMP, ExitKind.FALL, ExitKind.CALL):
            key = "J"
        elif kind is ExitKind.COND:
            taken = fragment.links.get("T")
            fall = fragment.links.get("F")
            taken_ok = taken is not None and taken.valid
            fall_ok = fall is not None and fall.valid
            if taken_ok and fall_ok:
                key = "T" if taken.executions >= fall.executions else "F"
            elif taken_ok or fall_ok:
                key = "T" if taken_ok else "F"
            else:
                return None
        else:
            return None  # IB exits (fused in-region) and HALT end the region
        nxt = fragment.links.get(key)
        if nxt is None or not nxt.valid:
            return None
        return key, nxt

    def _namespace(self, ns: dict, members) -> None:
        vm = self.owner
        ret = vm.return_mech
        ns.update(
            _cb=vm.model.cond_branch, _ds=vm._direct_successor,
            _oc=vm._on_call, _dib=vm._dispatch_ib,
            _gd=vm.generic_ib.dispatch,
            _rd=vm.generic_ib.dispatch if ret is None else ret.dispatch_ret,
            _ibs=vm.stats.ib_dispatches,
        )
        for i, fragment in enumerate(members):
            ns[f"_f{i}"] = fragment
            if vm._chaos:
                ns[f"_p{i}"] = fragment.plan

    def _exit(self, i, fragment, plan, npc_expr, spill) -> list[str]:
        """Region exit: spill everything, run the tier-1 exit protocol
        and hand its successor to the main loop."""
        kind = fragment.exit_kind
        term_pc = plan.term_pc
        fall = (term_pc + 4) & U32
        # the return scheme's call hook, where it has one
        on_call = self.owner._on_call is not None
        if kind is ExitKind.COND:
            return [f"_cb({fragment.exit_site}, _npc != {fall})",
                    _guard(f"_npc != {fall}", spill,
                           f'return _ds(_f{i}, "T", _npc)'),
                    _join(spill, f'return _ds(_f{i}, "F", {fall})')]
        if kind is ExitKind.CALL:
            return [_join(spill,
                          f"_oc(_cpu, {REG_RA}, {fall})" if on_call else "",
                          f'return _ds(_f{i}, "J", {npc_expr})')]
        if kind is ExitKind.ICALL:
            return [_join(
                spill, '_ibs["icall"] += 1',
                f"_oc(_cpu, {plan.term_rd}, {fall})" if on_call else "",
                f'return _dib("icall", _f{i}, {term_pc}, _npc, _gd)')]
        if kind is ExitKind.IJUMP:
            return [_join(
                spill, '_ibs["ijump"] += 1',
                f'return _dib("ijump", _f{i}, {term_pc}, _npc, _gd)')]
        if kind is ExitKind.RET:
            return [_join(
                spill, '_ibs["ret"] += 1',
                f'return _dib("ret", _f{i}, {term_pc}, _npc, _rd)')]
        # JUMP / FALL
        return [_join(spill, f'return _ds(_f{i}, "J", {npc_expr})')]

    def _boundary(self, ns, i, j, members, plans, key, npc_expr,
                  spill) -> list[str]:
        """Edge into member ``j``: the exit's own effects, then one
        folded link/fuel(/plan) guard whose cold path is a prebuilt
        :func:`_boundary_deopt` closure."""
        fragment, nxt = members[i], members[j]
        fall = (plans[i].term_pc + 4) & U32
        nxt_n = plans[j].n
        tail = []
        kind = fragment.exit_kind
        if kind is ExitKind.COND:
            tail.append(f"_cb({fragment.exit_site}, _npc != {fall})")
            if key == "T":
                tail.append(_guard(f"_npc == {fall}", spill,
                                   f'return _ds(_f{i}, "F", {fall})'))
            else:
                tail.append(_guard(f"_npc != {fall}", spill,
                                   f'return _ds(_f{i}, "T", _npc)'))
        elif kind is ExitKind.CALL and self.owner._on_call is not None:
            # tier-1 calls on_call after the body; the return scheme
            # may rewrite the link register (fast returns), so spill
            # it, let the scheme run, and reload the rewritten value
            tail.append(_join(
                f"_regs[{REG_RA}] = r{REG_RA}",
                f"_oc(_cpu, {REG_RA}, {fall})",
                f"r{REG_RA} = _regs[{REG_RA}]"))
        ns[f"_db{i}"] = _boundary_deopt(self.owner, fragment, key, nxt,
                                        nxt_n)
        cond = (f'_f{i}.links.get("{key}") is not _f{j} '
                f"or not _f{j}.valid or rem < {nxt_n}")
        if self.owner._chaos:
            cond += (f" or _f{j}.plan is not _p{j} or not "
                     f"_p{j}.coherent_with({nxt.guest_pc}, _f{j}.instrs)")
        tail.append(_guard(cond, spill, f"return _db{i}({npc_expr}, rem)"))
        return tail

    # -- discard hooks -------------------------------------------------------

    def scrub_invalid(self, dead) -> None:
        """Selective invalidation: drop every region holding a dead
        member (before the invariant checker's walk, so a surviving
        stale region would be a CI violation)."""
        if not self._regions:
            return
        dead_ids = {id(fragment) for fragment in dead}
        self._discard([
            region for region in self._regions.values()
            if any(id(member) in dead_ids for member in region.members)
        ], "invalidate")

    def on_flush(self) -> None:
        """Whole-cache flush: every member fragment just died."""
        if not self._regions:
            return
        count = len(self._regions)
        for region in self._regions.values():
            head = region.members[0]
            if head.region is region:
                head.region = None
        self._regions.clear()
        self.stats["discard.flush"] += count
        if self.owner.trace is not None:
            self.owner.trace.emit("tier2.discard", reason="flush",
                                  count=count)

    def live_fragment_refs(self):
        """Every fragment pointer tier-2 state holds (invariant walks)."""
        for region in self._regions.values():
            yield from region.members


# -- interpreter regions ------------------------------------------------------

#: :meth:`repro.host.costs.NativeCostObserver.exit`, inlined per
#: terminator class (``JUMP`` has none).  Only a native observer builds
#: the tier-2 runtime; any other observer runs the threaded tier.
_NATIVE_EXIT_EVENTS = {
    InstrClass.BRANCH: "_cbr({pc}, _npc != {fall})",
    InstrClass.CALL: "_hc({fall})",
    InstrClass.ICALL: "_hc({fall}); _ij({pc}, _npc)",
    InstrClass.IJUMP: "_ij({pc}, _npc)",
    InstrClass.RET: "_hr(_npc)",
}


class InterpreterTier2(_Regions):
    """Tier-2 runtime for the reference interpreter.

    Regions are grown over cached superblocks along *static* direct
    successors (jumps, calls, fallthroughs; conditional branches prefer
    the edge returning to the region head, capturing loop backedges).
    Block-identity guards (``blocks.get(entry) is member``) make regions
    self-invalidating under self-modifying code: a store into watched
    code drops the member from the block cache, and
    :meth:`on_code_write` additionally discards the overlapping regions
    so the rebuilt blocks can re-promote.
    """

    TAG = "tier2i"
    # probed per harness class, like Tier2Runtime's
    try_promote = _Regions.try_promote
    execute = _Regions.execute

    def __init__(self, interp: "Interpreter"):
        super().__init__(interp, Counter())

    # -- harness hooks -------------------------------------------------------

    def _pairs(self, block: "Superblock"):
        """Re-fetch the block's instructions (superblocks keep a function,
        not the decoded :class:`Instruction` objects)."""
        if block.has_syscall or block.term_iclass is InstrClass.HALT:
            return None
        fetch = self.owner.fetch
        pairs = []
        try:
            for pc, iclass in zip(block.pcs, block.iclasses):
                instr = fetch(pc)
                if instr.iclass is not iclass:
                    return None  # decode drifted under the block (defensive)
                pairs.append((pc, instr))
        except Exception:
            return None
        return pairs

    @staticmethod
    def _plan(block: "Superblock") -> "Superblock":
        return block

    def _successor(self, block: "Superblock", body, head):
        """The static follow-edge out of ``block``: ``(None, block)``."""
        iclass = block.term_iclass
        pc = block.term_pc
        term = body[4]
        if iclass in (InstrClass.JUMP, InstrClass.CALL):
            nxt_pc = term.branch_target(pc)
        elif iclass not in CONTROL_CLASSES:
            nxt_pc = (pc + 4) & U32  # length-capped / truncated block
        elif iclass is InstrClass.BRANCH:
            taken = term.branch_target(pc)
            nxt_pc = taken if taken == head.entry_pc else (pc + 4) & U32
        else:
            return None  # IJUMP / ICALL / RET fuse the exit and end the region
        nxt = self.owner._blocks.get(nxt_pc)
        return None if nxt is None else (None, nxt)

    def _namespace(self, ns: dict, members) -> None:
        ns["_blocks"] = self.owner._blocks
        model = self.owner.model
        if model is not None:
            ns.update(_cbr=model.cond_branch, _hc=model.host_call,
                      _ij=model.indirect_jump, _hr=model.host_return)

    def _exit_event(self, plan: "Superblock") -> list[str]:
        if self.owner.model is None:
            return []
        tpl = _NATIVE_EXIT_EVENTS.get(plan.term_iclass)
        if tpl is None:
            return []
        pc = plan.term_pc
        return [tpl.format(pc=pc, fall=(pc + 4) & U32)]

    def _exit(self, i, block, plan, npc_expr, spill) -> list[str]:
        return self._exit_event(plan) + [
            _join(spill, f"_cpu.pc = {npc_expr}", "return rem")]

    def _boundary(self, ns, i, j, members, plans, key, npc_expr,
                  spill) -> list[str]:
        """Edge into member ``j``.  The next block may be off the
        follow-edge (a conditional branch went the other way), dropped by
        a code write, or too big for the remaining fuel — all exit to
        the tier-1 loop."""
        block, nxt = members[i], members[j]
        ns[f"_b{i}"] = nxt
        nxt.hits += 1  # formation itself is evidence of heat
        target = nxt.entry_pc
        tail = self._exit_event(block)
        if block.term_iclass is InstrClass.BRANCH:
            tail.append(_guard(f"_npc != {target}", spill,
                               "_cpu.pc = _npc", "return rem"))
        tail.append(_guard(
            f"_blocks.get({target}) is not _b{i} or rem < {nxt.n}", spill,
            f"_cpu.pc = {target}", "return rem"))
        return tail

    # -- discard -------------------------------------------------------------

    def on_code_write(self, addr: int, length: int) -> None:
        """Discard every region whose member bytes overlap the write."""
        if not self._regions:
            return
        end = addr + length
        self._discard([
            region for region in self._regions.values()
            if any(pcs[0] < end and pcs[0] + 4 * len(pcs) > addr
                   for pcs, _ic in region.member_meta)
        ], "invalidate")
