"""Fixed-point abstract interpretation over the recovered CFG.

This is the value-set analysis underneath :mod:`repro.analysis.targets`:
every register is tracked through a small abstract domain

- ``BOT``                — unreachable / no information yet,
- ``ConstSet``           — a set of at most :data:`K_CONST` exact 32-bit
  values (function addresses, table bases, small loop counters),
- ``Strided``            — ``{base + i*stride | 0 <= i < count}``, the
  shape of a bounds-checked jump-table index after scaling,
- ``TOP``                — any value.

and propagated to a join-over-all-paths fixed point with a worklist over
basic blocks.  Joins that would exceed the constant-set budget widen to
``TOP`` (so loop-carried redefinitions converge), and conditional-branch
edges refine ``sltiu``-guarded indices into strided intervals.

**Memory.**  Word loads are resolved against the loaded image *joined
with every store the analysis can track*: a ``sw`` whose address is an
abstract constant (or small strided set) contributes its stored abstract
value to those words; a store whose address cannot be bounded marks the
whole store model *untracked*, after which every load returns ``TOP``.
Because store effects discovered late can invalidate loads served early,
the driver reruns the fixed point until the store model is stable
(bounded by :data:`MAX_ROUNDS`; the final fallback pins the model
untracked, which is trivially sound).

**Interprocedural seeding.**  Rather than matching calls and returns,
every block that can be entered "from the outside" — the program entry,
direct call targets, return sites, and every address-taken or
table-referenced block — is seeded with the all-``TOP`` state.  Constants
therefore only flow along fallthrough/branch/jump edges, which is exactly
the soundness boundary: any indirect transfer lands on a seeded block.
Syscalls clobber only ``v0`` (see :mod:`repro.machine.syscalls`) and
never write guest memory, so they are modelled precisely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.cfg import (
    CFG,
    BasicBlock,
    TERM_BRANCH,
    TERM_CALL,
    TERM_FALL,
    TERM_ICALL,
    TERM_JUMP,
)
from repro.isa.opcodes import InstrClass, Op
from repro.isa.registers import REG_V0, REG_ZERO
from repro.machine.cpu import s32
from repro.machine.executor import _sdiv, _srem

#: Maximum size of a tracked constant set; joins past this widen to TOP.
K_CONST = 16

#: Maximum element count of a strided interval.
MAX_STRIDED = 4096

#: Maximum concrete addresses a tracked store may touch; beyond this the
#: store model degrades to untracked (every load becomes TOP).
MAX_STORE_FANOUT = 64

#: Maximum words a single load may gather from a strided address.
MAX_LOAD_FANOUT = 64

#: Store-model refinement rounds before pinning the model untracked.
MAX_ROUNDS = 4

_MASK = 0xFFFFFFFF


class _Top:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "TOP"


class _Bot:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BOT"


TOP = _Top()
BOT = _Bot()


@dataclass(frozen=True, slots=True)
class ConstSet:
    """A set of at most :data:`K_CONST` exact 32-bit values."""

    values: frozenset[int]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "{" + ", ".join(f"{v:#x}" for v in sorted(self.values)) + "}"


@dataclass(frozen=True, slots=True)
class Strided:
    """``{(base + i*stride) & 0xffffffff | 0 <= i < count}``."""

    base: int
    stride: int
    count: int

    def concrete(self) -> frozenset[int]:
        return frozenset(
            (self.base + i * self.stride) & _MASK for i in range(self.count)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.base:#x}+{self.stride}*[0,{self.count})"


#: An abstract value: TOP, BOT, a ConstSet, or a Strided interval.
Value = object


def const(*values: int) -> Value:
    """Build a constant-set value, widening to TOP past the budget."""
    masked = frozenset(v & _MASK for v in values)
    if not masked:
        return BOT
    if len(masked) > K_CONST:
        return TOP
    return ConstSet(masked)


def concrete(value: Value, limit: int = MAX_STRIDED) -> frozenset[int] | None:
    """The concrete value set, or ``None`` for TOP/BOT/too-large."""
    if isinstance(value, ConstSet):
        return value.values
    if isinstance(value, Strided) and value.count <= limit:
        return value.concrete()
    return None


def join(a: Value, b: Value) -> Value:
    """Least upper bound (with widening past the constant-set budget)."""
    if a is BOT:
        return b
    if b is BOT:
        return a
    if a is TOP or b is TOP:
        return TOP
    if a == b:
        return a
    if isinstance(a, ConstSet) and isinstance(b, ConstSet):
        return const(*(a.values | b.values))
    # mixed const/strided: absorb when one concretises inside the other
    ca = concrete(a)
    cb = concrete(b)
    if ca is not None and cb is not None:
        if ca <= cb:
            return b
        if cb <= ca:
            return a
        if len(ca | cb) <= K_CONST:
            return const(*(ca | cb))
    return TOP


# -- register states --------------------------------------------------------
#
# A state maps register number -> Value for registers *below* TOP; a
# missing key means TOP, and ``zero`` is always the constant 0.  The
# all-TOP state (the seed for externally-enterable blocks) is ``{}``.


def _get(state: dict[int, Value], reg: int) -> Value:
    if reg == REG_ZERO:
        return const(0)
    return state.get(reg, TOP)


def _set(state: dict[int, Value], reg: int, value: Value) -> None:
    if reg == REG_ZERO:
        return
    if value is TOP:
        state.pop(reg, None)
    else:
        state[reg] = value


def join_states(
    a: dict[int, Value] | None, b: dict[int, Value]
) -> tuple[dict[int, Value], bool]:
    """Join ``b`` into ``a``; returns (joined, changed)."""
    if a is None:
        return dict(b), True
    changed = False
    for reg in list(a):
        joined = join(a[reg], b.get(reg, TOP))
        if joined is TOP:
            del a[reg]
            changed = True
        elif joined != a[reg]:
            a[reg] = joined
            changed = True
    return a, changed


# -- the store model --------------------------------------------------------


class StoreModel:
    """Join of every tracked store effect, plus the untracked flag."""

    __slots__ = ("tracked", "untracked")

    def __init__(self) -> None:
        #: word address -> join of every value stored there
        self.tracked: dict[int, Value] = {}
        #: a store with an unbounded address occurred; loads are TOP
        self.untracked = False

    def record(self, addr: Value, stored: Value) -> None:
        addrs = concrete(addr, limit=MAX_STORE_FANOUT)
        if addrs is None or len(addrs) > MAX_STORE_FANOUT:
            self.untracked = True
            return
        for a in addrs:
            word = a & ~3  # word-granular: sub-word stores smash the word
            self.tracked[word] = join(self.tracked.get(word, BOT), stored)

    def snapshot(self) -> tuple:
        return (
            self.untracked,
            tuple(sorted((a, v) for a, v in self.tracked.items())),
        )

    def stores_to(self, addrs: frozenset[int]) -> bool:
        """True if any tracked store may write one of ``addrs``."""
        return any((a & ~3) in self.tracked for a in addrs)


def _read_image_word(program, addr: int) -> int | None:
    for section in (program.data, program.text):
        if section.base <= addr and addr + 4 <= section.end:
            offset = addr - section.base
            return int.from_bytes(section.data[offset : offset + 4], "little")
    return None


def load_word(program, store: StoreModel, addr: Value) -> Value:
    """Abstract value of a word load at abstract address ``addr``."""
    if store.untracked:
        return TOP
    addrs = concrete(addr, limit=MAX_LOAD_FANOUT)
    if addrs is None or len(addrs) > MAX_LOAD_FANOUT:
        return TOP
    result: Value = BOT
    for a in addrs:
        word = _read_image_word(program, a)
        if word is None:
            return TOP  # load outside the image: value unknown
        value: Value = const(word)
        stored = store.tracked.get(a & ~3)
        if stored is not None:
            value = join(value, stored)
        result = join(result, value)
        if result is TOP:
            return TOP
    return result


# -- instruction transfer ---------------------------------------------------


def _binop(op: Op, a: int, b: int) -> int | None:
    if op is Op.ADD:
        return (a + b) & _MASK
    if op is Op.SUB:
        return (a - b) & _MASK
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.NOR:
        return ~(a | b) & _MASK
    if op is Op.SLT:
        return 1 if s32(a) < s32(b) else 0
    if op is Op.SLTU:
        return 1 if a < b else 0
    if op is Op.MUL:
        return (a * b) & _MASK
    if op is Op.DIV:
        return None if b == 0 else _sdiv(s32(a), s32(b)) & _MASK
    if op is Op.REM:
        return None if b == 0 else _srem(s32(a), s32(b)) & _MASK
    if op is Op.SLLV:
        return (a << (b & 31)) & _MASK
    if op is Op.SRLV:
        return (a >> (b & 31)) & _MASK
    if op is Op.SRAV:
        return (s32(a) >> (b & 31)) & _MASK
    return None


def _cross(op: Op, a: Value, b: Value) -> Value:
    """Apply a binary op over two abstract values (cross product)."""
    # strided special cases first: index scaling and base displacement
    if op is Op.ADD:
        for s, c in ((a, b), (b, a)):
            if isinstance(s, Strided):
                cc = concrete(c, limit=1)
                if cc is not None and len(cc) == 1:
                    (delta,) = cc
                    return Strided(
                        (s.base + delta) & _MASK, s.stride, s.count
                    )
    ca = concrete(a, limit=K_CONST)
    cb = concrete(b, limit=K_CONST)
    if ca is None or cb is None or len(ca) * len(cb) > 4 * K_CONST:
        return TOP
    out: set[int] = set()
    for x in ca:
        for y in cb:
            r = _binop(op, x, y)
            if r is None:
                return TOP
            out.add(r)
    return const(*out)


@dataclass(slots=True)
class BlockTransfer:
    """Result of abstractly executing one basic block."""

    #: out-state per successor address (branch edges may be refined)
    out: dict[int, dict[int, Value]] = field(default_factory=dict)
    #: abstract target value when the terminator is an indirect transfer
    site_value: Value = TOP
    #: memory words this block's loads consulted (certificate support)
    loads: frozenset[int] = frozenset()


def transfer(
    cfg: CFG,
    block: BasicBlock,
    in_state: dict[int, Value],
    store: StoreModel,
) -> BlockTransfer:
    """Abstractly execute ``block`` from ``in_state``.

    Store effects are recorded into ``store`` as a side effect; branch
    successors get ``sltiu``-guard refinements applied per edge.
    """
    program = cfg.program
    state = dict(in_state)
    #: guard register -> (index register, unsigned bound) from sltiu
    guards: dict[int, tuple[int, int]] = {}
    loads: set[int] = set()
    result = BlockTransfer()

    def kill_guards(reg: int) -> None:
        for g, (idx, _n) in list(guards.items()):
            if g == reg or idx == reg:
                del guards[g]

    last = block.last
    for pc, instr in block.instrs:
        op = instr.op
        iclass = instr.iclass
        if instr.is_control:
            break  # terminator handled below
        dest = instr.writes_reg
        if op is Op.LUI:
            value: Value = const((instr.imm & 0xFFFF) << 16)
        elif op in (Op.ADDI, Op.ORI, Op.ANDI, Op.XORI, Op.SLTI, Op.SLTIU):
            src = _get(state, instr.rs)
            imm = instr.imm
            if op is Op.ADDI and isinstance(src, Strided):
                value = Strided((src.base + imm) & _MASK, src.stride,
                                src.count)
            else:
                cs = concrete(src, limit=K_CONST)
                if cs is None:
                    value = (
                        const(0, 1)
                        if op in (Op.SLTI, Op.SLTIU)
                        else TOP
                    )
                else:
                    out: set[int] = set()
                    for v in cs:
                        if op is Op.ADDI:
                            out.add((v + imm) & _MASK)
                        elif op is Op.ORI:
                            out.add(v | (imm & 0xFFFF))
                        elif op is Op.ANDI:
                            out.add(v & (imm & 0xFFFF))
                        elif op is Op.XORI:
                            out.add(v ^ (imm & 0xFFFF))
                        elif op is Op.SLTI:
                            out.add(1 if s32(v) < imm else 0)
                        else:  # SLTIU: sign-extended imm, unsigned compare
                            out.add(1 if v < (imm & _MASK) else 0)
                    value = const(*out)
            if op is Op.SLTIU and dest is not None:
                kill_guards(dest)
                guards[dest] = (instr.rs, instr.imm & _MASK)
        elif op in (Op.SLL, Op.SRL, Op.SRA):
            src = _get(state, instr.rt)
            sh = instr.shamt & 31
            if op is Op.SLL and isinstance(src, Strided):
                value = Strided((src.base << sh) & _MASK,
                                (src.stride << sh) & _MASK, src.count)
            else:
                cs = concrete(src, limit=K_CONST)
                if cs is None:
                    value = TOP
                elif op is Op.SLL:
                    value = const(*((v << sh) & _MASK for v in cs))
                elif op is Op.SRL:
                    value = const(*(v >> sh for v in cs))
                else:
                    value = const(*((s32(v) >> sh) & _MASK for v in cs))
        elif iclass in (InstrClass.ALU, InstrClass.SHIFT, InstrClass.MUL,
                        InstrClass.DIV):
            value = _cross(op, _get(state, instr.rs), _get(state, instr.rt))
        elif iclass is InstrClass.LOAD:
            base = _get(state, instr.rs)
            addr = _cross(Op.ADD, base, const(instr.imm))
            if op is Op.LW:
                value = load_word(program, store, addr)
                touched = concrete(addr, limit=MAX_LOAD_FANOUT)
                if touched is not None:
                    loads.update(touched)
            else:
                value = TOP  # sub-word loads never carry code pointers
        elif iclass is InstrClass.STORE:
            base = _get(state, instr.rs)
            addr = _cross(Op.ADD, base, const(instr.imm))
            store.record(addr, _get(state, instr.rt)
                         if op is Op.SW else TOP)
            continue
        elif iclass is InstrClass.SYSCALL:
            # syscalls write v0 only (read-int, sbrk) and never touch
            # guest memory — see repro.machine.syscalls
            kill_guards(REG_V0)
            _set(state, REG_V0, TOP)
            continue
        else:
            value = TOP
        if dest is not None:
            kill_guards(dest)
            _set(state, dest, value)

    # -- terminator ---------------------------------------------------------
    term = block.terminator
    if last is not None and block.instrs and block.instrs[-1][1].is_control:
        term_pc, term_instr = block.instrs[-1]
    else:
        term_pc, term_instr = (0, None)

    if term_instr is not None and term_instr.is_indirect:
        if term_instr.op is Op.RET:
            result.site_value = TOP  # ra tracked by return-site analysis
        else:
            result.site_value = _get(state, term_instr.rs)

    def out_for(succ: int, refined: dict[int, Value] | None = None) -> None:
        result.out[succ] = refined if refined is not None else dict(state)

    if term == TERM_BRANCH and term_instr is not None:
        target = term_instr.branch_target(term_pc)
        fall = block.end
        taken_state = dict(state)
        fall_state = dict(state)
        # sltiu-guard refinement: `sltiu g, i, N` + beq/bne g, zero
        if term_instr.op in (Op.BEQ, Op.BNE):
            for g_reg, other in ((term_instr.rs, term_instr.rt),
                                 (term_instr.rt, term_instr.rs)):
                if other == REG_ZERO and g_reg in guards:
                    idx, bound = guards[g_reg]
                    if 0 < bound <= MAX_STRIDED:
                        inside = Strided(0, 1, bound)
                        # beq g,zero: fallthrough has g!=0 (index < N);
                        # bne g,zero: taken edge has g!=0
                        edge = (fall_state if term_instr.op is Op.BEQ
                                else taken_state)
                        old = _get(edge, idx)
                        refined = _refine(old, inside)
                        _set(edge, idx, refined)
                    break
        if cfg.in_text(target):
            out_for(target, taken_state)
        if cfg.in_text(fall):
            if target == fall:
                result.out[fall], _ = join_states(
                    result.out.get(fall), fall_state
                )
            else:
                out_for(fall, fall_state)
    elif term == TERM_JUMP and term_instr is not None:
        target = term_instr.branch_target(term_pc)
        if cfg.in_text(target):
            out_for(target)
    elif term == TERM_FALL:
        if cfg.in_text(block.end):
            out_for(block.end)
    elif term in (TERM_CALL, TERM_ICALL):
        # the post-call state is seeded all-TOP by the driver (the callee
        # may clobber anything); no edge state to propagate
        pass

    result.loads = frozenset(loads)
    return result


def _refine(old: Value, inside: Strided) -> Value:
    """Meet ``old`` with a guard-derived strided interval (best effort)."""
    if old is TOP or old is BOT:
        return inside
    if isinstance(old, ConstSet):
        kept = frozenset(v for v in old.values if v < inside.count)
        return const(*kept) if kept else old
    if isinstance(old, Strided):
        return old if old.count <= inside.count else inside
    return old


# -- the fixed-point driver -------------------------------------------------


@dataclass(slots=True)
class DataflowResult:
    """Converged whole-program dataflow facts."""

    #: IB site pc -> abstract value of the jumped-through register
    site_values: dict[int, Value]
    #: IB site pc -> memory words its block's loads consulted
    site_loads: dict[int, frozenset[int]]
    #: block start -> converged in-state (reached blocks only)
    block_in: dict[int, dict[int, Value]]
    store: StoreModel
    #: block starts seeded with the all-TOP state
    seeds: frozenset[int]
    rounds: int
    iterations: int

    def reached(self, pc: int) -> bool:
        return pc in self.site_values


def default_seeds(cfg: CFG, extra: set[int] | None = None) -> set[int]:
    """Blocks enterable from outside straight-line flow (all-TOP seeds)."""
    seeds: set[int] = set()

    def add(addr: int) -> None:
        start = cfg.block_start_of.get(addr)
        if start is not None:
            seeds.add(start)

    add(cfg.program.entry)
    add(cfg.text_lo)
    for ref in cfg.const_code_refs:
        add(ref)
    for value in cfg.data_code_words.values():
        add(value)
    for block in cfg.blocks.values():
        if block.terminator in (TERM_CALL, TERM_ICALL):
            add(block.end)  # return site
        if block.call_target is not None:
            add(block.call_target)
    for addr in extra or ():
        add(addr)
    return seeds


def analyze_dataflow(
    cfg: CFG, extra_seeds: set[int] | None = None
) -> DataflowResult:
    """Run the store-model-refining fixed point to convergence."""
    seeds = default_seeds(cfg, extra_seeds)
    store = StoreModel()
    rounds = 0
    iterations = 0
    site_values: dict[int, Value] = {}
    site_loads: dict[int, frozenset[int]] = {}
    block_in: dict[int, dict[int, Value]] = {}

    for rounds in range(1, MAX_ROUNDS + 1):
        before = store.snapshot()
        if rounds == MAX_ROUNDS:
            # final fallback: a model that refuses to converge is pinned
            # untracked, which is trivially sound (every load is TOP)
            store.untracked = True
        site_values, site_loads, block_in, iters = _fixpoint(
            cfg, seeds, store
        )
        iterations += iters
        if store.snapshot() == before:
            break

    return DataflowResult(
        site_values=site_values,
        site_loads=site_loads,
        block_in=block_in,
        store=store,
        seeds=frozenset(seeds),
        rounds=rounds,
        iterations=iterations,
    )


def _fixpoint(
    cfg: CFG, seeds: set[int], store: StoreModel
) -> tuple[dict[int, Value], dict[int, frozenset[int]],
           dict[int, dict[int, Value]], int]:
    in_states: dict[int, dict[int, Value] | None] = {}
    work: deque[int] = deque()
    for seed in sorted(seeds):
        if seed in cfg.blocks:
            in_states[seed] = {}
            work.append(seed)
    queued = set(work)
    iterations = 0

    while work:
        start = work.popleft()
        queued.discard(start)
        state = in_states.get(start)
        if state is None:
            continue
        iterations += 1
        block = cfg.blocks[start]
        out = transfer(cfg, block, state, store)
        for succ, succ_state in out.out.items():
            # direct-edge targets are always leaders by CFG construction
            succ_start = cfg.block_start_of.get(succ)
            if succ_start is None or succ_start != succ:
                continue
            if succ_start in seeds:
                continue  # seeds stay pinned at all-TOP
            joined, changed = join_states(
                in_states.get(succ_start), succ_state
            )
            if changed:
                in_states[succ_start] = joined
                if succ_start not in queued:
                    work.append(succ_start)
                    queued.add(succ_start)

    # harvest converged per-site facts
    site_values: dict[int, Value] = {}
    site_loads: dict[int, frozenset[int]] = {}
    block_in: dict[int, dict[int, Value]] = {}
    for start, state in in_states.items():
        if state is None:
            continue
        block_in[start] = state
        block = cfg.blocks[start]
        last = block.last
        if last is None or not last[1].is_indirect:
            continue
        out = transfer(cfg, block, state, store)
        site_values[last[0]] = out.site_value
        site_loads[last[0]] = out.loads
    return site_values, site_loads, block_in, iterations


__all__ = [
    "TOP",
    "BOT",
    "ConstSet",
    "Strided",
    "StoreModel",
    "DataflowResult",
    "K_CONST",
    "MAX_STRIDED",
    "const",
    "concrete",
    "join",
    "join_states",
    "load_word",
    "transfer",
    "default_seeds",
    "analyze_dataflow",
]
